"""Sim-time profiler: where does dispatch wall-time actually go?

The dispatcher calls back into every subsystem — physics steps, MAC
state machines, control loops, fault scripts — through one heap, so
the event *name* on each heap entry is enough to attribute its cost to
an owning component.  :func:`classify_component` maps the naming
conventions used across the tree onto a small fixed vocabulary
(engine, physics, sensing, net, control, workload) and caches the
answer per distinct name, so steady-state classification is one dict
hit.

Cost containment is structural, not statistical hand-waving:

* ``Simulator.run_until`` tests one local per event for an attached
  profiler — with profiling off, the callback is called directly;
* enabled, it samples one event in ``stride`` (default 16) and the
  skipped majority pay one int decrement and never touch the
  profiler.  Event counts in the report are therefore stride-scaled
  estimates; the simulator's own ``events_dispatched`` remains the
  exact total, and BENCH_3.json asserts the <3% overhead budget this
  design buys.

Timing uses ``perf_counter`` only — never the RNG, never the event
queue — so a profiled run's discrete hashes are bit-identical to a
blind run's.
"""

from __future__ import annotations

from typing import Dict, List, Optional

#: The attribution vocabulary, in display order.  ``physics`` is the
#: scalar reference integrator, ``physics-vector`` the SoA fused kernel
#: (repro.physics.vector) — kept separate so a speed regression in the
#: vector core is visible in telemetry rather than averaged away.
COMPONENTS = ("engine", "physics", "physics-vector", "sensing", "net",
              "control", "workload")


def classify_component(name: str) -> str:
    """Owning component of a dispatch-event name.

    Matches the naming conventions in the tree: ``physics`` /
    ``recorder`` from the engine's periodic tasks, ``cca/...`` /
    ``mac-tx/...`` / ``mac-next/...`` / ``rx-complete`` / ``jam...``
    from the network stack, ``bt-...`` device tasks from sensing,
    ``control-...`` / ``direct-control`` / ``.../loop`` from the
    control boards, and ``fault-...`` / door / window / occupancy
    events from the workload scripts.  Anything else is the engine's.
    """
    if name == "physics":
        return "physics"
    if name == "physics-vector":
        return "physics-vector"
    if (name.startswith("cca/") or name.startswith("mac-tx/")
            or name.startswith("mac-next/") or name == "rx-complete"
            or name.startswith("jam")):
        return "net"
    if name.startswith("bt-"):
        return "sensing"
    if (name.startswith("control-") or name == "direct-control"
            or name.endswith("/loop")):
        return "control"
    if (name.startswith("fault-") or name.startswith("door")
            or name.startswith("window") or name.startswith("occupancy")):
        return "workload"
    return "engine"


class SimTimeProfiler:
    """Per-event-name wall-time attribution, stride-sampled.

    ``record(name, wall_s)`` is called by ``Simulator.run_until`` for
    one event in ``stride``; skipped events touch the profiler not at
    all.  Per-name event counts are estimated as ``timed × stride``
    — accurate to one stride for any steadily-firing name, and the
    only scheme whose disabled-majority cost is literally zero.
    """

    __slots__ = ("stride", "_skip", "_names", "_component_cache")

    def __init__(self, stride: int = 16) -> None:
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.stride = stride
        # Countdown to the next timed event; persisted across run_until
        # calls so sampling stays uniform over the whole run.
        self._skip = 0
        # name -> [timed_count, wall_s]
        self._names: Dict[str, List[float]] = {}
        self._component_cache: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def record(self, name: str, wall_s: float) -> None:
        """One timed dispatch of ``name`` that took ``wall_s``."""
        cell = self._names.get(name)
        if cell is None:
            cell = self._names[name] = [0, 0.0]
        cell[0] += 1
        cell[1] += wall_s

    def component_of(self, name: str) -> str:
        component = self._component_cache.get(name)
        if component is None:
            component = self._component_cache[name] = classify_component(name)
        return component

    # ------------------------------------------------------------------
    @property
    def events_timed(self) -> int:
        return int(sum(cell[0] for cell in self._names.values()))

    @property
    def events_seen(self) -> int:
        """Stride-scaled *estimate* of events dispatched while profiled."""
        return self.events_timed * self.stride

    def report(self, top: int = 10) -> Dict[str, object]:
        """Attribution summary: per-component counts and estimated
        wall-time, plus the ``top`` costliest event names.

        Both counts and wall-times are stride-scaled estimates (each
        sample stands for ``stride`` dispatches).  Names rare enough to
        dodge every sample are absent — the price of a skip path that
        costs nothing.
        """
        components: Dict[str, Dict[str, float]] = {
            c: {"events": 0, "timed": 0, "est_wall_s": 0.0}
            for c in COMPONENTS
        }
        stride = self.stride
        per_name: List[Dict[str, object]] = []
        for name, (timed, wall_s) in sorted(self._names.items()):
            est_events = int(timed) * stride
            est: Optional[float] = wall_s * stride
            comp = components[self.component_of(name)]
            comp["events"] += est_events
            comp["timed"] += timed
            comp["est_wall_s"] += est
            per_name.append({
                "name": name,
                "component": self.component_of(name),
                "events": est_events,
                "timed": int(timed),
                "est_wall_s": est,
            })
        per_name.sort(key=lambda row: (-(row["est_wall_s"] or 0.0),
                                       row["name"]))
        return {
            "stride": stride,
            "events_seen": self.events_seen,
            "events_timed": self.events_timed,
            "components": {
                c: {
                    "events": int(v["events"]),
                    "timed": int(v["timed"]),
                    "est_wall_s": v["est_wall_s"],
                }
                for c, v in components.items() if v["events"]
            },
            "top_events": per_name[:top],
        }
