"""Observability: structured events, end-of-run snapshots, profiling.

The paper's evaluation is entirely observational — TelosB sniffer
logs, flash-logged time series, send-period traces.  This package is
the corresponding monitoring plane for the reproduction: a typed
sim-timestamped event log (:mod:`repro.obs.events` /
:mod:`repro.obs.schema`), a sim-time profiler hooked into the
dispatcher (:mod:`repro.obs.profiler`), causal traces
(:mod:`repro.obs.trace`), self-describing run manifests
(:mod:`repro.obs.manifest`), and the layer behind ``repro status``:
:mod:`repro.obs.collect` reads each run's own passive counters into
its ``metrics.json`` and ``health.json`` entries when the run ends,
and :mod:`repro.obs.status` writes, loads and renders them.

The cardinal rule of every piece: **observation must not perturb the
run**.  Nothing here draws from an RNG stream, schedules a simulator
event, or changes dispatch order; with observability enabled the
discrete log hash and trajectory fingerprints are bit-identical to a
blind run (asserted by tests/test_obs_equivalence.py).  Disabled, the
whole layer collapses to shared no-op singletons — zero allocation,
one attribute check on the paths that matter.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.events import EventLog
from repro.obs.profiler import SimTimeProfiler
from repro.obs.trace import NULL_TRACE, TRACE_SAMPLE_EVERY, TraceCollector


class Observability:
    """One run's observability context: events + profiler + causal
    traces.

    ``enabled`` gates the inline instrumentation sites (fault hooks,
    tier transitions, conservative-mode latch, collision bursts);
    ``profiler`` is None unless dispatch profiling was requested, so
    the simulator's hot loop stays untouched when it is off; ``trace``
    is the shared disabled collector unless causal tracing was
    requested, so untraced packets carry no context and the network
    hot paths reduce to one attribute test.
    """

    __slots__ = ("enabled", "events", "profiler", "trace")

    def __init__(self, enabled: bool, events: EventLog,
                 profiler: Optional[SimTimeProfiler] = None,
                 trace: Optional[TraceCollector] = None) -> None:
        self.enabled = enabled
        self.events = events
        self.profiler = profiler
        self.trace = NULL_TRACE if trace is None else trace

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        prof = ", profiled" if self.profiler is not None else ""
        traced = ", traced" if self.trace.enabled else ""
        return f"Observability({state}{prof}{traced})"


def create_observability(profile: bool = True,
                         profile_stride: int = 16,
                         trace: bool = False,
                         trace_sample: Optional[int] = None
                         ) -> Observability:
    """A fresh enabled context (one per run; contexts are not shared).

    ``trace=True`` attaches a causal-trace collector at the shipped
    head-sampling stride (:data:`TRACE_SAMPLE_EVERY`); pass
    ``trace_sample`` to override it — 1 traces every sensing epoch.
    """
    profiler = SimTimeProfiler(stride=profile_stride) if profile else None
    collector = None
    if trace:
        collector = TraceCollector(
            enabled=True,
            sample_every=(TRACE_SAMPLE_EVERY if trace_sample is None
                          else trace_sample))
    return Observability(True, EventLog(enabled=True), profiler, collector)


#: Shared disabled context — the default of every ``Simulator``.  All
#: of its methods are no-ops, so instrumented code never needs a None
#: check, and because it is a module-level singleton the disabled path
#: allocates nothing per run.
NULL_OBS = Observability(False, EventLog(enabled=False), None)

__all__ = [
    "Observability",
    "NULL_OBS",
    "NULL_TRACE",
    "create_observability",
    "EventLog",
    "SimTimeProfiler",
    "TraceCollector",
]
