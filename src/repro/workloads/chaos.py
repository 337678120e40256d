"""Continuous chaos: seeded hazard synthesis + endurance campaigns.

Where :mod:`repro.workloads.campaign` replays *fixed* fault matrices
one cell at a time, this module runs the system the way years of
deployment would: a seeded hazard process keeps injecting faults over
a multi-hour horizon and a rolling-window SLO scorer
(:mod:`repro.analysis.slo`) judges how the control architecture held
up.

The hazard process is synthesized *up front* into an ordinary
:class:`~repro.workloads.faults.FaultScript` from one
``numpy.random.default_rng(seed)`` stream with a fixed draw order, so
a chaos run is exactly as byte-reproducible as any other scenario run:

1. **Battery wear-out** — one Weibull depletion instant per node in
   roster order (per-device-class scale/shape, accelerated by
   ``rate_scale``); draws landing inside the horizon become
   :class:`~repro.workloads.faults.NodeCrash` faults, capped at
   ``max_crash_fraction`` of the fleet (earliest first).
2. **Sensor faults** — per node (roster order; stuck then drift), a
   Weibull renewal process at the class's hourly rate, truncated at
   the node's crash instant.  Severities and durations come from the
   same stream.
3. **Channel jams** — a Poisson process whose rate is *coupled* to the
   crash schedule: every dead node multiplies the base jam rate by
   ``(1 + jam_pressure)`` (thinning against the maximal rate keeps the
   sampling exact).  Fault durations are likewise stretched by
   ``1 + staleness_pressure * crashed_fraction(onset)`` — a degraded
   fleet repairs slower — so battery depletion and network degradation
   interact instead of occurring in isolation.

The synthesized script is roster-validated against the scenario's
topology exactly like a registry-registered one.  Per seed, the *same*
schedule is applied to every controller variant (BT-ADPT vs fixed), so
the scored comparison between controllers is apples to apples.

Like campaign/sweep, the runner is split into pure halves around
:mod:`repro.runtime`: :func:`chaos_specs` produces picklable specs and
:func:`merge_chaos` folds in-spec-order payloads into scored
:class:`SloReport` rows, so the JSONL report is byte-identical for any
worker count.
"""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.slo import (
    SloBudgets,
    SloReport,
    payload_events,
    score_run,
)
from repro.scenarios.topology import SystemTopology
from repro.workloads.faults import (
    ChannelJam,
    Fault,
    FaultScript,
    NodeCrash,
    SensorDrift,
    SensorStuck,
)

#: The four sensor-node classes of every topology roster
#: (``bt-<place>-<kind>-<zone>``).
DEVICE_CLASSES = ("room-temp", "room-hum", "ceil-temp", "ceil-hum")

#: Shortest synthesized fault duration — a zero-length repair window
#: would violate the fault dataclasses' clearance ordering.
MIN_DURATION_S = 30.0


def device_class(device_id: str) -> str:
    """``bt-room-temp-3`` -> ``room-temp``."""
    parts = device_id.split("-")
    if len(parts) < 4 or parts[0] != "bt":
        raise ValueError(f"not a sensor-node id: {device_id!r}")
    return "-".join(parts[1:3])


@dataclass(frozen=True)
class ClassHazard:
    """Hazard rates for one device class.

    ``stuck_per_hour`` / ``drift_per_hour`` are per-node renewal rates;
    ``interarrival_shape`` is the Weibull shape of the renewals (1 =
    memoryless/Poisson).  ``battery_scale_h`` / ``battery_shape`` give
    the Weibull wear-out distribution of the node's depletion instant
    (shape > 1: old cells die faster) — deliberately accelerated
    versus the paper's multi-year projections so a two-day endurance
    run exercises the depletion coupling.
    """

    stuck_per_hour: float = 0.004
    drift_per_hour: float = 0.004
    interarrival_shape: float = 1.0
    battery_scale_h: float = 96.0
    battery_shape: float = 3.0

    def __post_init__(self) -> None:
        if self.stuck_per_hour < 0 or self.drift_per_hour < 0:
            raise ValueError("hazard rates must be non-negative")
        if self.interarrival_shape <= 0 or self.battery_shape <= 0:
            raise ValueError("Weibull shapes must be positive")
        if self.battery_scale_h <= 0:
            raise ValueError("battery scale must be positive")


def default_class_hazards() -> Tuple[Tuple[str, ClassHazard], ...]:
    """One default :class:`ClassHazard` per device class; humidity
    sensors drift a little more often (condensing environments age
    capacitive elements faster)."""
    hum = ClassHazard(drift_per_hour=0.006)
    return (("room-temp", ClassHazard()), ("room-hum", hum),
            ("ceil-temp", ClassHazard()), ("ceil-hum", hum))


@dataclass(frozen=True)
class HazardConfig:
    """The whole hazard process: per-class rates plus the couplings."""

    classes: Tuple[Tuple[str, ClassHazard], ...] = field(
        default_factory=default_class_hazards)
    jam_per_hour: float = 0.02
    jam_duration_s: float = 300.0
    jam_duty_range: Tuple[float, float] = (0.3, 0.9)
    mean_duration_s: float = 900.0
    duration_shape: float = 1.0
    stuck_range: Tuple[float, float] = (12.0, 38.0)
    drift_range: Tuple[float, float] = (2.0, 12.0)
    # Couplings: each crashed node multiplies the jam rate by
    # (1 + jam_pressure); fault durations at onset t stretch by
    # (1 + staleness_pressure * crashed_fraction(t)).
    jam_pressure: float = 0.75
    staleness_pressure: float = 2.0
    max_crash_fraction: float = 0.5
    # Global accelerator: multiplies every rate and divides the battery
    # scale, so a short smoke run still sees faults.
    rate_scale: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "jam_duty_range",
                           tuple(self.jam_duty_range))
        object.__setattr__(self, "stuck_range", tuple(self.stuck_range))
        object.__setattr__(self, "drift_range", tuple(self.drift_range))
        known = set(DEVICE_CLASSES)
        for name, hazard in self.classes:
            if name not in known:
                raise ValueError(f"unknown device class {name!r}")
            if not isinstance(hazard, ClassHazard):
                raise ValueError(f"class {name!r} needs a ClassHazard")
        if self.jam_per_hour < 0:
            raise ValueError("jam rate must be non-negative")
        if self.jam_duration_s <= 0 or self.mean_duration_s <= 0:
            raise ValueError("mean durations must be positive")
        if self.duration_shape <= 0:
            raise ValueError("duration shape must be positive")
        lo, hi = self.jam_duty_range
        if not (0.0 < lo <= hi <= 1.0):
            raise ValueError("jam duty range must lie in (0, 1]")
        for label, (lo, hi) in (("stuck", self.stuck_range),
                                ("drift", self.drift_range)):
            if lo > hi:
                raise ValueError(f"{label} range must be ordered")
        if self.jam_pressure < 0 or self.staleness_pressure < 0:
            raise ValueError("pressures must be non-negative")
        if not 0.0 <= self.max_crash_fraction <= 1.0:
            raise ValueError("max crash fraction must be in [0, 1]")
        if self.rate_scale <= 0:
            raise ValueError("rate scale must be positive")

    def hazard_for(self, cls: str) -> ClassHazard:
        for name, hazard in self.classes:
            if name == cls:
                return hazard
        return ClassHazard()

    def scaled(self, factor: float) -> "HazardConfig":
        return dataclasses.replace(self,
                                   rate_scale=self.rate_scale * factor)

    def as_dict(self) -> Dict[str, object]:
        data = {name: getattr(self, name)
                for name in ("jam_per_hour", "jam_duration_s",
                             "mean_duration_s", "duration_shape",
                             "jam_pressure", "staleness_pressure",
                             "max_crash_fraction", "rate_scale")}
        data["jam_duty_range"] = list(self.jam_duty_range)
        data["stuck_range"] = list(self.stuck_range)
        data["drift_range"] = list(self.drift_range)
        data["classes"] = {name: dataclasses.asdict(hazard)
                           for name, hazard in self.classes}
        return data


def quick_hazard() -> HazardConfig:
    """Rates tuned so a ~20-minute quick cell sees several faults of
    every class (behind ``golden-chaos-quick`` and the CI smoke)."""
    cls = ClassHazard(stuck_per_hour=0.45, drift_per_hour=0.45,
                      battery_scale_h=0.75, battery_shape=4.0)
    return HazardConfig(
        classes=tuple((name, cls) for name in DEVICE_CLASSES),
        jam_per_hour=9.0, jam_duration_s=120.0,
        mean_duration_s=240.0)


# ----------------------------------------------------------------------
# Seeded synthesis
# ----------------------------------------------------------------------
def synthesize_faults(topology: SystemTopology, hazard: HazardConfig,
                      seed: int, horizon_s: float,
                      has_radio: bool = True) -> FaultScript:
    """One reproducible fault schedule for ``topology`` and ``seed``.

    All randomness comes from a single ``default_rng(seed)`` stream in
    a fixed draw order (battery per node in roster order, then per-node
    stuck/drift renewals, then the jam process), so the same arguments
    always produce an identical script — the determinism the property
    suite pins.  Onset times are run-relative, like every registered
    fault program.
    """
    if horizon_s <= 0:
        raise ValueError("horizon must be positive")
    rng = np.random.default_rng(seed)
    roster = topology.sensor_node_ids()

    # 1. Battery wear-out -> crash schedule (capped, earliest first).
    candidates: List[Tuple[float, str]] = []
    for device in roster:
        cls = hazard.hazard_for(device_class(device))
        scale_s = cls.battery_scale_h * 3600.0 / hazard.rate_scale
        t = scale_s * float(rng.weibull(cls.battery_shape))
        if t < horizon_s:
            candidates.append((t, device))
    candidates.sort()
    cap = int(hazard.max_crash_fraction * len(roster))
    crashes = candidates[:cap]
    crash_times = [t for t, _ in crashes]
    crash_of = {device: t for t, device in crashes}
    fleet = max(1, len(roster))

    def crashed_fraction(t: float) -> float:
        return bisect_right(crash_times, t) / fleet

    def duration(mean_s: float, onset: float) -> float:
        base = mean_s * float(rng.weibull(hazard.duration_shape))
        stretched = base * (1.0 + hazard.staleness_pressure
                            * crashed_fraction(onset))
        return max(MIN_DURATION_S, stretched)

    faults: List[Fault] = [NodeCrash(t, device) for t, device in crashes]

    # 2. Per-node sensor-fault renewal processes.
    for device in roster:
        cls = hazard.hazard_for(device_class(device))
        end_t = min(horizon_s, crash_of.get(device, horizon_s))
        for mode, per_hour in (("stuck", cls.stuck_per_hour),
                               ("drift", cls.drift_per_hour)):
            rate = per_hour * hazard.rate_scale
            if rate <= 0:
                continue
            t = 0.0
            while True:
                gap_h = float(rng.weibull(cls.interarrival_shape)) / rate
                t += gap_h * 3600.0
                if t >= end_t:
                    break
                until = t + duration(hazard.mean_duration_s, t)
                if mode == "stuck":
                    value = float(rng.uniform(*hazard.stuck_range))
                    faults.append(SensorStuck(t, device, value,
                                              until=until))
                else:
                    offset = float(rng.uniform(*hazard.drift_range))
                    if rng.random() < 0.5:
                        offset = -offset
                    faults.append(SensorDrift(t, device, offset,
                                              until=until))

    # 3. Jam process, rate-coupled to the crash schedule (thinning
    # against the maximal rate keeps the non-homogeneous Poisson
    # sampling exact).
    base_rate = hazard.jam_per_hour * hazard.rate_scale
    if has_radio and base_rate > 0:
        rate_max = base_rate * (1.0 + hazard.jam_pressure * len(crashes))
        t = 0.0
        while True:
            t += float(rng.exponential(3600.0 / rate_max))
            if t >= horizon_s:
                break
            rate_t = base_rate * (1.0 + hazard.jam_pressure
                                  * bisect_right(crash_times, t))
            if float(rng.random()) > rate_t / rate_max:
                continue
            jam_s = duration(hazard.jam_duration_s, t)
            duty = float(rng.uniform(*hazard.jam_duty_range))
            faults.append(ChannelJam(t, t + jam_s, duty=duty))

    faults.sort(key=_fault_sort_key)
    script = FaultScript(faults)
    script.validate_roster(roster, has_radio=has_radio)
    return script


def _fault_sort_key(fault: Fault) -> Tuple[float, str, str]:
    onset = fault.start if isinstance(fault, ChannelJam) else fault.time
    device = getattr(fault, "device_id", "channel")
    return (onset, type(fault).__name__, device)


# ----------------------------------------------------------------------
# The endurance campaign
# ----------------------------------------------------------------------
@dataclass
class ChaosConfig:
    """One endurance campaign: scenario x seeds x controllers."""

    scenario: str = "chaos-paper"
    hours: float = 48.0
    seeds: Tuple[int, ...] = (7,)
    controllers: Tuple[str, ...] = ("adaptive", "fixed")
    window_minutes: float = 60.0
    warmup_minutes: float = 30.0
    hazard: HazardConfig = field(default_factory=HazardConfig)
    budgets: SloBudgets = field(default_factory=SloBudgets)
    # Enable causal tracing per run; the SLO scorer then folds p95
    # sensing→actuation data age (per window and per run) and the
    # fault-active age delta into its rows.
    trace: bool = False

    def __post_init__(self) -> None:
        self.seeds = tuple(self.seeds)
        self.controllers = tuple(self.controllers)
        if self.hours <= 0:
            raise ValueError("endurance runs must have positive length")
        if not 0 <= self.warmup_minutes < self.hours * 60.0:
            raise ValueError("warmup must fit inside the run")
        if self.window_minutes <= 0:
            raise ValueError("scoring window must be positive")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be non-empty and unique")
        if not self.controllers:
            raise ValueError("at least one controller is required")
        for controller in self.controllers:
            if controller not in ("adaptive", "fixed"):
                raise ValueError(
                    f"unknown controller {controller!r}; choose from "
                    "adaptive, fixed")
        if len(set(self.controllers)) != len(self.controllers):
            raise ValueError("controllers must be unique")

    @property
    def horizon_s(self) -> float:
        return self.hours * 3600.0

    def run_labels(self) -> List[Tuple[int, str, str]]:
        """(seed, controller, label) per run, in spec order."""
        return [(seed, controller, f"{controller}/seed-{seed}")
                for seed in self.seeds
                for controller in self.controllers]


@dataclass
class ChaosRun:
    """One scored endurance run."""

    label: str
    seed: int
    controller: str
    discrete_hash: str
    # Always 0: ``payload_events`` rejects a truncated event log.  Kept
    # so the chaos JSON report keeps its bytes.
    events_dropped: int
    faults_scheduled: int
    report: SloReport
    energy_j: Optional[float] = None
    mean_lifetime_years: Optional[float] = None


@dataclass
class ChaosResult:
    """The merged campaign: scored runs plus the controller comparison."""

    config: ChaosConfig
    runs: List[ChaosRun] = field(default_factory=list)
    failures: List[object] = field(default_factory=list)
    manifest: Optional[Dict[str, object]] = None

    def comparison(self) -> List[Dict[str, object]]:
        """Adaptive-vs-fixed deltas per seed, on every scored SLO.

        Positive deltas mean the fixed controller did worse (more
        violation minutes, slower recovery) than BT-ADPT.
        """
        by_key = {(run.seed, run.controller): run for run in self.runs}
        rows: List[Dict[str, object]] = []
        for seed in self.config.seeds:
            adaptive = by_key.get((seed, "adaptive"))
            fixed = by_key.get((seed, "fixed"))
            if adaptive is None or fixed is None:
                continue
            a, f = adaptive.report.totals(), fixed.report.totals()
            row: Dict[str, object] = {"seed": seed}
            distinguished = False
            for metric in ("comfort_min", "dew_min", "degraded_min",
                           "recovery_mean_s"):
                av, fv = a.get(metric), f.get(metric)
                delta = (None if av is None or fv is None
                         else float(fv) - float(av))
                row[metric] = {"adaptive": av, "fixed": fv,
                               "delta": delta}
                if delta is not None and not math.isclose(
                        delta, 0.0, abs_tol=1e-9):
                    distinguished = True
            row["distinguished"] = distinguished
            rows.append(row)
        return rows

    def jsonl_rows(self):
        """Every JSONL report row, in spec order: one meta row, then
        per run every window row followed by its summary row."""
        config = self.config
        yield {"kind": "chaos.meta", "scenario": config.scenario,
               "hours": config.hours, "seeds": list(config.seeds),
               "controllers": list(config.controllers),
               "window_minutes": config.window_minutes,
               "warmup_minutes": config.warmup_minutes,
               "budgets": config.budgets.as_dict()}
        for run in self.runs:
            for window in run.report.windows:
                yield window.row(run.label)
            yield run.report.summary_row()

    def report_dict(self) -> Dict[str, object]:
        return {
            "manifest": self.manifest,
            "scenario": self.config.scenario,
            "hours": self.config.hours,
            "seeds": list(self.config.seeds),
            "controllers": list(self.config.controllers),
            "window_minutes": self.config.window_minutes,
            "warmup_minutes": self.config.warmup_minutes,
            "budgets": self.config.budgets.as_dict(),
            "hazard": self.config.hazard.as_dict(),
            "runs": [
                {
                    "label": run.label,
                    "seed": run.seed,
                    "controller": run.controller,
                    "discrete_hash": run.discrete_hash,
                    "events_dropped": run.events_dropped,
                    "faults_scheduled": run.faults_scheduled,
                    "energy_j": run.energy_j,
                    "mean_lifetime_years": run.mean_lifetime_years,
                    "slo": run.report.report_dict(),
                }
                for run in self.runs
            ],
            "comparison": self.comparison(),
            "failures": [failure.report_row()
                         for failure in self.failures],
        }


def chaos_specs(config: ChaosConfig) -> List["RunSpec"]:  # noqa: F821
    """The campaign as an ordered, picklable spec list.

    Per seed, one fault schedule is synthesized and shared across all
    controller variants, so the controllers face *identical* chaos.
    Telemetry is always on — the SLO scorer consumes the event log.
    """
    from repro.runtime.spec import RunSpec
    from repro.scenarios.registry import get_scenario

    base = get_scenario(config.scenario)
    if not base.config.network.enabled:
        raise ValueError(
            f"chaos needs a network-mode scenario; {config.scenario!r} "
            "runs direct control (no bt nodes to fail)")
    specs: List[RunSpec] = []
    schedule: Dict[int, Tuple[Fault, ...]] = {}
    for seed, controller, label in config.run_labels():
        if seed not in schedule:
            schedule[seed] = tuple(synthesize_faults(
                base.topology, config.hazard, seed,
                config.horizon_s).faults)
        run_config = dataclasses.replace(
            base.config, seed=seed,
            network=dataclasses.replace(base.config.network,
                                        bt_mode=controller))
        scenario = dataclasses.replace(
            base, name=f"{base.name}/{label}", config=run_config,
            fault_script="none", faults=schedule[seed],
            run_minutes=config.hours * 60.0,
            warmup_minutes=config.warmup_minutes)
        specs.append(RunSpec(label=label, scenario=scenario,
                             telemetry=True, trace=config.trace))
    return specs


def merge_chaos(config: ChaosConfig,
                payloads: Sequence[object]) -> ChaosResult:
    """Fold executor payloads (in :func:`chaos_specs` order) into
    scored runs.  Keyed purely by spec position, so the result — and
    the JSONL rows derived from it — is byte-identical for any worker
    count."""
    from repro.runtime.spec import RunFailure
    from repro.scenarios.registry import get_scenario

    labels = config.run_labels()
    if len(payloads) != len(labels):
        raise ValueError(f"expected {len(labels)} payloads, "
                         f"got {len(payloads)}")
    t0 = get_scenario(config.scenario).config.start_time_s
    result = ChaosResult(config=config)
    for (seed, controller, label), payload in zip(labels, payloads):
        if isinstance(payload, RunFailure):
            result.failures.append(payload)
            continue
        events = payload_events(payload, label)
        trace_payload = payload.obs.get("trace")
        ages = None
        if trace_payload is not None:
            from repro.analysis.dataage import actuation_ages
            ages = actuation_ages(trace_payload["spans"])
        report = score_run(
            events, label, t0=t0, horizon_s=config.horizon_s,
            window_s=config.window_minutes * 60.0,
            budgets=config.budgets,
            warmup_s=config.warmup_minutes * 60.0,
            ages=ages)
        faults_scheduled = sum(
            1 for record in events
            if record.get("kind") == "fault.injected")
        metrics = payload.metrics or {}
        result.runs.append(ChaosRun(
            label=label, seed=seed, controller=controller,
            discrete_hash=payload.discrete_hash,
            events_dropped=int(payload.obs.get("dropped_events", 0)),
            faults_scheduled=faults_scheduled,
            report=report,
            energy_j=metrics.get("energy_j"),
            mean_lifetime_years=metrics.get("mean_lifetime_years")))
    return result


def chaos_manifest(config: ChaosConfig) -> Dict[str, object]:
    """Provenance block for a chaos report or telemetry directory."""
    from repro.obs.manifest import build_manifest
    from repro.scenarios.registry import get_scenario

    return build_manifest(
        command="chaos",
        config_dict={
            "scenario": config.scenario,
            "hours": config.hours,
            "seeds": list(config.seeds),
            "controllers": list(config.controllers),
            "window_minutes": config.window_minutes,
            "warmup_minutes": config.warmup_minutes,
            "budgets": config.budgets.as_dict(),
            "hazard": config.hazard.as_dict(),
            "trace": config.trace,
            # The decision law of the base scenario; "controllers" above
            # predates the policy layer and names bt_mode variants.
            "control_policy": get_scenario(config.scenario).controller,
        },
        seed=config.seeds[0],
        extra={"runs": [label for _, _, label in config.run_labels()]})


def run_chaos(config: ChaosConfig,
              progress: Optional[Callable[[str], None]] = None,
              workers: int = 1,
              timeout_s: Optional[float] = None,
              jsonl_path: Optional[str] = None,
              telemetry_dir: Optional[str] = None) -> ChaosResult:
    """Run the endurance campaign and score every run.

    ``jsonl_path`` receives the report rows (one JSON object per line —
    see :func:`repro.analysis.slo.validate_report_rows`), written once
    after every run has finished and been merged, in spec order, so the
    file is byte-identical for any ``workers``; a campaign that is
    killed part-way leaves no rows.  Workers only ship back compact
    event/outcome payloads, never traces, so a 32-zone multi-seed sweep
    holds no whole-run state in the parent.
    ``telemetry_dir`` additionally writes the standard artifact
    directory of :mod:`repro.obs.status`.
    """
    import os

    from repro.obs.events import to_jsonl
    from repro.runtime.pool import run_matrix
    from repro.runtime.progress import first_starts

    result = run_matrix(
        chaos_specs(config), partial(merge_chaos, config),
        chaos_manifest(config), workers=workers, timeout_s=timeout_s,
        progress=first_starts(progress, lambda event: (
            f"run {event.label} ({config.hours:g} h, "
            f"{config.scenario})")),
        telemetry_dir=telemetry_dir)
    if jsonl_path is not None:
        parent = os.path.dirname(jsonl_path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(jsonl_path, "w", encoding="utf-8") as handle:
            for row in result.jsonl_rows():
                handle.write(to_jsonl([row]))
                handle.flush()
    return result
