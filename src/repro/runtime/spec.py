"""Picklable run specifications and their in-worker execution.

A :class:`RunSpec` is everything a worker process needs to rebuild a
:class:`~repro.core.system.BubbleZero` from scratch and run it.  Since
the scenario layer landed, the *what to run* lives in a
:class:`~repro.scenarios.spec.ScenarioSpec` (config, topology,
weather, workload script, faults, horizon) and RunSpec is the thin
execution wrapper that adds what only the executor cares about: the
display label, the test-only failure-injection hook and the telemetry
switch.  The legacy keyword surface (``config=``, ``faults=``,
``script=``, ``run_minutes=``, ``warmup_minutes=``) still works and
simply builds the scenario inline.

The worker returns only a compact :class:`RunResult` — outcome,
discrete hash, paper metrics, timing — never a live system, so the
payload crossing the process boundary stays small and spawn-safe.

Execution is a pure function of the spec: the same spec produces the
same :class:`RunResult` (minus wall-clock timing) whether it runs in
this process, a spawned worker, or a retried replacement worker.  That
is the foundation of the pool's determinism guarantee (see
:mod:`repro.runtime.pool`).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace as _dc_replace
from typing import Dict, Optional, Tuple

from repro.analysis.degradation import RunOutcome, summarize_run
from repro.analysis.fingerprint import discrete_log_hash
from repro.core.config import BubbleZeroConfig
from repro.scenarios.spec import (
    SCRIPT_BUILDERS,  # noqa: F401  (re-exported for compat)
    ScenarioSpec,
    prepare_run,
)
from repro.workloads.faults import (
    Fault,
    shift_fault,  # noqa: F401  (re-exported for compat)
)


@dataclass(frozen=True, init=False)
class RunSpec:
    """One independent seeded run, picklable under the spawn method."""

    label: str
    scenario: ScenarioSpec
    # Test-only fault-injection hook, interpreted by _apply_injection
    # before the run starts ("delay:S", "wait-file:PATH", "hang",
    # "crash", "crash-below-attempt:N", "raise", or several joined by
    # "+", run in order).  Never set by production code.
    inject: Optional[str] = None
    # Attach an observability context to the run and ship its payload
    # back on RunResult.obs.  Off by default: telemetry is opt-in per
    # campaign/sweep/bench invocation (--telemetry).
    telemetry: bool = False
    # Enable causal tracing (repro.obs.trace) on the run's
    # observability context; implies an obs context even without
    # ``telemetry``.  Off by default — spans are opt-in per
    # invocation (--trace).
    trace: bool = False

    def __init__(self, label: str,
                 scenario: Optional[ScenarioSpec] = None, *,
                 config: Optional[BubbleZeroConfig] = None,
                 faults: Tuple[Fault, ...] = (),
                 script: Optional[str] = None,
                 run_minutes: Optional[float] = None,
                 warmup_minutes: Optional[float] = None,
                 inject: Optional[str] = None,
                 telemetry: bool = False,
                 trace: bool = False) -> None:
        if scenario is None:
            if config is None:
                raise TypeError("RunSpec needs a scenario or a config")
            scenario = ScenarioSpec(
                name=label, config=config, faults=tuple(faults),
                script="none" if script is None else script,
                run_minutes=45.0 if run_minutes is None else run_minutes,
                warmup_minutes=(0.0 if warmup_minutes is None
                                else warmup_minutes))
        else:
            overrides = {
                key: value for key, value in (
                    ("config", config), ("script", script),
                    ("run_minutes", run_minutes),
                    ("warmup_minutes", warmup_minutes)) if value is not None}
            if faults:
                overrides["faults"] = tuple(faults)
            if overrides:
                scenario = _dc_replace(scenario, **overrides)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "inject", inject)
        object.__setattr__(self, "telemetry", telemetry)
        object.__setattr__(self, "trace", trace)

    # Delegates kept for the wide pre-scenario call surface.
    @property
    def config(self) -> BubbleZeroConfig:
        return self.scenario.config

    @property
    def faults(self) -> Tuple[Fault, ...]:
        return self.scenario.faults

    @property
    def script(self) -> str:
        return self.scenario.script

    @property
    def run_minutes(self) -> float:
        return self.scenario.run_minutes

    @property
    def warmup_minutes(self) -> float:
        return self.scenario.warmup_minutes


@dataclass(frozen=True)
class RunResult:
    """Compact outcome payload returned by a worker."""

    label: str
    outcome: RunOutcome
    discrete_hash: str
    metrics: Dict[str, float]
    wall_s: float
    sim_s: float
    events: int
    clearance_time: Optional[float] = None
    # Observability payload (events/metrics/health/profile) when the
    # spec requested telemetry; None otherwise.  Plain JSON-safe dicts,
    # so the result stays picklable under spawn.
    obs: Optional[Dict[str, object]] = None


@dataclass(frozen=True)
class RunFailure:
    """A run that could not produce a result, with how it died.

    ``kind`` is one of ``crash`` (the worker process exited without
    replying), ``timeout`` (the per-run deadline passed) or
    ``exception`` (the run raised; deterministic, so never retried).
    ``attempts`` counts executions including the failed ones.
    """

    index: int
    label: str
    kind: str
    message: str
    attempts: int

    def report_row(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "label": self.label,
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
        }


def paper_metrics(system, outcome: RunOutcome) -> Dict[str, float]:
    """The §V metrics a sweep aggregates, as one flat name->float dict.

    COP keys are only present when the corresponding module consumed
    power (matching :meth:`Plant.cop_report`); network keys only when
    the run had a radio.
    """
    import numpy as np

    metrics: Dict[str, float] = {}
    for key, value in system.plant.cop_report().items():
        metrics[f"cop_{key}"] = float(value)
    metrics["comfort_violation_min"] = float(
        outcome.total_comfort_violation_min)
    metrics["dew_margin_violation_min"] = float(
        sum(outcome.dew_margin_violation_min.values()))
    metrics["condensation_events"] = float(outcome.condensation_events)
    metrics["mean_temp_c"] = float(outcome.mean_temp_c)
    metrics["mean_dew_c"] = float(outcome.mean_dew_c)
    metrics["energy_j"] = float(outcome.power_consumed_j)
    metrics["cooling_exergy_j"] = float(outcome.cooling_exergy_j)
    if system.medium is not None:
        stats = system.network_stats()
        metrics["transmissions"] = float(stats["transmissions"])
        metrics["collisions"] = float(stats["collisions"])
        metrics["collision_rate"] = float(stats["collision_rate"])
        elapsed = system.sim.clock.elapsed
        metrics["mean_lifetime_years"] = float(np.mean(
            [node.projected_lifetime_years(elapsed)
             for node in system.bt_nodes]))
    return metrics


def execute_spec(spec: RunSpec, attempt: int = 0) -> RunResult:
    """Build, run and summarise one spec — the worker's whole job."""
    _apply_injection(spec.inject, attempt)
    obs = None
    if spec.telemetry or spec.trace:
        from repro.obs import create_observability
        obs = create_observability(trace=spec.trace)
    t0 = time.perf_counter()
    system, clearance = prepare_run(spec.scenario, obs=obs)
    system.start()
    system.run(minutes=spec.run_minutes)
    system.finalize()
    outcome = summarize_run(system, spec.label, clearance_time=clearance,
                            warmup_s=spec.warmup_minutes * 60.0)
    obs_data = None
    if obs is not None:
        from repro.obs.collect import obs_payload
        obs_data = obs_payload(system, obs)
    return RunResult(
        label=spec.label,
        outcome=outcome,
        discrete_hash=discrete_log_hash(system),
        metrics=paper_metrics(system, outcome),
        wall_s=time.perf_counter() - t0,
        sim_s=spec.run_minutes * 60.0,
        events=system.sim.events_dispatched,
        clearance_time=clearance,
        obs=obs_data,
    )


def _apply_injection(inject: Optional[str], attempt: int) -> None:
    """Test-only hooks exercising the pool's failure handling."""
    if not inject:
        return
    for directive in inject.split("+"):
        if directive.startswith("delay:"):
            time.sleep(float(directive.split(":", 1)[1]))
        elif directive.startswith("wait-file:"):
            # Hold the run until the test creates PATH, so it can order
            # a crash after an event in the parent.  Bounded, so a
            # signal that never comes fails the test's checks instead
            # of hanging it.
            path = directive.split(":", 1)[1]
            deadline = time.monotonic() + 60.0
            while not os.path.exists(path) and time.monotonic() < deadline:
                time.sleep(0.01)
        elif directive == "hang":
            time.sleep(3600.0)  # pragma: no cover - killed by the pool
        elif directive == "crash":
            os._exit(3)
        elif directive.startswith("crash-below-attempt:"):
            if attempt < int(directive.split(":", 1)[1]):
                os._exit(3)
        elif directive == "raise":
            raise RuntimeError("injected failure")
        else:
            raise ValueError(f"unknown injection {directive!r}")
