"""The controller bake-off: controller x scenario x seed fan-out.

Crosses every requested control stack (:mod:`repro.control.policy`)
with base scenario cells and seeds, runs the matrix through the
process pool, and folds the payloads into the comparison report of
:mod:`repro.analysis.bakeoff`.  Per seed, every controller sees the
*identical* scenario — same topology, weather, workload script and
sensor-noise stream — so the scored differences are the control laws'
alone.

Like campaign/sweep/chaos, the runner is split into pure halves
around :mod:`repro.runtime`: :func:`bakeoff_specs` produces picklable
specs and :func:`merge_bakeoff` folds payloads in spec order, so the
rendered report is byte-identical for any ``--workers`` count.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.bakeoff import (
    BakeoffRow,
    export_bakeoff_json,
    render_bakeoff_report,
    score_payload,
)
from repro.analysis.slo import SloBudgets

#: Default stacks compared when the caller does not choose.
DEFAULT_CONTROLLERS = ("pid", "consensus", "deadband")


@dataclass
class BakeoffConfig:
    """One bake-off: controllers x scenario cells x seeds.

    ``scenarios`` name registered base cells; each run overrides the
    cell's ``controller`` axis (and seed/horizon), so any network- or
    direct-mode scenario can serve as a cell.  The registry's
    ``bakeoff/<controller>/<cell>`` entries are pre-crossed instances
    of the same cells for by-name single runs.
    """

    controllers: Tuple[str, ...] = DEFAULT_CONTROLLERS
    scenarios: Tuple[str, ...] = ("paper-vc",)
    seeds: Tuple[int, ...] = (7, 11)
    minutes: float = 30.0
    warmup_minutes: float = 5.0
    window_minutes: float = 10.0
    budgets: SloBudgets = field(default_factory=SloBudgets)

    def __post_init__(self) -> None:
        from repro.control.policy import controller_names

        self.controllers = tuple(self.controllers)
        self.scenarios = tuple(self.scenarios)
        self.seeds = tuple(self.seeds)
        if not self.controllers:
            raise ValueError("at least one controller is required")
        if len(set(self.controllers)) != len(self.controllers):
            raise ValueError("controllers must be unique")
        known = controller_names()
        for controller in self.controllers:
            if controller not in known:
                raise ValueError(
                    f"unknown controller {controller!r}; known: "
                    f"{', '.join(sorted(known))}")
        if not self.scenarios:
            raise ValueError("at least one scenario cell is required")
        if len(set(self.scenarios)) != len(self.scenarios):
            raise ValueError("scenario cells must be unique")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be non-empty and unique")
        if self.minutes <= 0:
            raise ValueError("runs must have positive length")
        if not 0 <= self.warmup_minutes < self.minutes:
            raise ValueError("warmup must fit inside the run")
        if self.window_minutes <= 0:
            raise ValueError("scoring window must be positive")

    @property
    def horizon_s(self) -> float:
        return self.minutes * 60.0

    def run_labels(self) -> List[Tuple[str, str, int, str]]:
        """(controller, scenario, seed, label) per run, in spec order."""
        return [(controller, scenario, seed,
                 f"{controller}/{scenario}/seed-{seed}")
                for scenario in self.scenarios
                for controller in self.controllers
                for seed in self.seeds]


@dataclass
class BakeoffResult:
    """The merged matrix: scored rows plus provenance."""

    config: BakeoffConfig
    rows: List[BakeoffRow] = field(default_factory=list)
    failures: List[object] = field(default_factory=list)
    manifest: Optional[Dict[str, object]] = None

    def render(self) -> str:
        return render_bakeoff_report(self.rows, manifest=self.manifest)

    def report_dict(self) -> Dict[str, object]:
        return export_bakeoff_json(self.rows, manifest=self.manifest,
                                   failures=self.failures)


def bakeoff_specs(config: BakeoffConfig,
                  trace: bool = False) -> List["RunSpec"]:  # noqa: F821
    """The matrix as an ordered, picklable spec list.

    Telemetry is always on — the SLO columns consume the event log.
    ``trace`` also records each run's causal spans.
    """
    from repro.runtime.spec import RunSpec
    from repro.scenarios.registry import get_scenario

    specs: List[RunSpec] = []
    for controller, scenario, seed, label in config.run_labels():
        base = get_scenario(scenario)
        cell = dataclasses.replace(
            base, name=f"{base.name}/{label}",
            config=dataclasses.replace(base.config, seed=seed),
            controller=controller,
            run_minutes=config.minutes,
            warmup_minutes=config.warmup_minutes)
        specs.append(RunSpec(label=label, scenario=cell, telemetry=True,
                             trace=trace))
    return specs


def merge_bakeoff(config: BakeoffConfig,
                  payloads: Sequence[object]) -> BakeoffResult:
    """Fold executor payloads (in :func:`bakeoff_specs` order) into the
    scored result.  Keyed purely by spec position, so the report is
    byte-identical for any worker count."""
    from repro.runtime.spec import RunFailure
    from repro.scenarios.registry import get_scenario

    labels = config.run_labels()
    if len(payloads) != len(labels):
        raise ValueError(f"expected {len(labels)} payloads, "
                         f"got {len(payloads)}")
    result = BakeoffResult(config=config)
    for (controller, scenario, seed, label), payload in zip(labels,
                                                            payloads):
        if isinstance(payload, RunFailure):
            result.failures.append(payload)
            continue
        t0 = get_scenario(scenario).config.start_time_s
        result.rows.append(score_payload(
            payload, label=label, controller=controller,
            scenario=scenario, seed=seed, t0=t0,
            horizon_s=config.horizon_s,
            window_s=config.window_minutes * 60.0,
            budgets=config.budgets,
            warmup_s=config.warmup_minutes * 60.0))
    return result


def bakeoff_manifest(config: BakeoffConfig) -> Dict[str, object]:
    """Provenance block; the controller axis is part of config_hash."""
    from repro.obs.manifest import build_manifest

    return build_manifest(
        command="bakeoff",
        config_dict={
            "controllers": list(config.controllers),
            "scenarios": list(config.scenarios),
            "seeds": list(config.seeds),
            "minutes": config.minutes,
            "warmup_minutes": config.warmup_minutes,
            "window_minutes": config.window_minutes,
            "budgets": config.budgets.as_dict(),
        },
        seed=config.seeds[0],
        extra={"runs": [label for _, _, _, label in config.run_labels()]})


def run_bakeoff(config: BakeoffConfig,
                progress: Optional[Callable[[str], None]] = None,
                workers: int = 1,
                timeout_s: Optional[float] = None,
                telemetry_dir: Optional[str] = None,
                trace: bool = False) -> BakeoffResult:
    """Run the matrix through the pool and score every run.

    ``telemetry_dir`` writes the runs' artifact directory
    (:mod:`repro.obs.status`); ``trace`` adds their causal spans.
    Neither changes a scored number.
    """
    from repro.runtime.pool import run_matrix
    from repro.runtime.progress import first_starts

    return run_matrix(
        bakeoff_specs(config, trace=trace), partial(merge_bakeoff, config),
        bakeoff_manifest(config), workers=workers, timeout_s=timeout_s,
        progress=first_starts(progress, lambda event: (
            f"run {event.label} ({config.minutes:g} min)")),
        telemetry_dir=telemetry_dir)
