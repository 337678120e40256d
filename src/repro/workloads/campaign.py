"""Fault campaigns: a matrix of failure scenarios, scored vs baseline.

The campaign runner executes a base scenario once fault-free, then once
per *cell* — a named :class:`~repro.workloads.faults.FaultScript`
variant (single and compound faults, swept over onset time and
severity).  Every cell is an independent run from the same seed, so the
only difference between a cell and the baseline is the injected fault;
the :mod:`repro.analysis.degradation` scoring then quantifies exactly
what the fault cost.  Runs are deterministic: the same config produces
the same report dict, bit for bit.

Cells hold faults with onsets *relative to the run start*; the runner
shifts them onto the simulator's absolute clock when applying.

The runner is split into two pure halves around the
:mod:`repro.runtime` executor: :func:`campaign_specs` turns a config
into an ordered list of picklable :class:`~repro.runtime.spec.RunSpec`
(baseline first), and :func:`merge_campaign` folds the executor's
in-spec-order payloads back into a scored :class:`CampaignResult`.
Because the merge is keyed by spec position — never completion order —
the report is byte-identical whether the specs ran serially or fanned
out over a process pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.degradation import (
    DegradationScore,
    RunOutcome,
    compare_outcomes,
    is_graceful,
)
from repro.obs.manifest import build_manifest
from repro.runtime.pool import RunPayload, run_matrix
from repro.runtime.progress import ProgressEvent, first_starts
from repro.runtime.spec import RunFailure, RunSpec
from repro.scenarios.registry import full_cell_faults, quick_cell_faults
from repro.scenarios.spec import ScenarioSpec
from repro.workloads.faults import Fault, NodeCrash, describe_fault


@dataclass(frozen=True)
class CampaignCell:
    """One named fault program; onset times relative to run start.

    ``registry_name`` is set when the cell's fault program is the
    registered (pre-validated) one from
    :mod:`repro.scenarios.registry`; customised cells — non-default
    onsets or severities — carry their faults inline instead.
    """

    name: str
    faults: Tuple[Fault, ...]
    registry_name: Optional[str] = None

    def describe(self) -> str:
        return "; ".join(describe_fault(fault) for fault in self.faults)

    def is_single_crash(self) -> bool:
        return (len(self.faults) == 1
                and isinstance(self.faults[0], NodeCrash))


@dataclass
class CampaignConfig:
    """What to run: the base scenario and the fault matrix."""

    cells: List[CampaignCell]
    seed: int = 7
    run_minutes: float = 45.0
    # Scoring starts after the shared cold-start transient (the paper's
    # system needs ~30 min to approach the target condition); otherwise
    # the transient's violation minutes drown the fault's actual cost.
    warmup_minutes: float = 30.0
    # Decision law for baseline and every cell (repro.control.policy),
    # so fault tolerance can be compared across control stacks.
    controller: str = "pid"

    def __post_init__(self) -> None:
        if self.run_minutes <= 0:
            raise ValueError("campaign runs must have positive length")
        if not 0 <= self.warmup_minutes < self.run_minutes:
            raise ValueError("warmup must fit inside the run")
        from repro.control.policy import controller_names
        if self.controller not in controller_names():
            raise ValueError(
                f"unknown controller {self.controller!r}; known: "
                f"{', '.join(sorted(controller_names()))}")
        names = [cell.name for cell in self.cells]
        if len(set(names)) != len(names):
            raise ValueError("campaign cell names must be unique")


@dataclass
class CellResult:
    cell: CampaignCell
    outcome: RunOutcome
    score: DegradationScore
    discrete_hash: str
    graceful: Optional[bool] = None


@dataclass
class CampaignResult:
    seed: int
    run_minutes: float
    warmup_minutes: float
    baseline: RunOutcome
    baseline_hash: str
    cells: List[CellResult] = field(default_factory=list)
    failures: List[RunFailure] = field(default_factory=list)
    # Provenance block (repro.obs.manifest).  Deterministic within a
    # checkout, so it preserves the serial-vs-pooled byte identity of
    # the report.
    manifest: Optional[Dict[str, object]] = None

    def report_dict(self) -> Dict[str, object]:
        """Deterministic, JSON-serialisable campaign report."""
        return {
            "manifest": self.manifest,
            "seed": self.seed,
            "run_minutes": self.run_minutes,
            "warmup_minutes": self.warmup_minutes,
            "baseline": _outcome_dict(self.baseline),
            "baseline_hash": self.baseline_hash,
            "cells": [
                {
                    "name": result.cell.name,
                    "faults": result.cell.describe(),
                    "outcome": _outcome_dict(result.outcome),
                    "score": vars(result.score).copy(),
                    "discrete_hash": result.discrete_hash,
                    "graceful": result.graceful,
                }
                for result in self.cells
            ],
            "failures": [failure.report_row()
                         for failure in self.failures],
        }


def _outcome_dict(outcome: RunOutcome) -> Dict[str, object]:
    data = vars(outcome).copy()
    data["comfort_violation_min"] = {
        str(key): value
        for key, value in outcome.comfort_violation_min.items()}
    data["dew_margin_violation_min"] = {
        str(key): value
        for key, value in outcome.dew_margin_violation_min.items()}
    return data


# ----------------------------------------------------------------------
# Matrix builders
# ----------------------------------------------------------------------
def quick_matrix(onset_s: float = 1800.0,
                 clear_s: float = 2100.0) -> List[CampaignCell]:
    """The fast ≥8-cell matrix behind ``repro campaign --quick``.

    The cell definitions live in
    :func:`repro.scenarios.registry.quick_cell_faults`; at the default
    onsets each cell carries its pre-validated registry fault-script
    name so campaign specs route through the scenario registry.
    """
    defaults = (onset_s, clear_s) == (1800.0, 2100.0)
    return [
        CampaignCell(name, faults,
                     registry_name=f"quick/{name}" if defaults else None)
        for name, faults in quick_cell_faults(onset_s, clear_s)
    ]


def full_matrix(onsets_s: Tuple[float, ...] = (1800.0, 2400.0),
                stuck_values: Tuple[float, ...] = (15.0, 35.0),
                drift_offsets: Tuple[float, ...] = (3.0, 10.0),
                jam_duties: Tuple[float, ...] = (0.3, 0.9),
                fault_duration_s: float = 600.0) -> List[CampaignCell]:
    """Severity x onset sweep of every fault class, plus compounds.

    Like :func:`quick_matrix`, delegates the cell definitions to
    :func:`repro.scenarios.registry.full_cell_faults`.
    """
    defaults = ((onsets_s, stuck_values, drift_offsets, jam_duties,
                 fault_duration_s)
                == ((1800.0, 2400.0), (15.0, 35.0), (3.0, 10.0),
                    (0.3, 0.9), 600.0))
    return [
        CampaignCell(name, faults,
                     registry_name=f"full/{name}" if defaults else None)
        for name, faults in full_cell_faults(
            onsets_s, stuck_values, drift_offsets, jam_duties,
            fault_duration_s)
    ]


def quick_campaign_config(seed: int = 7) -> CampaignConfig:
    return CampaignConfig(cells=quick_matrix(), seed=seed,
                          run_minutes=45.0)


def full_campaign_config(seed: int = 7) -> CampaignConfig:
    return CampaignConfig(cells=full_matrix(), seed=seed,
                          run_minutes=60.0)


# ----------------------------------------------------------------------
# Cell filtering
# ----------------------------------------------------------------------
def filter_cells(cells: Sequence[CampaignCell],
                 pattern: str) -> List[CampaignCell]:
    """Cells whose name matches the shell-style ``pattern``.

    Raises :class:`ValueError` when nothing matches, so a typo fails
    loudly instead of silently running an empty campaign.
    """
    selected = [cell for cell in cells
                if fnmatchcase(cell.name, pattern)]
    if not selected:
        names = ", ".join(cell.name for cell in cells)
        raise ValueError(f"no campaign cell matches {pattern!r}; "
                         f"available: {names}")
    return selected


# ----------------------------------------------------------------------
# Runner: spec-producing and merging halves around repro.runtime
# ----------------------------------------------------------------------
class CampaignExecutionError(RuntimeError):
    """The campaign could not be scored (the baseline run failed)."""

    def __init__(self, failure: RunFailure) -> None:
        self.failure = failure
        super().__init__(
            f"baseline run failed ({failure.kind} after "
            f"{failure.attempts} attempt(s)): {failure.message}")


def campaign_specs(config: CampaignConfig,
                   telemetry: bool = False,
                   trace: bool = False) -> List[RunSpec]:
    """The campaign as an ordered spec list: baseline first, then one
    spec per cell, every spec fully independent and picklable.

    Cells built at the registry's default parameters reference their
    pre-validated named fault script; customised cells ship their
    faults inline (and get the atomic pre-flight roster check in the
    worker instead).
    """
    from repro.core.config import BubbleZeroConfig

    base_config = BubbleZeroConfig(seed=config.seed)
    specs = [RunSpec(
        label="baseline",
        scenario=ScenarioSpec(
            name="baseline", config=base_config,
            controller=config.controller,
            run_minutes=config.run_minutes,
            warmup_minutes=config.warmup_minutes),
        telemetry=telemetry, trace=trace)]
    for cell in config.cells:
        scenario = ScenarioSpec(
            name=cell.name, config=base_config,
            fault_script=cell.registry_name or "none",
            faults=() if cell.registry_name else tuple(cell.faults),
            controller=config.controller,
            run_minutes=config.run_minutes,
            warmup_minutes=config.warmup_minutes)
        specs.append(RunSpec(label=cell.name, scenario=scenario,
                             telemetry=telemetry, trace=trace))
    return specs


def merge_campaign(config: CampaignConfig,
                   payloads: Sequence[RunPayload]) -> CampaignResult:
    """Fold executor payloads (in :func:`campaign_specs` order) into a
    scored result.

    Cell failures become structured rows in ``result.failures``; a
    failed baseline raises :class:`CampaignExecutionError` because
    nothing can be scored without it.  Only spec order matters, so the
    merged report is identical for any worker count.
    """
    if len(payloads) != len(config.cells) + 1:
        raise ValueError(
            f"expected {len(config.cells) + 1} payloads "
            f"(baseline + cells), got {len(payloads)}")
    baseline_payload = payloads[0]
    if isinstance(baseline_payload, RunFailure):
        raise CampaignExecutionError(baseline_payload)
    baseline = baseline_payload.outcome
    result = CampaignResult(seed=config.seed,
                            run_minutes=config.run_minutes,
                            warmup_minutes=config.warmup_minutes,
                            baseline=baseline,
                            baseline_hash=baseline_payload.discrete_hash)
    for cell, payload in zip(config.cells, payloads[1:]):
        if isinstance(payload, RunFailure):
            result.failures.append(payload)
            continue
        score = compare_outcomes(baseline, payload.outcome)
        result.cells.append(CellResult(
            cell=cell, outcome=payload.outcome, score=score,
            discrete_hash=payload.discrete_hash,
            graceful=(is_graceful(score) if cell.is_single_crash()
                      else None)))
    return result


def campaign_manifest(config: CampaignConfig) -> Dict[str, object]:
    """Provenance block for a campaign report or telemetry directory."""
    return build_manifest(
        command="campaign",
        config_dict={
            "seed": config.seed,
            "run_minutes": config.run_minutes,
            "warmup_minutes": config.warmup_minutes,
            "controller": config.controller,
            "cells": [cell.name for cell in config.cells],
        },
        seed=config.seed,
        extra={"controller": config.controller,
               "cells": [cell.name for cell in config.cells]})


def run_campaign(config: CampaignConfig,
                 progress: Optional[Callable[[str], None]] = None,
                 workers: int = 1,
                 timeout_s: Optional[float] = None,
                 telemetry_dir: Optional[str] = None,
                 trace: bool = False) -> CampaignResult:
    """Run baseline plus every cell; score each against the baseline.

    ``workers=1`` executes in-process; ``workers=N`` fans the
    independent runs out over a spawn-safe process pool
    (:mod:`repro.runtime.pool`) with identical, byte-reproducible
    results.  ``progress`` receives one human-readable line as each
    run *starts* (submission order when serial, dispatch order when
    pooled).

    ``telemetry_dir`` enables per-run observability (events, metrics,
    health, dispatch profile) and writes the artifact directory
    described in :mod:`repro.obs.status` after the merge.  Telemetry
    never perturbs a run: scores and hashes are identical with it on
    or off.  ``trace`` additionally enables causal tracing on every
    run, adding ``trace.jsonl`` to the telemetry directory — equally
    non-perturbing (the trace-on/off equivalence oracle covers it).
    """
    def describe(event: ProgressEvent) -> str:
        if event.index == 0:
            return (f"baseline ({config.run_minutes:g} min, "
                    f"seed {config.seed})")
        cell = config.cells[event.index - 1]
        return f"cell {cell.name}: {cell.describe()}"

    return run_matrix(
        campaign_specs(config, telemetry=telemetry_dir is not None,
                       trace=trace),
        partial(merge_campaign, config), campaign_manifest(config),
        workers=workers, timeout_s=timeout_s,
        progress=first_starts(progress, describe),
        telemetry_dir=telemetry_dir)
