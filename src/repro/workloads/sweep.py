"""Multi-seed sweeps: the same trial replicated across seeds.

Aswani et al. (PAPERS.md) argue controller comparisons need replicated
runs with statistical aggregation, and Gluck et al. that trade-off
studies only become trustworthy with large swept matrices.  A sweep is
the replication primitive: one trial configuration executed once per
seed (fanned out over :mod:`repro.runtime.pool`), with the paper
metrics of every replicate aggregated to mean/stddev/min/max.

Like the fault campaign, the sweep is split into a spec-producing half
(:func:`sweep_specs`) and a merging half (:func:`merge_sweep`) keyed
on spec order, so the aggregated report is byte-identical for any
worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import BubbleZeroConfig, NetworkConfig
from repro.obs.events import EventLog
from repro.obs.manifest import build_manifest
from repro.runtime.pool import RunPayload
from repro.runtime.spec import RunFailure, RunResult, RunSpec
from repro.scenarios.registry import get_scenario


@dataclass
class SweepConfig:
    """One trial shape, replicated across ``seeds``."""

    seeds: Tuple[int, ...]
    run_minutes: float = 105.0
    warmup_minutes: float = 30.0
    script: str = "none"
    direct: bool = False
    fixed_tx: bool = False
    # Decision law for every replicate (see repro.control.policy).
    controller: str = "pid"

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ValueError("a sweep needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("sweep seeds must be unique")
        if self.run_minutes <= 0:
            raise ValueError("sweep runs must have positive length")
        if not 0 <= self.warmup_minutes < self.run_minutes:
            raise ValueError("warmup must fit inside the run")
        from repro.control.policy import controller_names
        if self.controller not in controller_names():
            raise ValueError(
                f"unknown controller {self.controller!r}; known: "
                f"{', '.join(sorted(controller_names()))}")


@dataclass
class SweepResult:
    """Per-seed metric rows plus their aggregate statistics."""

    config: SweepConfig
    runs: List[RunResult] = field(default_factory=list)
    failures: List[RunFailure] = field(default_factory=list)
    # Provenance block (repro.obs.manifest); deterministic within a
    # checkout, so serial-vs-pooled byte identity is preserved.
    manifest: Optional[Dict[str, object]] = None

    @property
    def aggregates(self) -> Dict[str, Dict[str, float]]:
        return aggregate_metrics([run.metrics for run in self.runs])

    def report_dict(self) -> Dict[str, object]:
        """Deterministic, JSON-serialisable sweep report."""
        return {
            "manifest": self.manifest,
            "seeds": list(self.config.seeds),
            "run_minutes": self.config.run_minutes,
            "warmup_minutes": self.config.warmup_minutes,
            "script": self.config.script,
            "direct": self.config.direct,
            "fixed_tx": self.config.fixed_tx,
            "controller": self.config.controller,
            "runs": [
                {
                    "label": run.label,
                    "discrete_hash": run.discrete_hash,
                    "metrics": dict(sorted(run.metrics.items())),
                }
                for run in self.runs
            ],
            "aggregates": self.aggregates,
            "failures": [failure.report_row()
                         for failure in self.failures],
        }


def sweep_specs(config: SweepConfig,
                telemetry: bool = False,
                trace: bool = False) -> List[RunSpec]:
    """One spec per seed, in seed order.

    Every replicate is the registry's ``sweep-default`` scenario with
    the per-seed config and the sweep's trial-shape overrides swapped
    in, so the sweep and the registry can never drift apart.
    """
    base = get_scenario("sweep-default")
    network = NetworkConfig(
        enabled=not config.direct,
        bt_mode="fixed" if config.fixed_tx else "adaptive")

    def scenario_for(seed: int, name: str):
        return replace(
            base, name=name,
            config=BubbleZeroConfig(seed=seed, network=network),
            script=config.script,
            controller=config.controller,
            run_minutes=config.run_minutes,
            warmup_minutes=config.warmup_minutes)

    return [
        RunSpec(label=f"seed-{seed}",
                scenario=scenario_for(seed, f"seed-{seed}"),
                telemetry=telemetry, trace=trace)
        for seed in config.seeds
    ]


def sweep_manifest(config: SweepConfig) -> Dict[str, object]:
    """Provenance block for a sweep report or telemetry directory."""
    return build_manifest(
        command="sweep",
        config_dict={
            "seeds": list(config.seeds),
            "run_minutes": config.run_minutes,
            "warmup_minutes": config.warmup_minutes,
            "script": config.script,
            "direct": config.direct,
            "fixed_tx": config.fixed_tx,
            "controller": config.controller,
        },
        seed=config.seeds[0],
        extra={"controller": config.controller})


def merge_sweep(config: SweepConfig,
                payloads: Sequence[RunPayload]) -> SweepResult:
    """Fold executor payloads (in :func:`sweep_specs` order) into a
    result; failed replicates become structured failure rows and are
    excluded from the aggregates."""
    if len(payloads) != len(config.seeds):
        raise ValueError(f"expected {len(config.seeds)} payloads, "
                         f"got {len(payloads)}")
    result = SweepResult(config=config)
    for payload in payloads:
        if isinstance(payload, RunFailure):
            result.failures.append(payload)
        else:
            result.runs.append(payload)
    return result


def aggregate_metrics(rows: Sequence[Dict[str, float]]
                      ) -> Dict[str, Dict[str, float]]:
    """mean/stddev/min/max/n per metric name across replicate rows.

    A metric contributes wherever it is present (COP keys are omitted
    by runs whose module consumed no power); ``n`` records how many
    replicates carried it.  Stddev is the population deviation
    (ddof=0), computed in row order so the result is deterministic.
    """
    names: List[str] = []
    for row in rows:
        for name in row:
            if name not in names:
                names.append(name)
    aggregates: Dict[str, Dict[str, float]] = {}
    for name in sorted(names):
        values = [row[name] for row in rows if name in row]
        n = len(values)
        mean = math.fsum(values) / n
        variance = math.fsum((v - mean) ** 2 for v in values) / n
        aggregates[name] = {
            "mean": mean,
            "stddev": math.sqrt(variance),
            "min": min(values),
            "max": max(values),
            "n": float(n),
        }
    return aggregates


def run_sweep(config: SweepConfig,
              workers: int = 1,
              timeout_s: Optional[float] = None,
              progress=None,
              telemetry_dir: Optional[str] = None,
              trace: bool = False) -> SweepResult:
    """Execute the sweep; see :func:`repro.runtime.pool.run_specs` for
    the worker/timeout/retry semantics.

    ``telemetry_dir`` enables per-replicate observability and writes
    the artifact directory described in :mod:`repro.obs.status`;
    metrics and hashes are identical with telemetry on or off.
    ``trace`` additionally enables causal tracing per replicate,
    adding ``trace.jsonl``.
    """
    from repro.runtime.pool import run_specs

    telemetry = telemetry_dir is not None
    specs = sweep_specs(config, telemetry=telemetry, trace=trace)
    pool_events = EventLog(enabled=True) if telemetry else None
    payloads = run_specs(specs, workers=workers,
                         timeout_s=timeout_s, progress=progress,
                         obs_events=pool_events)
    result = merge_sweep(config, payloads)
    result.manifest = sweep_manifest(config)
    if telemetry:
        from repro.obs.status import write_run_telemetry
        obs_payloads = {payload.label: payload.obs for payload in payloads
                        if not isinstance(payload, RunFailure)}
        write_run_telemetry(telemetry_dir, result.manifest,
                            [spec.label for spec in specs], obs_payloads,
                            pool_events.records)
    return result
