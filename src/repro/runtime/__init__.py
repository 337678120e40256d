"""Parallel run execution: picklable specs, a spawn-safe process pool
and deterministic in-spec-order merging.

See :mod:`repro.runtime.spec` for the unit of work,
:mod:`repro.runtime.pool` for the executor, its robustness contract
and :func:`~repro.runtime.pool.run_matrix` (the one specs -> pool ->
merge -> telemetry pipeline every matrix workload runs through), and
:mod:`repro.runtime.progress` for progress events.
"""

from repro.runtime.pool import (
    default_worker_count,
    run_matrix,
    run_specs,
)
from repro.runtime.progress import ProgressEvent, ProgressPrinter
from repro.runtime.spec import (
    RunFailure,
    RunResult,
    RunSpec,
    execute_spec,
    paper_metrics,
)
from repro.workloads.faults import shift_fault

__all__ = [
    "RunFailure",
    "RunResult",
    "RunSpec",
    "ProgressEvent",
    "ProgressPrinter",
    "default_worker_count",
    "execute_spec",
    "paper_metrics",
    "run_matrix",
    "run_specs",
    "shift_fault",
]
