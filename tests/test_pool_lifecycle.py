"""Lifecycle of the spawn pool's worker processes.

Workers retire as soon as nothing is left to hand out and leave through
``os._exit(0)``; the parent still joins every one of them, so no
process outlives ``run_specs`` and every worker's exit code is known.
A retry after the other worker retired runs on a freshly spawned one.
"""

import multiprocessing

import pytest

from repro.core.config import BubbleZeroConfig
from repro.runtime import RunSpec, pool
from repro.runtime.progress import FINISHED, RETRIED


def tiny_spec(label, seed=3, inject=None):
    return RunSpec(label=label, config=BubbleZeroConfig(seed=seed),
                   run_minutes=1.0, inject=inject)


@pytest.fixture
def spawned(monkeypatch, tmp_path):
    """Every worker the pool spawns, a timeline of retirements, and a
    file created at the first retirement."""
    workers = []
    timeline = []
    retired = tmp_path / "retired"

    class RecordingWorker(pool._Worker):
        def __init__(self, ctx) -> None:
            super().__init__(ctx)
            workers.append(self)

        def retire(self) -> None:
            timeline.append(("retire", self.process.pid))
            retired.touch()
            super().retire()

    monkeypatch.setattr(pool, "_Worker", RecordingWorker)
    return workers, timeline, retired


def _comparable(payload):
    return (payload.label, payload.discrete_hash, payload.metrics,
            payload.events, payload.sim_s)


class TestPoolLifecycle:
    def test_no_worker_outlives_run_specs(self, spawned):
        workers, timeline, _ = spawned
        specs = [tiny_spec(f"s{i}", seed=3 + i) for i in range(3)]
        payloads = pool.run_specs(specs, workers=2)
        assert [p.label for p in payloads] == ["s0", "s1", "s2"]
        assert multiprocessing.active_children() == []
        assert len(workers) == 2
        assert [w.process.exitcode for w in workers] == [0, 0]
        assert len(timeline) == 2

    def test_retry_after_retirement_runs_on_fresh_worker(self, spawned):
        workers, timeline, retired = spawned
        # The last spec crashes only once the parent has retired the
        # other worker (which drained and found nothing pending), so
        # its retry cannot go to that worker: the order is enforced,
        # not left to timing.  The retry finds the file and runs.
        specs = [tiny_spec("s0"), tiny_spec("s1"),
                 tiny_spec("flaky", inject=f"wait-file:{retired}"
                                           "+crash-below-attempt:1")]

        def progress(event):
            if event.kind in (RETRIED, FINISHED):
                timeline.append((event.kind, event.label))

        payloads = pool.run_specs(specs, workers=2, progress=progress)
        assert [p.label for p in payloads] == ["s0", "s1", "flaky"]
        assert all(isinstance(p, pool.RunResult) for p in payloads)
        retried = timeline.index((RETRIED, "flaky"))
        assert [kind for kind, _ in timeline[:retried]].count("retire") == 1
        assert timeline.index((FINISHED, "flaky")) > retried
        # Two original workers (one crashed) plus the fresh one that ran
        # the retry; all of them were reaped.
        assert len(workers) == 3
        assert multiprocessing.active_children() == []
        assert sorted(w.process.exitcode for w in workers[:2]) == [0, 3]
        assert workers[2].process.exitcode == 0

    def test_pooled_payloads_equal_serial(self):
        specs = [tiny_spec(f"s{i}", seed=5 + i) for i in range(3)]
        serial = pool.run_specs(specs, workers=1)
        pooled = pool.run_specs(specs, workers=2)
        assert ([_comparable(p) for p in pooled]
                == [_comparable(p) for p in serial])
