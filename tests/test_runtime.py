"""Tests for the parallel run executor (repro.runtime).

The pooled tests spawn real worker processes, so they use the
shortest horizons that still exercise the machinery (a 1-minute sim
is ~0.1s of work; the pool overhead dominates).  The
serial-vs-parallel byte-identity test reuses the mini campaign from
test_campaign so the determinism contract is checked on the same
workload the campaign suite scores.
"""

import dataclasses
import json
import pickle

import pytest

from repro.core.config import BubbleZeroConfig
from repro.runtime import (
    ProgressEvent,
    ProgressPrinter,
    RunFailure,
    RunResult,
    RunSpec,
    default_worker_count,
    execute_spec,
    run_specs,
)
from repro.runtime.progress import (
    FAILED,
    FINISHED,
    RETRIED,
    STARTED,
    emit,
    first_starts,
)
from repro.scenarios.spec import ScenarioSpec


def tiny_spec(label="run", seed=3, inject=None, run_minutes=1.0):
    return RunSpec(label=label, scenario=ScenarioSpec(
        name=label, config=BubbleZeroConfig(seed=seed),
        run_minutes=run_minutes), inject=inject)


class TestRunSpec:
    def test_pickle_round_trip(self):
        spec = tiny_spec("pickled", seed=11)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.scenario.config.seed == 11

    def test_rejects_unknown_script(self):
        with pytest.raises(ValueError, match="unknown workload script"):
            RunSpec(label="x", scenario=ScenarioSpec(
                name="x", config=BubbleZeroConfig(), script="nope"))

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            RunSpec(label="x", scenario=ScenarioSpec(
                name="x", config=BubbleZeroConfig(), run_minutes=0.0))
        with pytest.raises(ValueError):
            RunSpec(label="x", scenario=ScenarioSpec(
                name="x", config=BubbleZeroConfig(), run_minutes=5.0,
                warmup_minutes=5.0))


class TestExecuteSpec:
    def test_is_pure_function_of_spec(self):
        first = execute_spec(tiny_spec())
        second = execute_spec(tiny_spec())
        assert first.discrete_hash == second.discrete_hash
        assert first.metrics == second.metrics
        assert first.events == second.events

    def test_metrics_cover_paper_quantities(self):
        result = execute_spec(tiny_spec())
        for key in ("comfort_violation_min", "energy_j", "collision_rate",
                    "mean_lifetime_years"):
            assert key in result.metrics


class TestDefaults:
    def test_worker_count_capped_at_tasks(self):
        assert default_worker_count(1) == 1
        assert default_worker_count(0) == 1
        assert default_worker_count() >= 1

    def test_empty_spec_list(self):
        assert run_specs([]) == []

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            run_specs([tiny_spec()], workers=2, retries=-1)


class TestSerialPath:
    def test_exception_becomes_failure(self):
        payloads = run_specs([tiny_spec("bad", inject="raise"),
                              tiny_spec("good")], workers=1)
        failure, result = payloads
        assert isinstance(failure, RunFailure)
        assert failure.kind == "exception"
        assert failure.attempts == 1
        assert "injected failure" in failure.message
        assert isinstance(result, RunResult)

    def test_progress_event_stream(self):
        events = []
        run_specs([tiny_spec("a"), tiny_spec("b")], workers=1,
                  progress=events.append)
        assert [(e.kind, e.label) for e in events] == [
            (STARTED, "a"), (FINISHED, "a"),
            (STARTED, "b"), (FINISHED, "b")]


class TestPooledExecution:
    def test_merge_order_is_spec_order_under_delay(self):
        # The first spec is held back, so it finishes last — merged
        # order must still match spec order, never completion order.
        specs = [tiny_spec("s0", inject="delay:1.0"),
                 tiny_spec("s1"), tiny_spec("s2"), tiny_spec("s3")]
        completion = []
        payloads = run_specs(
            specs, workers=2,
            progress=lambda e: (completion.append(e.label)
                                if e.kind == FINISHED else None))
        assert [p.label for p in payloads] == ["s0", "s1", "s2", "s3"]
        assert all(isinstance(p, RunResult) for p in payloads)
        assert completion != ["s0", "s1", "s2", "s3"]

    def test_crashed_worker_retried_then_succeeds(self):
        events = []
        payloads = run_specs(
            [tiny_spec("flaky", inject="crash-below-attempt:1"),
             tiny_spec("steady")],
            workers=2, progress=events.append)
        assert all(isinstance(p, RunResult) for p in payloads)
        retried = [e for e in events if e.kind == RETRIED]
        assert [e.label for e in retried] == ["flaky"]
        assert retried[0].detail == "crash"

    def test_crash_exhausts_bounded_retries(self):
        payloads = run_specs([tiny_spec("doomed", inject="crash"),
                              tiny_spec("steady")], workers=2, retries=1)
        failure, result = payloads
        assert isinstance(failure, RunFailure)
        assert failure.kind == "crash"
        assert failure.attempts == 2  # original + one retry
        assert "exit code" in failure.message
        assert isinstance(result, RunResult)

    def test_exception_in_worker_not_retried(self):
        payloads = run_specs([tiny_spec("bad", inject="raise"),
                              tiny_spec("good")], workers=2)
        failure = payloads[0]
        assert isinstance(failure, RunFailure)
        assert failure.kind == "exception"
        assert failure.attempts == 1
        assert isinstance(payloads[1], RunResult)

    def test_timeout_kills_hung_worker(self):
        payloads = run_specs([tiny_spec("stuck", inject="hang"),
                              tiny_spec("good")],
                             workers=2, timeout_s=2.0, retries=0)
        failure = payloads[0]
        assert isinstance(failure, RunFailure)
        assert failure.kind == "timeout"
        assert failure.attempts == 1
        assert isinstance(payloads[1], RunResult)


class TestCampaignByteIdentity:
    def test_parallel_campaign_json_matches_serial(self):
        from tests.test_campaign import mini_config
        from repro.workloads.campaign import run_campaign

        serial = run_campaign(mini_config(), workers=1).report_dict()
        pooled = run_campaign(mini_config(), workers=2).report_dict()
        assert (json.dumps(serial, sort_keys=True, default=float)
                == json.dumps(pooled, sort_keys=True, default=float))


def _campaign_specs():
    from tests.test_campaign import mini_config
    from repro.workloads.campaign import campaign_specs

    return campaign_specs(dataclasses.replace(
        mini_config(), run_minutes=3.0, warmup_minutes=1.0))


def _sweep_specs():
    from repro.workloads.sweep import SweepConfig, sweep_specs

    return sweep_specs(SweepConfig(seeds=(1, 2), run_minutes=3.0,
                                   warmup_minutes=1.0))


def _chaos_specs():
    from tests.test_chaos import tiny_config
    from repro.workloads.chaos import chaos_specs

    return chaos_specs(tiny_config(hours=0.05, window_minutes=1.0,
                                   warmup_minutes=1.0))


def _bakeoff_specs():
    from tests.test_bakeoff import tiny_config
    from repro.workloads.bakeoff import bakeoff_specs

    return bakeoff_specs(tiny_config(controllers=("pid", "deadband"),
                                     minutes=3.0, window_minutes=1.0))


class TestPooledPhysicsIdentity:
    """Every matrix workload's runs end in the same discrete log *and*
    the same physics state whether they run in-process or in spawned
    workers."""

    @pytest.mark.parametrize("build", [_campaign_specs, _sweep_specs,
                                       _chaos_specs, _bakeoff_specs],
                             ids=["campaign", "sweep", "chaos", "bakeoff"])
    def test_serial_and_pooled_agree_per_label(self, build):
        specs = build()
        serial = run_specs(specs, workers=1)
        pooled = run_specs(specs, workers=2)

        def identity(payloads):
            assert all(isinstance(p, RunResult) for p in payloads)
            return {p.label: (p.discrete_hash, p.state_digest)
                    for p in payloads}

        expected = identity(serial)
        assert len(expected) == len(specs)
        assert all(len(digest) == 64 for _, digest in expected.values())
        assert identity(pooled) == expected


class TestCampaignFailureHandling:
    def _tampered_payloads(self, config, cell_inject=None,
                           baseline_inject=None):
        from repro.workloads.campaign import campaign_specs

        specs = campaign_specs(config)
        if baseline_inject:
            specs[0] = dataclasses.replace(specs[0],
                                           inject=baseline_inject)
        if cell_inject:
            specs[1] = dataclasses.replace(specs[1], inject=cell_inject)
        return run_specs(specs, workers=1)

    def test_failed_cell_becomes_report_row(self):
        from tests.test_campaign import mini_config
        from repro.analysis.reporting import render_campaign_report
        from repro.workloads.campaign import merge_campaign

        config = mini_config()
        result = merge_campaign(
            config, self._tampered_payloads(config, cell_inject="raise"))
        assert len(result.cells) == 1
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.kind == "exception"
        rows = result.report_dict()["failures"]
        assert rows[0]["label"] == failure.label
        assert "RUN FAILED" in render_campaign_report(result)

    def test_failed_baseline_raises(self):
        from tests.test_campaign import mini_config
        from repro.workloads.campaign import (
            CampaignExecutionError,
            merge_campaign,
        )

        config = mini_config()
        payloads = self._tampered_payloads(config, baseline_inject="raise")
        with pytest.raises(CampaignExecutionError):
            merge_campaign(config, payloads)


class TestProgress:
    def test_printer_renders_counts(self):
        lines = []
        printer = ProgressPrinter(total=2, write=lines.append)
        printer(ProgressEvent(STARTED, 0, "a"))
        printer(ProgressEvent(FINISHED, 0, "a", wall_s=0.5))
        printer(ProgressEvent(RETRIED, 1, "b", attempt=0, detail="crash"))
        printer(ProgressEvent(FAILED, 1, "b", attempt=1, detail="boom"))
        assert any("[1/2]" in line for line in lines)
        assert any("retry" in line for line in lines)
        assert any("FAILED" in line for line in lines)

    def test_first_starts_announces_each_spec_once(self):
        lines = []
        callback = first_starts(lines.append,
                                lambda event: f"run {event.label}")
        callback(ProgressEvent(STARTED, 0, "a"))
        callback(ProgressEvent(FINISHED, 0, "a", wall_s=0.5))
        callback(ProgressEvent(STARTED, 1, "b"))
        callback(ProgressEvent(RETRIED, 1, "b", attempt=0, detail="crash"))
        callback(ProgressEvent(STARTED, 1, "b", attempt=1))
        assert lines == ["run a", "run b"]
        assert first_starts(None, str) is None

    def test_emit_swallows_callback_errors(self):
        def bad_callback(event):
            raise RuntimeError("listener bug")

        # A broken progress listener must never kill the run.
        emit(bad_callback, ProgressEvent(STARTED, 0, "a"))
