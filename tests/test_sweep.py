"""Tests for multi-seed sweeps (repro.workloads.sweep)."""

import dataclasses

import pytest

from repro.runtime import run_specs
from repro.workloads.sweep import (
    SweepConfig,
    aggregate_metrics,
    merge_sweep,
    run_sweep,
    sweep_specs,
)


def mini_sweep(seeds=(1, 2)):
    return SweepConfig(seeds=tuple(seeds), run_minutes=2.0,
                       warmup_minutes=1.0)


class TestConfigValidation:
    def test_rejects_empty_seeds(self):
        with pytest.raises(ValueError):
            SweepConfig(seeds=())

    def test_rejects_duplicate_seeds(self):
        with pytest.raises(ValueError):
            SweepConfig(seeds=(1, 1))

    def test_rejects_warmup_outside_run(self):
        with pytest.raises(ValueError):
            SweepConfig(seeds=(1,), run_minutes=5.0, warmup_minutes=5.0)


class TestSpecs:
    def test_one_spec_per_seed_in_order(self):
        specs = sweep_specs(mini_sweep(seeds=(5, 3, 9)))
        assert [s.label for s in specs] == ["seed-5", "seed-3", "seed-9"]
        assert [s.config.seed for s in specs] == [5, 3, 9]

    def test_direct_and_fixed_tx_shape_network(self):
        direct = sweep_specs(dataclasses.replace(mini_sweep(),
                                                 direct=True))[0]
        assert not direct.config.network.enabled
        fixed = sweep_specs(dataclasses.replace(mini_sweep(),
                                                fixed_tx=True))[0]
        assert fixed.config.network.bt_mode == "fixed"


class TestAggregates:
    def test_statistics_per_metric(self):
        rows = [{"a": 1.0, "b": 10.0}, {"a": 3.0, "b": 10.0}]
        agg = aggregate_metrics(rows)
        assert agg["a"] == {"mean": 2.0, "stddev": 1.0, "min": 1.0,
                            "max": 3.0, "n": 2.0}
        assert agg["b"]["stddev"] == 0.0

    def test_partial_metrics_counted_where_present(self):
        # COP keys are omitted by runs whose module drew no power.
        agg = aggregate_metrics([{"a": 1.0}, {"a": 2.0, "cop": 4.0}])
        assert agg["a"]["n"] == 2.0
        assert agg["cop"] == {"mean": 4.0, "stddev": 0.0, "min": 4.0,
                              "max": 4.0, "n": 1.0}


class TestRunSweep:
    def test_replicates_differ_but_report_is_reproducible(self):
        first = run_sweep(mini_sweep())
        assert len(first.runs) == 2
        assert not first.failures
        hashes = {run.discrete_hash for run in first.runs}
        assert len(hashes) == 2  # different seeds, different runs
        second = run_sweep(mini_sweep())
        assert first.report_dict() == second.report_dict()

    def test_failed_replicate_excluded_from_aggregates(self):
        config = mini_sweep()
        specs = sweep_specs(config)
        specs[0] = dataclasses.replace(specs[0], inject="raise")
        result = merge_sweep(config, run_specs(specs, workers=1))
        assert len(result.runs) == 1
        assert len(result.failures) == 1
        assert result.failures[0].kind == "exception"
        assert all(stats["n"] == 1.0
                   for stats in result.aggregates.values())
        assert result.report_dict()["failures"][0]["label"] == "seed-1"

    def test_report_identical_for_any_worker_count(self):
        config = SweepConfig(seeds=(1, 2, 3), run_minutes=4.0,
                             warmup_minutes=1.0, direct=True)
        one = run_sweep(config, workers=1)
        two = run_sweep(config, workers=2)
        assert one.report_dict() == two.report_dict()

    def test_merge_rejects_wrong_payload_count(self):
        config = mini_sweep()
        with pytest.raises(ValueError):
            merge_sweep(config, [])

    def test_sweep_report_renders(self):
        from repro.analysis.reporting import render_sweep_report

        report = render_sweep_report(run_sweep(mini_sweep()))
        assert "# Seed sweep report" in report
        assert "seed-1" in report and "seed-2" in report
        assert "mean" in report

    def test_sweep_json_round_trip(self, tmp_path):
        from repro.analysis.export import (
            export_sweep_json,
            load_sweep_json,
        )

        result = run_sweep(mini_sweep())
        path = tmp_path / "sweep.json"
        export_sweep_json(result, str(path))
        loaded = load_sweep_json(str(path))
        assert loaded["seeds"] == [1, 2]
        assert [r["label"] for r in loaded["runs"]] == ["seed-1", "seed-2"]
        assert loaded["aggregates"].keys() == result.aggregates.keys()

