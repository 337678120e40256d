"""Tests for the benchmark harness helpers (repro.bench).

The real trials take seconds each, so ``run_best_of`` and ``main`` are
exercised against stub trials injected into ``TRIALS``, and the overhead
scoring against a stubbed lockstep measurement.
"""

import json

import pytest

from repro import bench
from repro.physics import psychrometrics


class TestDomainMismatches:
    def test_timing_keys_are_ignored(self):
        first = {"wall_s": 1.0, "events_per_s": 10.0, "events": 100,
                 "nested": {"sim_s_per_wall_s": 2.0, "metric": 5.0}}
        other = {"wall_s": 9.0, "events_per_s": 1.0, "events": 100,
                 "nested": {"sim_s_per_wall_s": 7.0, "metric": 5.0}}
        assert bench.domain_mismatches(first, other) == []

    def test_domain_divergence_is_reported(self):
        first = {"events": 100, "nested": {"metric": 5.0}}
        other = {"events": 101, "nested": {"metric": 6.0}}
        mismatches = bench.domain_mismatches(first, other)
        assert len(mismatches) == 2
        assert any(m.startswith("events:") for m in mismatches)
        assert any(m.startswith("nested/metric:") for m in mismatches)

    def test_missing_key_counts_as_mismatch(self):
        assert bench.domain_mismatches({"events": 1}, {}) != []

    def test_state_digest_divergence_is_reported(self):
        # Equal discrete hashes do not make two runs the same physics.
        first = {"discrete_hash": "h", "state_digest": "a"}
        other = {"discrete_hash": "h", "state_digest": "b"}
        mismatches = bench.domain_mismatches(first, other)
        assert [m.split(":")[0] for m in mismatches] == ["state_digest"]

    def test_obs_payload_subtree_is_ignored(self):
        # Telemetry payloads carry wall-clock profile samples that
        # differ between otherwise identical runs.
        first = {"events": 100}
        other = {"events": 100,
                 "obs_payload": {"profile": {"est_wall_s": 1.23}}}
        assert bench.domain_mismatches(first, other) == []


def _stub_result(wall, **domain):
    return {"wall_s": wall, "sim_s": 60.0, "events": 1000,
            "events_per_s": 1000 / wall, "sim_s_per_wall_s": 60.0 / wall,
            "discrete_hash": "h", "state_digest": "d", **domain}


class TestRunBestOf:
    def _install_stub(self, monkeypatch, walls, domain_value=42):
        calls = iter(walls)

        def stub_trial():
            return _stub_result(next(calls), domain=domain_value)

        monkeypatch.setitem(bench.TRIALS, "stub",
                            bench.Trial("paper-va", stub_trial))

    def test_keeps_best_wall_and_recomputes_rates(self, monkeypatch):
        self._install_stub(monkeypatch, walls=[2.0, 0.5, 1.0])
        best = bench.run_best_of("stub", repeat=3)
        assert best["wall_s"] == 0.5
        assert best["events_per_s"] == pytest.approx(2000.0)
        assert best["sim_s_per_wall_s"] == pytest.approx(120.0)
        assert best["repeat"] == 3

    def test_rejects_non_positive_repeat(self):
        with pytest.raises(ValueError):
            bench.run_best_of("hvac", repeat=0)

    def test_raises_on_nondeterministic_trial(self, monkeypatch):
        drifting = iter([41, 42])

        def flaky_trial():
            return _stub_result(1.0, domain=next(drifting))

        monkeypatch.setitem(bench.TRIALS, "flaky",
                            bench.Trial("paper-va", flaky_trial))
        with pytest.raises(RuntimeError, match="not deterministic"):
            bench.run_best_of("flaky", repeat=2)

    def test_raises_on_physics_divergence_alone(self, monkeypatch):
        # Same discrete hash and counters, different final physics
        # state: the repeat check must still see it.
        digests = iter(["a", "b"])

        def flaky_trial():
            result = _stub_result(1.0)
            result["state_digest"] = next(digests)
            return result

        monkeypatch.setitem(bench.TRIALS, "flaky",
                            bench.Trial("paper-va", flaky_trial))
        with pytest.raises(RuntimeError, match="state_digest"):
            bench.run_best_of("flaky", repeat=2)


class TestBaselineGate:
    """``main`` writes the report, then exits 1 on any baseline breach."""

    def _run(self, monkeypatch, tmp_path, base_events=1000, base_cop=4.0,
             domain=(("cop", 4.0),)):
        monkeypatch.setitem(bench.TRIALS, "stub", bench.Trial(
            "paper-va", lambda: _stub_result(1.0, **dict(domain))))
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "exact_metrics": ["events"], "relative_tolerance": 1e-12,
            "trials": {"stub": {"wall_s": 2.0, "events": base_events,
                                "cop": base_cop}}}))
        out = tmp_path / "bench.json"
        code = bench.main(["--trial", "stub", "--baseline", str(baseline),
                           "-o", str(out)])
        report = json.loads(out.read_text())
        assert report["trials"]["stub"]["state_digest"] == "d"
        assert report["speedup_vs_baseline"]["stub"] == pytest.approx(2.0)
        return code

    def test_matching_baseline_exits_zero(self, monkeypatch, tmp_path,
                                          capsys):
        assert self._run(monkeypatch, tmp_path) == 0
        out = capsys.readouterr().out
        assert "stub/events: EXACT" in out
        assert "stub/cop: drift 0.000e+00 (ok)" in out

    def test_exact_metric_mismatch_exits_one(self, monkeypatch, tmp_path,
                                             capsys):
        assert self._run(monkeypatch, tmp_path, base_events=1001) == 1
        captured = capsys.readouterr()
        assert "MISMATCH" in captured.out
        assert "baseline check FAILED" in captured.err

    def test_tolerance_breach_exits_one(self, monkeypatch, tmp_path, capsys):
        assert self._run(monkeypatch, tmp_path, base_cop=4.1) == 1
        assert "EXCEEDS" in capsys.readouterr().out

    def test_missing_metric_exits_one(self, monkeypatch, tmp_path, capsys):
        assert self._run(monkeypatch, tmp_path, domain=()) == 1
        captured = capsys.readouterr()
        assert "stub/cop: MISSING base=4.0" in captured.out
        assert "baseline check FAILED" in captured.err

    def test_missing_exact_metric_fails(self):
        result = _stub_result(1.0)
        del result["events"]
        lines, held = bench.compare_to_baseline(
            "stub", result, {"exact_metrics": ["events"],
                             "trials": {"stub": {"wall_s": 2.0,
                                                 "events": 1000}}})
        assert not held
        assert "  stub/events: MISSING base=1000" in lines

    def test_unrecorded_trial_is_not_a_failure(self):
        lines, held = bench.compare_to_baseline(
            "stub", _stub_result(1.0), {"trials": {}})
        assert held and lines == ["stub: no baseline recorded"]

    @pytest.mark.parametrize("removed", [["--grid", "4"], ["--no-macro"]])
    def test_removed_options_are_rejected(self, removed):
        with pytest.raises(SystemExit) as exc:
            bench.main(removed)
        assert exc.value.code == 2


class TestOverheadBlock:
    """Scoring of lockstep rounds, on a stubbed measurement."""

    def _install(self, monkeypatch, ratios, **flags):
        rounds = iter(ratios)

        def fake_measure(name, trace=False, trace_sample=None):
            chunk = next(rounds)
            return {"wall_s_off": 1.0, "wall_s_on": 1.01,
                    "overhead_pct": (sorted(chunk)[len(chunk) // 2] - 1)
                    * 100.0,
                    "chunk_ratios": chunk,
                    "hashes_equal": True, "state_digest_equal": True,
                    "events_dispatched_equal": True, **flags,
                    "obs_payload": {"events": [1, 2], "profile": {},
                                    "trace": {"spans": [1],
                                              "summary": {
                                                  "sample_every": 8,
                                                  "traces": 3,
                                                  "sampled_out": 21}}}}

        monkeypatch.setattr(bench, "measure_obs_overhead", fake_measure)

    def test_pooled_median_within_budget(self, monkeypatch):
        self._install(monkeypatch, [[1.00, 1.01, 1.02], [1.00, 1.01, 1.50]])
        block, _, ok = bench.measure_overhead_block("hvac", 2)
        assert ok and block["within_budget"]
        assert block["overhead_pct"] == pytest.approx(1.0)
        assert block["chunks_pooled"] == 6
        assert block["events_emitted"] == 2
        assert block["state_digest_equal"] is True

    def test_physics_divergence_fails_the_block(self, monkeypatch):
        self._install(monkeypatch, [[1.0, 1.0, 1.0]],
                      state_digest_equal=False)
        block, _, ok = bench.measure_overhead_block("hvac", 1)
        assert block["within_budget"]
        assert block["hashes_equal"] is True
        assert block["state_digest_equal"] is False
        assert not ok

    def test_over_budget_fails_only_when_gated(self, monkeypatch):
        self._install(monkeypatch, [[1.10], [1.10]])
        _, _, gated_ok = bench.measure_overhead_block("hvac", 1, trace=True)
        block, _, ungated_ok = bench.measure_overhead_block(
            "hvac", 1, trace=True, trace_sample=1, gated=False)
        assert not gated_ok and ungated_ok
        assert block["informational"] is True
        assert block["traces"] == 3 and "sampled_out" not in block


class TestPsychroCacheStats:
    def test_hit_rate_reported_per_relation(self):
        psychrometrics.cache_clear()
        psychrometrics.dew_point(25.0, 60.0)
        psychrometrics.dew_point(25.0, 60.0)
        stats = psychrometrics.cache_stats()
        for info in stats.values():
            assert 0.0 <= info["hit_rate"] <= 1.0
        dew = stats["dew_point"]
        assert dew["hits"] >= 1
        assert dew["hit_rate"] > 0.0

    def test_saturation_vapor_pressure_is_uncached(self):
        # The SVP memo recorded zero hits in BENCH_3 (its hot callers go
        # through the memoized humidity_ratio layer), so it was dropped;
        # the stats dict must no longer advertise it.
        assert "saturation_vapor_pressure" not in psychrometrics.cache_info()
