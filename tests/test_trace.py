"""Causal tracing: never perturbs, always closes, round-trips.

The cardinal rule of :mod:`repro.obs.trace` mirrors the obs one: a
trace-on run is bit-identical to a blind one — same discrete log hash,
same trajectory fingerprints, same event count — on the scalar and
SoA paths.  Beyond bit-identity these tests pin the collector
invariants (every span closes, nests under a parent in the same trace,
never moves backwards in sim time), the byte-determinism of
trace.jsonl across worker counts, the data-age analytics and the
``repro trace`` CLI including its diff regression gate.
"""

import json

import pytest

from repro.analysis.dataage import (
    actuation_ages,
    diff_summaries,
    percentile,
    summarize_dataage,
)
from repro.analysis.fingerprint import (
    compare_fingerprints,
    discrete_log_hash,
    load_fingerprint,
    trajectory_fingerprint,
)
from repro.core.config import BubbleZeroConfig
from repro.core.system import BubbleZero
from repro.obs import create_observability
from repro.obs import trace as tr
from repro.obs.collect import obs_payload
from repro.obs.status import (
    load_telemetry,
    render_status,
    validate_telemetry,
    write_run_telemetry,
)
from repro.obs.trace import (
    ACTUATE,
    MAC,
    MAC_ATTEMPT,
    SENSE,
    TRACE_SUMMARY,
    NULL_TRACE,
    TraceCollector,
    chrome_trace,
    render_span_tree,
    summary_record,
    validate_trace_jsonl,
    validate_trace_records,
)
from repro.runtime.pool import run_specs
from repro.runtime.spec import RunSpec
from repro.scenarios.spec import ScenarioSpec

from .golden_trials import GOLDEN_DIR, run_golden_trial

RUN_S = 8 * 60.0


def _run_system(seed=3, obs=None, vector=True):
    config = BubbleZeroConfig(seed=seed, physics_vector=vector)
    system = BubbleZero(config, obs=obs)
    system.start()
    system.run(minutes=RUN_S / 60.0)
    system.finalize()
    return system


# ----------------------------------------------------------------------
# Bit-identity: tracing must not perturb
# ----------------------------------------------------------------------
class TestTraceEquivalence:
    @pytest.mark.parametrize("vector", [True, False],
                             ids=["soa", "scalar"])
    def test_trace_on_is_bit_identical(self, vector):
        blind = _run_system(vector=vector)
        obs = create_observability(trace=True)
        traced = _run_system(obs=obs, vector=vector)
        assert (discrete_log_hash(blind)
                == discrete_log_hash(traced))
        assert (blind.sim.events_dispatched
                == traced.sim.events_dispatched)
        assert compare_fingerprints(
            trajectory_fingerprint(blind),
            trajectory_fingerprint(traced)) == []
        # And the run actually produced traces.
        payload = obs_payload(traced, obs)
        summary = payload["trace"]["summary"]
        assert summary["traces"] > 0
        assert summary["actuated"] > 0

    @pytest.mark.parametrize("macro", [True, False],
                             ids=["macro", "reference"])
    def test_trace_on_golden_hash_matches_npz(self, macro):
        """A traced golden replay hashes identically to the blind
        replay behind the committed NPZ, on both physics paths."""
        obs = create_observability(trace=True)
        system = run_golden_trial("chaos_quick", macro=macro, obs=obs)
        npz = load_fingerprint(GOLDEN_DIR / "chaos_quick.npz")
        assert discrete_log_hash(system) == npz["discrete_hash"]
        assert obs.trace.traces_started > 0


# ----------------------------------------------------------------------
# Byte determinism across worker counts
# ----------------------------------------------------------------------
class TestTraceByteIdentity:
    def test_trace_jsonl_identical_serial_vs_pooled(self, tmp_path):
        specs = [RunSpec(label=f"seed-{seed}",
                         scenario=ScenarioSpec(
                             name=f"seed-{seed}",
                             config=BubbleZeroConfig(seed=seed),
                             run_minutes=2.0, warmup_minutes=0.0),
                         trace=True)
                 for seed in (1, 2)]
        texts = []
        for workers in (1, 2):
            payloads = run_specs(specs, workers=workers)
            directory = tmp_path / f"w{workers}"
            write_run_telemetry(
                str(directory), {"command": "test"},
                [spec.label for spec in specs],
                {result.label: result.obs for result in payloads})
            texts.append((directory / "trace.jsonl").read_bytes())
        assert texts[0] == texts[1]
        assert texts[0].startswith(b'{"actuated"')


# ----------------------------------------------------------------------
# Collector invariants (property-based)
# ----------------------------------------------------------------------
def _drive(collector, journeys):
    """Replay synthetic packet journeys against the collector.

    Each journey is (admission_drop, attempts, dropped, delivered,
    actuated); the clock only moves forward.  Returns the expected
    root status per started trace, in order.
    """
    clock = 0.0
    expected = []
    # cache_key -> index into ``expected`` of the trace whose ingest is
    # still pending consumption; an actuation attributes *all* pending
    # ingests on the board (collector semantics), so earlier delivered
    # traces get promoted to actuated by a later journey's actuation.
    pending = {}
    for i, journey in enumerate(journeys):
        admission_drop, attempts, dropped, delivered, actuated = journey
        clock += 1.0
        tc = collector.begin(f"bt-{i % 3}", "temperature", i % 4, clock)
        if tc is None:
            continue
        if admission_drop:
            collector.mac_drop(tc, f"bt-{i % 3}", clock)
            expected.append(tr.STATUS_DROPPED)
            continue
        collector.mac_enqueue(tc, i, f"bt-{i % 3}", clock)
        for attempt in range(attempts):
            clock += 0.01
            attempt_start = clock
            clock += 0.005
            last = attempt == attempts - 1
            busy = not last or dropped
            collector.mac_cca(i, f"bt-{i % 3}", attempt_start, clock,
                              attempt, busy=busy,
                              dropped=dropped and last)
        if dropped:
            expected.append(tr.STATUS_DROPPED)
            continue
        clock += 0.001
        collector.mac_sent(i, f"bt-{i % 3}", clock, attempts - 1)
        air_start = clock
        clock += 0.004
        collector.air(tc, f"bt-{i % 3}", air_start, clock, collided=0,
                      receivers=1)
        if not delivered:
            expected.append(tr.STATUS_IN_FLIGHT)
            continue
        collector.ingest(tc, "board-c2", ("temperature", i % 4), clock)
        expected.append(tr.STATUS_DELIVERED)
        pending[("temperature", i % 4)] = len(expected) - 1
        if actuated:
            clock += 0.5
            collector.actuate("board-c2", clock, tier=1, conservative=0)
            for index in pending.values():
                expected[index] = tr.STATUS_ACTUATED
            pending.clear()
    return clock, expected


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

journey = st.tuples(st.booleans(), st.integers(1, 4), st.booleans(),
                    st.booleans(), st.booleans())


class TestCollectorProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(journey, min_size=1, max_size=12))
    def test_every_span_closes_and_nests(self, journeys):
        collector = TraceCollector()
        clock, expected = _drive(collector, journeys)
        payload = collector.flush(clock + 1.0)
        spans = payload["spans"]
        assert validate_trace_records(spans) == []
        by_span = {span["span"]: span for span in spans}
        assert len(by_span) == len(spans), "span ids must be unique"
        assert spans == sorted(spans,
                               key=lambda s: (s["trace"], s["span"]))
        for span in spans:
            # Closed, and never moving backwards in sim time.
            assert 0.0 <= span["t0"] <= span["t1"] <= clock + 1.0
            parent = span["parent"]
            if span["name"] == SENSE:
                assert parent is None
            else:
                # Nesting: the parent exists, belongs to the same
                # trace, and fully contains the child interval.
                assert parent in by_span
                parent_span = by_span[parent]
                assert parent_span["trace"] == span["trace"]
                assert parent_span["t0"] <= span["t0"]
                assert parent_span["t1"] >= span["t1"]
        # The root statuses match the journeys that produced them.
        roots = [span for span in spans if span["name"] == SENSE]
        assert [root["status"] for root in roots] == expected
        summary = payload["summary"]
        assert summary["traces"] == len(roots)
        assert summary["spans"] == len(spans)
        assert (summary["actuated"] + summary["delivered"]
                + summary["dropped"] + summary["in_flight"]
                == summary["traces"])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(journey, min_size=1, max_size=12))
    def test_flush_is_idempotent(self, journeys):
        collector = TraceCollector()
        clock, _ = _drive(collector, journeys)
        first = collector.flush(clock + 1.0)
        assert collector.flush(clock + 99.0) is first


class TestCollectorEdges:
    def test_sampling_cap_counts_not_drops(self):
        collector = TraceCollector(max_traces=2)
        _drive(collector, [(False, 1, False, True, True)] * 5)
        payload = collector.flush(100.0)
        assert payload["summary"]["traces"] == 2
        assert payload["summary"]["sampled_out"] == 3
        # Live traces keep every span: 2 × (sense, mac, attempt, air,
        # ingest, actuate).
        assert payload["summary"]["spans"] == 12
        assert validate_trace_records(payload["spans"]) == []

    def test_open_spans_forced_closed_at_flush(self):
        collector = TraceCollector()
        tc = collector.begin("bt-0", "temperature", 0, 1.0)
        collector.mac_enqueue(tc, 0, "bt-0", 1.0)
        payload = collector.flush(5.0)
        assert validate_trace_records(payload["spans"]) == []
        assert payload["summary"]["open_spans_at_shutdown"] == 1
        mac = next(s for s in payload["spans"] if s["name"] == MAC)
        assert mac["outcome"] == "open" and mac["t1"] == 5.0
        sense = next(s for s in payload["spans"] if s["name"] == SENSE)
        assert sense["status"] == tr.STATUS_IN_FLIGHT
        assert sense["t1"] == 5.0

    def test_head_sampling_is_deterministic(self):
        def run():
            collector = TraceCollector(sample_every=3)
            clock, _ = _drive(collector,
                              [(False, 1, False, True, True)] * 10)
            return collector.flush(clock + 1.0)

        first, second = run(), run()
        # Epochs 0, 3, 6, 9 are the picks — a counter comparison, so
        # both runs trace exactly the same epochs with the same spans.
        assert first["summary"]["traces"] == 4
        assert first["summary"]["sampled_out"] == 6
        assert first["summary"]["sample_every"] == 3
        assert first["spans"] == second["spans"]

    def test_sample_every_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceCollector(sample_every=0)

    def test_disabled_collector_begins_nothing(self):
        assert NULL_TRACE.begin("bt-0", "temperature", 0, 1.0) is None
        assert NULL_TRACE.enabled is False

    def test_actuation_attributes_newest_ingest_per_key(self):
        collector = TraceCollector()
        for i in range(2):
            tc = collector.begin("bt-0", "temperature", 0, float(i))
            collector.ingest(tc, "board-c2", ("temperature", 0),
                             float(i))
        collector.actuate("board-c2", 10.0, tier=1, conservative=0)
        payload = collector.flush(11.0)
        actuates = [s for s in payload["spans"] if s["name"] == ACTUATE]
        # One cache key: only the newest ingest feeds the decision.
        assert [a["trace"] for a in actuates] == [2]
        assert actuates[0]["age_s"] == pytest.approx(9.0)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def _valid_sense():
    return {"trace": 1, "span": 1, "parent": None, "name": SENSE,
            "t0": 1.0, "t1": 2.0, "device": "bt-0",
            "data_type": "temperature", "status": "actuated"}


class TestValidation:
    def test_valid_span_passes(self):
        assert tr.validate_span(_valid_sense()) == []

    def test_missing_required_field(self):
        record = _valid_sense()
        del record["status"]
        assert any("missing" in p for p in tr.validate_span(record))

    def test_undocumented_field_rejected(self):
        record = _valid_sense()
        record["surprise"] = 1
        assert any("undocumented" in p
                   for p in tr.validate_span(record))

    def test_mistyped_field_rejected(self):
        record = _valid_sense()
        record["t0"] = "soon"
        assert any("t0" in p for p in tr.validate_span(record))

    def test_bool_is_not_a_number(self):
        record = _valid_sense()
        record["t0"] = True
        assert tr.validate_span(record)

    def test_unknown_name_rejected(self):
        assert tr.validate_span({"name": "bogus"})

    def test_jsonl_flags_garbage_lines(self):
        text = (json.dumps(_valid_sense(), sort_keys=True)
                + "\nnot json\n[1, 2]\n")
        problems = validate_trace_jsonl(text)
        assert any("line 2" in p and "not valid JSON" in p
                   for p in problems)
        assert any("line 3" in p and "not a JSON object" in p
                   for p in problems)

    def test_summary_record_validates(self):
        collector = TraceCollector()
        payload = collector.flush(0.0)
        record = summary_record(payload["summary"], run="r")
        assert tr.validate_span(record) == []
        assert record["name"] == TRACE_SUMMARY


# ----------------------------------------------------------------------
# Data-age analytics
# ----------------------------------------------------------------------
class TestPercentile:
    def test_nearest_rank_no_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.50) == 2.0
        assert percentile(values, 0.95) == 4.0
        assert percentile(values, 1.0) == 4.0
        assert percentile([7.0], 0.01) == 7.0

    def test_rejects_empty_and_bad_q(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=50),
           st.floats(0.01, 1.0))
    def test_result_is_always_a_member(self, values, q):
        ordered = sorted(values)
        assert percentile(ordered, q) in ordered


def _synthetic_payload():
    """One end-to-end journey plus a dropped one, via the collector."""
    collector = TraceCollector()
    clock, _ = _drive(collector, [
        (False, 2, False, True, True),   # actuated, one backoff
        (True, 0, False, False, False),  # admission drop
        (False, 1, True, False, False),  # CCA-exhaustion drop
    ])
    flushed = collector.flush(clock + 1.0)
    return {"events": [], "dropped_events": 0, "metrics": {},
            "health": {}, "profile": None, "trace": flushed}


class TestDataage:
    def test_summarize_counts_and_attribution(self):
        payload = _synthetic_payload()
        records = ([summary_record(payload["trace"]["summary"])]
                   + payload["trace"]["spans"])
        summary = summarize_dataage(records)
        assert summary["traces"] == 3
        assert summary["statuses"] == {"actuated": 1, "dropped": 2}
        assert summary["ages"]["overall"]["n"] == 1
        assert summary["hops"]["mac"]["n"] == 3
        attribution = summary["attribution"]
        assert attribution["admission_drops"] == 1
        assert attribution["mac_drops"] == 1
        assert attribution["backoffs"] == 1
        assert attribution["cca_failures"] == 2

    def test_zone_split(self):
        collector = TraceCollector()
        for zone in (0, 0, 1):
            tc = collector.begin("bt-0", "temperature", zone, 0.0)
            collector.ingest(tc, "board", ("temperature", zone), 0.5)
            collector.actuate("board", 1.0 + zone, tier=1,
                              conservative=0)
        spans = collector.flush(5.0)["spans"]
        zones = summarize_dataage(spans)["ages"]["zones"]
        assert set(zones) == {"0", "1"}
        assert zones["0"]["n"] == 2 and zones["1"]["n"] == 1

    def test_actuation_ages_sorted_rows(self):
        spans = _synthetic_payload()["trace"]["spans"]
        rows = actuation_ages(spans)
        assert len(rows) == 1
        assert set(rows[0]) == {"t", "age_s", "zone", "device"}
        assert rows[0]["age_s"] > 0.0

    def test_diff_clean_when_identical(self):
        summary = summarize_dataage(
            _synthetic_payload()["trace"]["spans"])
        diff = diff_summaries(summary, summary)
        assert diff["ok"] and diff["regressions"] == []
        assert diff["rows"]

    def test_diff_flags_age_growth_over_both_thresholds(self):
        base = summarize_dataage(_synthetic_payload()["trace"]["spans"])
        worse = json.loads(json.dumps(base))
        worse["ages"]["overall"]["p95_s"] += 10.0
        worse["ages"]["overall"]["p99_s"] += 10.0
        diff = diff_summaries(base, worse)
        assert not diff["ok"]
        assert any("p95_s" in r for r in diff["regressions"])

    def test_diff_absolute_floor_absorbs_micro_jitter(self):
        base = summarize_dataage(_synthetic_payload()["trace"]["spans"])
        jitter = json.loads(json.dumps(base))
        jitter["ages"]["overall"]["p95_s"] += 0.01
        jitter["ages"]["overall"]["p99_s"] += 0.01
        assert diff_summaries(base, jitter,
                              tolerance_pct=0.001)["ok"]

    def test_diff_flags_any_drop_increase(self):
        base = summarize_dataage(_synthetic_payload()["trace"]["spans"])
        worse = json.loads(json.dumps(base))
        worse["attribution"]["mac_drops"] += 1
        diff = diff_summaries(base, worse)
        assert not diff["ok"]
        assert any("mac_drops" in r for r in diff["regressions"])


# ----------------------------------------------------------------------
# SLO integration (satellite: data-age columns in the chaos scorer)
# ----------------------------------------------------------------------
class TestSloDataage:
    def test_windows_and_totals_carry_age_p95(self):
        from repro.analysis.slo import SloBudgets, score_run
        ages = [{"t": float(t), "age_s": 1.0 + (t >= 300.0),
                 "zone": 0, "device": "b"} for t in range(0, 600, 60)]
        report = score_run([], "aged", t0=0.0, horizon_s=600.0,
                           window_s=300.0, budgets=SloBudgets(),
                           ages=ages)
        assert [w.dataage_p95_s for w in report.windows] == [1.0, 2.0]
        assert report.dataage_p95_s == 2.0
        # No faults: the fault-active delta has no population.
        assert report.fault_age_delta_s is None

    def test_fault_age_delta_inside_minus_outside(self):
        from repro.analysis.slo import SloBudgets, score_run
        from repro.obs.events import FAULT_CLEARED, FAULT_INJECTED
        records = [
            {"kind": FAULT_INJECTED, "t": 100.0, "fault": "stuck",
             "device": "bt-0"},
            {"kind": FAULT_CLEARED, "t": 200.0, "fault": "stuck",
             "device": "bt-0"},
        ]
        ages = [{"t": 150.0, "age_s": 3.0, "zone": 0, "device": "b"},
                {"t": 400.0, "age_s": 1.0, "zone": 0, "device": "b"}]
        report = score_run(records, "delta", t0=0.0, horizon_s=600.0,
                           window_s=600.0, budgets=SloBudgets(),
                           ages=ages)
        assert report.fault_age_delta_s == pytest.approx(2.0)

    def test_report_rows_with_age_columns_validate(self):
        from repro.analysis.slo import (
            SloBudgets,
            score_run,
            validate_report_rows,
        )
        report = score_run([], "rows", t0=0.0, horizon_s=600.0,
                           window_s=300.0, budgets=SloBudgets(),
                           ages=[{"t": 10.0, "age_s": 1.5, "zone": 0,
                                  "device": "b"}])
        rows = [w.row("rows") for w in report.windows]
        rows.append(report.summary_row())
        assert validate_report_rows(rows) == []


# ----------------------------------------------------------------------
# Rendering and export
# ----------------------------------------------------------------------
class TestRendering:
    def test_span_tree_shows_causal_chain(self):
        spans = _synthetic_payload()["trace"]["spans"]
        tree = render_span_tree(spans, 1)
        assert "sense bt-0 temperature" in tree
        assert "status=actuated" in tree
        assert "└─" in tree and "mac" in tree
        assert "actuate board-c2" in tree

    def test_span_tree_unknown_trace(self):
        assert "no spans" in render_span_tree([], 99)

    def test_chrome_trace_export_shape(self):
        spans = _synthetic_payload()["trace"]["spans"]
        export = chrome_trace(spans)
        events = export["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert any(e["name"] == "process_name" for e in meta)
        assert len(complete) == len(spans)
        for event in complete:
            assert event["dur"] >= 0.0
            assert event["pid"] == 1 and event["tid"] >= 1
        # Sim seconds exported as microseconds.
        sense = next(e for e in complete if e["cat"] == SENSE)
        root = next(s for s in spans if s["name"] == SENSE)
        assert sense["ts"] == pytest.approx(root["t0"] * 1e6)


# ----------------------------------------------------------------------
# Telemetry round-trip and the trace CLI
# ----------------------------------------------------------------------
def _write_synthetic_dir(directory):
    write_run_telemetry(str(directory), {"command": "test"},
                        ["run-a"], {"run-a": _synthetic_payload()})


class TestTelemetryRoundTrip:
    def test_trace_jsonl_written_summary_first(self, tmp_path):
        _write_synthetic_dir(tmp_path)
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        first = json.loads(lines[0])
        assert first["name"] == TRACE_SUMMARY
        assert first["run"] == "run-a"
        assert all(json.loads(line)["run"] == "run-a"
                   for line in lines[1:])

    def test_status_renders_trace_tables(self, tmp_path):
        _write_synthetic_dir(tmp_path)
        rendered = render_status(load_telemetry(str(tmp_path)))
        assert "Trace" in rendered
        assert "Sensing→actuation data age by zone" in rendered

    def test_validate_flags_corrupt_trace_jsonl(self, tmp_path):
        _write_synthetic_dir(tmp_path)
        # The synthetic dir has no events/metrics files; restrict the
        # check to the trace problems.
        path = tmp_path / "trace.jsonl"
        good = [p for p in validate_telemetry(str(tmp_path))
                if p.startswith("trace.jsonl")]
        assert good == []
        record = json.loads(path.read_text().splitlines()[1])
        del record["device"]
        path.write_text(json.dumps(record, sort_keys=True) + "\n")
        bad = [p for p in validate_telemetry(str(tmp_path))
               if p.startswith("trace.jsonl")]
        assert any("missing required field" in p for p in bad)


class TestTraceCli:
    def test_renders_tree_and_tables(self, tmp_path, capsys):
        from repro.cli import main
        _write_synthetic_dir(tmp_path)
        assert main(["trace", "--telemetry", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Latency breakdown (seconds)" in out
        assert "Loss & retry attribution" in out
        assert "sense bt-0 temperature" in out

    def test_save_summary_then_clean_diff(self, tmp_path, capsys):
        from repro.cli import main
        _write_synthetic_dir(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(["trace", "--telemetry", str(tmp_path),
                     "--save-summary", str(baseline)]) == 0
        assert main(["trace", "--telemetry", str(tmp_path),
                     "--diff", str(baseline)]) == 0
        assert "no data-age regressions" in capsys.readouterr().out

    def test_diff_regression_exits_1(self, tmp_path, capsys):
        from repro.cli import main
        _write_synthetic_dir(tmp_path)
        baseline_path = tmp_path / "baseline.json"
        assert main(["trace", "--telemetry", str(tmp_path),
                     "--save-summary", str(baseline_path)]) == 0
        baseline = json.loads(baseline_path.read_text())
        baseline["ages"]["overall"]["p95_s"] = 0.0001
        baseline["ages"]["overall"]["p99_s"] = 0.0001
        baseline_path.write_text(json.dumps(baseline))
        assert main(["trace", "--telemetry", str(tmp_path),
                     "--diff", str(baseline_path)]) == 1
        assert "regression" in capsys.readouterr().err

    def test_export_chrome_writes_loadable_json(self, tmp_path):
        from repro.cli import main
        _write_synthetic_dir(tmp_path)
        out = tmp_path / "chrome.json"
        assert main(["trace", "--telemetry", str(tmp_path),
                     "--export-chrome", str(out)]) == 0
        export = json.loads(out.read_text())
        assert export["traceEvents"]

    def test_missing_trace_jsonl_exits_2(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["trace", "--telemetry", str(tmp_path)]) == 2
        assert "no trace.jsonl" in capsys.readouterr().err

    def test_unknown_run_exits_2(self, tmp_path, capsys):
        from repro.cli import main
        _write_synthetic_dir(tmp_path)
        assert main(["trace", "--telemetry", str(tmp_path),
                     "--run", "nope"]) == 2
        assert "run-a" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "campaign", "sweep"])
    def test_trace_requires_telemetry(self, command, capsys):
        from repro.cli import main
        argv = {"run": ["run", "--scenario", "paper-va", "--trace"],
                "campaign": ["campaign", "--trace"],
                "sweep": ["sweep", "--trace"]}[command]
        assert main(argv) == 2
        assert "--telemetry" in capsys.readouterr().err
