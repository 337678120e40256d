"""Unit tests for the observability layer (repro.obs)."""

import json

import pytest

from repro.obs import NULL_OBS, Observability, create_observability
from repro.obs.collect import histogram
from repro.obs.events import (
    COLLISION_BURST,
    CONSERVATIVE_LATCHED,
    FAULT_CLEARED,
    FAULT_INJECTED,
    TIER_TRANSITION,
    WORKER_FINISHED,
    WORKER_STARTED,
    EventLog,
    from_jsonl,
    sort_worker_records,
    to_jsonl,
    worker_record,
)
from repro.obs.manifest import build_manifest, config_hash
from repro.obs.profiler import (
    COMPONENTS,
    SimTimeProfiler,
    classify_component,
)
from repro.obs.schema import (
    EVENT_SCHEMA,
    validate_event,
    validate_jsonl,
    validate_records,
)
from repro.runtime.progress import FINISHED, STARTED, ProgressEvent


class TestHistogram:
    def test_histogram_buckets_and_stats(self):
        hist = histogram((0.5, 1.5, 3.0, 99.0), edges=(1.0, 2.0, 4.0))
        assert hist["edges"] == [1.0, 2.0, 4.0]
        assert hist["bucket_counts"] == [1, 1, 1, 1]
        assert hist["count"] == 4
        assert hist["sum"] == 104.0
        assert hist["min"] == 0.5
        assert hist["max"] == 99.0

    def test_value_on_an_edge_falls_in_that_bucket(self):
        hist = histogram((1.0, 2.0, 2.5), edges=(1.0, 2.0))
        assert hist["bucket_counts"] == [1, 1, 1]

    def test_empty_histogram(self):
        hist = histogram((), edges=(1.0,))
        assert hist == {"edges": [1.0], "bucket_counts": [0, 0],
                        "count": 0, "sum": 0.0, "min": None, "max": None}


class TestEventLog:
    def test_emit_and_query(self):
        log = EventLog(enabled=True)
        log.emit(FAULT_INJECTED, 10.0, fault="stuck", device="bt-0")
        log.emit(FAULT_CLEARED, 20.0, fault="stuck", device="bt-0")
        log.emit(FAULT_INJECTED, 30.0, fault="drift", device="bt-1")
        assert len(log) == 3
        assert len(log.of_kind(FAULT_INJECTED)) == 2
        assert log.counts_by_kind() == {FAULT_CLEARED: 1, FAULT_INJECTED: 2}

    def test_disabled_log_is_noop(self):
        log = EventLog(enabled=False)
        log.emit(FAULT_INJECTED, 10.0, fault="stuck", device="bt-0")
        assert len(log) == 0
        assert log.dropped == 0

    def test_bounded_drops(self):
        log = EventLog(enabled=True, max_records=2)
        for t in range(5):
            log.emit(CONSERVATIVE_LATCHED, float(t))
        assert len(log) == 2
        assert log.dropped == 3

    def test_kind_indexes_match_brute_force_scan(self):
        # The O(1) per-kind indexes must agree with a full scan of
        # ``records`` at every point, including past the drop cap
        # (dropped emissions never reach either view).
        log = EventLog(enabled=True, max_records=6)
        kinds = [FAULT_INJECTED, FAULT_CLEARED, CONSERVATIVE_LATCHED]
        for i in range(10):
            log.emit(kinds[i % len(kinds)], float(i), device=f"bt-{i}")
            brute_counts = {}
            for record in log.records:
                kind = record["kind"]
                brute_counts[kind] = brute_counts.get(kind, 0) + 1
            assert log.counts_by_kind() == dict(
                sorted(brute_counts.items()))
            for kind in kinds:
                assert log.of_kind(kind) == [
                    r for r in log.records if r["kind"] == kind]
        assert log.dropped == 4

    def test_of_kind_returns_a_copy(self):
        log = EventLog(enabled=True)
        log.emit(FAULT_INJECTED, 1.0, fault="stuck", device="bt-0")
        view = log.of_kind(FAULT_INJECTED)
        view.clear()
        assert len(log.of_kind(FAULT_INJECTED)) == 1

    def test_jsonl_roundtrip(self):
        log = EventLog()
        log.emit(TIER_TRANSITION, 5.0, board="c2", estimate="temperature/room",
                 tier=1, prev_tier=0)
        text = to_jsonl(log.records)
        assert from_jsonl(text) == log.records
        # Sorted keys makes the artifact byte-deterministic.
        assert text.index('"board"') < text.index('"kind"')


class TestWorkerRecords:
    def test_worker_record_shape(self):
        event = ProgressEvent(STARTED, index=3, label="stuck-bt-0")
        record = worker_record(event)
        assert record == {"kind": WORKER_STARTED, "t": None,
                          "run": "stuck-bt-0", "index": 3, "attempt": 0}

    def test_worker_record_optional_fields(self):
        event = ProgressEvent(FINISHED, index=0, label="a", wall_s=1.5)
        record = worker_record(event)
        assert record["wall_s"] == 1.5
        assert "detail" not in record

    def test_sort_is_deterministic_by_index_attempt_lifecycle(self):
        records = [
            {"kind": WORKER_FINISHED, "t": None, "run": "b", "index": 1,
             "attempt": 0},
            {"kind": WORKER_STARTED, "t": None, "run": "b", "index": 1,
             "attempt": 0},
            {"kind": WORKER_FINISHED, "t": None, "run": "a", "index": 0,
             "attempt": 0},
        ]
        ordered = sort_worker_records(records)
        assert [(r["index"], r["kind"]) for r in ordered] == [
            (0, WORKER_FINISHED), (1, WORKER_STARTED), (1, WORKER_FINISHED)]


class TestSchema:
    SAMPLES = {
        FAULT_INJECTED: {"kind": FAULT_INJECTED, "t": 1.0, "fault": "stuck",
                         "device": "bt-0", "value": 33.0, "until": None},
        FAULT_CLEARED: {"kind": FAULT_CLEARED, "t": 2.0, "fault": "stuck",
                        "device": "bt-0"},
        TIER_TRANSITION: {"kind": TIER_TRANSITION, "t": 3.0, "board": "c2",
                          "estimate": "temperature/room", "tier": 2,
                          "prev_tier": 0},
        CONSERVATIVE_LATCHED: {"kind": CONSERVATIVE_LATCHED, "t": 4.0},
        COLLISION_BURST: {"kind": COLLISION_BURST, "t": 5.0, "frames": 4,
                          "start": 4.5, "end": 5.0},
        WORKER_STARTED: {"kind": WORKER_STARTED, "t": None, "run": "a",
                         "index": 0, "attempt": 0},
    }

    def test_valid_samples_pass(self):
        for record in self.SAMPLES.values():
            assert validate_event(record) == []

    def test_every_kind_has_a_schema_entry(self):
        # The vocabulary and the schema must not drift apart.
        from repro.obs import events as ev
        kinds = {getattr(ev, name) for name in dir(ev)
                 if name.isupper() and isinstance(getattr(ev, name), str)
                 and "." in getattr(ev, name)}
        assert kinds == set(EVENT_SCHEMA)

    def test_missing_required_field(self):
        record = dict(self.SAMPLES[TIER_TRANSITION])
        del record["board"]
        assert any("missing required" in p for p in validate_event(record))

    def test_undocumented_field_rejected(self):
        record = dict(self.SAMPLES[FAULT_CLEARED], surprise=1)
        assert any("undocumented" in p for p in validate_event(record))

    def test_bool_is_not_a_number(self):
        record = dict(self.SAMPLES[FAULT_INJECTED], value=True)
        assert any("'value'" in p for p in validate_event(record))

    def test_unknown_kind(self):
        assert validate_event({"kind": "nope.nope", "t": 0.0})

    def test_validate_records_prefixes_indices(self):
        problems = validate_records([self.SAMPLES[FAULT_CLEARED],
                                     {"kind": "bad"}])
        assert problems and problems[0].startswith("record 1:")

    def test_validate_jsonl(self):
        good = json.dumps(self.SAMPLES[CONSERVATIVE_LATCHED])
        assert validate_jsonl(good + "\n") == []
        problems = validate_jsonl("not json\n" + good + "\n[1,2]\n")
        assert any("line 1" in p for p in problems)
        assert any("line 3" in p and "not a JSON object" in p
                   for p in problems)


class TestProfiler:
    def test_classify_component(self):
        assert classify_component("physics") == "physics"
        assert classify_component("physics-vector") == "physics-vector"
        assert classify_component("cca/bt-0") == "net"
        assert classify_component("mac-tx/bt-3") == "net"
        assert classify_component("rx-complete") == "net"
        assert classify_component("bt-room-temp-0/sample") == "sensing"
        assert classify_component("control-c2/loop") == "control"
        assert classify_component("direct-control") == "control"
        assert classify_component("fault-stuck") == "workload"
        assert classify_component("door-open") == "workload"
        assert classify_component("recorder") == "engine"

    def test_stride_validation(self):
        with pytest.raises(ValueError):
            SimTimeProfiler(stride=0)

    def test_counts_are_stride_scaled_estimates(self):
        profiler = SimTimeProfiler(stride=8)
        profiler.record("physics", 0.001)
        profiler.record("physics", 0.003)
        profiler.record("cca/bt-0", 0.002)
        assert profiler.events_timed == 3
        assert profiler.events_seen == 24
        report = profiler.report()
        assert report["stride"] == 8
        assert report["components"]["physics"]["events"] == 16
        assert report["components"]["physics"]["est_wall_s"] == (
            pytest.approx(0.004 * 8))
        assert report["components"]["net"]["events"] == 8

    def test_report_top_events_sorted_by_cost(self):
        profiler = SimTimeProfiler(stride=1)
        profiler.record("cheap", 0.001)
        profiler.record("dear", 0.10)
        top = profiler.report(top=10)["top_events"]
        assert [row["name"] for row in top] == ["dear", "cheap"]

    def test_component_vocabulary_is_stable(self):
        assert COMPONENTS == ("engine", "physics", "physics-vector",
                              "sensing", "net", "control", "workload")


class TestManifest:
    def test_required_fields(self):
        manifest = build_manifest("campaign", {"seed": 3}, seed=3)
        for key in ("schema_version", "command", "config_hash", "seed",
                    "packages", "platform", "cpu_count"):
            assert key in manifest
        assert manifest["command"] == "campaign"
        assert manifest["seed"] == 3

    def test_no_wall_clock_keys(self):
        # Manifests live inside byte-identity-asserted reports; a
        # timestamp would break serial-vs-pooled reproducibility.
        manifest = build_manifest("sweep", {"seeds": [1]}, seed=1)
        assert not any("time" in key or "date" in key for key in manifest)

    def test_config_hash_stable_and_sensitive(self):
        a = config_hash({"x": 1, "y": 2})
        b = config_hash({"y": 2, "x": 1})
        c = config_hash({"x": 1, "y": 3})
        assert a == b
        assert a != c

    def test_extra_and_obs_summary_merge(self):
        manifest = build_manifest("campaign", {}, seed=0,
                                  obs_summary={"events": 7},
                                  extra={"cells": ["a"]})
        assert manifest["obs"] == {"events": 7}
        assert manifest["cells"] == ["a"]


class TestObservabilityContext:
    def test_null_obs_is_disabled_everywhere(self):
        assert not NULL_OBS.enabled
        assert NULL_OBS.profiler is None
        assert not NULL_OBS.events.enabled

    def test_create_observability(self):
        obs = create_observability()
        assert obs.enabled
        assert obs.profiler is not None
        assert create_observability(profile=False).profiler is None
        assert create_observability(profile_stride=2).profiler.stride == 2

    def test_repr(self):
        assert "enabled" in repr(create_observability())
        assert "disabled" in repr(Observability(
            False, EventLog(enabled=False)))
