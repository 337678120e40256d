"""One record contract for every JSONL artifact.

Events (``events.jsonl``), trace spans (``trace.jsonl``) and chaos
report rows (``--jsonl``) are all checked by the strict validator of
:mod:`repro.obs.schema` against a ``{tag: (required, optional)}``
table.  The same malformed cases go through all three schemas here, so
a schema that drifts from the shared behaviour — or a per-schema
binding that stops delegating to it — fails the same way for each.
"""

import json

import pytest

from repro.analysis.slo import ROW_SCHEMA, validate_report_rows
from repro.obs import events as ev
from repro.obs import trace as tr
from repro.obs.schema import (
    EVENT_SCHEMA,
    check_jsonl,
    check_record,
    check_records,
    validate_records,
)

# name -> (schema, tag field, list binding, valid record, a required
# field, a numeric field).
CONTRACTS = {
    "event": (
        EVENT_SCHEMA, "kind", validate_records,
        {"kind": ev.FAULT_INJECTED, "t": 12.5, "fault": "SensorStuck",
         "device": "bt-3", "value": 24.0},
        "device", "t"),
    "span": (
        tr.TRACE_SCHEMA, "name", tr.validate_trace_records,
        {"trace": 1, "span": 1, "parent": None, "name": tr.SENSE,
         "t0": 1.0, "t1": 2.0, "device": "bt-0",
         "data_type": "temperature", "status": "actuated", "zone": 0},
        "status", "t0"),
    "row": (
        ROW_SCHEMA, "kind", validate_report_rows,
        {"kind": "chaos.window", "run": "adaptive/seed-1", "window": 0,
         "t0": 0.0, "t1": 300.0, "comfort_min": 1.5, "dew_min": 0.0,
         "degraded_min": 0.0, "faults_injected": 1,
         "faults_cleared": 0, "breached": "comfort", "passed": False,
         "dataage_p95_s": None},
        "run", "comfort_min"),
}


def _unknown_tag(record, tag, required, numeric):
    record[tag] = "no.such.tag"
    return "unknown"


def _missing_required(record, tag, required, numeric):
    del record[required]
    return f"missing required field {required!r}"


def _mistyped(record, tag, required, numeric):
    record[numeric] = "soon"
    return f"field {numeric!r} has type str"


def _bool_as_number(record, tag, required, numeric):
    record[numeric] = True
    return f"field {numeric!r} has type bool"


def _undocumented(record, tag, required, numeric):
    record["surprise"] = 1
    return "undocumented field 'surprise'"


CASES = [_unknown_tag, _missing_required, _mistyped, _bool_as_number,
         _undocumented]


@pytest.fixture(params=sorted(CONTRACTS))
def contract(request):
    return CONTRACTS[request.param]


def test_valid_record_passes(contract):
    schema, tag, check_list, valid, _, _ = contract
    assert tag not in schema[valid[tag]][1]
    assert check_record(valid, schema, tag) == []
    assert check_list([valid, valid]) == []
    assert check_jsonl(json.dumps(valid) + "\n", schema, tag) == []


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__)
def test_malformed_record_gives_one_problem(contract, case):
    schema, tag, check_list, valid, required, numeric = contract
    record = dict(valid)
    expected = case(record, tag, required, numeric)
    problems = check_record(record, schema, tag)
    assert len(problems) == 1
    assert expected in problems[0]
    listed = check_list([valid, record])
    assert listed == check_records([valid, record], schema, tag)
    assert listed == [f"record 1: {problems[0]}"]
    text = json.dumps(valid) + "\n" + json.dumps(record) + "\n"
    assert check_jsonl(text, schema, tag) == [f"line 2: {problems[0]}"]


def test_blank_lines_are_skipped(contract):
    schema, tag, _, valid, _, _ = contract
    line = json.dumps(valid)
    assert check_jsonl(f"\n{line}\n   \n\n{line}\n", schema, tag) == []


def test_line_that_is_not_json(contract):
    schema, tag, _, valid, _, _ = contract
    text = json.dumps(valid) + "\n{not json\n"
    problems = check_jsonl(text, schema, tag)
    assert len(problems) == 1
    assert problems[0].startswith("line 2: not valid JSON")


def test_line_that_is_not_an_object(contract):
    schema, tag, _, valid, _, _ = contract
    text = "[1, 2]\n\n" + json.dumps(valid) + "\n7\n"
    assert check_jsonl(text, schema, tag) == [
        "line 1: not a JSON object", "line 4: not a JSON object"]
