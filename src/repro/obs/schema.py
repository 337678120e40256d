"""The documented contract of every event record, and the one
strict-record validator behind every JSONL artifact.

A schema is a ``{tag: (required, optional)}`` table: the value of one
named tag field (``kind`` for events and chaos report rows, ``name``
for trace spans) selects which fields must be present (and their
types) and which may be.  :data:`EVENT_SCHEMA` below, ``TRACE_SCHEMA``
in :mod:`repro.obs.trace` and ``ROW_SCHEMA`` in
:mod:`repro.analysis.slo` are all data in that one shape, checked by
the same three functions: one record, a list of records, JSONL text.
The CI telemetry and chaos steps, the ``repro status --validate`` flag
and the tests all validate through them, so an emitter drifting from
the documented shape fails loudly in three places.

``t`` is the simulation timestamp.  Worker lifecycle events carry
``t: null`` — they happen in wall time in the pool, outside any
simulator — which is the only place a null timestamp is legal.
"""

from __future__ import annotations

import json
from functools import partial
from typing import Dict, Iterable, List, Tuple

from repro.obs import events as ev

SCHEMA_VERSION = 1

#: tag -> (required fields, optional fields); values are type tuples.
Schema = Dict[str, Tuple[Dict[str, tuple], Dict[str, tuple]]]

NUM = (int, float)
NULLABLE_NUM = (int, float, type(None))

# ``run`` is attached by the telemetry writer (which run of a campaign
# or sweep emitted the record), hence optional everywhere.
EVENT_SCHEMA: Schema = {
    ev.FAULT_INJECTED: (
        {"t": NUM, "fault": (str,), "device": (str,)},
        {"value": NUM, "offset": NUM, "duty": NUM, "until": NULLABLE_NUM,
         "end": NUM, "run": (str,)},
    ),
    ev.FAULT_CLEARED: (
        {"t": NUM, "fault": (str,), "device": (str,)},
        {"run": (str,)},
    ),
    ev.TIER_TRANSITION: (
        {"t": NUM, "board": (str,), "estimate": (str,), "tier": (int,),
         "prev_tier": (int,)},
        {"run": (str,)},
    ),
    ev.COMFORT_BREACH: (
        {"t": NUM, "zone": (int,)},
        {"run": (str,)},
    ),
    ev.COMFORT_CLEARED: (
        {"t": NUM, "zone": (int,)},
        {"run": (str,)},
    ),
    ev.DEW_BREACH: (
        {"t": NUM, "panel": (int,)},
        {"run": (str,)},
    ),
    ev.DEW_CLEARED: (
        {"t": NUM, "panel": (int,)},
        {"run": (str,)},
    ),
    ev.CONSERVATIVE_LATCHED: (
        {"t": NUM},
        {"run": (str,)},
    ),
    ev.CONSERVATIVE_RELEASED: (
        {"t": NUM, "held_s": NUM},
        {"run": (str,)},
    ),
    ev.COLLISION_BURST: (
        {"t": NUM, "frames": (int,), "start": NUM, "end": NUM},
        {"run": (str,)},
    ),
    ev.WORKER_STARTED: (
        {"t": (type(None),), "run": (str,), "index": (int,),
         "attempt": (int,)},
        {},
    ),
    ev.WORKER_FINISHED: (
        {"t": (type(None),), "run": (str,), "index": (int,),
         "attempt": (int,)},
        {"wall_s": NUM},
    ),
    ev.WORKER_RETRIED: (
        {"t": (type(None),), "run": (str,), "index": (int,),
         "attempt": (int,)},
        {"detail": (str,)},
    ),
    ev.WORKER_FAILED: (
        {"t": (type(None),), "run": (str,), "index": (int,),
         "attempt": (int,)},
        {"detail": (str,), "wall_s": NUM},
    ),
}


def check_record(record: Dict[str, object], schema: Schema,
                 tag: str) -> List[str]:
    """Problems with one record against ``schema``; empty when valid.

    ``record[tag]`` selects the entry.  Strict on both sides: a missing
    or mistyped required field is an error, and so is any field the
    entry does not document — every emitter in the tree is ours, so an
    undocumented field is schema drift, not extensibility.  The tag
    field itself is always allowed.
    """
    key = record.get(tag)
    if not isinstance(key, str) or key not in schema:
        return [f"unknown {tag} {key!r}"]
    required, optional = schema[key]
    problems: List[str] = []
    for field, types in required.items():
        if field not in record:
            problems.append(f"{key}: missing required field {field!r}")
        elif not _typecheck(record[field], types):
            problems.append(_mistyped(key, field, record[field], types))
    for field, value in record.items():
        if field == tag or field in required:
            continue
        if field not in optional:
            problems.append(f"{key}: undocumented field {field!r}")
        elif not _typecheck(value, optional[field]):
            problems.append(_mistyped(key, field, value, optional[field]))
    return problems


def check_records(records: Iterable[Dict[str, object]], schema: Schema,
                  tag: str) -> List[str]:
    """All problems across ``records``, prefixed with record indices."""
    problems: List[str] = []
    for i, record in enumerate(records):
        problems.extend(f"record {i}: {problem}"
                        for problem in check_record(record, schema, tag))
    return problems


def check_jsonl(text: str, schema: Schema, tag: str) -> List[str]:
    """Validate JSONL text line by line (blank lines skipped)."""
    problems: List[str] = []
    for i, line in enumerate(text.splitlines()):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"line {i + 1}: not valid JSON ({exc.msg})")
            continue
        if not isinstance(record, dict):
            problems.append(f"line {i + 1}: not a JSON object")
            continue
        problems.extend(f"line {i + 1}: {problem}"
                        for problem in check_record(record, schema, tag))
    return problems


validate_event = partial(check_record, schema=EVENT_SCHEMA, tag="kind")
validate_records = partial(check_records, schema=EVENT_SCHEMA, tag="kind")
validate_jsonl = partial(check_jsonl, schema=EVENT_SCHEMA, tag="kind")


def _typecheck(value: object, types: tuple) -> bool:
    # bool is an int subclass; a field documented as numeric must
    # still reject True/False.
    if isinstance(value, bool):
        return bool in types
    return isinstance(value, types)


def _mistyped(key: str, field: str, value: object, types: tuple) -> str:
    return (f"{key}: field {field!r} has type {type(value).__name__}, "
            f"expected {'|'.join(t.__name__ for t in types)}")
