"""Structured event log: typed, sim-timestamped records.

Where ``metrics.json`` answers "how many", the event log answers
"what happened when": fault injections and clearances, fallback-ladder
tier transitions, the supervisor's conservative-mode latch, MAC-layer
collision bursts, and worker lifecycle transitions from the process
pool.  Each record is a flat JSON-serialisable dict with a ``kind``
from the vocabulary below and a sim-time ``t`` (None for pool events,
which happen in wall time outside any simulation); the documented
field contract per kind lives in :mod:`repro.obs.schema`.

Emission is passive: recording an event never draws randomness or
schedules anything, so a logged run is bit-identical to a blind one.
The log is bounded (:data:`MAX_RECORDS`) so a pathological workload
degrades to a drop counter instead of unbounded memory.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional

# ----------------------------------------------------------------------
# Event vocabulary.  schema.EVENT_SCHEMA documents the fields per kind.
# ----------------------------------------------------------------------
FAULT_INJECTED = "fault.injected"
FAULT_CLEARED = "fault.cleared"
TIER_TRANSITION = "tier.transition"
COMFORT_BREACH = "comfort.breach"
COMFORT_CLEARED = "comfort.cleared"
DEW_BREACH = "dew.breach"
DEW_CLEARED = "dew.cleared"
CONSERVATIVE_LATCHED = "conservative.latched"
CONSERVATIVE_RELEASED = "conservative.released"
COLLISION_BURST = "net.collision_burst"
WORKER_STARTED = "worker.started"
WORKER_FINISHED = "worker.finished"
WORKER_RETRIED = "worker.retried"
WORKER_FAILED = "worker.failed"

#: Kinds emitted by the process pool, in lifecycle order (the order
#: ties break to when sorting for a deterministic events.jsonl).
WORKER_KINDS = (WORKER_STARTED, WORKER_RETRIED, WORKER_FAILED,
                WORKER_FINISHED)

#: Hard cap on buffered records; beyond it, emissions only count drops.
MAX_RECORDS = 200_000


class EventLog:
    """Append-only in-memory log of event records.

    Per-kind running indexes are maintained on emit, so
    :meth:`of_kind` and :meth:`counts_by_kind` are O(result) instead
    of rescanning the whole log — the sniffer's replay queries and the
    SLO scorer call them per window.
    """

    __slots__ = ("enabled", "records", "dropped", "max_records",
                 "_by_kind", "_counts")

    def __init__(self, enabled: bool = True,
                 max_records: int = MAX_RECORDS) -> None:
        self.enabled = enabled
        self.records: List[Dict[str, object]] = []
        self.dropped = 0
        self.max_records = max_records
        self._by_kind: Dict[str, List[Dict[str, object]]] = {}
        self._counts: Dict[str, int] = {}

    def emit(self, kind: str, t: Optional[float], **fields) -> None:
        """Record one event; a no-op on a disabled log."""
        if not self.enabled:
            return
        if len(self.records) >= self.max_records:
            self.dropped += 1
            return
        record: Dict[str, object] = {"kind": kind, "t": t}
        record.update(fields)
        self.records.append(record)
        self._by_kind.setdefault(kind, []).append(record)
        self._counts[kind] = self._counts.get(kind, 0) + 1

    def __len__(self) -> int:
        return len(self.records)

    def of_kind(self, kind: str) -> List[Dict[str, object]]:
        return list(self._by_kind.get(kind, ()))

    def counts_by_kind(self) -> Dict[str, int]:
        return dict(sorted(self._counts.items()))


def to_jsonl(records: Iterable[Dict[str, object]]) -> str:
    """Records as JSONL text (sorted keys, one record per line)."""
    return "".join(json.dumps(record, sort_keys=True, default=float) + "\n"
                   for record in records)


def from_jsonl(text: str) -> List[Dict[str, object]]:
    """Parse JSONL text back into record dicts (blank lines skipped)."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]


# ----------------------------------------------------------------------
# Pool progress-event adaptation
# ----------------------------------------------------------------------
# repro.runtime.progress kinds -> event-log kinds.  Keyed by string so
# this module needs no import from the runtime layer.
_PROGRESS_KIND = {
    "started": WORKER_STARTED,
    "finished": WORKER_FINISHED,
    "retried": WORKER_RETRIED,
    "failed": WORKER_FAILED,
}

_WORKER_RANK = {kind: rank for rank, kind in enumerate(WORKER_KINDS)}


def worker_record(progress_event) -> Dict[str, object]:
    """One pool :class:`~repro.runtime.progress.ProgressEvent` as an
    event record.  ``t`` is None — pool transitions happen in wall
    time, outside any simulation clock."""
    record: Dict[str, object] = {
        "kind": _PROGRESS_KIND[progress_event.kind],
        "t": None,
        "run": progress_event.label,
        "index": progress_event.index,
        "attempt": progress_event.attempt,
    }
    if progress_event.wall_s is not None:
        record["wall_s"] = progress_event.wall_s
    if progress_event.detail:
        record["detail"] = progress_event.detail
    return record


def sort_worker_records(records: Iterable[Dict[str, object]]
                        ) -> List[Dict[str, object]]:
    """Worker records in deterministic (index, attempt, lifecycle)
    order — pool completion order depends on scheduling, and anything
    written to an artifact must not."""
    return sorted(records,
                  key=lambda r: (r.get("index", 0), r.get("attempt", 0),
                                 _WORKER_RANK.get(str(r.get("kind")), 99)))
