"""Deterministic causal tracing of the sensing→actuation pipeline.

One *trace* follows one sensing epoch end to end: a sensor (or board)
broadcast opens a root ``sense`` span; the frame's path through the
CSMA/CA MAC (per-attempt backoff/CCA sub-spans), its airtime on the
medium, every interested receiver's ingest, and finally the control
step that consumed the cached value each contribute child spans.  The
result answers the question PR 4's isolated events cannot: *which
sensing epoch caused this actuation, and where did its latency go?*

Design rules, in order of importance:

* **Tracing must not perturb.**  No hook draws randomness, schedules a
  simulator event, or changes dispatch order; a trace-on run is
  bit-identical to a blind one (tests/test_trace.py asserts discrete
  hashes, fingerprints and dispatch counts).  Disabled, the only cost
  on hot paths is one ``packet.trace_ctx is None`` test.
* **No wall clock.**  Every timestamp is simulation time, and trace /
  span IDs come from per-run counters advanced in event-execution
  order — so the flushed span list is byte-reproducible for any pool
  worker count, and two runs of the same spec produce identical
  trace JSONL.
* **Whole-trace sampling.**  Past :data:`MAX_TRACES` the collector
  stops *starting* traces (counted in ``sampled_out``) but never drops
  spans of a live trace, so closure/nesting invariants always hold.

Context propagates through an explicit ``Packet.trace_ctx`` field (a
``(trace_id, root_span_id, root_state)`` tuple), set once at broadcast
time and read by the MAC, medium, multihop router and type-bus hooks.
The third element is the collector's own mutable root record, carried
in the context so hot-path hooks never pay a trace-id lookup.

Hooks append compact tuples; the dict-shaped span records the schema
validates are materialised once, at :meth:`TraceCollector.flush` —
emission stays off the measured per-event path (tuples of scalars are
also invisible to the cycle collector, unlike 50k tracked dicts).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.schema import (
    NUM,
    Schema,
    check_jsonl,
    check_record,
    check_records,
)

TRACE_SCHEMA_VERSION = 1

# ----------------------------------------------------------------------
# Span vocabulary.  TRACE_SCHEMA documents the fields per name.
# ----------------------------------------------------------------------
SENSE = "sense"
MAC = "mac"
MAC_ATTEMPT = "mac.attempt"
AIR = "air"
INGEST = "ingest"
ACTUATE = "actuate"
#: Pseudo-record carrying one run's roll-up counts at the top of
#: ``trace.jsonl`` (the ``chaos.meta`` pattern).
TRACE_SUMMARY = "trace.summary"

STATUS_ACTUATED = "actuated"
STATUS_DELIVERED = "delivered"
STATUS_DROPPED = "dropped"
STATUS_IN_FLIGHT = "in-flight"

#: Traces started beyond this cap are not recorded (whole-trace
#: sampling); spans of already-started traces are never dropped.
MAX_TRACES = 100_000

#: Default head-sampling stride of the shipped tracing configuration:
#: one sensing epoch in this many opens a trace, the rest travel
#: untraced.  The choice is a budget calculation, not a tuning knob
#: hunch: full per-epoch tracing costs 30–40% of a macro-accelerated
#: run's wall clock (the per-frame hook calls are irreducible in pure
#: Python), so the 3% bench budget is met by sampling — 1/32 keeps
#: thousands of traces per trial for the percentile analytics while
#: scaling the hot-path cost by the same factor.  Selection is a
#: counter comparison, never an RNG draw, so sampled runs stay
#: byte-reproducible and bit-identical to blind ones; pass
#: ``sample_every=1`` (CLI: ``--trace-sample 1``) for full fidelity
#: when completeness matters more than speed.
TRACE_SAMPLE_EVERY = 32

#: Fields shared by every span record.
_SPAN_COMMON: Dict[str, tuple] = {
    "trace": (int,),
    "span": (int,),
    "parent": (int, type(None)),
    "name": (str,),
    "t0": NUM,
    "t1": NUM,
    "device": (str,),
}


def _span_schema(required: Dict[str, tuple],
                 optional: Optional[Dict[str, tuple]] = None
                 ) -> Tuple[Dict[str, tuple], Dict[str, tuple]]:
    full_required = dict(_SPAN_COMMON)
    full_required.update(required)
    full_optional: Dict[str, tuple] = {"run": (str,)}
    if optional:
        full_optional.update(optional)
    return (full_required, full_optional)


# name -> (required fields, optional fields), checked strictly both
# ways by the shared validator of repro.obs.schema: a missing/mistyped
# required field is an error and so is any field the schema does not
# document.
TRACE_SCHEMA: Schema = {
    SENSE: _span_schema({"data_type": (str,), "status": (str,)},
                        {"zone": (int,)}),
    MAC: _span_schema({"outcome": (str,), "attempts": (int,),
                       "cca_failures": (int,)}),
    MAC_ATTEMPT: _span_schema({"attempt": (int,), "result": (str,)}),
    AIR: _span_schema({"collided": (int,), "receivers": (int,)}),
    INGEST: _span_schema({}),
    ACTUATE: _span_schema({"age_s": NUM, "tier": (int,),
                           "conservative": (int,)}, {"zone": (int,)}),
    TRACE_SUMMARY: (
        {"name": (str,), "schema_version": (int,), "traces": (int,),
         "sampled_out": (int,), "sample_every": (int,), "spans": (int,),
         "open_spans_at_shutdown": (int,), "actuated": (int,),
         "delivered": (int,), "dropped": (int,), "in_flight": (int,)},
        {"run": (str,)},
    ),
}

# Root-state flag bits (see TraceCollector._roots).
_F_INGESTED = 1
_F_ACTUATED = 2
_F_DROPPED = 4


def _zone_of_key(key: Any) -> Optional[int]:
    """Zone index of a bus key: ``3``, ``("room", 3)`` → 3; else None."""
    if type(key) is int:
        return key
    if type(key) is tuple and len(key) == 2 and type(key[1]) is int:
        return key[1]
    return None


#: Per-name extra fields, in raw-tuple order after the seven common
#: slots ``(name, trace, span, parent, t0, t1, device)``.  A None
#: extra is omitted from the materialised record (the optional zone).
_RAW_EXTRAS: Dict[str, Tuple[str, ...]] = {
    MAC: ("outcome", "attempts", "cca_failures"),
    MAC_ATTEMPT: ("attempt", "result"),
    AIR: ("collided", "receivers"),
    INGEST: (),
    ACTUATE: ("age_s", "tier", "conservative", "zone"),
}

# Root-state list indices (see TraceCollector._roots).
_R_TRACE, _R_SPAN, _R_T0, _R_DEVICE = 0, 1, 2, 3
_R_TYPE, _R_ZONE, _R_LAST, _R_FLAGS = 4, 5, 6, 7


class TraceCollector:
    """One run's causal-trace state: open spans in, closed spans out.

    All mutating methods are called from inside simulator event
    callbacks, so their call order — and therefore every allocated ID —
    is fixed by the (deterministic) dispatch order.  :meth:`flush`
    force-closes anything still open at the horizon and returns the
    canonical payload; it is idempotent.

    Every hook is written for the per-frame hot path: one span-ID
    increment, one tuple append, and direct mutation of the root
    record the context tuple already carries.  Anything that can wait
    — dict-shaped records, status classification, sorting — waits for
    :meth:`flush`.
    """

    __slots__ = ("enabled", "max_traces", "sample_every", "spans",
                 "traces_started", "sampled_out", "_epoch",
                 "_next_trace", "_next_span", "_raw", "_append",
                 "_roots", "_mac", "_pending", "_payload",
                 "_type_names")

    def __init__(self, enabled: bool = True,
                 max_traces: int = MAX_TRACES,
                 sample_every: int = 1) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.enabled = enabled
        self.max_traces = max_traces
        self.sample_every = sample_every
        self._epoch = 0
        #: Materialised at flush; empty while the run is live.
        self.spans: List[Dict[str, object]] = []
        self.traces_started = 0
        self.sampled_out = 0
        self._next_trace = 1
        self._next_span = 1
        # Closed spans as compact tuples (see _RAW_EXTRAS); the bound
        # append dodges two attribute loads per span.
        self._raw: List[tuple] = []
        self._append = self._raw.append
        # Root records in allocation (= trace-id) order:
        # [trace, root_span, t0, device, data_type, zone, last_t,
        #  flags].  The context tuple carries the record itself, so no
        # hook ever looks a trace id up.
        self._roots: List[list] = []
        # (packet_id, device) -> (mac_span, root, t_enqueue).  Keyed by
        # packet *and* device because multihop forwarders enqueue the
        # same packet object concurrently.
        self._mac: Dict[Tuple[int, str], tuple] = {}
        # receiver device -> {(data_type, key): trace_ctx}; the
        # ingested-but-not-yet-consumed values behind actuation
        # attribution.  A newer packet overwrites the older entry, so
        # an actuate span always names the data actually used.
        self._pending: Dict[str, Dict[tuple, tuple]] = {}
        # DataType -> wire name, so begin() pays one dict hit instead
        # of a getattr per broadcast.
        self._type_names: Dict[Any, str] = {}
        self._payload: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    # Origination
    # ------------------------------------------------------------------
    def begin(self, device: str, data_type: Any, key: Any,
              t: float) -> Optional[tuple]:
        """Open a trace at a sensing epoch; returns the packet context
        ``(trace_id, root_span_id, root_state)``.

        None when tracing is disabled, the epoch falls between
        head-sampling picks, or the trace cap was reached — the packet
        then travels untraced end to end.  Both sampling decisions are
        counter comparisons on state advanced in dispatch order, so
        which epochs get traced is identical run to run.
        """
        if not self.enabled:
            return None
        epoch = self._epoch
        self._epoch = epoch + 1
        if epoch % self.sample_every:
            self.sampled_out += 1
            return None
        if self.traces_started >= self.max_traces:
            self.sampled_out += 1
            return None
        self.traces_started += 1
        trace = self._next_trace
        self._next_trace = trace + 1
        span = self._next_span
        self._next_span = span + 1
        type_name = self._type_names.get(data_type)
        if type_name is None:
            type_name = getattr(data_type, "value", str(data_type))
            self._type_names[data_type] = type_name
        root = [trace, span, t, device, type_name, _zone_of_key(key),
                t, 0]
        self._roots.append(root)
        return (trace, span, root)

    # ------------------------------------------------------------------
    # MAC hops
    # ------------------------------------------------------------------
    def mac_enqueue(self, tc: tuple, packet_id: int, device: str,
                    t: float) -> None:
        span = self._next_span
        self._next_span = span + 1
        self._mac[(packet_id, device)] = (span, tc[2], t)

    def mac_drop(self, tc: tuple, device: str, t: float) -> None:
        """Queue-admission drop: a zero-length mac span, then done."""
        trace, root_span, root = tc
        span = self._next_span
        self._next_span = span + 1
        self._append((MAC, trace, span, root_span, t, t, device,
                      "admission-drop", 0, 0))
        if t > root[6]:
            root[6] = t
        root[7] |= _F_DROPPED

    def mac_cca(self, packet_id: int, device: str, t0: float, t: float,
                attempt: int, busy: bool, dropped: bool) -> None:
        """One CCA verdict closes one attempt span.

        The MAC threads the attempt's start time and ordinal through
        its own callback chain, so the collector keeps no per-attempt
        state at all; on the exhaustion drop the attempt count *is*
        the CCA-failure count (every attempt ended busy).
        """
        state = self._mac.get((packet_id, device))
        if state is None:
            return
        mac_span, root, t_enq = state
        trace = root[0]
        span = self._next_span
        self._next_span = span + 1
        self._append((MAC_ATTEMPT, trace, span, mac_span, t0, t, device,
                      attempt, "busy" if busy else "clear"))
        if dropped:
            del self._mac[(packet_id, device)]
            self._append((MAC, trace, mac_span, root[1], t_enq, t,
                          device, "dropped", attempt + 1, attempt + 1))
            if t > root[6]:
                root[6] = t
            root[7] |= _F_DROPPED

    def mac_sent(self, packet_id: int, device: str, t: float,
                 attempt: int) -> None:
        """The frame reached the air at attempt ``attempt`` — its
        earlier attempts (all busy) are this span's CCA failures."""
        state = self._mac.pop((packet_id, device), None)
        if state is None:
            return
        mac_span, root, t_enq = state
        self._append((MAC, root[0], mac_span, root[1], t_enq, t, device,
                      "sent", attempt + 1, attempt))
        if t > root[6]:
            root[6] = t

    # ------------------------------------------------------------------
    # Airtime
    # ------------------------------------------------------------------
    def air(self, tc: tuple, sender: str, t0: float, t: float,
            collided: int, receivers: int) -> None:
        """One completed on-air transmission (the medium knows the
        start time at completion, so one hook covers the span)."""
        trace, root_span, root = tc
        span = self._next_span
        self._next_span = span + 1
        self._append((AIR, trace, span, root_span, t0, t, sender,
                      collided, receivers))
        if t > root[6]:
            root[6] = t

    # ------------------------------------------------------------------
    # Ingest and actuation
    # ------------------------------------------------------------------
    def ingest(self, tc: tuple, device: str, cache_key: tuple,
               t: float) -> None:
        trace, root_span, root = tc
        span = self._next_span
        self._next_span = span + 1
        self._append((INGEST, trace, span, root_span, t, t, device))
        if t > root[6]:
            root[6] = t
        root[7] |= _F_INGESTED
        pend = self._pending.get(device)
        if pend is None:
            pend = self._pending[device] = {}
        pend[cache_key] = tc

    def actuate(self, device: str, t: float, tier: int,
                conservative: int) -> None:
        """A control step on ``device`` turned into actuator commands.

        Every value ingested since the device's previous actuation is
        attributed to this decision: one ``actuate`` span per pending
        trace, carrying the end-to-end data age.
        """
        pend = self._pending.get(device)
        if not pend:
            return
        for tc in pend.values():
            self._actuate_one(tc, device, t, tier, conservative)
        pend.clear()

    def actuate_packet(self, tc: tuple, device: str, t: float,
                       tier: int, conservative: int) -> None:
        """Direct packet-driven actuation (e.g. a FAN_CMD flap step)."""
        self._actuate_one(tc, device, t, tier, conservative)

    def _actuate_one(self, tc: tuple, device: str, t: float, tier: int,
                     conservative: int) -> None:
        trace, root_span, root = tc
        span = self._next_span
        self._next_span = span + 1
        self._append((ACTUATE, trace, span, root_span, t, t, device,
                      t - root[2], tier, conservative, root[5]))
        if t > root[6]:
            root[6] = t
        root[7] |= _F_ACTUATED

    # ------------------------------------------------------------------
    # Flush
    # ------------------------------------------------------------------
    def flush(self, now: float) -> Dict[str, object]:
        """Close everything still open, materialise the dict-shaped
        records and return the canonical payload.

        ``{"spans": [...], "summary": {...}}`` — spans sorted by
        ``(trace, span)`` (allocation order), so the serialised file is
        identical however the run was executed.  Idempotent: the first
        call fixes the payload.
        """
        if self._payload is not None:
            return self._payload
        open_spans = 0
        for (packet_id, device), state in self._mac.items():
            mac_span, root, t_enq = state
            # The attempt in flight (if any) lives in the MAC's own
            # pending callback, so an open mac span reports the counts
            # it cannot know as zero.
            self._append((MAC, root[0], mac_span, root[1], t_enq, now,
                          device, "open", 0, 0))
            if now > root[6]:
                root[6] = now
            open_spans += 1
        self._mac.clear()
        spans: List[Dict[str, object]] = []
        for raw in self._raw:
            name = raw[0]
            record: Dict[str, object] = {
                "trace": raw[1], "span": raw[2], "parent": raw[3],
                "name": name, "t0": raw[4], "t1": raw[5],
                "device": raw[6]}
            for field, value in zip(_RAW_EXTRAS[name], raw[7:]):
                if value is not None:
                    record[field] = value
            spans.append(record)
        statuses = {STATUS_ACTUATED: 0, STATUS_DELIVERED: 0,
                    STATUS_DROPPED: 0, STATUS_IN_FLIGHT: 0}
        for root in self._roots:
            trace, span, t0, device, data_type, zone, last_t, flags = root
            if flags & _F_ACTUATED:
                status = STATUS_ACTUATED
            elif flags & _F_INGESTED:
                status = STATUS_DELIVERED
            elif flags & _F_DROPPED:
                status = STATUS_DROPPED
            else:
                status = STATUS_IN_FLIGHT
            statuses[status] += 1
            record = {
                "trace": trace, "span": span, "parent": None,
                "name": SENSE, "t0": t0, "t1": last_t, "device": device,
                "data_type": data_type, "status": status}
            if zone is not None:
                record["zone"] = zone
            spans.append(record)
        self._raw = []
        self._append = self._raw.append
        self._roots = []
        self._pending.clear()
        spans.sort(key=lambda r: (r["trace"], r["span"]))
        self.spans = spans
        summary = {
            "schema_version": TRACE_SCHEMA_VERSION,
            "traces": self.traces_started,
            "sampled_out": self.sampled_out,
            "sample_every": self.sample_every,
            "spans": len(spans),
            "open_spans_at_shutdown": open_spans,
            "actuated": statuses[STATUS_ACTUATED],
            "delivered": statuses[STATUS_DELIVERED],
            "dropped": statuses[STATUS_DROPPED],
            "in_flight": statuses[STATUS_IN_FLIGHT],
        }
        self._payload = {"spans": spans, "summary": summary}
        return self._payload


#: Shared disabled collector — the default of every ``Observability``.
#: ``begin`` returns None, so no packet ever carries a context and the
#: per-frame hooks reduce to one attribute test.
NULL_TRACE = TraceCollector(enabled=False)


def summary_record(summary: Dict[str, object],
                   run: Optional[str] = None) -> Dict[str, object]:
    """One run's summary as a ``trace.summary`` JSONL record."""
    record: Dict[str, object] = {"name": TRACE_SUMMARY}
    record.update(summary)
    if run is not None:
        record["run"] = run
    return record


# ----------------------------------------------------------------------
# Validation: the shared strict-record check of repro.obs.schema
# ----------------------------------------------------------------------
validate_span = partial(check_record, schema=TRACE_SCHEMA, tag="name")
validate_trace_records = partial(check_records, schema=TRACE_SCHEMA,
                                 tag="name")
validate_trace_jsonl = partial(check_jsonl, schema=TRACE_SCHEMA, tag="name")


# ----------------------------------------------------------------------
# Rendering and export
# ----------------------------------------------------------------------
def span_records(records: Iterable[Dict[str, object]]
                 ) -> List[Dict[str, object]]:
    """Only the spans (summary pseudo-records filtered out)."""
    return [r for r in records if r.get("name") != TRACE_SUMMARY]


def _span_label(span: Dict[str, object]) -> str:
    name = span["name"]
    device = span.get("device", "?")
    if name == SENSE:
        parts = [f"sense {device} {span.get('data_type')}"]
        if "zone" in span:
            parts.append(f"zone={span['zone']}")
        parts.append(f"status={span.get('status')}")
        return " ".join(parts)
    if name == MAC:
        return (f"mac {device} outcome={span.get('outcome')} "
                f"attempts={span.get('attempts')} "
                f"cca_failures={span.get('cca_failures')}")
    if name == MAC_ATTEMPT:
        return (f"attempt {span.get('attempt')} "
                f"{span.get('result')}")
    if name == AIR:
        return (f"air {device} collided={span.get('collided')} "
                f"receivers={span.get('receivers')}")
    if name == INGEST:
        return f"ingest {device}"
    if name == ACTUATE:
        age = span.get("age_s", 0.0)
        return (f"actuate {device} age={float(age):.3f}s "
                f"tier={span.get('tier')}")
    return str(name)  # pragma: no cover - schema forbids other names


def render_span_tree(records: Iterable[Dict[str, object]],
                     trace_id: int) -> str:
    """ASCII tree of one trace's spans, children indented under
    parents in allocation order."""
    spans = [r for r in span_records(records)
             if r.get("trace") == trace_id]
    if not spans:
        return f"trace {trace_id}: no spans\n"
    spans.sort(key=lambda r: r["span"])
    children: Dict[Optional[int], List[Dict[str, object]]] = {}
    by_span = {r["span"]: r for r in spans}
    roots: List[Dict[str, object]] = []
    for record in spans:
        parent = record.get("parent")
        if parent is None or parent not in by_span:
            roots.append(record)
        else:
            children.setdefault(parent, []).append(record)
    lines: List[str] = []

    def walk(record: Dict[str, object], prefix: str,
             child_prefix: str) -> None:
        t0 = float(record["t0"])
        t1 = float(record["t1"])
        lines.append(f"{prefix}{_span_label(record)} "
                     f"[{t0:.4f}s → {t1:.4f}s]")
        kids = children.get(record["span"], [])
        for i, kid in enumerate(kids):
            last = i == len(kids) - 1
            connector = "└─ " if last else "├─ "
            extension = "   " if last else "│  "
            walk(kid, child_prefix + connector,
                 child_prefix + extension)

    for root in roots:
        walk(root, f"trace {trace_id} · ", "  ")
    return "\n".join(lines) + "\n"


def chrome_trace(records: Iterable[Dict[str, object]]
                 ) -> Dict[str, object]:
    """Spans as Chrome ``trace_event`` JSON (load via chrome://tracing
    or https://ui.perfetto.dev).  Sim seconds become microseconds;
    each device gets its own thread row."""
    spans = span_records(records)
    devices = sorted({str(r.get("device", "?")) for r in spans})
    tids = {device: i + 1 for i, device in enumerate(devices)}
    events: List[Dict[str, object]] = [
        {"name": "process_name", "ph": "M", "pid": 1,
         "args": {"name": "repro causal traces"}},
    ]
    for device in devices:
        events.append({"name": "thread_name", "ph": "M", "pid": 1,
                       "tid": tids[device], "args": {"name": device}})
    for record in sorted(spans,
                         key=lambda r: (r["trace"], r["span"])):
        t0 = float(record["t0"])
        t1 = float(record["t1"])
        args = {key: value for key, value in sorted(record.items())
                if key not in ("t0", "t1", "device", "name")}
        events.append({
            "name": f"{record['name']} (trace {record['trace']})",
            "cat": str(record["name"]),
            "ph": "X",
            "ts": t0 * 1e6,
            "dur": (t1 - t0) * 1e6,
            "pid": 1,
            "tid": tids[str(record.get("device", "?"))],
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
