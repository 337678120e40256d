"""Rolling-window SLO scoring over the telemetry event log.

The chaos runner (:mod:`repro.workloads.chaos`) judges a long
endurance run the way an operations team would: not by one end-of-run
average but by *service-level objectives* evaluated window by window.
This module consumes the structured event log of one run — the
comfort/dew breach transitions the recorder emits, the fault
injection/clearance pairs of :mod:`repro.workloads.faults` and the
fallback-ladder ``tier.transition`` events of the boards — and scores
it against declared budgets:

* **comfort-violation minutes** per window: each zone's
  ``comfort.breach``/``comfort.cleared`` intervals overlapped with
  the window, summed over zones (zone-minutes);
* **dew-margin breach minutes** per window: each panel's
  ``dew.breach``/``dew.cleared`` overlap, summed over panels
  (panel-minutes);
* **estimate-tier staleness minutes** per window (time any board
  estimate spent at fallback tier >= 2, summed over estimates);
* **recovery time** after each injected fault: how long after the
  fault's clearance (its onset, for permanent crashes) the comfort
  SLO stayed breached — the one place the comfort intervals are
  merged into a union over zones.

Everything is computed from event *transitions*, so the scorer needs
only the compact event list a pool worker ships back — never the full
trace — and the same list always produces the same report, bit for
bit.  Interval reconstruction uses depth counting (a union within
each zone or panel), anchors an end-without-start at the scoring
origin and truncates still-open intervals at the horizon, so logs
from runs that ended mid-fault score correctly.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs import events as ev
from repro.obs.schema import NULLABLE_NUM, NUM, Schema, check_records

#: A fault whose clearance leaves comfort clean is only blamed for a
#: breach that starts within this many seconds of the clearance.
RECOVERY_ATTRIBUTION_S = 600.0

#: Boards report estimates on the fallback ladder; tier >= 2 means the
#: estimate is running widened or last-good-decayed (stale).
DEGRADED_TIER = 2


@dataclass(frozen=True)
class SloBudgets:
    """Declared per-window budgets plus the per-fault recovery bound.

    The window budgets are minutes *per scoring window* (summed over
    zones / panels / estimates); ``recovery_s`` bounds the comfort
    recovery time after each individual fault.
    """

    comfort_min: float = 10.0
    dew_min: float = 5.0
    degraded_min: float = 30.0
    recovery_s: float = 1800.0

    def __post_init__(self) -> None:
        for name in ("comfort_min", "dew_min", "degraded_min",
                     "recovery_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"budget {name} must be non-negative")

    def as_dict(self) -> Dict[str, float]:
        return {"comfort_min": self.comfort_min,
                "dew_min": self.dew_min,
                "degraded_min": self.degraded_min,
                "recovery_s": self.recovery_s}


@dataclass(frozen=True)
class Interval:
    """One closed-on-the-left breach interval; ``closed`` is False for
    an interval still open when scoring stopped at the horizon."""

    start: float
    end: float
    closed: bool = True

    def overlap_s(self, t0: float, t1: float) -> float:
        return max(0.0, min(self.end, t1) - max(self.start, t0))


def paired_intervals(records: Iterable[Dict[str, object]],
                     open_kind: str, close_kind: str,
                     key_field: Optional[str],
                     t0: float, horizon: float) -> Dict[object,
                                                        List[Interval]]:
    """Union-of-breach intervals per key from open/close transitions.

    Depth counting gives union semantics when the same key breaches
    again before clearing (overlapping faults); a close with no prior
    open anchors its interval at ``t0`` (the breach predates scoring);
    an open never closed truncates at ``horizon`` with
    ``closed=False``.  Events outside [t0, horizon] are clamped.
    """
    depth: Dict[object, int] = {}
    opened: Dict[object, float] = {}
    out: Dict[object, List[Interval]] = {}
    for record in records:
        kind = record.get("kind")
        if kind not in (open_kind, close_kind):
            continue
        key = record.get(key_field) if key_field is not None else None
        t = min(max(float(record["t"]), t0), horizon)
        d = depth.get(key, 0)
        if kind == open_kind:
            if d == 0:
                opened[key] = t
            depth[key] = d + 1
        else:
            if d == 0:
                # Clearance of a breach that predates the log: the
                # whole [t0, t] prefix was breached.
                out.setdefault(key, []).append(Interval(t0, t))
            elif d == 1:
                out.setdefault(key, []).append(Interval(opened[key], t))
                depth[key] = 0
            else:
                depth[key] = d - 1
    for key, d in depth.items():
        if d > 0:
            out.setdefault(key, []).append(
                Interval(opened[key], horizon, closed=False))
    for intervals in out.values():
        intervals.sort(key=lambda i: (i.start, i.end))
    return out


def tier_intervals(records: Iterable[Dict[str, object]],
                   t0: float, horizon: float) -> Dict[Tuple[str, str],
                                                      List[Interval]]:
    """Degraded (tier >= DEGRADED_TIER) intervals per (board, estimate).

    ``tier.transition`` events are a step function per estimate; every
    estimate starts at tier 1 (fresh), so the first transition to a
    degraded tier opens an interval and the next transition back below
    closes it.  An estimate still degraded at the horizon yields an
    open interval.
    """
    out: Dict[Tuple[str, str], List[Interval]] = {}
    since: Dict[Tuple[str, str], float] = {}
    for record in records:
        if record.get("kind") != ev.TIER_TRANSITION:
            continue
        key = (str(record["board"]), str(record["estimate"]))
        t = min(max(float(record["t"]), t0), horizon)
        degraded = int(record["tier"]) >= DEGRADED_TIER
        if degraded and key not in since:
            since[key] = t
        elif not degraded and key in since:
            out.setdefault(key, []).append(Interval(since.pop(key), t))
    for key, start in since.items():
        out.setdefault(key, []).append(Interval(start, horizon,
                                                closed=False))
    return out


def union_intervals(per_key: Dict[object, List[Interval]]
                    ) -> List[Interval]:
    """Merge the per-key interval lists into one sorted union."""
    merged: List[Interval] = []
    for start, end, closed in sorted(
            (i.start, i.end, i.closed)
            for intervals in per_key.values() for i in intervals):
        if merged and start <= merged[-1].end:
            last = merged[-1]
            if end > last.end:
                merged[-1] = Interval(last.start, end,
                                      closed=last.closed and closed)
        else:
            merged.append(Interval(start, end, closed))
    return merged


def overlap_minutes(intervals: Sequence[Interval],
                    t0: float, t1: float) -> float:
    return sum(i.overlap_s(t0, t1) for i in intervals) / 60.0


# ----------------------------------------------------------------------
# Fault recovery
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultRecovery:
    """Comfort recovery after one injected fault.

    ``reference_t`` is the clearance instant for self-clearing faults
    and the onset for permanent ones (crashes, jams cut off by the
    horizon).  ``recovery_s`` is how long past the reference the
    comfort union stayed (or went) breached — 0.0 when comfort was
    clean at the reference and no breach started within
    :data:`RECOVERY_ATTRIBUTION_S`; None when the breach never cleared
    before the horizon (``recovered`` False).
    """

    fault: str
    device: str
    t: float
    cleared_t: Optional[float]
    reference_t: float
    recovery_s: Optional[float]
    recovered: bool

    def row(self) -> Dict[str, object]:
        return {"fault": self.fault, "device": self.device, "t": self.t,
                "cleared_t": self.cleared_t,
                "reference_t": self.reference_t,
                "recovery_s": self.recovery_s,
                "recovered": self.recovered}


def _pair_faults(records: Iterable[Dict[str, object]]
                 ) -> List[Tuple[Dict[str, object],
                                 Optional[Dict[str, object]]]]:
    """(injected, cleared-or-None) pairs, FIFO per (fault, device)."""
    pending: Dict[Tuple[str, str], List[Dict[str, object]]] = {}
    pairs: List[Tuple[Dict[str, object], Optional[Dict[str, object]]]] = []
    slot: Dict[int, int] = {}
    for record in records:
        kind = record.get("kind")
        if kind == ev.FAULT_INJECTED:
            key = (str(record["fault"]), str(record["device"]))
            pending.setdefault(key, []).append(record)
            slot[id(record)] = len(pairs)
            pairs.append((record, None))
        elif kind == ev.FAULT_CLEARED:
            key = (str(record["fault"]), str(record["device"]))
            queue = pending.get(key)
            if queue:
                injected = queue.pop(0)
                pairs[slot[id(injected)]] = (injected, record)
    return pairs


def fault_recoveries(records: Sequence[Dict[str, object]],
                     comfort_union: Sequence[Interval],
                     horizon: float,
                     attribution_s: float = RECOVERY_ATTRIBUTION_S
                     ) -> List[FaultRecovery]:
    """Score comfort recovery for every injected fault in the log."""
    starts = [i.start for i in comfort_union]
    out: List[FaultRecovery] = []
    for injected, cleared in _pair_faults(records):
        t = float(injected["t"])
        cleared_t = None if cleared is None else float(cleared["t"])
        ref = cleared_t if cleared_t is not None else t
        # The interval containing ref, else the first one starting
        # within the attribution window after it.
        idx = bisect.bisect_right(starts, ref) - 1
        hit: Optional[Interval] = None
        if idx >= 0 and comfort_union[idx].end > ref:
            hit = comfort_union[idx]
        elif (idx + 1 < len(comfort_union)
              and comfort_union[idx + 1].start <= ref + attribution_s):
            hit = comfort_union[idx + 1]
        if hit is None:
            recovery: Optional[float] = 0.0
            recovered = True
        elif hit.closed:
            recovery = hit.end - ref
            recovered = True
        else:
            recovery = None
            recovered = False
        out.append(FaultRecovery(
            fault=str(injected["fault"]), device=str(injected["device"]),
            t=t, cleared_t=cleared_t, reference_t=ref,
            recovery_s=recovery, recovered=recovered))
    return out


# ----------------------------------------------------------------------
# Windows and the report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SloWindow:
    """One scoring window with its metrics and budget verdicts."""

    index: int
    t0: float
    t1: float
    comfort_min: float
    dew_min: float
    degraded_min: float
    faults_injected: int
    faults_cleared: int
    breached: Tuple[str, ...]
    # p95 sensing→actuation data age over actuations inside the window
    # (None when the run carried no causal trace, or the window saw no
    # actuation) — explains *why* staleness minutes accrued.
    dataage_p95_s: Optional[float] = None

    @property
    def passed(self) -> bool:
        return not self.breached

    def row(self, run: str) -> Dict[str, object]:
        return {"kind": "chaos.window", "run": run, "window": self.index,
                "t0": self.t0, "t1": self.t1,
                "comfort_min": self.comfort_min, "dew_min": self.dew_min,
                "degraded_min": self.degraded_min,
                "faults_injected": self.faults_injected,
                "faults_cleared": self.faults_cleared,
                "breached": ",".join(self.breached),
                "passed": self.passed,
                "dataage_p95_s": self.dataage_p95_s}


@dataclass
class SloReport:
    """The scored run: every window, every fault recovery, totals."""

    label: str
    t0: float
    horizon_s: float
    window_s: float
    warmup_s: float
    budgets: SloBudgets
    windows: List[SloWindow] = field(default_factory=list)
    recoveries: List[FaultRecovery] = field(default_factory=list)
    # Whole-run p95 sensing→actuation data age, and the delta between
    # the p95 inside fault-active intervals and outside them (positive
    # = actuations made during faults used staler data).  Both None
    # without a causal trace.
    dataage_p95_s: Optional[float] = None
    fault_age_delta_s: Optional[float] = None

    @property
    def passed(self) -> bool:
        return (all(w.passed for w in self.windows)
                and all(r.recovered
                        and r.recovery_s <= self.budgets.recovery_s
                        for r in self.recoveries))

    def totals(self) -> Dict[str, object]:
        observed = [r.recovery_s for r in self.recoveries
                    if r.recovery_s is not None]
        return {
            "windows": len(self.windows),
            "windows_passed": sum(1 for w in self.windows if w.passed),
            "comfort_min": sum(w.comfort_min for w in self.windows),
            "dew_min": sum(w.dew_min for w in self.windows),
            "degraded_min": sum(w.degraded_min for w in self.windows),
            "faults": len(self.recoveries),
            "unrecovered": sum(1 for r in self.recoveries
                               if not r.recovered),
            "recovery_max_s": max(observed) if observed else None,
            "recovery_mean_s": (sum(observed) / len(observed)
                                if observed else None),
            "passed": self.passed,
            "dataage_p95_s": self.dataage_p95_s,
            "fault_age_delta_s": self.fault_age_delta_s,
        }

    def summary_row(self) -> Dict[str, object]:
        row: Dict[str, object] = {"kind": "chaos.summary",
                                  "run": self.label}
        row.update(self.totals())
        return row

    def report_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "t0": self.t0,
            "horizon_s": self.horizon_s,
            "window_s": self.window_s,
            "warmup_s": self.warmup_s,
            "budgets": self.budgets.as_dict(),
            "windows": [w.row(self.label) for w in self.windows],
            "recoveries": [r.row() for r in self.recoveries],
            "totals": self.totals(),
        }


def payload_events(payload, label: str) -> List[Dict[str, object]]:
    """The event log a run payload shipped back, checked complete.

    ``payload`` is a :class:`~repro.runtime.spec.RunResult` whose spec
    ran with ``telemetry=True``.  Raises ``ValueError`` when it carries
    no telemetry, or when its event log dropped records past the cap
    (:data:`repro.obs.events.MAX_RECORDS`): a verdict over a truncated
    log could pass a run whose breaches were never recorded.
    """
    if payload.obs is None:
        raise ValueError(f"run {label!r} returned no telemetry; "
                         "its spec must set telemetry=True")
    dropped = int(payload.obs.get("dropped_events", 0))
    if dropped:
        raise ValueError(f"run {label!r} dropped {dropped} event "
                         "records; cannot score a truncated event log")
    return list(payload.obs["events"])


def score_run(records: Sequence[Dict[str, object]], label: str,
              t0: float, horizon_s: float, window_s: float,
              budgets: SloBudgets,
              warmup_s: float = 0.0,
              ages: Optional[Sequence[Dict[str, object]]] = None
              ) -> SloReport:
    """Score one run's event list against the budgets.

    ``t0`` is the run's absolute start (the config's epoch; event
    timestamps are absolute sim time), ``horizon_s`` the run length and
    ``warmup_s`` the cold-start transient excluded from the first
    window — the same convention as the campaign scoring.

    ``ages``, when the run carried a causal trace, is the time-resolved
    actuation list of :func:`repro.analysis.dataage.actuation_ages`
    (``{"t", "age_s", ...}`` rows sorted by ``t``); it adds the per-
    window and whole-run p95 data-age columns plus the fault-active
    age delta to the report.
    """
    if window_s <= 0:
        raise ValueError("scoring window must be positive")
    if not 0 <= warmup_s < horizon_s:
        raise ValueError("warmup must fit inside the horizon")
    horizon = t0 + horizon_s
    comfort = paired_intervals(records, ev.COMFORT_BREACH,
                               ev.COMFORT_CLEARED, "zone", t0, horizon)
    dew = paired_intervals(records, ev.DEW_BREACH, ev.DEW_CLEARED,
                           "panel", t0, horizon)
    degraded = tier_intervals(records, t0, horizon)
    comfort_union = union_intervals(comfort)

    report = SloReport(label=label, t0=t0, horizon_s=horizon_s,
                       window_s=window_s, warmup_s=warmup_s,
                       budgets=budgets)
    fault_times = sorted(
        (float(r["t"]), str(r["kind"])) for r in records
        if r.get("kind") in (ev.FAULT_INJECTED, ev.FAULT_CLEARED))

    start = t0 + warmup_s
    index = 0
    while start < horizon - 1e-9:
        end = min(start + window_s, horizon)
        comfort_min = sum(
            overlap_minutes(intervals, start, end)
            for intervals in comfort.values())
        dew_min = sum(overlap_minutes(intervals, start, end)
                      for intervals in dew.values())
        degraded_min = sum(overlap_minutes(intervals, start, end)
                           for intervals in degraded.values())
        injected = sum(1 for t, kind in fault_times
                       if kind == ev.FAULT_INJECTED and start <= t < end)
        cleared = sum(1 for t, kind in fault_times
                      if kind == ev.FAULT_CLEARED and start <= t < end)
        breached = tuple(name for name, value, budget in (
            ("comfort", comfort_min, budgets.comfort_min),
            ("degraded", degraded_min, budgets.degraded_min),
            ("dew", dew_min, budgets.dew_min),
        ) if value > budget)
        report.windows.append(SloWindow(
            index=index, t0=start, t1=end, comfort_min=comfort_min,
            dew_min=dew_min, degraded_min=degraded_min,
            faults_injected=injected, faults_cleared=cleared,
            breached=breached,
            dataage_p95_s=_window_age_p95(ages, start, end)))
        start = end
        index += 1

    report.recoveries = fault_recoveries(records, comfort_union, horizon)
    if ages:
        report.dataage_p95_s = _age_p95(
            [float(a["age_s"]) for a in ages])
        report.fault_age_delta_s = _fault_age_delta(
            records, ages, horizon)
    return report


def _age_p95(values: List[float]) -> Optional[float]:
    if not values:
        return None
    from repro.analysis.dataage import percentile
    return percentile(sorted(values), 0.95)


def _window_age_p95(ages: Optional[Sequence[Dict[str, object]]],
                    t0: float, t1: float) -> Optional[float]:
    if not ages:
        return None
    return _age_p95([float(a["age_s"]) for a in ages
                     if t0 <= float(a["t"]) < t1])


def _fault_age_delta(records: Sequence[Dict[str, object]],
                     ages: Sequence[Dict[str, object]],
                     horizon: float) -> Optional[float]:
    """p95 data age during fault-active intervals minus outside them.

    None unless both populations are non-empty (a run with no faults,
    or faults that never coincided with an actuation, has no delta to
    report).
    """
    intervals = []
    for injected, cleared in _pair_faults(records):
        start = float(injected["t"])
        end = horizon if cleared is None else float(cleared["t"])
        if end > start:
            intervals.append((start, end))
    if not intervals:
        return None
    intervals.sort()
    merged: List[List[float]] = []
    for start, end in intervals:
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    starts = [span[0] for span in merged]
    inside: List[float] = []
    outside: List[float] = []
    for row in ages:
        t = float(row["t"])
        idx = bisect.bisect_right(starts, t) - 1
        in_fault = idx >= 0 and t < merged[idx][1]
        (inside if in_fault else outside).append(float(row["age_s"]))
    if not inside or not outside:
        return None
    return _age_p95(inside) - _age_p95(outside)


def score_system(system, label: str, window_s: float,
                 budgets: SloBudgets,
                 warmup_s: float = 0.0) -> SloReport:
    """Score a finished, observed system in-process (bench/goldens)."""
    return score_run(list(system.sim.obs.events.records), label,
                     t0=system.config.start_time_s,
                     horizon_s=system.sim.clock.elapsed,
                     window_s=window_s, budgets=budgets,
                     warmup_s=warmup_s)


# ----------------------------------------------------------------------
# Report-row validation (the chaos CLI's JSONL contract)
# ----------------------------------------------------------------------
#: kind -> (required, optional) fields of one chaos report row; rows
#: have no optional fields.
ROW_SCHEMA: Schema = {
    "chaos.meta": ({"scenario": (str,), "hours": NUM, "seeds": (list,),
                    "controllers": (list,), "window_minutes": NUM,
                    "warmup_minutes": NUM, "budgets": (dict,)}, {}),
    "chaos.window": ({"run": (str,), "window": (int,), "t0": NUM,
                      "t1": NUM, "comfort_min": NUM, "dew_min": NUM,
                      "degraded_min": NUM, "faults_injected": (int,),
                      "faults_cleared": (int,), "breached": (str,),
                      "passed": (bool,),
                      "dataage_p95_s": NULLABLE_NUM}, {}),
    "chaos.summary": ({"run": (str,), "windows": (int,),
                       "windows_passed": (int,), "comfort_min": NUM,
                       "dew_min": NUM, "degraded_min": NUM,
                       "faults": (int,), "unrecovered": (int,),
                       "recovery_max_s": NULLABLE_NUM,
                       "recovery_mean_s": NULLABLE_NUM,
                       "passed": (bool,),
                       "dataage_p95_s": NULLABLE_NUM,
                       "fault_age_delta_s": NULLABLE_NUM}, {}),
}

validate_report_rows = partial(check_records, schema=ROW_SCHEMA, tag="kind")
