"""Window math of the rolling SLO scorer on hand-built event logs.

Every case here is constructed by hand so the expected minutes are
exact arithmetic: faults spanning window boundaries, overlapping
breaches of the same zone (union semantics), clearances that predate
the log, breaches still open at the horizon, and recoveries that are
never observed.
"""

from types import SimpleNamespace

import pytest

from repro.analysis.slo import (
    Interval,
    SloBudgets,
    fault_recoveries,
    paired_intervals,
    payload_events,
    score_run,
    tier_intervals,
    union_intervals,
    validate_report_rows,
)
from repro.obs.events import (
    COMFORT_BREACH,
    COMFORT_CLEARED,
    DEW_BREACH,
    DEW_CLEARED,
    FAULT_CLEARED,
    FAULT_INJECTED,
    TIER_TRANSITION,
)

BUDGETS = SloBudgets()


def comfort(kind, t, zone=0):
    return {"kind": kind, "t": t, "zone": zone}


def fault(kind, t, name="stuck", device="bt-room-temp-0"):
    return {"kind": kind, "t": t, "fault": name, "device": device}


def tier(t, tier_value, prev, board="board-0", estimate="temp-0"):
    return {"kind": TIER_TRANSITION, "t": t, "board": board,
            "estimate": estimate, "tier": tier_value, "prev_tier": prev}


# ----------------------------------------------------------------------
# Interval reconstruction
# ----------------------------------------------------------------------
def test_empty_log_scores_clean():
    report = score_run([], "empty", t0=0.0, horizon_s=900.0,
                       window_s=300.0, budgets=BUDGETS)
    assert len(report.windows) == 3
    assert all(w.comfort_min == 0.0 and w.dew_min == 0.0
               and w.degraded_min == 0.0 for w in report.windows)
    assert report.recoveries == []
    assert report.passed
    totals = report.totals()
    assert totals["faults"] == 0
    assert totals["recovery_mean_s"] is None


def test_breach_spanning_window_boundary_splits_minutes():
    records = [comfort(COMFORT_BREACH, 550.0),
               comfort(COMFORT_CLEARED, 650.0)]
    report = score_run(records, "span", t0=0.0, horizon_s=900.0,
                       window_s=300.0, budgets=BUDGETS)
    minutes = [w.comfort_min for w in report.windows]
    assert minutes == pytest.approx([0.0, 50.0 / 60.0, 50.0 / 60.0])


def test_overlapping_breaches_union_not_double_count():
    # The same zone breaches twice before clearing twice: depth
    # counting must yield one interval [100, 400], not 500 breach-s.
    records = [comfort(COMFORT_BREACH, 100.0),
               comfort(COMFORT_BREACH, 200.0),
               comfort(COMFORT_CLEARED, 300.0),
               comfort(COMFORT_CLEARED, 400.0)]
    per_zone = paired_intervals(records, COMFORT_BREACH,
                                COMFORT_CLEARED, "zone", 0.0, 900.0)
    assert per_zone == {0: [Interval(100.0, 400.0)]}


def test_distinct_zones_sum_but_union_merges():
    records = [comfort(COMFORT_BREACH, 100.0, zone=0),
               comfort(COMFORT_BREACH, 150.0, zone=1),
               comfort(COMFORT_CLEARED, 200.0, zone=0),
               comfort(COMFORT_CLEARED, 250.0, zone=1)]
    report = score_run(records, "zones", t0=0.0, horizon_s=300.0,
                       window_s=300.0, budgets=BUDGETS)
    # Per-window minutes sum over zones (zone-minutes)...
    assert report.windows[0].comfort_min == pytest.approx(200.0 / 60.0)
    # ...while the recovery reference uses the union.
    per_zone = paired_intervals(records, COMFORT_BREACH,
                                COMFORT_CLEARED, "zone", 0.0, 300.0)
    assert union_intervals(per_zone) == [Interval(100.0, 250.0)]


def test_clearance_without_breach_anchors_at_t0():
    # The breach predates scoring (e.g. log truncation): the whole
    # prefix counts as breached.
    records = [comfort(COMFORT_CLEARED, 120.0)]
    per_zone = paired_intervals(records, COMFORT_BREACH,
                                COMFORT_CLEARED, "zone", 0.0, 900.0)
    assert per_zone == {0: [Interval(0.0, 120.0)]}


def test_breach_open_at_horizon_truncates():
    records = [comfort(COMFORT_BREACH, 800.0)]
    per_zone = paired_intervals(records, COMFORT_BREACH,
                                COMFORT_CLEARED, "zone", 0.0, 900.0)
    assert per_zone == {0: [Interval(800.0, 900.0, closed=False)]}


def test_dew_panels_score_independently():
    records = [{"kind": DEW_BREACH, "t": 60.0, "panel": 0},
               {"kind": DEW_BREACH, "t": 60.0, "panel": 1},
               {"kind": DEW_CLEARED, "t": 120.0, "panel": 0},
               {"kind": DEW_CLEARED, "t": 180.0, "panel": 1}]
    report = score_run(records, "dew", t0=0.0, horizon_s=300.0,
                       window_s=300.0, budgets=BUDGETS)
    assert report.windows[0].dew_min == pytest.approx(3.0)


def test_tier_step_function_windows():
    # temp-0 degrades at 100 s and returns at 400 s; hum-0 degrades at
    # 700 s and is still degraded at the horizon.
    records = [tier(100.0, 2, 1), tier(250.0, 3, 2), tier(400.0, 1, 3),
               tier(700.0, 2, 1, estimate="hum-0")]
    per_key = tier_intervals(records, 0.0, 900.0)
    assert per_key[("board-0", "temp-0")] == [Interval(100.0, 400.0)]
    assert per_key[("board-0", "hum-0")] == [
        Interval(700.0, 900.0, closed=False)]
    report = score_run(records, "tiers", t0=0.0, horizon_s=900.0,
                       window_s=900.0, budgets=BUDGETS)
    assert report.windows[0].degraded_min == pytest.approx(500.0 / 60.0)


def test_warmup_excluded_from_first_window():
    records = [comfort(COMFORT_BREACH, 0.0),
               comfort(COMFORT_CLEARED, 300.0)]
    report = score_run(records, "warm", t0=0.0, horizon_s=900.0,
                       window_s=300.0, budgets=BUDGETS, warmup_s=300.0)
    assert [w.t0 for w in report.windows] == [300.0, 600.0]
    assert all(w.comfort_min == 0.0 for w in report.windows)


def test_absolute_t0_offsets_windows():
    # Event timestamps are absolute sim time; t0 anchors the windows.
    records = [comfort(COMFORT_BREACH, 46900.0),
               comfort(COMFORT_CLEARED, 46960.0)]
    report = score_run(records, "abs", t0=46800.0, horizon_s=600.0,
                       window_s=300.0, budgets=BUDGETS)
    assert report.windows[0].comfort_min == pytest.approx(1.0)
    assert report.windows[1].comfort_min == 0.0


# ----------------------------------------------------------------------
# Fault recovery
# ----------------------------------------------------------------------
def test_recovery_measured_from_clearance():
    records = [fault(FAULT_INJECTED, 100.0),
               comfort(COMFORT_BREACH, 150.0),
               fault(FAULT_CLEARED, 200.0),
               comfort(COMFORT_CLEARED, 500.0)]
    report = score_run(records, "rec", t0=0.0, horizon_s=900.0,
                       window_s=900.0, budgets=BUDGETS)
    (recovery,) = report.recoveries
    assert recovery.cleared_t == 200.0
    assert recovery.reference_t == 200.0
    assert recovery.recovery_s == pytest.approx(300.0)
    assert recovery.recovered


def test_permanent_fault_references_onset():
    records = [fault(FAULT_INJECTED, 100.0, name="crash"),
               comfort(COMFORT_BREACH, 150.0),
               comfort(COMFORT_CLEARED, 400.0)]
    report = score_run(records, "crash", t0=0.0, horizon_s=900.0,
                       window_s=900.0, budgets=BUDGETS)
    (recovery,) = report.recoveries
    assert recovery.cleared_t is None
    assert recovery.reference_t == 100.0
    # Breach starts 50 s after onset (inside attribution): blamed.
    assert recovery.recovery_s == pytest.approx(300.0)


def test_breach_outside_attribution_window_not_blamed():
    records = [fault(FAULT_INJECTED, 100.0),
               fault(FAULT_CLEARED, 200.0),
               comfort(COMFORT_BREACH, 900.0),
               comfort(COMFORT_CLEARED, 1000.0)]
    report = score_run(records, "attr", t0=0.0, horizon_s=1800.0,
                       window_s=1800.0, budgets=BUDGETS)
    (recovery,) = report.recoveries
    # 900 > 200 + RECOVERY_ATTRIBUTION_S: comfort was clean at the
    # clearance and the later breach is someone else's problem.
    assert recovery.recovery_s == 0.0
    assert recovery.recovered


def test_recovery_never_observed():
    records = [fault(FAULT_INJECTED, 100.0, name="crash"),
               comfort(COMFORT_BREACH, 150.0)]
    report = score_run(records, "open", t0=0.0, horizon_s=900.0,
                       window_s=900.0, budgets=BUDGETS)
    (recovery,) = report.recoveries
    assert not recovery.recovered
    assert recovery.recovery_s is None
    assert report.totals()["unrecovered"] == 1
    assert not report.passed


def test_overlapping_faults_pair_fifo():
    # Two stucks on the same device overlap; clearances pair FIFO.
    records = [fault(FAULT_INJECTED, 100.0),
               fault(FAULT_INJECTED, 200.0),
               fault(FAULT_CLEARED, 300.0),
               fault(FAULT_CLEARED, 500.0)]
    recoveries = fault_recoveries(records, [], 900.0)
    assert [(r.t, r.cleared_t) for r in recoveries] == [
        (100.0, 300.0), (200.0, 500.0)]


# ----------------------------------------------------------------------
# Budgets and validation
# ----------------------------------------------------------------------
def test_budget_breach_flags_and_pass():
    records = [comfort(COMFORT_BREACH, 0.0),
               comfort(COMFORT_CLEARED, 660.0)]
    report = score_run(records, "budget", t0=0.0, horizon_s=1200.0,
                       window_s=1200.0,
                       budgets=SloBudgets(comfort_min=10.0))
    assert report.windows[0].breached == ("comfort",)
    assert not report.windows[0].passed
    ok = score_run(records, "budget", t0=0.0, horizon_s=1200.0,
                   window_s=1200.0,
                   budgets=SloBudgets(comfort_min=12.0))
    assert ok.windows[0].passed and ok.passed


def test_slow_recovery_fails_the_report_not_the_window():
    records = [fault(FAULT_INJECTED, 0.0),
               fault(FAULT_CLEARED, 60.0),
               comfort(COMFORT_BREACH, 100.0),
               comfort(COMFORT_CLEARED, 2500.0)]
    report = score_run(records, "slow", t0=0.0, horizon_s=3600.0,
                       window_s=3600.0,
                       budgets=SloBudgets(comfort_min=60.0,
                                          recovery_s=1800.0))
    assert report.windows[0].passed
    (recovery,) = report.recoveries
    assert recovery.recovery_s == pytest.approx(2440.0)
    assert not report.passed


def test_score_run_rejects_bad_shapes():
    with pytest.raises(ValueError):
        score_run([], "bad", t0=0.0, horizon_s=900.0, window_s=0.0,
                  budgets=BUDGETS)
    with pytest.raises(ValueError):
        score_run([], "bad", t0=0.0, horizon_s=900.0, window_s=300.0,
                  budgets=BUDGETS, warmup_s=900.0)
    with pytest.raises(ValueError):
        SloBudgets(comfort_min=-1.0)


def test_report_rows_validate_and_reject_drift():
    records = [fault(FAULT_INJECTED, 100.0), fault(FAULT_CLEARED, 200.0)]
    report = score_run(records, "rows", t0=0.0, horizon_s=900.0,
                       window_s=300.0, budgets=BUDGETS)
    rows = [w.row("rows") for w in report.windows]
    rows.append(report.summary_row())
    assert validate_report_rows(rows) == []
    assert validate_report_rows([{"kind": "chaos.bogus"}])
    extra = dict(rows[0])
    extra["surprise"] = 1
    assert any("undocumented" in p
               for p in validate_report_rows([extra]))
    missing = dict(rows[-1])
    del missing["faults"]
    assert any("missing" in p for p in validate_report_rows([missing]))


def _payload(dropped, events=()):
    """A run payload as the pool ships it, reduced to what scorers read."""
    return SimpleNamespace(
        obs={"events": list(events), "dropped_events": dropped},
        metrics={}, discrete_hash="0" * 64)


def test_payload_events_returns_a_complete_log():
    records = [comfort(COMFORT_BREACH, 100.0)]
    assert payload_events(_payload(0, records), "ok") == records
    with pytest.raises(ValueError, match="no telemetry"):
        payload_events(SimpleNamespace(obs=None), "blind")


def test_bakeoff_scorer_rejects_a_truncated_log():
    from repro.analysis.bakeoff import score_payload

    with pytest.raises(ValueError, match="'pid/seed-7' dropped 3"):
        score_payload(_payload(3), label="pid/seed-7", controller="pid",
                      scenario="paper-lab", seed=7, t0=0.0,
                      horizon_s=900.0, window_s=300.0, budgets=BUDGETS,
                      warmup_s=0.0)


def test_chaos_merge_rejects_a_truncated_log():
    from repro.workloads.chaos import ChaosConfig, merge_chaos

    config = ChaosConfig(scenario="chaos-quick", hours=0.2, seeds=(1,),
                         controllers=("adaptive",), window_minutes=3.0,
                         warmup_minutes=3.0)
    with pytest.raises(ValueError, match="'adaptive/seed-1' dropped 3"):
        merge_chaos(config, [_payload(3)])
