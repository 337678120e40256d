"""Chaos endurance campaign: specs, merging, JSONL report, CLI.

The statistical behaviour of the hazard process lives in
tests/test_properties_chaos.py; these tests cover the deterministic
plumbing — spec construction, per-seed schedule sharing, pooled vs
serial byte identity of the JSONL report, failure folding and
the CLI surface — plus the passive comfort/dew breach probes the SLO
scorer consumes.
"""

import json

import pytest

from repro.obs import create_observability
from repro.obs.events import (
    COMFORT_BREACH,
    COMFORT_CLEARED,
    DEW_BREACH,
    DEW_CLEARED,
)
from repro.obs.schema import validate_records
from repro.runtime.spec import RunFailure, execute_spec
from repro.workloads.chaos import (
    ChaosConfig,
    HazardConfig,
    chaos_specs,
    device_class,
    merge_chaos,
    quick_hazard,
    run_chaos,
)


def tiny_config(**overrides):
    defaults = dict(scenario="chaos-quick", hours=0.2, seeds=(1,),
                    controllers=("adaptive", "fixed"),
                    window_minutes=3.0, warmup_minutes=3.0,
                    hazard=quick_hazard().scaled(3.0))
    defaults.update(overrides)
    return ChaosConfig(**defaults)


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------
def test_specs_share_schedule_per_seed_and_vary_controller():
    specs = chaos_specs(tiny_config())
    assert [spec.label for spec in specs] == ["adaptive/seed-1",
                                             "fixed/seed-1"]
    adaptive, fixed = specs
    assert adaptive.scenario.faults == fixed.scenario.faults
    assert adaptive.scenario.faults, "quick hazard produced no faults"
    assert adaptive.scenario.config.network.bt_mode == "adaptive"
    assert fixed.scenario.config.network.bt_mode == "fixed"
    assert all(spec.telemetry for spec in specs)
    assert all(spec.scenario.config.seed == 1 for spec in specs)


def test_specs_differ_between_seeds():
    specs = chaos_specs(tiny_config(seeds=(1, 2),
                                    controllers=("adaptive",)))
    assert specs[0].scenario.faults != specs[1].scenario.faults


def test_direct_mode_scenario_rejected():
    with pytest.raises(ValueError, match="direct control"):
        chaos_specs(tiny_config(scenario="grid-8"))


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(hours=0.0)
    with pytest.raises(ValueError):
        tiny_config(seeds=(1, 1))
    with pytest.raises(ValueError):
        tiny_config(controllers=("adaptive", "warp"))
    with pytest.raises(ValueError):
        tiny_config(warmup_minutes=60.0)
    with pytest.raises(ValueError):
        HazardConfig(max_crash_fraction=1.5)
    with pytest.raises(ValueError):
        HazardConfig(rate_scale=0.0)
    with pytest.raises(ValueError):
        device_class("thermostat-1")


# ----------------------------------------------------------------------
# Breach probes (the scorer's input)
# ----------------------------------------------------------------------
def test_comfort_and_dew_probes_emit_schema_valid_transitions():
    spec = chaos_specs(tiny_config(controllers=("adaptive",)))[0]
    result = execute_spec(spec)
    events = result.obs["events"]
    assert validate_records(events) == []
    kinds = [record["kind"] for record in events]
    assert COMFORT_BREACH in kinds
    # Transitions alternate per zone: never two breaches in a row.
    per_zone = {}
    for record in events:
        if record["kind"] in (COMFORT_BREACH, COMFORT_CLEARED):
            zone = record["zone"]
            assert per_zone.get(zone) != record["kind"]
            per_zone[zone] = record["kind"]
    for record in events:
        if record["kind"] in (DEW_BREACH, DEW_CLEARED):
            assert isinstance(record["panel"], int)


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------
def test_merge_requires_matching_payload_count():
    config = tiny_config()
    with pytest.raises(ValueError, match="expected 2 payloads"):
        merge_chaos(config, [])


def test_merge_folds_failures_into_rows():
    config = tiny_config()
    ok = execute_spec(chaos_specs(config)[0])
    boom = RunFailure(index=1, label="fixed/seed-1", kind="crash",
                      message="worker died", attempts=2)
    result = merge_chaos(config, [ok, boom])
    assert [run.label for run in result.runs] == ["adaptive/seed-1"]
    assert [f.label for f in result.failures] == ["fixed/seed-1"]
    report = result.report_dict()
    assert report["failures"][0]["kind"] == "crash"
    # The JSONL rows still validate with a failed run missing.
    from repro.analysis.slo import validate_report_rows
    assert validate_report_rows(list(result.jsonl_rows())) == []


def test_merge_rejects_payload_without_telemetry():
    config = tiny_config(controllers=("adaptive",))
    spec = chaos_specs(config)[0]
    blind = execute_spec(
        type(spec)(label=spec.label, scenario=spec.scenario,
                   telemetry=False))
    with pytest.raises(ValueError, match="no telemetry"):
        merge_chaos(config, [blind])


# ----------------------------------------------------------------------
# End to end: streaming, byte identity, scoring
# ----------------------------------------------------------------------
def test_serial_and_pooled_jsonl_byte_identical(tmp_path):
    config = tiny_config()
    serial = tmp_path / "serial.jsonl"
    pooled = tmp_path / "pooled.jsonl"
    run_chaos(config, jsonl_path=str(serial))
    run_chaos(config, workers=2, jsonl_path=str(pooled))
    assert serial.read_bytes() == pooled.read_bytes()
    rows = [json.loads(line) for line in serial.read_text().splitlines()]
    from repro.analysis.slo import validate_report_rows
    assert validate_report_rows(rows) == []
    assert rows[0]["kind"] == "chaos.meta"
    kinds = [row["kind"] for row in rows[1:]]
    assert kinds.count("chaos.summary") == 2
    # Windows stream before their run's summary, in spec order.
    runs = [row["run"] for row in rows[1:]]
    assert runs == sorted(runs, key=["adaptive/seed-1",
                                     "fixed/seed-1"].index)


def test_chaos_scores_and_compares_controllers(tmp_path):
    result = run_chaos(tiny_config(),
                       telemetry_dir=str(tmp_path / "tel"))
    assert len(result.runs) == 2
    for run in result.runs:
        assert run.faults_scheduled > 0
        assert run.report.windows, "no scoring windows produced"
        assert run.events_dropped == 0
    (row,) = result.comparison()
    assert set(row) == {"seed", "comfort_min", "dew_min",
                        "degraded_min", "recovery_mean_s",
                        "distinguished"}
    from repro.obs.status import validate_telemetry
    assert validate_telemetry(str(tmp_path / "tel")) == []


def test_cli_chaos_smoke(tmp_path, capsys):
    from repro.cli import main

    jsonl = tmp_path / "report.jsonl"
    code = main(["chaos", "--scenario", "chaos-quick", "--hours", "0.2",
                 "--seeds", "1", "--seed-base", "1",
                 "--hazard", "quick", "--rate-scale", "3",
                 "--window-minutes", "3", "--warmup-minutes", "3",
                 "--jsonl", str(jsonl),
                 "--json", str(tmp_path / "report.json"),
                 "--report", str(tmp_path / "report.md")])
    assert code == 0
    out = capsys.readouterr().out
    assert "Chaos endurance report" in out
    assert jsonl.exists()
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["scenario"] == "chaos-quick"
    assert len(report["runs"]) == 2
    assert (tmp_path / "report.md").read_text().startswith(
        "# Chaos endurance report")


def test_cli_rejects_unknown_scenario_and_direct_mode(capsys):
    from repro.cli import main

    assert main(["chaos", "--scenario", "nope"]) == 2
    capsys.readouterr()
    assert main(["chaos", "--scenario", "grid-8"]) == 2


# ----------------------------------------------------------------------
# Endurance (slow lane)
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_grid8_endurance_reproducible_and_distinguishes_controllers(
        tmp_path):
    """A 2-hour 8-zone endurance run is byte-reproducible across worker
    counts and separates the adaptive from the fixed controller on at
    least one scored SLO."""
    config = ChaosConfig(scenario="chaos-grid-8", hours=2.0, seeds=(7,),
                         controllers=("adaptive", "fixed"),
                         window_minutes=30.0, warmup_minutes=30.0,
                         hazard=HazardConfig().scaled(40.0))
    serial = tmp_path / "serial.jsonl"
    pooled = tmp_path / "pooled.jsonl"
    result = run_chaos(config, jsonl_path=str(serial))
    run_chaos(config, workers=2, jsonl_path=str(pooled))
    assert serial.read_bytes() == pooled.read_bytes()
    (row,) = result.comparison()
    assert row["distinguished"], row
    for run in result.runs:
        assert run.faults_scheduled > 0
        assert run.events_dropped == 0
