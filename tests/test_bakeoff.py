"""Controller bake-off: specs, scoring, byte identity, CLI.

The decision-law behaviour itself is covered by tests/test_policy.py
and the bit-exactness pins in tests/test_policy_equivalence.py; these
tests cover the comparison harness — spec fan-out, payload folding,
pooled-vs-serial byte identity of the rendered report, the scored
column families and the ``repro bakeoff`` / ``repro controllers`` CLI
surface.
"""

import json

import pytest

from repro.analysis.bakeoff import (
    BakeoffRow,
    aggregate_rows,
    render_bakeoff_table,
    score_payload,
)
from repro.analysis.slo import SloBudgets
from repro.runtime.spec import RunFailure
from repro.workloads.bakeoff import (
    BakeoffConfig,
    bakeoff_specs,
    merge_bakeoff,
    run_bakeoff,
)


def tiny_config(**overrides):
    defaults = dict(controllers=("pid", "consensus", "deadband"),
                    scenarios=("paper-vc",), seeds=(7,),
                    minutes=6.0, warmup_minutes=1.0, window_minutes=2.0)
    defaults.update(overrides)
    return BakeoffConfig(**defaults)


# ----------------------------------------------------------------------
# Config and specs
# ----------------------------------------------------------------------
def test_config_validation():
    with pytest.raises(ValueError, match="unknown controller"):
        tiny_config(controllers=("pid", "bogus"))
    with pytest.raises(ValueError, match="unique"):
        tiny_config(controllers=("pid", "pid"))
    with pytest.raises(ValueError, match="at least one controller"):
        tiny_config(controllers=())
    with pytest.raises(ValueError, match="warmup"):
        tiny_config(minutes=5.0, warmup_minutes=5.0)
    with pytest.raises(ValueError, match="seeds"):
        tiny_config(seeds=())


def test_unknown_scenario_fails_at_spec_time():
    config = tiny_config(scenarios=("no-such-cell",))
    with pytest.raises(KeyError, match="no-such-cell"):
        bakeoff_specs(config)


def test_specs_cross_the_full_matrix_with_telemetry():
    config = tiny_config(seeds=(7, 11))
    specs = bakeoff_specs(config)
    assert [spec.label for spec in specs] == [
        "pid/paper-vc/seed-7", "pid/paper-vc/seed-11",
        "consensus/paper-vc/seed-7", "consensus/paper-vc/seed-11",
        "deadband/paper-vc/seed-7", "deadband/paper-vc/seed-11",
    ]
    assert all(spec.telemetry for spec in specs)
    assert {spec.scenario.controller for spec in specs} == {
        "pid", "consensus", "deadband"}
    assert all(spec.scenario.run_minutes == config.minutes
               for spec in specs)
    by_label = {spec.label: spec for spec in specs}
    assert by_label["pid/paper-vc/seed-11"].scenario.config.seed == 11


def test_every_registered_bakeoff_cell_resolves():
    # The registry's pre-crossed bakeoff/<controller>/<cell> entries
    # must exist for every registered controller.
    from repro.control.policy import controller_names
    from repro.scenarios.registry import get_scenario, scenario_names
    names = scenario_names()
    for controller in controller_names():
        for cell in ("paper", "8z", "32z"):
            name = f"bakeoff/{controller}/{cell}"
            assert name in names
            assert get_scenario(name).controller == controller


# ----------------------------------------------------------------------
# Merging and scoring
# ----------------------------------------------------------------------
def test_merge_requires_matching_payload_count():
    with pytest.raises(ValueError, match="expected 3 payloads"):
        merge_bakeoff(tiny_config(), [])


def test_merge_folds_failures_into_rows():
    config = tiny_config(controllers=("pid",))
    (payload,) = __import__("repro.runtime.pool", fromlist=["run_specs"]
                            ).run_specs(bakeoff_specs(config))
    failure = RunFailure(label="deadband/paper-vc/seed-7", index=1,
                         kind="crash", message="boom", attempts=1)
    result = merge_bakeoff(tiny_config(controllers=("pid", "deadband")),
                           [payload, failure])
    assert len(result.rows) == 1
    assert [f.label for f in result.failures] == [
        "deadband/paper-vc/seed-7"]
    assert result.report_dict()["failures"][0]["kind"] == "crash"


def test_score_payload_rejects_missing_telemetry():
    class Untelemetered:
        obs = None
    with pytest.raises(ValueError, match="telemetry"):
        score_payload(Untelemetered(), label="x", controller="pid",
                      scenario="paper-vc", seed=7, t0=0.0,
                      horizon_s=360.0, window_s=120.0,
                      budgets=SloBudgets(), warmup_s=60.0)


def test_aggregate_rows_averages_seeds_and_ands_slo():
    rows = [
        BakeoffRow(label="pid/c/seed-1", controller="pid", scenario="c",
                   seed=1, discrete_hash="a",
                   metrics={"comfort_violation_min": 2.0,
                            "energy_j": 100.0}),
        BakeoffRow(label="pid/c/seed-2", controller="pid", scenario="c",
                   seed=2, discrete_hash="b",
                   metrics={"comfort_violation_min": 4.0,
                            "energy_j": 300.0}),
    ]
    (agg,) = aggregate_rows(rows)
    assert agg["seeds"] == [1, 2]
    assert agg["comfort_violation_min"] == pytest.approx(3.0)
    assert agg["energy_j"] == pytest.approx(200.0)
    # No SLO scored, no network columns: rendered as dashes, not 0.
    assert agg["slo_passed"] is None
    table = render_bakeoff_table([agg])
    assert "-" in table.splitlines()[-1]


# ----------------------------------------------------------------------
# End to end: byte identity and column families
# ----------------------------------------------------------------------
def test_serial_and_pooled_reports_byte_identical():
    config = tiny_config()
    serial = run_bakeoff(config)
    pooled = run_bakeoff(config, workers=2)
    assert serial.render() == pooled.render()
    assert (json.dumps(serial.report_dict(), sort_keys=True)
            == json.dumps(pooled.report_dict(), sort_keys=True))


def test_scores_three_controllers_on_every_column_family():
    result = run_bakeoff(tiny_config())
    assert not result.failures
    assert [row.controller for row in result.rows] == [
        "pid", "consensus", "deadband"]
    for row in result.rows:
        d = row.row_dict()
        # comfort / energy / dew / network / SLO families all present.
        for key in ("comfort_violation_min", "energy_j",
                    "cooling_exergy_j", "dew_margin_violation_min",
                    "condensation_events", "transmissions",
                    "collision_rate", "slo_comfort_min",
                    "slo_degraded_min", "slo_windows"):
            assert d[key] is not None, f"{row.label} missing {key}"
        assert isinstance(d["slo_passed"], bool)
        assert len(row.discrete_hash) == 64
    # The consensus exchange pays real airtime: more frames on the
    # channel than the reference stack on the identical scenario.
    by_controller = {row.controller: row.row_dict()
                     for row in result.rows}
    assert (by_controller["consensus"]["transmissions"]
            > by_controller["pid"]["transmissions"])
    assert result.manifest is not None
    assert result.manifest["config_hash"]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_controllers_lists_every_stack(capsys):
    from repro.cli import main

    assert main(["controllers"]) == 0
    out = capsys.readouterr().out
    for name in ("pid", "consensus", "deadband"):
        assert f"controller {name}:" in out


def test_cli_bakeoff_smoke(tmp_path, capsys):
    from repro.cli import main

    code = main(["bakeoff", "--seeds", "1", "--minutes", "6",
                 "--warmup-minutes", "1", "--window-minutes", "2",
                 "--workers", "2",
                 "--report", str(tmp_path / "bakeoff.md"),
                 "--json", str(tmp_path / "bakeoff.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert "controller bake-off" in out
    assert (tmp_path / "bakeoff.md").exists()
    report = json.loads((tmp_path / "bakeoff.json").read_text())
    assert len(report["rows"]) == 3
    assert len(report["aggregates"]) == 3
    assert report["manifest"]["command"] == "bakeoff"


def test_cli_bakeoff_rejects_unknown_controller(capsys):
    from repro.cli import main

    assert main(["bakeoff", "--controllers", "pid,bogus"]) == 2
    assert "unknown controller" in capsys.readouterr().err


def test_cli_bakeoff_telemetry_is_worker_count_independent(tmp_path):
    from repro.cli import main

    base = ["bakeoff", "--controllers", "pid", "--seeds", "2",
            "--minutes", "6", "--warmup-minutes", "1",
            "--window-minutes", "2"]

    def run(name, workers, telemetry):
        out = tmp_path / name
        argv = base + ["--workers", str(workers),
                       "--report", str(out / "report.md"),
                       "--json", str(out / "report.json")]
        if telemetry:
            argv += ["--telemetry", str(out / "telemetry")]
        out.mkdir()
        assert main(argv) == 0
        return out

    plain = run("plain", 1, telemetry=False)
    serial = run("serial", 1, telemetry=True)
    pooled = run("pooled", 2, telemetry=True)
    # events.jsonl and profile.json carry host timings; these two hold
    # only each run's own state.
    for name in ("metrics.json", "health.json"):
        assert ((serial / "telemetry" / name).read_bytes()
                == (pooled / "telemetry" / name).read_bytes())
    for out in (serial, pooled):
        for name in ("report.md", "report.json"):
            assert (out / name).read_bytes() == (plain / name).read_bytes()
