"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        from repro.cli import _run_scenario_spec

        args = build_parser().parse_args(["run"])
        assert args.minutes is None  # flag absent: scenario decides
        assert args.seed is None
        assert not args.direct
        spec = _run_scenario_spec(args)
        assert spec.run_minutes == 105.0
        assert spec.config.seed == 7
        assert spec.script == "none"

    def test_run_scenario_flag_layers_overrides(self):
        from repro.cli import _run_scenario_spec

        args = build_parser().parse_args(
            ["run", "--scenario", "eight-zone", "--minutes", "5",
             "--seed", "11"])
        spec = _run_scenario_spec(args)
        assert spec.topology.zone_count == 8
        assert spec.run_minutes == 5.0
        assert spec.config.seed == 11

    def test_paper_events_aliases_script(self):
        from repro.cli import _run_scenario_spec

        args = build_parser().parse_args(["run", "--paper-events"])
        assert _run_scenario_spec(args).script == "paper-phase-two"

    def test_lifetime_args(self):
        args = build_parser().parse_args(["lifetime", "--hours", "1.5"])
        assert args.hours == 1.5


def _surface(command):
    """option string -> (dest, default, kind) for one subcommand."""
    import argparse

    parser = build_parser()
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    surface = {}
    for action in sub.choices[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        kind = ("flag" if isinstance(action, argparse._StoreTrueAction)
                else getattr(action.type, "__name__", "str"))
        for option in action.option_strings:
            surface[option] = (action.dest, action.default, kind)
    return surface


class TestMatrixCommandSurface:
    """Every option of the four matrix subcommands, with its default.

    Pins the command-line contract: sharing option declarations
    between subcommands must neither add, drop nor re-default one.
    """

    POOL = {
        "--workers": ("workers", None, "int"),
        "--timeout-s": ("timeout_s", None, "float"),
        "--report": ("report", None, "str"),
        "--json": ("json_path", None, "str"),
    }
    TELEMETRY = {
        "--telemetry": ("telemetry", None, "str"),
        "--trace": ("trace", False, "flag"),
    }
    EXPECTED = {
        "bakeoff": {
            "--controllers": ("controllers", "pid,consensus,deadband",
                              "str"),
            "--scenarios": ("scenarios", "paper-vc", "str"),
            "--seeds": ("seeds", 2, "int"),
            "--seed-base": ("seed_base", 7, "int"),
            "--minutes": ("minutes", 30.0, "float"),
            "--warmup-minutes": ("warmup_minutes", 5.0, "float"),
            "--window-minutes": ("window_minutes", 10.0, "float"),
            **POOL, **TELEMETRY,
        },
        "campaign": {
            "--quick": ("quick", False, "flag"),
            "--seed": ("seed", 7, "int"),
            "--minutes": ("minutes", None, "float"),
            "--warmup-minutes": ("warmup_minutes", None, "float"),
            "--only": ("only", None, "str"),
            "--cells": ("cells", None, "str"),
            "--controller": ("controller", "pid", "str"),
            **POOL, **TELEMETRY,
        },
        "sweep": {
            "--seeds": ("seeds", 5, "int"),
            "--seed-base": ("seed_base", 1, "int"),
            "--minutes": ("minutes", 105.0, "float"),
            "--warmup-minutes": ("warmup_minutes", 30.0, "float"),
            "--paper-events": ("paper_events", False, "flag"),
            "--direct": ("direct", False, "flag"),
            "--fixed-tx": ("fixed_tx", False, "flag"),
            "--controller": ("controller", "pid", "str"),
            **POOL, **TELEMETRY,
        },
        "chaos": {
            "--scenario": ("scenario", "chaos-paper", "str"),
            "--hours": ("hours", 48.0, "float"),
            "--seeds": ("seeds", 1, "int"),
            "--seed-base": ("seed_base", 7, "int"),
            "--controllers": ("controllers", "adaptive,fixed", "str"),
            "--window-minutes": ("window_minutes", 60.0, "float"),
            "--warmup-minutes": ("warmup_minutes", 30.0, "float"),
            "--hazard": ("hazard", "default", "str"),
            "--rate-scale": ("rate_scale", 1.0, "float"),
            "--jsonl": ("jsonl", None, "str"),
            "--strict": ("strict", False, "flag"),
            **POOL, **TELEMETRY,
        },
    }

    @pytest.mark.parametrize("command", sorted(EXPECTED))
    def test_options_and_defaults(self, command):
        assert _surface(command) == self.EXPECTED[command]

    def test_chaos_hazard_choices(self):
        args = build_parser().parse_args(["chaos", "--hazard", "quick"])
        assert args.hazard == "quick"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--hazard", "fast"])


class TestRunCommand:
    def test_short_direct_run(self, capsys, tmp_path):
        csv_path = tmp_path / "t.csv"
        json_path = tmp_path / "s.json"
        code = main(["run", "--minutes", "5", "--direct", "--seed", "3",
                     "--export-csv", str(csv_path),
                     "--export-json", str(json_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "condensation events: 0" in out
        assert csv_path.exists()
        summary = json.loads(json_path.read_text())
        assert summary["seed"] == 3

    def test_short_network_run(self, capsys):
        code = main(["run", "--minutes", "3", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "collision rate" in out

    def test_fixed_tx_flag(self, capsys):
        code = main(["run", "--minutes", "2", "--fixed-tx", "--seed", "3"])
        assert code == 0


class TestScenariosCommand:
    def test_lists_registered_scenarios(self, capsys):
        code = main(["scenarios"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("paper-va", "paper-vc", "eight-zone"):
            assert name in out

    def test_show_describes_one(self, capsys):
        code = main(["scenarios", "--show", "eight-zone"])
        assert code == 0
        out = capsys.readouterr().out
        assert "8 zones" in out
        assert "grid-8" in out

    def test_show_unknown_exits_2(self, capsys):
        code = main(["scenarios", "--show", "no-such"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_unknown_scenario_exits_2(self, capsys):
        code = main(["run", "--scenario", "no-such"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestCopCommand:
    def test_cop_report(self, capsys):
        code = main(["cop", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "BubbleZERO" in out
        assert "improvement over AirCon" in out


class TestBenchCommand:
    def test_forwards_argv_verbatim(self, monkeypatch):
        import repro.bench

        seen = []

        def fake_main(argv):
            seen.append(argv)
            return 5

        monkeypatch.setattr(repro.bench, "main", fake_main)
        argv = ["--trial", "hvac", "--repeat", "2", "--obs",
                "--telemetry", "tel", "--baseline", "none.json",
                "-o", "out.json"]
        assert main(["bench", *argv]) == 5
        assert seen == [argv]


class TestCampaignCommand:
    def test_only_filters_cells(self, capsys, tmp_path):
        json_path = tmp_path / "campaign.json"
        code = main(["campaign", "--quick", "--only", "stuck-*",
                     "--minutes", "6", "--warmup-minutes", "2",
                     "--workers", "1", "--json", str(json_path)])
        assert code == 0
        loaded = json.loads(json_path.read_text())
        names = [cell["name"] for cell in loaded["cells"]]
        assert names == ["stuck-high", "stuck-low"]
        assert "2 cells + baseline, 1 worker(s)" in capsys.readouterr().out

    def test_minutes_override_revalidates_warmup(self, capsys):
        # Shrinking the run below the default 30 min warmup must fail
        # loudly at argument time, not crash mid-campaign.
        code = main(["campaign", "--quick", "--minutes", "6"])
        assert code == 2
        assert "warmup" in capsys.readouterr().err

    def test_only_with_no_match_fails_loudly(self, capsys):
        code = main(["campaign", "--quick", "--only", "no-such-cell"])
        assert code == 2
        err = capsys.readouterr().err
        assert "no campaign cell matches" in err
        assert "stuck-high" in err  # lists the available names

    def test_cells_selects_exact_names(self, capsys, tmp_path):
        json_path = tmp_path / "campaign.json"
        code = main(["campaign", "--quick",
                     "--cells", "crash-room-temp,stuck-high",
                     "--minutes", "6", "--warmup-minutes", "2",
                     "--workers", "1", "--json", str(json_path)])
        assert code == 0
        loaded = json.loads(json_path.read_text())
        names = [cell["name"] for cell in loaded["cells"]]
        assert names == ["crash-room-temp", "stuck-high"]

    def test_cells_unknown_name_exits_2(self, capsys):
        code = main(["campaign", "--quick", "--cells", "no-such"])
        assert code == 2
        assert "unknown campaign cell" in capsys.readouterr().err

    def test_duplicate_cells_exit_2_before_any_run(self, capsys):
        code = main(["campaign", "--quick",
                     "--cells", "stuck-high,stuck-high"])
        assert code == 2
        captured = capsys.readouterr()
        assert "cell names must be unique" in captured.err
        assert "baseline" not in captured.out


class TestSweepCommand:
    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.seeds == 5
        assert args.seed_base == 1
        assert args.minutes == 105.0
        assert args.workers is None

    def test_short_sweep(self, capsys, tmp_path):
        json_path = tmp_path / "sweep.json"
        code = main(["sweep", "--seeds", "2", "--minutes", "2",
                     "--warmup-minutes", "1", "--workers", "1",
                     "--json", str(json_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "# Seed sweep report" in out
        assert "2 replicates (seeds 1..2)" in out
        loaded = json.loads(json_path.read_text())
        assert loaded["seeds"] == [1, 2]
        assert loaded["failures"] == []

    def test_invalid_sweep_config_exits_2(self, capsys):
        code = main(["sweep", "--seeds", "2", "--minutes", "5",
                     "--warmup-minutes", "5"])
        assert code == 2
        assert "warmup" in capsys.readouterr().err
