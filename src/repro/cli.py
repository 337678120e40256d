"""Command-line interface: run BubbleZERO experiments without writing code.

Usage::

    python -m repro run --minutes 105 --seed 7 --paper-events \\
        --export-csv traces.csv --export-json summary.json
    python -m repro cop --seed 7
    python -m repro lifetime --hours 2

Each subcommand builds the full system, runs the scenario, and prints a
human-readable report; ``--export-csv`` / ``--export-json`` additionally
persist the traces and outcome summary.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional, Tuple

from repro.analysis.export import (
    export_summary_json,
    export_traces_csv,
    write_report_json,
)
from repro.core.config import BubbleZeroConfig, NetworkConfig
from repro.scenarios.spec import (
    SCRIPT_BUILDERS,
    WEATHER_BUILDERS,
    ScenarioSpec,
    prepare_run,
)
from repro.sim.clock import format_clock


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BubbleZERO (ICDCS 2014) reproduction runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the full system")
    run.add_argument("--scenario", metavar="NAME", default=None,
                     help="start from a registered scenario (see "
                          "`repro scenarios`); other flags override "
                          "its fields")
    run.add_argument("--minutes", type=float, default=None,
                     help="simulated duration (default: the scenario's, "
                          "or the paper's 105)")
    run.add_argument("--seed", type=int, default=None,
                     help="RNG seed (default: the scenario's, or 7)")
    run.add_argument("--direct", action="store_true",
                     help="wired control loop (no radio)")
    run.add_argument("--fixed-tx", action="store_true",
                     help="Fixed transmission scheme instead of BT-ADPT")
    run.add_argument("--script", choices=sorted(SCRIPT_BUILDERS),
                     default=None,
                     help="workload script to schedule")
    run.add_argument("--weather", choices=sorted(WEATHER_BUILDERS),
                     default=None,
                     help="weather model (default: the scenario's, or "
                          "the config-driven constant design day)")
    run.add_argument("--paper-events", action="store_true",
                     help="schedule the paper's 14:05/14:25 door events "
                          "(alias for --script paper-phase-two)")
    run.add_argument("--controller", metavar="NAME", default=None,
                     help="control stack to run (see `repro controllers`; "
                          "default: the scenario's, or pid)")
    run.add_argument("--export-csv", metavar="PATH")
    run.add_argument("--export-json", metavar="PATH")
    run.add_argument("--telemetry", metavar="DIR", default=None,
                     help="record the run's observability artifacts "
                          "(events, metrics, health, profile) into "
                          "this directory; the run stays bit-identical")
    run.add_argument("--trace", action="store_true",
                     help="also record causal traces of the "
                          "sensing→actuation pipeline (trace.jsonl in "
                          "the --telemetry directory; requires it)")
    run.add_argument("--trace-sample", type=int, default=None,
                     metavar="N",
                     help="trace one sensing epoch in N (deterministic "
                          "head sampling; default the shipped stride, "
                          "1 = trace every epoch)")

    scenarios = sub.add_parser(
        "scenarios", help="list the registered experiment scenarios")
    scenarios.add_argument("--show", metavar="NAME", default=None,
                           help="describe one scenario in full")

    sub.add_parser(
        "controllers",
        help="list the registered control stacks (ControlPolicy registry)")

    bakeoff = sub.add_parser(
        "bakeoff",
        help="head-to-head controller comparison: fan controller x "
             "scenario x seed through the pool and score comfort/"
             "energy/dew/network/SLO (see repro.workloads.bakeoff)")
    bakeoff.add_argument("--controllers", default="pid,consensus,deadband",
                         help="comma-separated control stacks to compare "
                              "(default: pid,consensus,deadband)")
    bakeoff.add_argument("--scenarios", default="paper-vc",
                         help="comma-separated base scenario cells; every "
                              "controller runs each cell (default: "
                              "paper-vc)")
    bakeoff.add_argument("--minutes", type=float, default=30.0,
                         help="run length per cell (default: 30)")
    bakeoff.add_argument("--warmup-minutes", type=float, default=5.0,
                         help="cold-start transient excluded from scoring "
                              "(default: 5)")
    bakeoff.add_argument("--window-minutes", type=float, default=10.0,
                         help="rolling SLO window length (default: 10)")
    _add_matrix_options(bakeoff, seeds=(2, 7))

    cop = sub.add_parser("cop", help="steady-state COP report (Fig. 11)")
    cop.add_argument("--seed", type=int, default=7)

    lifetime = sub.add_parser(
        "lifetime", help="BT-ADPT vs Fixed battery life (Fig. 15)")
    lifetime.add_argument("--hours", type=float, default=2.0)
    lifetime.add_argument("--seed", type=int, default=7)

    # `repro bench ARGS` hands ARGS to repro.bench untouched (see
    # main), so its options are declared once, there.
    sub.add_parser("bench", add_help=False,
                   help="time the paper trials; every argument goes to "
                        "`python -m repro.bench`")

    campaign = sub.add_parser(
        "campaign",
        help="fault-injection campaign scored against a clean baseline")
    campaign.add_argument("--quick", action="store_true",
                          help="the fast 10-cell matrix, 45 min per cell "
                               "(default: onset/severity sweep, 60 min)")
    campaign.add_argument("--seed", type=int, default=7)
    campaign.add_argument("--minutes", type=float, default=None,
                          help="override the per-cell run length")
    campaign.add_argument("--warmup-minutes", type=float, default=None,
                          help="override the scoring warmup (must fit "
                               "inside the run length)")
    campaign.add_argument("--only", metavar="GLOB",
                          help="run only cells whose name matches this "
                               "shell-style pattern (e.g. 'stuck-*')")
    campaign.add_argument("--cells", metavar="NAMES",
                          help="run exactly these comma-separated cell "
                               "names, in the given order")
    campaign.add_argument("--controller", metavar="NAME", default="pid",
                          help="control stack for baseline and cells "
                               "(see `repro controllers`; default: pid)")
    _add_matrix_options(campaign, telemetry=True)

    sweep = sub.add_parser(
        "sweep",
        help="replicate a trial across seeds and aggregate the paper "
             "metrics (mean/stddev/min/max)")
    sweep.add_argument("--minutes", type=float, default=105.0,
                       help="run length per replicate (default: the "
                            "paper's 105)")
    sweep.add_argument("--warmup-minutes", type=float, default=30.0,
                       help="cold-start transient excluded from comfort "
                            "scoring (default: 30)")
    sweep.add_argument("--paper-events", action="store_true",
                       help="schedule the paper's 14:05/14:25 door events")
    sweep.add_argument("--direct", action="store_true",
                       help="wired control loop (no radio)")
    sweep.add_argument("--fixed-tx", action="store_true",
                       help="Fixed transmission scheme instead of BT-ADPT")
    sweep.add_argument("--controller", metavar="NAME", default="pid",
                       help="control stack for every replicate (see "
                            "`repro controllers`; default: pid)")
    _add_matrix_options(sweep, seeds=(5, 1), telemetry=True)

    chaos = sub.add_parser(
        "chaos",
        help="seeded continuous-chaos endurance campaign with rolling "
             "SLO scoring (see repro.workloads.chaos)")
    chaos.add_argument("--scenario", default="chaos-paper",
                       help="registered chaos base scenario (default: "
                            "chaos-paper; chaos-grid-8/-32 scale out)")
    chaos.add_argument("--hours", type=float, default=48.0,
                       help="endurance horizon per run (default: 48)")
    chaos.add_argument("--controllers", default="adaptive,fixed",
                       help="comma-separated controller variants to run "
                            "per seed (default: adaptive,fixed)")
    chaos.add_argument("--window-minutes", type=float, default=60.0,
                       help="rolling SLO window length (default: 60)")
    chaos.add_argument("--warmup-minutes", type=float, default=30.0,
                       help="cold-start transient excluded from scoring "
                            "(default: 30)")
    chaos.add_argument("--hazard", choices=["default", "quick"],
                       default="default",
                       help="base hazard profile: the endurance default "
                            "or the accelerated quick profile behind "
                            "the short CI smoke")
    chaos.add_argument("--rate-scale", type=float, default=1.0,
                       help="multiply every hazard rate (and accelerate "
                            "battery wear-out) by this factor")
    chaos.add_argument("--jsonl", metavar="PATH",
                       help="write the SLO report rows here (one JSON "
                            "object per line), after every run has "
                            "finished, in spec order: byte-identical for "
                            "any --workers")
    chaos.add_argument("--strict", action="store_true",
                       help="exit 1 when any run misses its SLO "
                            "budgets (execution failures always exit 1)")
    _add_matrix_options(chaos, seeds=(1, 7), telemetry=True)

    trace = sub.add_parser(
        "trace",
        help="inspect, export and diff recorded causal traces "
             "(see repro.obs.trace / repro.analysis.dataage)")
    trace.add_argument("--telemetry", metavar="DIR", required=True,
                       help="telemetry directory containing trace.jsonl")
    trace.add_argument("--run", metavar="LABEL", default=None,
                       help="run label to inspect (required when the "
                            "directory holds several traced runs)")
    trace.add_argument("--tree", type=int, metavar="TRACE_ID",
                       default=None,
                       help="render this trace's span tree (default: "
                            "the first completed trace)")
    trace.add_argument("--export-chrome", metavar="PATH", default=None,
                       help="write a Chrome trace_event JSON (open in "
                            "chrome://tracing or ui.perfetto.dev)")
    trace.add_argument("--save-summary", metavar="PATH", default=None,
                       help="write the data-age summary JSON here "
                            "(the --diff baseline format)")
    trace.add_argument("--diff", metavar="BASELINE", default=None,
                       help="compare against a saved summary; exits 1 "
                            "on a data-age/drop regression")
    trace.add_argument("--tolerance-pct", type=float, default=10.0,
                       help="relative p95/p99 growth tolerated by "
                            "--diff (default: 10)")

    status = sub.add_parser(
        "status",
        help="render the health/telemetry view of a recorded run")
    status.add_argument("--telemetry", metavar="DIR", required=True,
                        help="telemetry directory written by campaign/"
                             "sweep/bench --telemetry")
    status.add_argument("--validate", action="store_true",
                        help="also validate every artifact against the "
                             "event and manifest schemas (exit 1 on any "
                             "problem)")
    return parser


def _add_matrix_options(parser: argparse.ArgumentParser, *,
                        seeds: Optional[Tuple[int, int]] = None,
                        telemetry: bool = False) -> None:
    """The options the matrix subcommands (bakeoff, campaign, sweep,
    chaos) share, declared once: pool width and timeout, the report
    outputs, and — where the command has them — a seed range
    (``seeds`` = default count and first seed) and telemetry."""
    if seeds is not None:
        count, base = seeds
        parser.add_argument("--seeds", type=int, default=count,
                            help="number of seeds, counting up from "
                                 f"--seed-base (default: {count})")
        parser.add_argument("--seed-base", type=int, default=base,
                            help=f"first seed of the range (default: "
                                 f"{base})")
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool width (default: cpu count, "
                             "capped at the number of runs)")
    parser.add_argument("--timeout-s", type=float, default=None,
                        help="per-run wall-clock timeout (workers > 1)")
    parser.add_argument("--report", metavar="PATH",
                        help="write the markdown report here")
    parser.add_argument("--json", metavar="PATH", dest="json_path",
                        help="write the machine-readable report here")
    if telemetry:
        parser.add_argument("--telemetry", metavar="DIR", default=None,
                            help="record per-run observability (events, "
                                 "metrics, health, profile) into this "
                                 "directory; runs stay bit-identical")
        parser.add_argument("--trace", action="store_true",
                            help="also record per-run causal traces "
                                 "(trace.jsonl in the --telemetry "
                                 "directory; chaos also folds p95 data "
                                 "age into its SLO report)")


def _run_scenario_spec(args: argparse.Namespace) -> ScenarioSpec:
    """The spec behind ``repro run``: a registered scenario (when
    ``--scenario`` names one) with the explicit flags layered on top,
    or the classic hand-flagged run."""
    from repro.scenarios.registry import get_scenario

    if args.scenario:
        spec = get_scenario(args.scenario)
    else:
        spec = ScenarioSpec(name="run", config=BubbleZeroConfig(seed=7),
                            run_minutes=105.0)
    overrides = {}
    config = spec.config
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.direct or args.fixed_tx:
        config = dataclasses.replace(config, network=NetworkConfig(
            enabled=not args.direct,
            bt_mode="fixed" if args.fixed_tx else "adaptive"))
    if config is not spec.config:
        overrides["config"] = config
    script = args.script
    if args.paper_events and script is None:
        script = "paper-phase-two"
    if script is not None:
        overrides["script"] = script
    if args.weather is not None:
        overrides["weather"] = args.weather
    if args.minutes is not None:
        overrides["run_minutes"] = args.minutes
    if args.controller is not None:
        overrides["controller"] = args.controller
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
    return spec


def cmd_run(args: argparse.Namespace) -> int:
    if args.trace and not args.telemetry:
        print("--trace requires --telemetry (the spans are written as "
              "trace.jsonl inside the telemetry directory)",
              file=sys.stderr)
        return 2
    if args.trace_sample is not None and not args.trace:
        print("--trace-sample only makes sense with --trace",
              file=sys.stderr)
        return 2
    if args.trace_sample is not None and args.trace_sample < 1:
        print("--trace-sample must be >= 1", file=sys.stderr)
        return 2
    try:
        spec = _run_scenario_spec(args)
    except (KeyError, ValueError) as exc:
        return _usage_error(exc)
    obs = None
    if args.telemetry:
        from repro.obs import create_observability
        obs = create_observability(trace=args.trace,
                                   trace_sample=args.trace_sample)
    system, _ = prepare_run(spec, obs=obs)
    system.start()
    remaining = spec.run_minutes
    print(f"{'time':>8} {'temp':>7} {'dew':>7} {'co2':>6}")
    while remaining > 0:
        step = min(10.0, remaining)
        system.run(minutes=step)
        remaining -= step
        room = system.plant.room
        print(f"{format_clock(system.sim.now):>8} "
              f"{room.mean_temp_c():7.2f} {room.mean_dew_point_c():7.2f} "
              f"{room.mean_co2_ppm():6.0f}")
    system.finalize()
    print(f"condensation events: {system.plant.room.condensation_events}")
    if system.medium is not None:
        stats = system.network_stats()
        print(f"frames: {stats['transmissions']:.0f}, collision rate "
              f"{stats['collision_rate'] * 100:.2f}%")
    if args.export_csv:
        rows = export_traces_csv(system.sim.trace, args.export_csv)
        print(f"wrote {rows} rows to {args.export_csv}")
    if args.export_json:
        export_summary_json(system, args.export_json)
        print(f"wrote summary to {args.export_json}")
    if obs is not None:
        from repro.obs.collect import obs_payload
        from repro.obs.manifest import build_manifest
        from repro.obs.status import write_system_telemetry
        manifest = build_manifest(
            command="run",
            config_dict={"scenario": spec.name,
                         "run_minutes": spec.run_minutes,
                         "controller": spec.controller,
                         "trace": args.trace,
                         "trace_sample": obs.trace.sample_every
                         if args.trace else None},
            seed=spec.config.seed,
            extra={"controller": spec.controller})
        write_system_telemetry(args.telemetry, manifest, spec.name,
                               obs_payload(system, obs))
        print(f"wrote telemetry to {args.telemetry}")
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios.registry import (
        describe_scenario,
        get_scenario,
        scenario_names,
    )

    if args.show:
        try:
            print(describe_scenario(args.show))
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        return 0
    for name in scenario_names():
        print(f"{name:36} {get_scenario(name).description}")
    return 0


def cmd_controllers(args: argparse.Namespace) -> int:
    from repro.control.policy import controller_names, describe_controller

    for name in controller_names():
        print(describe_controller(name))
    return 0


def _names(text: str) -> Tuple[str, ...]:
    """A comma-separated option value as a tuple of non-empty names."""
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _seed_range(args: argparse.Namespace) -> Tuple[int, ...]:
    return tuple(range(args.seed_base, args.seed_base + args.seeds))


def _usage_error(exc: Exception) -> int:
    """Report a rejected configuration; exit status 2."""
    print(exc.args[0] if exc.args else exc, file=sys.stderr)
    return 2


def _workers(args: argparse.Namespace, runs: int) -> int:
    """``--workers``, or the cpu-count default capped at ``runs``."""
    from repro.runtime.pool import default_worker_count

    return (default_worker_count(runs) if args.workers is None
            else args.workers)


def _print_line(message: str) -> None:
    print(f"  {message}", flush=True)


def _finish_matrix(args: argparse.Namespace, result, report: str,
                   unit: str = "runs") -> int:
    """The shared tail of a matrix command: print the rendered report,
    write ``--report``/``--json`` and exit 1 if any run failed to
    execute."""
    from pathlib import Path

    print()
    print(report)
    if args.report:
        out = Path(args.report)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report + "\n")
        print(f"wrote report to {args.report}")
    if args.json_path:
        write_report_json(result.report_dict(), args.json_path)
        print(f"wrote JSON to {args.json_path}")
    if result.failures:
        names = ", ".join(f.label for f in result.failures)
        print(f"{unit} that failed to execute: {names}")
        return 1
    return 0


def cmd_bakeoff(args: argparse.Namespace) -> int:
    from repro.workloads.bakeoff import (
        BakeoffConfig,
        bakeoff_specs,
        run_bakeoff,
    )

    try:
        config = BakeoffConfig(controllers=_names(args.controllers),
                               scenarios=_names(args.scenarios),
                               seeds=_seed_range(args),
                               minutes=args.minutes,
                               warmup_minutes=args.warmup_minutes,
                               window_minutes=args.window_minutes)
        # Resolve every cell up front so a scenario typo fails before
        # any run starts.
        runs = len(bakeoff_specs(config))
    except (KeyError, ValueError) as exc:
        return _usage_error(exc)
    workers = _workers(args, runs)
    print(f"{runs} run(s): {len(config.controllers)} controller(s) x "
          f"{len(config.scenarios)} cell(s) x {len(config.seeds)} "
          f"seed(s), {workers} worker(s)")
    result = run_bakeoff(config, progress=_print_line, workers=workers,
                         timeout_s=args.timeout_s)
    return _finish_matrix(args, result, result.render())


def cmd_cop(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import render_cop_bars
    from repro.baselines.aircon import AirConBaseline
    from repro.core.plant import CONDENSER_APPROACH_K
    from repro.scenarios.registry import get_scenario

    spec = get_scenario("paper-cop")
    if args.seed != spec.config.seed:
        spec = dataclasses.replace(spec, config=dataclasses.replace(
            spec.config, seed=args.seed))
    # The registered 60-minute horizon is the 40-minute pulldown plus
    # the 20-minute metered window below.
    system, _ = prepare_run(spec)
    system.run(minutes=40)
    before = system.plant.meter_snapshot()
    system.run(minutes=20)
    after = system.plant.meter_snapshot()
    report = system.plant.cop_between(before, after)
    reject = system.config.outdoor.temp_c + CONDENSER_APPROACH_K
    heat = ((after["radiant_heat_j"] - before["radiant_heat_j"])
            + (after["vent_heat_j"] - before["vent_heat_j"]))
    aircon = AirConBaseline().serve(heat, after["time_s"] - before["time_s"],
                                    reject)
    print(render_cop_bars({
        "AirCon": aircon.cop,
        "Bubble-C": report["bubble_c"],
        "Bubble-V": report["bubble_v"],
        "BubbleZERO": report["bubble_zero"],
    }))
    gain = (report["bubble_zero"] - aircon.cop) / aircon.cop * 100.0
    print(f"improvement over AirCon: {gain:.1f}% (paper: up to 45.5%)")
    return 0


def cmd_lifetime(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.scenarios.registry import get_scenario

    results = {}
    for mode in ("fixed", "adaptive"):
        spec = get_scenario(f"lifetime-{mode}")
        overrides = {"run_minutes": args.hours * 60.0}
        if args.seed != spec.config.seed:
            overrides["config"] = dataclasses.replace(
                spec.config, seed=args.seed)
        spec = dataclasses.replace(spec, **overrides)
        system, _ = prepare_run(spec)
        system.start()
        system.run(hours=args.hours)
        system.finalize()
        elapsed = args.hours * 3600.0
        results[mode] = float(np.mean([
            node.projected_lifetime_years(elapsed)
            for node in system.bt_nodes]))
        print(f"{mode:>9}: mean projected battery life "
              f"{results[mode]:.2f} years")
    print(f"gain: {results['adaptive'] / results['fixed']:.1f}x "
          f"(paper: ~4.6x)")
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import render_campaign_report
    from repro.workloads.campaign import (
        CampaignExecutionError,
        filter_cells,
        full_campaign_config,
        quick_campaign_config,
        run_campaign,
    )

    if args.trace and not args.telemetry:
        print("--trace requires --telemetry", file=sys.stderr)
        return 2
    config = (quick_campaign_config(seed=args.seed) if args.quick
              else full_campaign_config(seed=args.seed))
    overrides = {}
    if args.minutes is not None:
        overrides["run_minutes"] = args.minutes
    if args.warmup_minutes is not None:
        overrides["warmup_minutes"] = args.warmup_minutes
    if args.controller != "pid":
        overrides["controller"] = args.controller
    try:
        cells = config.cells
        if args.only:
            cells = filter_cells(cells, args.only)
        if args.cells:
            by_name = {cell.name: cell for cell in cells}
            wanted = _names(args.cells)
            unknown = [name for name in wanted if name not in by_name]
            if unknown:
                raise ValueError(
                    f"unknown campaign cell(s): {', '.join(unknown)}; "
                    f"available: {', '.join(by_name)}")
            cells = [by_name[name] for name in wanted]
        # replace() re-runs CampaignConfig validation, so a warmup that
        # no longer fits the shortened run or a repeated cell fails
        # here, not mid-campaign.
        config = dataclasses.replace(config, cells=cells, **overrides)
    except ValueError as exc:
        return _usage_error(exc)
    workers = _workers(args, len(config.cells) + 1)
    print(f"{len(config.cells)} cells + baseline, {workers} worker(s)")
    try:
        result = run_campaign(
            config, progress=_print_line, workers=workers,
            timeout_s=args.timeout_s, telemetry_dir=args.telemetry,
            trace=args.trace)
    except CampaignExecutionError as exc:
        print(f"campaign aborted: {exc}", file=sys.stderr)
        return 1
    status = _finish_matrix(args, result, render_campaign_report(result))
    failed = [cell.cell.name for cell in result.cells
              if cell.graceful is False]
    if failed:
        print(f"single-crash cells exceeding the graceful bound: "
              f"{', '.join(failed)}")
        status = 1
    return status


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import render_sweep_report
    from repro.runtime.progress import ProgressPrinter
    from repro.workloads.sweep import SweepConfig, run_sweep

    if args.trace and not args.telemetry:
        print("--trace requires --telemetry", file=sys.stderr)
        return 2
    seeds = _seed_range(args)
    try:
        config = SweepConfig(seeds=seeds, run_minutes=args.minutes,
                             warmup_minutes=args.warmup_minutes,
                             script=("paper-phase-two" if args.paper_events
                                     else "none"),
                             direct=args.direct, fixed_tx=args.fixed_tx,
                             controller=args.controller)
    except ValueError as exc:
        return _usage_error(exc)
    workers = _workers(args, len(seeds))
    print(f"{len(seeds)} replicates (seeds {seeds[0]}..{seeds[-1]}), "
          f"{config.run_minutes:g} min each, {workers} worker(s)")
    result = run_sweep(config, workers=workers, timeout_s=args.timeout_s,
                       progress=ProgressPrinter(len(seeds)),
                       telemetry_dir=args.telemetry, trace=args.trace)
    return _finish_matrix(args, result, render_sweep_report(result),
                          unit="replicates")


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import render_chaos_report
    from repro.workloads.chaos import (
        ChaosConfig,
        HazardConfig,
        chaos_specs,
        quick_hazard,
        run_chaos,
    )

    try:
        hazard = (quick_hazard() if args.hazard == "quick"
                  else HazardConfig())
        if args.rate_scale != 1.0:
            hazard = hazard.scaled(args.rate_scale)
        config = ChaosConfig(scenario=args.scenario, hours=args.hours,
                             seeds=_seed_range(args),
                             controllers=_names(args.controllers),
                             window_minutes=args.window_minutes,
                             warmup_minutes=args.warmup_minutes,
                             hazard=hazard, trace=args.trace)
        # Resolve the scenario (and its network mode) before any run
        # starts, so a typo or a direct-mode base fails immediately.
        runs = len(chaos_specs(config))
    except (KeyError, ValueError) as exc:
        return _usage_error(exc)
    workers = _workers(args, runs)
    print(f"{runs} endurance run(s) ({args.hours:g} h each, scenario "
          f"{config.scenario}), {workers} worker(s)")
    result = run_chaos(config, progress=_print_line, workers=workers,
                       timeout_s=args.timeout_s, jsonl_path=args.jsonl,
                       telemetry_dir=args.telemetry)
    if args.jsonl:
        print(f"wrote SLO rows to {args.jsonl}")
    status = _finish_matrix(args, result, render_chaos_report(result))
    if status:
        return status
    breached = [run.label for run in result.runs
                if not run.report.passed]
    if breached:
        print(f"runs missing their SLO budgets: {', '.join(breached)}")
        if args.strict:
            return 1
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.analysis.dataage import diff_summaries, summarize_dataage
    from repro.analysis.reporting import render_table
    from repro.obs import trace as tr
    from repro.obs.status import load_telemetry

    records = load_telemetry(args.telemetry).get("trace") or []
    if not records:
        print(f"no trace.jsonl in {args.telemetry}; rerun the producing "
              "command with --trace", file=sys.stderr)
        return 2
    runs = sorted({str(r.get("run")) for r in records})
    run = args.run
    if run is None:
        if len(runs) > 1:
            print("directory holds several traced runs; pick one with "
                  f"--run: {', '.join(runs)}", file=sys.stderr)
            return 2
        run = runs[0]
    elif run not in runs:
        print(f"no traced run {run!r}; available: {', '.join(runs)}",
              file=sys.stderr)
        return 2
    selected = [r for r in records if str(r.get("run")) == run]
    spans = tr.span_records(selected)
    summary = summarize_dataage(selected)

    print(f"run {run}: {summary['traces']} trace(s), "
          f"{len(spans)} span(s)")
    statuses = summary["statuses"]
    if statuses:
        print("  " + ", ".join(f"{name}: {count}"
                               for name, count in statuses.items()))
    rows = []
    for scope, stats in (
            [("sensing→actuation age", summary["ages"]["overall"])]
            + [(f"age · zone {zone}", zone_stats)
               for zone, zone_stats in summary["ages"]["zones"].items()]
            + [("MAC access", summary["hops"]["mac"]),
               ("airtime", summary["hops"]["air"])]):
        if stats is None:
            continue
        rows.append((scope, int(stats["n"]), f"{stats['p50_s']:.4f}",
                     f"{stats['p95_s']:.4f}", f"{stats['p99_s']:.4f}",
                     f"{stats['max_s']:.4f}"))
    if rows:
        print()
        print(render_table("Latency breakdown (seconds)",
                           ["population", "n", "p50", "p95", "p99",
                            "max"], rows))
    attribution = summary["attribution"]
    print()
    print(render_table(
        "Loss & retry attribution", ["counter", "count"],
        sorted(attribution.items())))

    trace_id = args.tree
    if trace_id is None and spans:
        trace_id = min(int(span["trace"]) for span in spans)
    if trace_id is not None:
        print()
        print(tr.render_span_tree(spans, trace_id), end="")

    if args.export_chrome:
        out = Path(args.export_chrome)
        out.parent.mkdir(parents=True, exist_ok=True)
        with out.open("w", encoding="utf-8") as handle:
            json.dump(tr.chrome_trace(spans), handle, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote Chrome trace to {out} "
              "(open in chrome://tracing or ui.perfetto.dev)")
    if args.save_summary:
        write_report_json(summary, args.save_summary)
        print(f"wrote data-age summary to {args.save_summary}")
    if args.diff:
        try:
            with open(args.diff, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read baseline {args.diff}: {exc}",
                  file=sys.stderr)
            return 2
        diff = diff_summaries(baseline, summary,
                              tolerance_pct=args.tolerance_pct)
        print()
        print(render_table(
            f"Diff vs {args.diff} (tolerance {args.tolerance_pct:g}%)",
            ["metric", "baseline", "candidate", "delta"],
            [(row["metric"], row["baseline"], row["candidate"],
              row["delta"]) for row in diff["rows"]]))
        if not diff["ok"]:
            print(f"\n{len(diff['regressions'])} regression(s):",
                  file=sys.stderr)
            for regression in diff["regressions"]:
                print(f"  {regression}", file=sys.stderr)
            return 1
        print("\nno data-age regressions")
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    from repro.obs.status import (
        load_telemetry,
        render_status,
        validate_telemetry,
    )

    telemetry = load_telemetry(args.telemetry)
    print(render_status(telemetry))
    if args.validate:
        problems = validate_telemetry(args.telemetry)
        if problems:
            print(f"{len(problems)} validation problem(s):",
                  file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print("telemetry valid: every artifact matches its schema")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["bench"]:
        from repro.bench import main as bench_main
        return bench_main(argv[1:])
    args = build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "scenarios": cmd_scenarios,
                "controllers": cmd_controllers, "bakeoff": cmd_bakeoff,
                "cop": cmd_cop, "lifetime": cmd_lifetime,
                "campaign": cmd_campaign,
                "sweep": cmd_sweep, "chaos": cmd_chaos,
                "trace": cmd_trace, "status": cmd_status}
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
