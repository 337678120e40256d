"""Performance benchmarks over the two paper trials.

Times the §V-A HVAC-performance trial (105 simulated minutes, paper
phase-two door events, COP metering window) and the §V-C networking
trial (5 simulated hours, periodic disturbances, BT-ADPT), reporting
wall-clock time, dispatched events, events per second and simulated
seconds per wall-clock second, alongside the domain metrics the paper
reports (COP, comfort, packet counts, lifetimes) and the run's physics
``state_digest``.  Layer-by-layer timing, the grid and the pooled
bake-off are ``perfbench/``'s job; this harness keeps the full-length
paper trials, their baseline check and the observability overhead
budget.

Usage::

    PYTHONPATH=src python -m repro.bench                 # both trials
    PYTHONPATH=src python -m repro.bench --trial network
    PYTHONPATH=src python -m repro.bench --repeat 3 --obs -o BENCH_7.json

Results are written as JSON (default ``BENCH_2.json`` in the current
directory).  When a baseline file is available (default
``benchmarks/perf/baseline_seed.json``, recorded from the seed commit on
the same class of machine), each run is compared against it: wall-clock
speedup for the timing numbers and per-metric deltas checked against the
tolerances the baseline declares — discrete counters (events, frames,
collisions) must match exactly, continuous metrics within the small
relative drift introduced by quantised-key psychrometric memoisation.
Any mismatch or tolerance breach makes the command exit 1, after the
report is written.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.analysis.fingerprint import discrete_log_hash, state_digest
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import prepare_run

DEFAULT_BASELINE = Path("benchmarks/perf/baseline_seed.json")

# Observability must cost less than this much wall clock (relative to
# the blind run) to stay honest about "telemetry never perturbs and
# barely slows" — asserted by the --obs section.
OBS_OVERHEAD_BUDGET_PCT = 3.0

# Sim-seconds per lockstep chunk when measuring that overhead.  The
# blind and instrumented systems advance through the trial horizon in
# alternating chunks of this size, so both sides sample the machine's
# noise (frequency scaling, noisy neighbours) at the same instants —
# sequential whole-trial timings on a shared box drift by far more
# than the 3% being asserted.
OBS_CHUNK_S = 60.0


def _build_trial(name: str, obs=None):
    """A fresh system for trial ``name`` (caches cold) and its horizon."""
    from repro.physics import psychrometrics, spectral

    psychrometrics.cache_clear()
    spectral.cache_clear()
    spec = get_scenario(TRIALS[name].scenario)
    system, _ = prepare_run(spec, obs=obs)
    return system, spec.run_minutes * 60.0


def _result(system, wall_s: float, sim_s: float, obs,
            **metrics: object) -> Dict[str, object]:
    """A finalized trial's report entry: timing, identity, ``metrics``."""
    from repro.physics import psychrometrics

    events = system.sim.events_dispatched
    result: Dict[str, object] = {
        "wall_s": wall_s,
        "sim_s": sim_s,
        "events": events,
        "events_per_s": events / wall_s,
        "sim_s_per_wall_s": sim_s / wall_s,
        "discrete_hash": discrete_log_hash(system),
        "state_digest": state_digest(system),
        **metrics,
        "psychro_cache": psychrometrics.cache_stats(),
    }
    if obs is not None:
        from repro.obs.collect import obs_payload
        result["obs_payload"] = obs_payload(system, obs)
    return result


def run_hvac_trial(obs=None) -> Dict[str, object]:
    """The paper §V-A trial: phase-two events, COP metering window."""
    system, sim_s = _build_trial("hvac", obs=obs)
    system.start()
    t0 = time.perf_counter()
    system.run(minutes=40)
    before = system.plant.meter_snapshot()
    system.run(minutes=20)
    after = system.plant.meter_snapshot()
    system.run(minutes=45)
    wall_s = time.perf_counter() - t0
    system.finalize()
    room = system.plant.room
    return _result(
        system, wall_s, sim_s, obs,
        cop=system.plant.cop_between(before, after),
        mean_temp_c=room.mean_temp_c(),
        mean_dew_c=room.mean_dew_point_c(),
        mean_co2=room.mean_co2_ppm(),
        condensation=room.condensation_events,
        net=system.network_stats(),
        lifetime_cop=system.plant.cop_report())


def run_network_trial(obs=None) -> Dict[str, object]:
    """The paper §V-C trial: 5 h of BT-ADPT under periodic disturbances."""
    import numpy as np

    system, sim_s = _build_trial("network", obs=obs)
    system.start()
    t0 = time.perf_counter()
    system.run(seconds=sim_s)
    wall_s = time.perf_counter() - t0
    system.finalize()
    room = system.plant.room
    return _result(
        system, wall_s, sim_s, obs,
        mean_temp_c=room.mean_temp_c(),
        mean_dew_c=room.mean_dew_point_c(),
        net=system.network_stats(),
        mean_lifetime_years=float(np.mean(
            [n.projected_lifetime_years(sim_s)
             for n in system.bt_nodes])),
        mean_tsnd=float(np.mean([n.send_period_s for n in system.bt_nodes])),
        sniffer_frames=system.sniffer.frame_count)


class Trial(NamedTuple):
    """A bench trial: the registry scenario it runs unchanged, and the
    function that times it and reports its metrics."""

    scenario: str
    run: Callable[..., Dict[str, object]]


TRIALS: Dict[str, Trial] = {
    "hvac": Trial("paper-va", run_hvac_trial),
    "network": Trial("paper-vc", run_network_trial),
}

# Keys that legitimately vary between identical runs (wall clock and
# its derivatives); everything else is a domain metric and must be
# bit-identical across repeats of the same trial.
TIMING_KEYS = ("wall_s", "events_per_s", "sim_s_per_wall_s")


def domain_mismatches(first: Dict[str, object],
                      other: Dict[str, object]) -> List[str]:
    """Domain metrics that differ between two runs of the same trial."""
    flat_first: Dict[str, object] = {}
    flat_other: Dict[str, object] = {}
    _flatten("", first, flat_first)
    _flatten("", other, flat_other)
    mismatches = []
    for key in sorted(set(flat_first) | set(flat_other)):
        if key.rsplit("/", 1)[-1] in TIMING_KEYS:
            continue
        # Telemetry payloads carry wall-clock profile samples; the
        # discrete_hash they ride with is what must (and does) match.
        if key.startswith("obs_payload/"):
            continue
        if flat_first.get(key) != flat_other.get(key):
            mismatches.append(f"{key}: {flat_first.get(key)!r} "
                              f"!= {flat_other.get(key)!r}")
    return mismatches


def run_best_of(name: str, repeat: int) -> Dict[str, object]:
    """Run a trial ``repeat`` times; keep the best wall clock.

    Domain metrics — the physics ``state_digest`` included — must be
    bit-identical across repeats (the runs are the same pure function
    of the seed): any mismatch is a determinism bug and raises rather
    than silently reporting one of the divergent runs.  Timing
    derivatives are recomputed from the best wall clock.
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    runs = [TRIALS[name].run() for _ in range(repeat)]
    for i, other in enumerate(runs[1:], start=2):
        mismatches = domain_mismatches(runs[0], other)
        if mismatches:
            raise RuntimeError(
                f"{name} trial is not deterministic: repeat {i} "
                f"diverged on " + "; ".join(mismatches))
    best = min(runs, key=lambda run: run["wall_s"])
    wall = float(best["wall_s"])
    best["events_per_s"] = best["events"] / wall
    best["sim_s_per_wall_s"] = best["sim_s"] / wall
    best["repeat"] = repeat
    return best


def _flatten(prefix: str, value: object, out: Dict[str, object]) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}/{key}" if prefix else str(key), sub, out)
    else:
        out[prefix] = value


def compare_to_baseline(name: str, result: Dict[str, object],
                        baseline: Dict[str, object]
                        ) -> Tuple[List[str], bool]:
    """Human-readable comparison lines, one per shared metric, and
    whether every metric held.

    The baseline declares its tolerance policy: metrics listed under
    ``exact_metrics`` must match bit for bit, everything else numeric is
    checked against ``relative_tolerance``.  A trial the baseline does
    not record is reported, not failed.
    """
    lines: List[str] = []
    trial_base = baseline.get("trials", {}).get(name)
    if trial_base is None:
        return [f"{name}: no baseline recorded"], True
    exact = set(baseline.get("exact_metrics", []))
    rel_tol = float(baseline.get("relative_tolerance", 1e-9))
    flat_now: Dict[str, object] = {}
    flat_base: Dict[str, object] = {}
    _flatten("", result, flat_now)
    _flatten("", trial_base, flat_base)
    held = True
    for key, base_val in sorted(flat_base.items()):
        now_val = flat_now.get(key)
        if now_val is None or key in TIMING_KEYS:
            continue  # timing handled below
        leaf = key.rsplit("/", 1)[-1]
        if leaf in exact or key in exact:
            matched = now_val == base_val
            status = ("EXACT" if matched
                      else f"MISMATCH base={base_val} now={now_val}")
            lines.append(f"  {name}/{key}: {status}")
        elif isinstance(base_val, (int, float)):
            ref = max(abs(float(base_val)), 1e-12)
            drift = abs(float(now_val) - float(base_val)) / ref
            matched = drift <= rel_tol
            verdict = "ok" if matched else f"EXCEEDS {rel_tol:g}"
            lines.append(f"  {name}/{key}: drift {drift:.3e} ({verdict})")
        else:
            continue
        held = held and matched
    wall_base = flat_base.get("wall_s")
    if isinstance(wall_base, (int, float)) and result.get("wall_s"):
        speedup = float(wall_base) / float(result["wall_s"])
        lines.insert(0, (f"  {name}/wall_s: baseline {wall_base:.2f}s "
                         f"now {result['wall_s']:.2f}s "
                         f"speedup {speedup:.2f}x"))
    return lines, held


# Per-round identity flags of a lockstep measurement: the instrumented
# run must not move the blind run's discrete log, physics state or
# event count.
IDENTITY_KEYS = ("hashes_equal", "state_digest_equal",
                 "events_dispatched_equal")


def measure_obs_overhead(name: str,
                         trace: bool = False,
                         trace_sample: Optional[int] = None
                         ) -> Dict[str, object]:
    """One lockstep overhead measurement of trial ``name``.

    ``trace=False`` prices the standard observability context against
    a blind system.  ``trace=True`` prices causal tracing against the
    standard observability context — the off side is then itself
    obs-instrumented (profiler and all), so the ratio isolates the
    *marginal* cost of tracing, the quantity the tracing budget
    bounds; the obs context's own overhead is gated separately by the
    ``trace=False`` measurement, and folding it into the baseline
    would double-count it.  The default ``trace_sample`` is the
    shipped head-sampling stride; pass 1 to price full-fidelity
    tracing of every sensing epoch.

    A blind and an instrumented system advance through the same trial
    horizon in alternating :data:`OBS_CHUNK_S` chunks; each chunk
    yields one paired wall-clock ratio, and the overhead is the median
    ratio over all chunks.  Adjacent chunks see (nearly) the same
    machine conditions and the median discards the chunks a noisy
    neighbour or cgroup throttle landed on — summed whole-side wall
    clocks on a shared box swing by ±10%, an order of magnitude more
    than the effect measured here.  Which side runs first alternates
    per chunk to cancel residual within-pair drift and shared-cache
    warmup advantage.  The systems are independent (own RNG
    registries, own queues); only the process-global psychrometrics
    cache is shared, which affects speed symmetrically and results
    not at all.
    """
    from repro.obs import create_observability
    from repro.obs.collect import obs_payload

    base_obs = create_observability(profile=True) if trace else None
    blind, sim_s = _build_trial(name, obs=base_obs)
    obs = create_observability(profile=True, trace=trace,
                               trace_sample=trace_sample)
    instrumented, _ = _build_trial(name, obs=obs)
    blind.start()
    instrumented.start()
    perf = time.perf_counter
    wall_off = 0.0
    wall_on = 0.0
    ratios: List[float] = []
    start_t = blind.sim.now
    chunks = max(1, round(sim_s / OBS_CHUNK_S))
    # Cyclic GC off during the timed region, like timeit: by this
    # point the process heap holds every earlier trial's results, so a
    # full collection landing inside a ~40ms chunk dwarfs the effect
    # being measured — and the instrumented side allocates more, so
    # the pauses land on it asymmetrically and read as overhead.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for i in range(1, chunks + 1):
            horizon = start_t + sim_s * i / chunks
            first, second = ((blind, instrumented) if i % 2
                             else (instrumented, blind))
            t0 = perf()
            first.sim.run_until(horizon)
            t1 = perf()
            second.sim.run_until(horizon)
            t2 = perf()
            off, on = ((t1 - t0, t2 - t1) if i % 2
                       else (t2 - t1, t1 - t0))
            wall_off += off
            wall_on += on
            if off > 0.0:
                ratios.append(on / off)
    finally:
        if gc_was_enabled:
            gc.enable()
        gc.collect()
    blind.finalize()
    instrumented.finalize()
    chunk_ratios = list(ratios)
    ratios.sort()
    median_ratio = ratios[len(ratios) // 2] if ratios else 1.0
    return {
        "wall_s_off": wall_off,
        "wall_s_on": wall_on,
        "overhead_pct": (median_ratio - 1.0) * 100.0,
        "chunk_ratios": chunk_ratios,
        "hashes_equal": (discrete_log_hash(blind)
                         == discrete_log_hash(instrumented)),
        "state_digest_equal": (state_digest(blind)
                               == state_digest(instrumented)),
        "events_dispatched_equal": (blind.sim.events_dispatched
                                    == instrumented.sim.events_dispatched),
        "obs_payload": obs_payload(instrumented, obs),
    }


def measure_overhead_block(name: str, rounds: int, trace: bool = False,
                           trace_sample: Optional[int] = None,
                           gated: bool = True
                           ) -> Tuple[Dict[str, object],
                                      Dict[str, object], bool]:
    """Measure ``rounds`` lockstep rounds of trial ``name`` and score
    them as one report block.

    The overhead is the median over *all* chunk ratios pooled across
    rounds: per-round medians share whatever throttle regime their
    round ran under, so the median-of-medians of a few rounds inherits
    that correlated bias, while the pooled median sees every chunk pair
    individually (a few hundred samples) and is an order of magnitude
    steadier on a shared box.  The wall clocks and telemetry payload
    come from the median round.  Returns ``(block, payload, ok)``:
    ``ok`` is False if any round's instrumented run diverged from its
    baseline run (telemetry perturbed the simulation) or, when
    ``gated``, the overhead exceeds :data:`OBS_OVERHEAD_BUDGET_PCT`.
    An ungated block is marked informational.
    """
    what = "tracing" if trace else "observability"
    stride = "" if trace_sample is None else f", stride {trace_sample}"
    print(f"measuring {name} {what} overhead "
          f"(lockstep, {rounds} interleaved rounds{stride})...", flush=True)
    measured = sorted((measure_obs_overhead(name, trace=trace,
                                            trace_sample=trace_sample)
                       for _ in range(rounds)),
                      key=lambda r: r["overhead_pct"])
    picked = measured[len(measured) // 2]
    pooled = sorted(r for rnd in measured for r in rnd["chunk_ratios"])
    pct = (pooled[len(pooled) // 2] - 1.0) * 100.0 if pooled else 0.0
    within_budget = pct <= OBS_OVERHEAD_BUDGET_PCT
    block: Dict[str, object] = {
        "wall_s_off": picked["wall_s_off"],
        "wall_s_on": picked["wall_s_on"],
        "overhead_pct": pct,
    }
    if trace:
        block["overhead_baseline"] = "obs"
    if gated:
        block.update(
            overhead_pct_rounds=[r["overhead_pct"] for r in measured],
            overhead_estimator="pooled_median_chunk_ratio",
            chunks_pooled=len(pooled),
            overhead_budget_pct=OBS_OVERHEAD_BUDGET_PCT,
            within_budget=within_budget)
    else:
        block["informational"] = True
    identical = {key: all(r[key] for r in measured) for key in IDENTITY_KEYS}
    held = all(identical.values())
    block.update(identical)
    payload = picked["obs_payload"]
    if trace:
        spans = payload.get("trace") or {}
        summary = spans.get("summary") or {}
        block.update(sample_every=summary.get("sample_every", 0),
                     spans_emitted=len(spans.get("spans", ())),
                     traces=summary.get("traces", 0))
        if gated:  # the ungated stride-1 round samples nothing out
            block["sampled_out"] = summary.get("sampled_out", 0)
    else:
        block.update(events_emitted=len(payload["events"]),
                     profile=payload["profile"])
    budget = (f"budget {OBS_OVERHEAD_BUDGET_PCT:.1f}%" if gated
              else "not budget-gated")
    print(f"  {what} wall {picked['wall_s_on']:.2f}s vs "
          f"{'obs' if trace else 'blind'} {picked['wall_s_off']:.2f}s | "
          f"overhead {pct:+.2f}% ({budget}) | identity "
          f"{'held' if held else 'DIVERGED'}")
    return block, payload, held and (within_budget or not gated)


def run_obs_section(report: Dict[str, object],
                    names: List[str],
                    repeat: int,
                    telemetry_dir: Optional[str] = None) -> bool:
    """Measure observability overhead in lockstep and score it.

    Per trial, three blocks from :func:`measure_overhead_block`: the
    standard observability context against a blind run (``repeat``
    rounds, budget-gated); causal tracing at its shipped head-sampling
    stride against the obs context, isolating tracing's marginal cost
    (``repeat`` rounds, same budget), recorded under the trial's
    ``trace`` key; and one informational round of full-fidelity
    tracing (stride 1) under ``trace/full_fidelity`` — per-frame span
    hooks in pure Python cannot meet 3% at stride 1 on a
    macro-accelerated trial, which is exactly why sampling is the
    shipped default.
    Returns False (and still records the section) if any trial blew
    the wall-clock budget or — far worse — diverged from the baseline
    run's discrete log, physics state or event count, which would mean
    telemetry perturbs the simulation.
    """
    obs_report: Dict[str, object] = {}
    report["obs"] = obs_report
    payloads: Dict[str, Dict[str, object]] = {}
    ok = True
    for name in names:
        block, payloads[name], obs_ok = measure_overhead_block(name, repeat)
        trace, _, trace_ok = measure_overhead_block(name, repeat,
                                                    trace=True)
        full, _, full_ok = measure_overhead_block(
            name, 1, trace=True, trace_sample=1, gated=False)
        trace["full_fidelity"] = full
        block["trace"] = trace
        obs_report[name] = block
        ok = ok and obs_ok and trace_ok and full_ok
    if telemetry_dir is not None:
        from repro.obs.status import write_run_telemetry

        manifest = report.get("manifest")
        assert isinstance(manifest, dict)
        paths = write_run_telemetry(telemetry_dir, manifest,
                                    list(payloads), payloads)
        print(f"wrote telemetry: {', '.join(paths)}")
    return ok


def load_baseline(path: Path) -> Optional[Dict[str, object]]:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description="Time the paper trials and write a benchmark report")
    parser.add_argument("--trial", choices=[*TRIALS, "all"], default="all")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run each trial N times, report the best "
                             "wall clock (domain metrics must match)")
    parser.add_argument("--obs", action="store_true",
                        help="rerun the trials with observability on; "
                             "record the wall-clock overhead and assert "
                             f"it stays under {OBS_OVERHEAD_BUDGET_PCT}%% "
                             "with bit-identical discrete hashes and "
                             "state digests")
    parser.add_argument("--telemetry", metavar="DIR", default=None,
                        help="write the instrumented trials' telemetry "
                             "artifacts into this directory "
                             "(implies --obs)")
    parser.add_argument("-o", "--output", default="BENCH_2.json",
                        help="report path (default: BENCH_2.json)")
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE),
                        help="seed baseline to compare against; any "
                             "mismatch makes the command exit 1")
    args = parser.parse_args(argv)

    names = list(TRIALS) if args.trial == "all" else [args.trial]
    macro = all(get_scenario(TRIALS[name].scenario).config
                .physics_macro_step for name in names)
    measure_obs = args.obs or args.telemetry is not None
    from repro.obs.manifest import build_manifest

    report: Dict[str, object] = {
        "config": {"physics_macro_step": macro, "seed": 7,
                   "repeat": args.repeat},
        "manifest": build_manifest(
            command="bench",
            config_dict={"trials": names, "physics_macro_step": macro,
                         "repeat": args.repeat, "obs": measure_obs},
            seed=7),
        "trials": {},
    }
    baseline = load_baseline(Path(args.baseline))
    baseline_held = True
    for name in names:
        print(f"running {name} trial (best of {args.repeat})...",
              flush=True)
        result = run_best_of(name, repeat=args.repeat)
        report["trials"][name] = result
        print(f"  wall {result['wall_s']:.2f}s | "
              f"{result['events']} events | "
              f"{result['events_per_s']:,.0f} events/s | "
              f"{result['sim_s_per_wall_s']:,.0f} sim-s/wall-s")
        if baseline is not None:
            speedups = report.setdefault("speedup_vs_baseline", {})
            trial_base = baseline.get("trials", {}).get(name, {})
            wall_base = trial_base.get("wall_s")
            if isinstance(wall_base, (int, float)):
                assert isinstance(speedups, dict)
                speedups[name] = wall_base / result["wall_s"]
            lines, held = compare_to_baseline(name, result, baseline)
            for line in lines:
                print(line)
            baseline_held = baseline_held and held
    budget_ok = (run_obs_section(report, names, repeat=args.repeat,
                                 telemetry_dir=args.telemetry)
                 if measure_obs else True)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")
    if not baseline_held:
        print(f"baseline check FAILED against {args.baseline}",
              file=sys.stderr)
    if not budget_ok:
        print("observability overhead budget FAILED", file=sys.stderr)
    return 0 if baseline_held and budget_ok else 1


if __name__ == "__main__":
    sys.exit(main())
