"""Performance benchmarks over the two paper trials.

Times the §V-A HVAC-performance trial (105 simulated minutes, paper
phase-two door events, COP metering window) and the §V-C networking
trial (5 simulated hours, periodic disturbances, BT-ADPT), reporting
wall-clock time, dispatched events, events per second and simulated
seconds per wall-clock second, alongside the domain metrics the paper
reports (COP, comfort, packet counts, lifetimes).

Usage::

    PYTHONPATH=src python -m repro.bench                 # both trials
    PYTHONPATH=src python -m repro.bench --trial network
    PYTHONPATH=src python -m repro.bench --no-macro      # reference physics
    PYTHONPATH=src python -m repro.bench --grid 4,32,128 # vector scaling
    PYTHONPATH=src python -m repro.bench -o BENCH_1.json

Results are written as JSON (default ``BENCH_1.json`` in the current
directory).  When a baseline file is available (default
``benchmarks/perf/baseline_seed.json``, recorded from the seed commit on
the same class of machine), each run is compared against it: wall-clock
speedup for the timing numbers and per-metric deltas checked against the
tolerances the baseline declares — discrete counters (events, frames,
collisions) must match exactly, continuous metrics within the small
relative drift introduced by quantised-key psychrometric memoisation.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from dataclasses import replace

from repro.analysis.fingerprint import discrete_log_hash
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import prepare_run

# Simulated horizons of the two trials, seconds.
HVAC_SIM_S = (40 + 20 + 45) * 60.0
NETWORK_SIM_S = 5 * 3600.0

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


# Registry scenarios behind each bench trial; the benchmark is the
# registered experiment with only the physics path swapped.
_SCENARIOS = {"hvac": "paper-va", "network": "paper-vc"}


def _build_trial(name: str, macro: bool, obs=None):
    from repro.physics import psychrometrics, spectral

    psychrometrics.cache_clear()
    spectral.cache_clear()
    spec = get_scenario(_SCENARIOS[name])
    spec = replace(spec, config=replace(spec.config,
                                        physics_macro_step=macro))
    system, _ = prepare_run(spec, obs=obs)
    return system, spec.run_minutes * 60.0


def _build_hvac(macro: bool, obs=None):
    return _build_trial("hvac", macro, obs=obs)


def _build_network(macro: bool, obs=None):
    return _build_trial("network", macro, obs=obs)


_BUILDERS = {"hvac": _build_hvac, "network": _build_network}


def run_hvac_trial(macro: bool = True, obs=None) -> Dict[str, object]:
    """The paper §V-A trial: phase-two events, COP metering window."""
    from repro.physics import psychrometrics

    system, _ = _build_hvac(macro, obs=obs)
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
    result = {
        "wall_s": wall_s,
        "sim_s": HVAC_SIM_S,
        "events": system.sim.events_dispatched,
        "events_per_s": system.sim.events_dispatched / wall_s,
        "sim_s_per_wall_s": HVAC_SIM_S / wall_s,
        "discrete_hash": discrete_log_hash(system),
        "cop": system.plant.cop_between(before, after),
        "mean_temp_c": room.mean_temp_c(),
        "mean_dew_c": room.mean_dew_point_c(),
        "mean_co2": room.mean_co2_ppm(),
        "condensation": room.condensation_events,
        "net": system.network_stats(),
        "lifetime_cop": system.plant.cop_report(),
        "psychro_cache": psychrometrics.cache_stats(),
    }
    if obs is not None:
        from repro.obs.collect import obs_payload
        result["obs_payload"] = obs_payload(system, obs)
    return result


def run_network_trial(macro: bool = True, obs=None) -> Dict[str, object]:
    """The paper §V-C trial: 5 h of BT-ADPT under periodic disturbances."""
    import numpy as np

    from repro.physics import psychrometrics

    system, _ = _build_network(macro, obs=obs)
    system.start()
    t0 = time.perf_counter()
    system.run(hours=5)
    wall_s = time.perf_counter() - t0
    system.finalize()
    room = system.plant.room
    result = {
        "wall_s": wall_s,
        "sim_s": NETWORK_SIM_S,
        "events": system.sim.events_dispatched,
        "events_per_s": system.sim.events_dispatched / wall_s,
        "sim_s_per_wall_s": NETWORK_SIM_S / wall_s,
        "discrete_hash": discrete_log_hash(system),
        "mean_temp_c": room.mean_temp_c(),
        "mean_dew_c": room.mean_dew_point_c(),
        "net": system.network_stats(),
        "mean_lifetime_years": float(np.mean(
            [n.projected_lifetime_years(NETWORK_SIM_S)
             for n in system.bt_nodes])),
        "mean_tsnd": float(np.mean(
            [n.send_period_s for n in system.bt_nodes])),
        "sniffer_frames": system.sniffer.frame_count,
        "psychro_cache": psychrometrics.cache_stats(),
    }
    if obs is not None:
        from repro.obs.collect import obs_payload
        result["obs_payload"] = obs_payload(system, obs)
    return result


TRIALS = {
    "hvac": run_hvac_trial,
    "network": run_network_trial,
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


def run_best_of(name: str, macro: bool, repeat: int) -> Dict[str, object]:
    """Run a trial ``repeat`` times; keep the best wall clock.

    Domain metrics must be bit-identical across repeats (the runs are
    the same pure function of the seed) — any mismatch is a
    determinism bug and raises rather than silently reporting one of
    the divergent runs.  Timing derivatives are recomputed from the
    best wall clock.
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    runs = [TRIALS[name](macro=macro) for _ in range(repeat)]
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


# Parallel fan-out section defaults: independent seeded campaign-length
# runs, enough of them to keep every worker busy for several runs.
PARALLEL_RUNS = 8
PARALLEL_RUN_MINUTES = 45.0


def run_parallel_section(workers: int,
                         runs: int = PARALLEL_RUNS,
                         run_minutes: float = PARALLEL_RUN_MINUTES
                         ) -> Dict[str, object]:
    """Fan independent seeded runs over the pool; report throughput.

    ``agg_sim_s_per_wall_s`` is the headline number: summed simulated
    seconds delivered per wall-clock second across all workers.
    ``parallel_speedup`` divides a *measured* serial loop over the same
    specs by the pooled wall clock.  Summed in-worker wall clocks are
    no substitute: on an oversubscribed machine each worker's clock
    counts time spent descheduled, which fakes near-linear scaling on
    a single core.  (``cpu_count`` is recorded so a sub-1x result on a
    one-core box reads as what it is: pool overhead with no cores to
    spend it on.)
    """
    import os

    from repro.core.config import BubbleZeroConfig
    from repro.runtime.pool import run_specs
    from repro.runtime.spec import RunResult, RunSpec

    base = get_scenario("bench-parallel")
    specs = [RunSpec(label=f"seed-{seed}",
                     scenario=replace(base, name=f"seed-{seed}",
                                      config=BubbleZeroConfig(seed=seed),
                                      run_minutes=run_minutes))
             for seed in range(1, runs + 1)]
    t0 = time.perf_counter()
    serial_payloads = run_specs(specs, workers=1)
    serial_wall_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    payloads = run_specs(specs, workers=workers)
    wall_s = time.perf_counter() - t0
    ok = [p for p in payloads if isinstance(p, RunResult)]
    sim_total = sum(p.sim_s for p in ok)
    mismatched = sum(
        1 for serial, pooled in zip(serial_payloads, payloads)
        if not (isinstance(serial, RunResult)
                and isinstance(pooled, RunResult)
                and serial.discrete_hash == pooled.discrete_hash))
    if mismatched:
        raise RuntimeError(
            f"parallel section diverged from the serial loop on "
            f"{mismatched} run(s) — determinism bug")
    return {
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "runs": runs,
        "run_minutes": run_minutes,
        "failures": len(payloads) - len(ok),
        "wall_s": wall_s,
        "serial_wall_s": serial_wall_s,
        "sim_s_total": sim_total,
        "agg_sim_s_per_wall_s": sim_total / wall_s,
        "parallel_speedup": serial_wall_s / wall_s,
    }


# Largest grid where the cache-off control run is still cheap enough to
# bother timing; beyond this the point is already made and the bench
# only reports the cached path.
NOCACHE_MAX_ZONES = 128


def run_grid_trial(zones: int, vector: bool,
                   cache: bool = True) -> Dict[str, object]:
    """One timed run of the ``grid-<zones>`` scenario on one physics
    path (``vector=False`` → scalar per-zone objects).

    The spectral cache is cleared first so every trial starts cold;
    ``cache=False`` disables it outright (every gap re-decomposes),
    which isolates the cache's contribution to the wall clock.  Either
    way the trajectory is bit-identical — the cache stores exact
    decompositions, it never changes them.
    """
    from repro.physics import spectral

    spec = get_scenario(f"grid-{zones}")
    spec = replace(spec, config=replace(spec.config,
                                        physics_vector=vector))
    spectral.cache_clear()
    prev = spectral.configure(enabled=cache)
    try:
        system, _ = prepare_run(spec)
        system.start()
        t0 = time.perf_counter()
        system.run(minutes=spec.run_minutes)
        wall_s = time.perf_counter() - t0
        system.finalize()
        stats = spectral.cache_stats()
    finally:
        spectral.configure(**prev)
    events = system.sim.events_dispatched
    return {
        "wall_s": wall_s,
        "sim_s": spec.run_minutes * 60.0,
        "events": events,
        "events_per_s": events / wall_s,
        "zone_events_per_s": zones * events / wall_s,
        "discrete_hash": discrete_log_hash(system),
        "mean_temp_c": system.plant.room.mean_temp_c(),
        "solver": spec.config.physics_solver,
        "spectral_cache": stats,
    }


def run_grid_section(zone_counts: List[int],
                     repeat: int = 1) -> Dict[str, object]:
    """Scaling sweep of the vectorized physics core over grid sizes.

    For each zone count the ``grid-<zones>`` scenario runs on both
    physics paths (best-of-``repeat`` wall clocks).  The two paths must
    produce identical discrete log hashes — the SoA core is bit-exact,
    so any mismatch raises rather than reporting a speedup over
    different physics.
    """
    section: Dict[str, object] = {"rows": []}
    for zones in zone_counts:
        scalar = min((run_grid_trial(zones, vector=False)
                      for _ in range(repeat)),
                     key=lambda r: r["wall_s"])
        vector = min((run_grid_trial(zones, vector=True)
                      for _ in range(repeat)),
                     key=lambda r: r["wall_s"])
        if scalar["discrete_hash"] != vector["discrete_hash"]:
            raise RuntimeError(
                f"grid-{zones}: vector path diverged from scalar "
                f"(discrete hashes differ) — the SoA core must be "
                f"bit-exact")
        nocache = None
        if zones <= NOCACHE_MAX_ZONES:
            nocache = min((run_grid_trial(zones, vector=True, cache=False)
                           for _ in range(repeat)),
                          key=lambda r: r["wall_s"])
            if nocache["discrete_hash"] != vector["discrete_hash"]:
                raise RuntimeError(
                    f"grid-{zones}: disabling the spectral cache "
                    f"changed the discrete hash — the cache must be "
                    f"observationally invisible")
        row = {
            "zones": zones,
            "events": int(scalar["events"]),
            "solver": vector["solver"],
            "scalar": {k: scalar[k] for k in
                       ("wall_s", "events_per_s", "zone_events_per_s")},
            "vector": {k: vector[k] for k in
                       ("wall_s", "events_per_s", "zone_events_per_s")},
            "vector_speedup": scalar["wall_s"] / vector["wall_s"],
            "hashes_equal": True,
            "discrete_hash": scalar["discrete_hash"],
            "spectral_cache": vector["spectral_cache"],
        }
        if nocache is not None:
            row["nocache"] = {
                "wall_s": nocache["wall_s"],
                "cache_speedup": nocache["wall_s"] / vector["wall_s"],
                "hashes_equal": True,
            }
        rows = section["rows"]
        assert isinstance(rows, list)
        rows.append(row)
        cache_note = (f" | nocache {nocache['wall_s']:.2f}s "
                      f"({row['nocache']['cache_speedup']:.2f}x cache win)"
                      if nocache is not None else "")
        print(f"  grid-{zones} [{row['solver']}]: "
              f"scalar {scalar['wall_s']:.2f}s "
              f"({scalar['zone_events_per_s']:,.0f} zone-ev/s) | "
              f"vector {vector['wall_s']:.2f}s "
              f"({row['vector_speedup']:.2f}x){cache_note}",
              flush=True)
    return section


def _flatten(prefix: str, value: object, out: Dict[str, object]) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}/{key}" if prefix else str(key), sub, out)
    else:
        out[prefix] = value


def compare_to_baseline(name: str, result: Dict[str, object],
                        baseline: Dict[str, object]) -> List[str]:
    """Human-readable comparison lines, one per shared metric.

    The baseline declares its tolerance policy: metrics listed under
    ``exact_metrics`` must match bit for bit, everything else numeric is
    checked against ``relative_tolerance``.
    """
    lines: List[str] = []
    trial_base = baseline.get("trials", {}).get(name)
    if trial_base is None:
        return [f"{name}: no baseline recorded"]
    exact = set(baseline.get("exact_metrics", []))
    rel_tol = float(baseline.get("relative_tolerance", 1e-9))
    flat_now: Dict[str, object] = {}
    flat_base: Dict[str, object] = {}
    _flatten("", result, flat_now)
    _flatten("", trial_base, flat_base)
    wall_base = flat_base.get("wall_s")
    for key, base_val in sorted(flat_base.items()):
        now_val = flat_now.get(key)
        if now_val is None:
            continue
        if key in ("wall_s", "events_per_s", "sim_s_per_wall_s"):
            continue  # timing handled below
        leaf = key.rsplit("/", 1)[-1]
        if leaf in exact or key in exact:
            status = ("EXACT" if now_val == base_val
                      else f"MISMATCH base={base_val} now={now_val}")
            lines.append(f"  {name}/{key}: {status}")
        elif isinstance(base_val, (int, float)):
            ref = max(abs(float(base_val)), 1e-12)
            drift = abs(float(now_val) - float(base_val)) / ref
            verdict = "ok" if drift <= rel_tol else f"EXCEEDS {rel_tol:g}"
            lines.append(f"  {name}/{key}: drift {drift:.3e} ({verdict})")
    if isinstance(wall_base, (int, float)) and result.get("wall_s"):
        speedup = float(wall_base) / float(result["wall_s"])
        lines.insert(0, (f"  {name}/wall_s: baseline {wall_base:.2f}s "
                         f"now {result['wall_s']:.2f}s "
                         f"speedup {speedup:.2f}x"))
    return lines


def measure_obs_overhead(name: str, macro: bool,
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

    if trace:
        base_obs = create_observability(profile=True)
        blind, sim_s = _BUILDERS[name](macro, obs=base_obs)
    else:
        blind, sim_s = _BUILDERS[name](macro)
    obs = create_observability(profile=True, trace=trace,
                               trace_sample=trace_sample)
    instrumented, _ = _BUILDERS[name](macro, obs=obs)
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
        "events_dispatched_equal": (blind.sim.events_dispatched
                                    == instrumented.sim.events_dispatched),
        "obs_payload": obs_payload(instrumented, obs),
    }


def run_obs_section(report: Dict[str, object],
                    names: List[str],
                    macro: bool,
                    repeat: int,
                    telemetry_dir: Optional[str] = None) -> bool:
    """Measure observability overhead in lockstep and score it.

    Each trial is measured by :func:`measure_obs_overhead` —
    chunk-interleaved so shared-machine noise cancels — ``repeat``
    times.  The gated overhead is the median over *all* chunk ratios
    pooled across rounds: per-round medians share whatever throttle
    regime their round ran under, so the median-of-medians of a few
    rounds inherits that correlated bias, while the pooled median sees
    every chunk pair individually (a few hundred samples) and is an
    order of magnitude steadier on a shared box.  Each trial is then
    measured again with causal tracing enabled at its shipped
    head-sampling stride — against the standard obs context this
    time, isolating tracing's marginal cost — scored against the same
    budget and recorded under the trial's ``trace`` key; one extra
    informational round prices full-fidelity tracing (stride 1)
    without gating the budget.
    Returns False (and still records the section) if any trial blew
    the wall-clock budget or — far worse — diverged from the blind
    run's discrete hash, which would mean telemetry perturbs the
    simulation.
    """
    obs_report: Dict[str, object] = {}
    report["obs"] = obs_report
    payloads: Dict[str, Dict[str, object]] = {}
    ok = True

    def pooled_pct(rounds: List[Dict[str, object]]) -> float:
        pooled = sorted(r for rnd in rounds
                        for r in rnd["chunk_ratios"])
        if not pooled:
            return 0.0
        return (pooled[len(pooled) // 2] - 1.0) * 100.0

    for name in names:
        print(f"measuring {name} observability overhead "
              f"(lockstep, {repeat} interleaved rounds)...", flush=True)
        rounds = [measure_obs_overhead(name, macro)
                  for _ in range(repeat)]
        rounds.sort(key=lambda r: r["overhead_pct"])
        picked = rounds[len(rounds) // 2]
        overhead_pct = pooled_pct(rounds)
        hashes_equal = all(r["hashes_equal"] for r in rounds)
        events_equal = all(r["events_dispatched_equal"] for r in rounds)
        payload = picked.pop("obs_payload")
        payloads[name] = payload
        obs_report[name] = {
            "wall_s_off": picked["wall_s_off"],
            "wall_s_on": picked["wall_s_on"],
            "overhead_pct": overhead_pct,
            "overhead_pct_rounds": [r["overhead_pct"] for r in rounds],
            "overhead_estimator": "pooled_median_chunk_ratio",
            "chunks_pooled": sum(len(r["chunk_ratios"]) for r in rounds),
            "overhead_budget_pct": OBS_OVERHEAD_BUDGET_PCT,
            "within_budget": overhead_pct <= OBS_OVERHEAD_BUDGET_PCT,
            "hashes_equal": hashes_equal,
            "events_dispatched_equal": events_equal,
            "events_emitted": len(payload["events"]),
            "profile": payload["profile"],
        }
        print(f"  obs wall {picked['wall_s_on']:.2f}s vs blind "
              f"{picked['wall_s_off']:.2f}s | "
              f"overhead {overhead_pct:+.2f}% "
              f"(budget {OBS_OVERHEAD_BUDGET_PCT:.1f}%) | "
              f"hashes {'equal' if hashes_equal else 'DIVERGED'}")
        if (overhead_pct > OBS_OVERHEAD_BUDGET_PCT or not hashes_equal
                or not events_equal):
            ok = False

        print(f"measuring {name} tracing overhead "
              f"(lockstep, {repeat} interleaved rounds)...", flush=True)
        trace_rounds = [measure_obs_overhead(name, macro, trace=True)
                        for _ in range(repeat)]
        trace_rounds.sort(key=lambda r: r["overhead_pct"])
        trace_picked = trace_rounds[len(trace_rounds) // 2]
        trace_pct = pooled_pct(trace_rounds)
        trace_hashes = all(r["hashes_equal"] for r in trace_rounds)
        trace_events = all(r["events_dispatched_equal"]
                           for r in trace_rounds)
        trace_payload = trace_picked.pop("obs_payload")
        trace_block = trace_payload.get("trace") or {}
        trace_summary = trace_block.get("summary") or {}
        obs_report[name]["trace"] = {
            "wall_s_off": trace_picked["wall_s_off"],
            "wall_s_on": trace_picked["wall_s_on"],
            "overhead_pct": trace_pct,
            "overhead_pct_rounds": [r["overhead_pct"]
                                    for r in trace_rounds],
            "overhead_estimator": "pooled_median_chunk_ratio",
            "chunks_pooled": sum(len(r["chunk_ratios"])
                                 for r in trace_rounds),
            "overhead_baseline": "obs",
            "overhead_budget_pct": OBS_OVERHEAD_BUDGET_PCT,
            "within_budget": trace_pct <= OBS_OVERHEAD_BUDGET_PCT,
            "sample_every": trace_summary.get("sample_every", 0),
            "hashes_equal": trace_hashes,
            "events_dispatched_equal": trace_events,
            "spans_emitted": len(trace_block.get("spans", ())),
            "traces": trace_summary.get("traces", 0),
            "sampled_out": trace_summary.get("sampled_out", 0),
        }
        print(f"  trace wall {trace_picked['wall_s_on']:.2f}s vs obs "
              f"{trace_picked['wall_s_off']:.2f}s | "
              f"marginal overhead {trace_pct:+.2f}% "
              f"(budget {OBS_OVERHEAD_BUDGET_PCT:.1f}%, sampling 1/"
              f"{trace_summary.get('sample_every', '?')}) | "
              f"hashes {'equal' if trace_hashes else 'DIVERGED'}")
        if (trace_pct > OBS_OVERHEAD_BUDGET_PCT or not trace_hashes
                or not trace_events):
            ok = False

        # Full-fidelity tracing (every sensing epoch) is priced too,
        # one round, informational only: it documents what the default
        # head sampling buys rather than gating the budget — per-frame
        # span hooks in pure Python cannot meet 3% at stride 1 on a
        # macro-accelerated trial, which is exactly why sampling is
        # the shipped default.
        print(f"pricing {name} full-fidelity tracing "
              "(stride 1, informational)...", flush=True)
        full = measure_obs_overhead(name, macro, trace=True,
                                    trace_sample=1)
        full_payload = full.pop("obs_payload")
        full_block = full_payload.get("trace") or {}
        full_summary = full_block.get("summary") or {}
        obs_report[name]["trace"]["full_fidelity"] = {
            "wall_s_off": full["wall_s_off"],
            "wall_s_on": full["wall_s_on"],
            "overhead_pct": float(full["overhead_pct"]),
            "overhead_baseline": "obs",
            "sample_every": 1,
            "informational": True,
            "hashes_equal": full["hashes_equal"],
            "events_dispatched_equal": full["events_dispatched_equal"],
            "spans_emitted": len(full_block.get("spans", ())),
            "traces": full_summary.get("traces", 0),
        }
        print(f"  full-fidelity overhead {full['overhead_pct']:+.2f}% "
              f"({full_summary.get('traces', 0)} traces, "
              "not budget-gated)")
        if not full["hashes_equal"] or not full["events_dispatched_equal"]:
            ok = False
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
    parser.add_argument("--trial", choices=["hvac", "network", "all"],
                        default="all")
    parser.add_argument("--no-macro", action="store_true",
                        help="disable macro-stepped physics "
                             "(reference scheduling)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run each trial N times, report the best "
                             "wall clock (domain metrics must match)")
    parser.add_argument("--workers", type=int, default=0,
                        help="also run the parallel fan-out section "
                             "with this many workers (0: skip)")
    parser.add_argument("--parallel-runs", type=int, default=PARALLEL_RUNS,
                        help="independent seeded runs in the parallel "
                             "section")
    parser.add_argument("--grid", metavar="ZONES", default=None,
                        help="also run the vector-core scaling section "
                             "over these comma-separated grid sizes "
                             "(e.g. 4,32,128)")
    parser.add_argument("--obs", action="store_true",
                        help="rerun the trials with observability on; "
                             "record the wall-clock overhead and assert "
                             f"it stays under {OBS_OVERHEAD_BUDGET_PCT}%% "
                             "with bit-identical discrete hashes")
    parser.add_argument("--telemetry", metavar="DIR", default=None,
                        help="write the instrumented trials' telemetry "
                             "artifacts into this directory "
                             "(implies --obs)")
    parser.add_argument("-o", "--output", default="BENCH_2.json",
                        help="report path (default: BENCH_2.json)")
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE),
                        help="seed baseline to compare against")
    args = parser.parse_args(argv)

    names = ["hvac", "network"] if args.trial == "all" else [args.trial]
    macro = not args.no_macro
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
    for name in names:
        print(f"running {name} trial "
              f"({'macro' if macro else 'reference'} physics, "
              f"best of {args.repeat})...",
              flush=True)
        result = run_best_of(name, macro=macro, repeat=args.repeat)
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
            for line in compare_to_baseline(name, result, baseline):
                print(line)
    if measure_obs:
        budget_ok = run_obs_section(report, names, macro=macro,
                                    repeat=args.repeat,
                                    telemetry_dir=args.telemetry)
        if not budget_ok:
            with open(args.output, "w") as handle:
                json.dump(report, handle, indent=2)
                handle.write("\n")
            print(f"wrote {args.output}")
            print("observability overhead budget FAILED", file=sys.stderr)
            return 1
    if args.grid:
        zone_counts = [int(z) for z in args.grid.split(",") if z]
        print(f"running grid scaling section (zones: "
              f"{', '.join(map(str, zone_counts))})...", flush=True)
        report["grid"] = run_grid_section(zone_counts, repeat=args.repeat)
    if args.workers > 0:
        print(f"running parallel section ({args.workers} workers, "
              f"{args.parallel_runs} runs)...", flush=True)
        parallel = run_parallel_section(args.workers,
                                        runs=args.parallel_runs)
        report["parallel"] = parallel
        print(f"  pooled {parallel['wall_s']:.2f}s vs serial "
              f"{parallel['serial_wall_s']:.2f}s | "
              f"{parallel['agg_sim_s_per_wall_s']:,.0f} "
              f"aggregate sim-s/wall-s | "
              f"speedup {parallel['parallel_speedup']:.2f}x on "
              f"{parallel['cpu_count']} core(s)")
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
