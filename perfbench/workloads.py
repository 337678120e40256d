"""The benchmark's workloads, driven only through the public API.

Each workload has a ``setup`` (everything a user pays before the first
simulated second: the registry, ``prepare_run`` and ``start``, or the
bake-off spec list) and a ``run`` that executes one repeat and returns
a :class:`Repeat`.  ``run`` takes an optional seam ledger: when given,
the repeat is the traced one and its systems are reached through the
``scenarios.build`` seam.

This module imports nothing from ``repro`` at import time, so a setup
probe in a fresh interpreter pays every import itself.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Dict, List

import checks

# Workers for the pooled bake-off; the benchmark box has two cores.
MATRIX_WORKERS = 2


@dataclass
class Repeat:
    """One timed repeat of a workload."""

    run_s: float
    sim_s: float
    attempted: int
    problems: List[str] = field(default_factory=list)
    # Failed simulation runs among ``attempted``.
    failed: int = 0
    # Comparison key for traced-vs-untraced and repeat-vs-repeat
    # equality: the state digest, or the merged-rows digest.
    digest: str = ""
    events: int = 0
    # Per-run records (checked against the reference for known seeds).
    records: List[Dict[str, object]] = field(default_factory=list)
    # Modelled network statistics and physics counters, from the
    # systems the repeat built (traced matrix repeats included).
    model: Dict[str, float] = field(default_factory=dict)
    # Seam self time accumulated inside the timed window.
    attributed_s: float = 0.0
    pool: Dict[str, float] = field(default_factory=dict)
    # Host-speed scale of this repeat, set by the harness.
    speed: float = 1.0


def _clear_caches() -> None:
    """Cold process-wide caches, as every fresh ``repro run`` has them."""
    from repro.physics import psychrometrics, spectral

    psychrometrics.cache_clear()
    spectral.cache_clear()


def _model_stats(systems) -> Dict[str, float]:
    """Modelled network statistics and physics counters over systems."""
    from repro.physics import psychrometrics, spectral

    sent = collided = enqueued = dropped = mac_sent = 0
    delay = 0.0
    gaps = fallbacks = 0
    for system in systems:
        stats = system.network_stats()
        sent += stats.get("transmissions", 0)
        collided += stats.get("collisions", 0)
        motes = ([node.mote for node in system.bt_nodes]
                 + [board.mote for board in system.boards])
        for mote in motes:
            mac = mote.mac.stats
            enqueued += mac.enqueued
            dropped += mac.dropped
            mac_sent += mac.sent
            delay += mac.total_access_delay_s
        gaps += system.plant.room.macro_gaps
        fallbacks += system.plant.room.macro_fallbacks
    hits = lookups = 0
    for info in psychrometrics.cache_stats().values():
        hits += info["hits"]
        lookups += info["hits"] + info["misses"]
    spec = spectral.cache_stats()
    return {
        "net.transmissions": sent,
        "net.medium.collision_rate": collided / sent if sent else 0.0,
        "net.mac.drop_rate": dropped / enqueued if enqueued else 0.0,
        "net.mac.mean_access_delay_s": delay / mac_sent if mac_sent else 0.0,
        "physics.room.macro_fallback_share":
            fallbacks / gaps if gaps else 0.0,
        "physics.psychro.hit_rate": hits / lookups if lookups else 0.0,
        "physics.spectral.hit_rate": spec["hit_rate"],
        "physics.spectral.bytes": spec["bytes"],
    }


class SystemWorkload:
    """One registry scenario run as one in-process simulation."""

    def __init__(self, name: str, scenario: str, minutes: float) -> None:
        self.name = name
        self.scenario = scenario
        self.minutes = minutes

    def spec(self, seed: int):
        from repro.scenarios.registry import get_scenario

        base = get_scenario(self.scenario)
        return dataclasses.replace(
            base, config=dataclasses.replace(base.config, seed=seed),
            run_minutes=self.minutes)

    def setup(self, seed: int):
        from repro.scenarios import spec as scenario_spec

        spec = self.spec(seed)
        system, _ = scenario_spec.prepare_run(spec)
        system.start()
        return system

    def run(self, seed: int, ledger=None) -> Repeat:
        _clear_caches()
        system = self.setup(seed)
        perf = time.perf_counter
        before = ledger.total_self_s() if ledger is not None else 0.0
        t0 = perf()
        system.run(minutes=self.minutes)
        run_s = perf() - t0
        after = ledger.total_self_s() if ledger is not None else 0.0
        if ledger is not None:
            ledger.returned.clear()
        system.finalize()
        record = checks.system_record(system)
        return Repeat(run_s=run_s, sim_s=self.minutes * 60.0, attempted=1,
                      problems=checks.invariants(system),
                      digest=record["state_digest"],
                      events=record["events"], records=[record],
                      model=_model_stats([system]),
                      attributed_s=after - before)


class MatrixWorkload:
    """The controller bake-off through the runtime pool.

    Mirrors :func:`repro.workloads.bakeoff.run_bakeoff` step by step
    (specs, ``run_specs``, ``merge_bakeoff``, manifest) so the pool's
    payloads are visible for the pool metrics and the output checks.
    The controller list is fixed, not read from the registry, so a
    newly registered controller does not silently change the work.
    """

    controllers = ("pid", "consensus", "deadband")
    scenarios = ("paper-vc", "bakeoff/pid/8z")

    def __init__(self, name: str, minutes: float, warmup: float,
                 window: float) -> None:
        self.name = name
        self.minutes = minutes
        self.warmup = warmup
        self.window = window

    def config(self, seed: int):
        from repro.workloads.bakeoff import BakeoffConfig

        return BakeoffConfig(controllers=self.controllers,
                             scenarios=self.scenarios,
                             seeds=(seed, seed + 4), minutes=self.minutes,
                             warmup_minutes=self.warmup,
                             window_minutes=self.window)

    def setup(self, seed: int):
        from repro.workloads import bakeoff

        config = self.config(seed)
        return config, bakeoff.bakeoff_specs(config)

    def run(self, seed: int, ledger=None,
            workers: int = MATRIX_WORKERS) -> Repeat:
        from repro.runtime import pool
        from repro.runtime.progress import RETRIED
        from repro.runtime.spec import RunFailure
        from repro.workloads import bakeoff

        _clear_caches()
        config, specs = self.setup(seed)
        retries = []

        def progress(event) -> None:
            if event.kind == RETRIED:
                retries.append(event.label)

        built = len(ledger.returned) if ledger is not None else 0
        perf = time.perf_counter
        before = ledger.total_self_s() if ledger is not None else 0.0
        t0 = perf()
        payloads = pool.run_specs(specs, workers=workers,
                                  progress=progress)
        pool_s = perf() - t0
        result = bakeoff.merge_bakeoff(config, payloads)
        result.manifest = bakeoff.bakeoff_manifest(config)
        run_s = perf() - t0
        after = ledger.total_self_s() if ledger is not None else 0.0

        problems: List[str] = []
        records = []
        busy = 0.0
        events = 0
        failed = 0
        for payload in payloads:
            if isinstance(payload, RunFailure):
                failed += 1
                problems.append(f"{payload.label}: {payload.kind}: "
                                f"{payload.message}")
                continue
            busy += payload.wall_s
            events += payload.events
            run_problems = checks.payload_invariants(payload)
            failed += bool(run_problems)
            problems += run_problems
            records.append(checks.payload_record(payload))
        model: Dict[str, float] = {}
        if ledger is not None:
            systems = [returned[0] for returned in ledger.returned[built:]]
            del ledger.returned[built:]
            for spec, system in zip(specs, systems):
                run_problems = checks.invariants(system)
                failed += bool(run_problems)
                problems += [f"{spec.label}: {p}" for p in run_problems]
            model = _model_stats(systems)
        n_workers = max(1, min(workers, len(specs)))
        return Repeat(
            run_s=run_s, sim_s=self.minutes * 60.0 * len(specs),
            attempted=len(specs), problems=problems,
            failed=min(failed, len(specs)),
            digest=checks.rows_digest(result), events=events,
            records=records, model=model, attributed_s=after - before,
            pool={"runtime.pool.wall_s": pool_s,
                  "runtime.pool.worker_busy_s": busy,
                  "runtime.pool.efficiency":
                      busy / (n_workers * pool_s) if pool_s else 0.0,
                  "runtime.pool.retries": len(retries)})


WORKLOADS = {
    "vc-network": SystemWorkload("vc-network", "paper-vc", minutes=90.0),
    "grid-direct": SystemWorkload("grid-direct", "grid-128", minutes=30.0),
    "bakeoff-matrix": MatrixWorkload("bakeoff-matrix", minutes=6.0,
                                     warmup=3.0, window=3.0),
}
