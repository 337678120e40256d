"""Snapshot a running system's passive counters into the registry.

The hot subsystems (MAC, medium, type bus, tanks, psychrometric cache)
already keep passive counters for their own reports; observability
reads them *at collection time* instead of instrumenting the hot paths
with per-event registry updates.  That keeps the observed run
bit-identical to a blind one and the steady-state overhead at zero —
the only inline emissions in the tree are rare, discrete transitions
(faults, tier changes, the conservative latch, collision bursts).

:func:`collect_system_metrics` fills the metric registry;
:func:`health_snapshot` builds the liveness view behind
``repro status`` (per-node last-send ages, per-board fallback tiers,
queue depths, cache hit rates).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.metrics import MetricsRegistry

# Queue depths are small integers; send periods reach 32 * T_spl.
QUEUE_EDGES = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
TSND_EDGES = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def _motes(system) -> List[object]:
    return ([node.mote for node in system.bt_nodes]
            + [board.mote for board in system.boards])


def collect_system_metrics(system, registry: MetricsRegistry) -> None:
    """Fill ``registry`` from the system's existing passive counters.

    Idempotent for gauges; the histograms are populated once per call,
    so collect at most once per run (``execute_spec`` and the bench do
    exactly that, at end of run).
    """
    if not registry.enabled:
        return
    sim = system.sim
    registry.gauge("engine.events_dispatched").set(sim.events_dispatched)
    registry.gauge("engine.pending_events").set(len(sim.queue))
    registry.gauge("engine.heap_size").set(sim.queue.heap_size)

    if system.medium is not None:
        stats = system.medium.stats()
        registry.gauge("net.medium.transmissions").set(
            stats["transmissions"])
        registry.gauge("net.medium.collisions").set(stats["collisions"])
        registry.gauge("net.medium.collision_rate").set(
            stats["collision_rate"])

        totals = {"enqueued": 0, "sent": 0, "dropped": 0, "backoffs": 0,
                  "cca_failures": 0}
        depth_hist = registry.histogram("net.mac.queue_depth_max",
                                        edges=QUEUE_EDGES)
        received = 0
        filtered = 0
        for mote in _motes(system):
            mac_stats = mote.mac.stats
            totals["enqueued"] += mac_stats.enqueued
            totals["sent"] += mac_stats.sent
            totals["dropped"] += mac_stats.dropped
            totals["backoffs"] += mac_stats.backoffs
            totals["cca_failures"] += mac_stats.cca_failures
            depth_hist.observe(mac_stats.max_queue_depth)
            received += mote.bus.packets_received
            filtered += mote.bus.packets_filtered
        for name, value in totals.items():
            registry.gauge(f"net.mac.{name}").set(value)
        # "Retransmits" in CSMA/CA broadcast terms: channel-access
        # attempts beyond the first (backoff retries after a busy CCA).
        registry.gauge("net.mac.retransmits").set(totals["backoffs"])
        registry.gauge("net.bus.packets_received").set(received)
        registry.gauge("net.bus.packets_filtered").set(filtered)

        transmitters = system.adaptive_transmitters()
        if transmitters:
            tsnd_hist = registry.histogram("net.tsnd_s", edges=TSND_EDGES)
            for transmitter in transmitters:
                tsnd_hist.observe(transmitter.send_period_s)
            registry.gauge("net.adaptive.period_changes").set(
                sum(len(t.period_changes) for t in transmitters))
            registry.gauge("net.adaptive.decisions").set(
                sum(len(t.decisions) for t in transmitters))

    for board in system.boards:
        registry.gauge(
            f"control.board.{board.device_id}.fallback_tier").set(
                board.current_tier)
    registry.gauge("control.degraded_estimates").set(
        sum(board.degraded_estimates for board in system.boards))
    registry.gauge("control.fallback_estimates").set(
        sum(board.fallback_estimates for board in system.boards))
    registry.gauge("control.max_staleness_s").set(
        max((board.max_staleness_s for board in system.boards),
            default=0.0))
    supervisor = system.supervisor
    registry.gauge("control.conservative_mode").set(
        1.0 if supervisor.conservative_mode else 0.0)
    registry.gauge("control.conservative_entries").set(
        supervisor.conservative_entries)
    registry.gauge("control.conservative_mode_s").set(
        supervisor.conservative_seconds(sim.now))

    for tank in (system.plant.radiant_tank, system.plant.vent_tank):
        snap = tank.telemetry_snapshot()
        prefix = f"hydronics.tank.{tank.name}"
        registry.gauge(f"{prefix}.temp_c").set(snap["temp_c"])
        registry.gauge(f"{prefix}.energy_residual_j").set(
            snap["energy_residual_j"])
        registry.gauge(f"{prefix}.heat_returned_j").set(
            snap["heat_returned_j"])

    from repro.physics import psychrometrics
    hits = 0
    misses = 0
    for relation, info in psychrometrics.cache_stats().items():
        hits += info["hits"]
        misses += info["misses"]
        registry.gauge(f"physics.psychro.{relation}.hit_rate").set(
            info["hit_rate"])
    registry.gauge("physics.psychro.hits").set(hits)
    registry.gauge("physics.psychro.misses").set(misses)

    from repro.physics import spectral
    stats = spectral.cache_stats()
    registry.gauge("physics.spectral.hits").set(stats["hits"])
    registry.gauge("physics.spectral.misses").set(stats["misses"])
    registry.gauge("physics.spectral.evictions").set(stats["evictions"])
    registry.gauge("physics.spectral.entries").set(stats["entries"])
    registry.gauge("physics.spectral.hit_rate").set(stats["hit_rate"])


def health_snapshot(system) -> Dict[str, object]:
    """Liveness view of every node, board and tank, JSON-serialisable.

    Node last-send times come from the ``tsnd/<device>`` trace series
    (via ``TraceRecorder.summary``'s first/last sample times), so a
    silent node shows a growing estimate age without any new
    instrumentation on the send path.
    """
    sim = system.sim
    now = sim.now
    trace_summary = sim.trace.summary()
    nodes: Dict[str, Dict[str, object]] = {}
    for node in system.bt_nodes:
        tsnd = trace_summary.get(f"tsnd/{node.device_id}")
        last_send_t = tsnd["last_t"] if tsnd else None
        nodes[node.device_id] = {
            "crashed": node.crashed,
            "crashed_at": node.crashed_at,
            "sends": node.sends,
            "send_period_s": node.send_period_s,
            "last_send_t": last_send_t,
            "silent_s": (None if last_send_t is None
                         else now - last_send_t),
            "queue_depth": node.mote.mac.queue_depth,
            "stuck": node.sensor.is_stuck,
        }
    boards: Dict[str, Dict[str, object]] = {}
    for board in system.boards:
        boards[board.device_id] = {
            "tier": board.current_tier,
            "degraded_estimates": board.degraded_estimates,
            "fallback_estimates": board.fallback_estimates,
            "max_staleness_s": board.max_staleness_s,
            "queue_depth": board.mote.mac.queue_depth,
        }
    tanks = {
        tank.name: tank.telemetry_snapshot()
        for tank in (system.plant.radiant_tank, system.plant.vent_tank)
    }
    from repro.physics import psychrometrics, spectral
    psychro = {relation: info["hit_rate"]
               for relation, info in psychrometrics.cache_stats().items()}
    room = system.plant.room
    gaps = room.macro_gaps
    spectral_stats = spectral.cache_stats()
    physics = {
        "vector": getattr(system.plant, "_vector_kernel", None) is not None,
        "macro_step": system.config.physics_macro_step,
        "solver": getattr(room, "_solver", "dense"),
        "zones": len(room.subspaces),
        "macro_gaps": gaps,
        "macro_fallbacks": room.macro_fallbacks,
        "fallback_rate": (room.macro_fallbacks / gaps) if gaps else 0.0,
        # Process-wide spectral cache (shared by the scalar and SoA
        # paths), not a per-room cache.
        "spectral_hits": spectral_stats["hits"],
        "spectral_misses": spectral_stats["misses"],
        "spectral_evictions": spectral_stats["evictions"],
        "spectral_entries": spectral_stats["entries"],
        "condensation_events": room.condensation_events,
    }
    supervisor = system.supervisor
    return {
        "t": now,
        "nodes": nodes,
        "boards": boards,
        "tanks": tanks,
        "physics": physics,
        "supervisor": {
            "conservative_mode": supervisor.conservative_mode,
            "conservative_entries": supervisor.conservative_entries,
            "conservative_mode_s": supervisor.conservative_seconds(now),
        },
        "psychro_hit_rate": psychro,
        "engine": sim.stats(),
    }


def obs_payload(system, obs) -> Optional[Dict[str, object]]:
    """Everything one run's observability produced, as one dict.

    This is what a worker ships back on its :class:`RunResult` and
    what the telemetry writer splits into per-run artifacts.  Flushes
    any collision burst still open at the horizon first, so a run
    ending mid-burst still reports it.
    """
    if obs is None or not obs.enabled:
        return None
    if system.medium is not None:
        system.medium.flush_collision_burst()
    collect_system_metrics(system, obs.metrics)
    payload = {
        "events": list(obs.events.records),
        "dropped_events": obs.events.dropped,
        "metrics": obs.metrics.snapshot(),
        "health": health_snapshot(system),
        "profile": (obs.profiler.report()
                    if obs.profiler is not None else None),
    }
    if obs.trace.enabled:
        payload["trace"] = obs.trace.flush(system.sim.now)
    return payload
