"""One run's ``metrics.json`` and ``health.json``, read at end of run.

The hot subsystems (MAC, medium, type bus, boards, supervisor, tanks)
already keep passive counters for their own reports; observability
reads them once, when the run ends, instead of instrumenting the hot
paths.  That keeps the observed run bit-identical to a blind one and
the steady-state overhead at zero.  Both snapshots hold only the run's
own state: the process-wide psychrometric and spectral caches are left
out, because their counts depend on whatever else the worker process
ran, and so the files are byte-identical for any ``--workers`` count.

:func:`system_metrics` builds the flat ``metrics.json`` dict (dotted
names such as ``net.mac.retransmits``; the two distributions come from
:func:`histogram`); :func:`health_snapshot` builds the liveness view
behind ``repro status`` (per-node last-send ages, per-board fallback
tiers, queue depths, tank ledgers).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Optional, Sequence

# Queue depths are small integers; send periods reach 32 * T_spl.
QUEUE_EDGES = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
TSND_EDGES = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def histogram(values: Iterable[float],
              edges: Sequence[float]) -> Dict[str, object]:
    """Bucket counts of ``values`` plus count/sum/min/max, as a dict.

    ``edges`` are the upper bounds of the finite buckets; one overflow
    bucket catches everything beyond the last edge.
    """
    observed = [float(value) for value in values]
    counts = [0] * (len(edges) + 1)
    total = 0.0
    for value in observed:
        counts[bisect_left(edges, value)] += 1
        total += value
    return {
        "edges": [float(edge) for edge in edges],
        "bucket_counts": counts,
        "count": len(observed),
        "sum": total,
        "min": min(observed, default=None),
        "max": max(observed, default=None),
    }


def system_metrics(system) -> Dict[str, object]:
    """The run's ``metrics.json`` entry, from its passive counters.

    A count of rare transitions (collision bursts, fault injections,
    conservative latches, tier transitions) appears only once it is
    non-zero.
    """
    sim = system.sim
    metrics: Dict[str, object] = {
        "engine.events_dispatched": sim.events_dispatched,
        "engine.pending_events": len(sim.queue),
        "engine.heap_size": sim.queue.heap_size,
    }

    medium = system.medium
    if medium is not None:
        stats = medium.stats()
        metrics["net.medium.transmissions"] = stats["transmissions"]
        metrics["net.medium.collisions"] = stats["collisions"]
        metrics["net.medium.collision_rate"] = stats["collision_rate"]
        if medium.collision_bursts:
            metrics["net.collision_bursts"] = medium.collision_bursts

        motes = ([node.mote for node in system.bt_nodes]
                 + [board.mote for board in system.boards])
        macs = [mote.mac.stats for mote in motes]
        for name in ("enqueued", "sent", "dropped", "backoffs",
                     "cca_failures"):
            metrics[f"net.mac.{name}"] = sum(getattr(mac, name)
                                             for mac in macs)
        # "Retransmits" in CSMA/CA broadcast terms: channel-access
        # attempts beyond the first (backoff retries after a busy CCA).
        metrics["net.mac.retransmits"] = metrics["net.mac.backoffs"]
        metrics["net.mac.queue_depth_max"] = histogram(
            (mac.max_queue_depth for mac in macs), QUEUE_EDGES)
        metrics["net.bus.packets_received"] = sum(
            mote.bus.packets_received for mote in motes)
        metrics["net.bus.packets_filtered"] = sum(
            mote.bus.packets_filtered for mote in motes)

        transmitters = system.adaptive_transmitters()
        if transmitters:
            metrics["net.tsnd_s"] = histogram(
                (t.send_period_s for t in transmitters), TSND_EDGES)
            metrics["net.adaptive.period_changes"] = sum(
                len(t.period_changes) for t in transmitters)
            metrics["net.adaptive.decisions"] = sum(
                len(t.decisions) for t in transmitters)

    status = system.degradation_status()
    for board in system.boards:
        metrics[f"control.board.{board.device_id}.fallback_tier"] = (
            board.current_tier)
    transitions = sum(board.tier_transitions for board in system.boards)
    if transitions:
        metrics["control.tier_transitions"] = transitions
    for name in ("degraded_estimates", "fallback_estimates",
                 "max_staleness_s", "conservative_entries",
                 "conservative_mode_s"):
        metrics[f"control.{name}"] = status[name]
    metrics["control.conservative_mode"] = (
        1.0 if status["conservative_mode"] else 0.0)
    if status["conservative_entries"]:
        metrics["control.conservative_latches"] = (
            status["conservative_entries"])
    if system.faults_injected:
        metrics["workload.faults_injected"] = system.faults_injected

    for tank in (system.plant.radiant_tank, system.plant.vent_tank):
        snap = tank.telemetry_snapshot()
        prefix = f"hydronics.tank.{tank.name}"
        for name in ("temp_c", "energy_residual_j", "heat_returned_j"):
            metrics[f"{prefix}.{name}"] = snap[name]
    return metrics


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
    config = system.config
    room = system.plant.room
    gaps = room.macro_gaps
    physics = {
        "vector": config.physics_vector,
        "macro_step": config.physics_macro_step,
        "solver": config.physics_solver,
        "zones": len(room.subspaces),
        "macro_gaps": gaps,
        "macro_fallbacks": room.macro_fallbacks,
        "fallback_rate": (room.macro_fallbacks / gaps) if gaps else 0.0,
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
    payload = {
        "events": list(obs.events.records),
        "dropped_events": obs.events.dropped,
        "metrics": system_metrics(system),
        "health": health_snapshot(system),
        "profile": (obs.profiler.report()
                    if obs.profiler is not None else None),
    }
    if obs.trace.enabled:
        payload["trace"] = obs.trace.flush(system.sim.now)
    return payload
