"""Output checks: state digest, run records, invariants, references.

Everything here reads the program through public accessors only
(``room.state_of``, tank temperatures and ledgers,
``plant.meter_snapshot``, ``network_stats``, the sniffer and MAC
counters), so the checks observe the physics state and not only event
counters.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path
from typing import Dict, Iterable, List, Optional

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Zone air outside these bounds means the integration blew up; the
# plant never leaves them under any weather the registry models.
TEMP_RANGE_C = (-10.0, 60.0)
CO2_RANGE_PPM = (0.0, 20000.0)
# First-law closure of a tank, relative to the energy that crossed it
# (rounding leaves ~1e-14 of it).  Pooled payloads carry the residual
# but not the ledgers, so they get the absolute bound alone, which the
# matrix's short runs stay far inside.
RESIDUAL_REL_TOL = 1e-12
RESIDUAL_ABS_TOL_J = 1e-6
PAYLOAD_RESIDUAL_TOL_J = 1e-3


def state_vector(system) -> List[float]:
    """Final zone T/w/CO2, tank temperatures and meters, in fixed order."""
    plant = system.plant
    room = plant.room
    values: List[float] = []
    for i in range(system.topology.zone_count):
        state = room.state_of(i)
        values += [state.temp_c, state.humidity_ratio, state.co2_ppm]
    values += [plant.radiant_tank.temp_c, plant.vent_tank.temp_c]
    meters = plant.meter_snapshot()
    values += [meters[key] for key in sorted(meters)]
    return [float(v) for v in values]


def state_digest(system) -> str:
    """SHA-256 over the exact bytes of :func:`state_vector`."""
    values = state_vector(system)
    return hashlib.sha256(
        struct.pack(f"<{len(values)}d", *values)).hexdigest()


def system_record(system) -> Dict[str, object]:
    """The values one finished run is checked and compared on."""
    from repro.analysis.fingerprint import discrete_log_hash

    plant = system.plant
    room = plant.room
    record: Dict[str, object] = {
        "discrete_hash": discrete_log_hash(system),
        "state_digest": state_digest(system),
        "events": system.sim.events_dispatched,
        "condensation": room.condensation_events,
        "mean_temp_c": room.mean_temp_c(),
        "mean_dew_c": room.mean_dew_point_c(),
        "radiant_tank_c": plant.radiant_tank.temp_c,
        "vent_tank_c": plant.vent_tank.temp_c,
    }
    for key, value in plant.cop_report().items():
        record[f"cop_{key}"] = value
    if system.medium is not None:
        stats = system.network_stats()
        record["transmissions"] = stats["transmissions"]
        record["collisions"] = stats["collisions"]
        record["collision_rate"] = stats["collision_rate"]
        record["sniffer_frames"] = system.sniffer.frame_count
        nodes = system.bt_nodes
        elapsed = system.sim.clock.elapsed
        record["mean_tsnd"] = (sum(n.send_period_s for n in nodes)
                               / len(nodes))
        record["mean_lifetime_years"] = (
            sum(n.projected_lifetime_years(elapsed) for n in nodes)
            / len(nodes))
    return record


def invariants(system) -> List[str]:
    """Seed-independent properties every finished run must satisfy."""
    problems: List[str] = []
    values = state_vector(system)
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite final state")
    room = system.plant.room
    for i in range(system.topology.zone_count):
        state = room.state_of(i)
        if not TEMP_RANGE_C[0] < state.temp_c < TEMP_RANGE_C[1]:
            problems.append(f"zone {i} temperature {state.temp_c}")
        if not state.humidity_ratio >= 0.0:
            problems.append(f"zone {i} humidity ratio "
                            f"{state.humidity_ratio}")
        if not CO2_RANGE_PPM[0] <= state.co2_ppm < CO2_RANGE_PPM[1]:
            problems.append(f"zone {i} CO2 {state.co2_ppm}")
    for tank in (system.plant.radiant_tank, system.plant.vent_tank):
        residual = tank.energy_balance_residual_j()
        moved = (abs(tank.energy_in_j) + abs(tank.ambient_gain_j)
                 + abs(tank.chiller.heat_moved_j))
        if not abs(residual) <= (RESIDUAL_REL_TOL * moved
                                 + RESIDUAL_ABS_TOL_J):
            problems.append(f"tank {tank.name} first-law residual "
                            f"{residual} J over {moved} J moved")
    if system.sim.events_dispatched <= 0:
        problems.append("no events dispatched")
    if system.medium is not None:
        stats = system.network_stats()
        if stats["collisions"] > stats["transmissions"]:
            problems.append("more collisions than transmissions")
        if system.sniffer.frame_count != stats["transmissions"]:
            problems.append("sniffer missed frames")
    return problems


def payload_record(payload) -> Dict[str, object]:
    """Record of one pooled matrix run, from its compact payload."""
    health = payload.obs["health"]
    record: Dict[str, object] = {
        "label": payload.label,
        "discrete_hash": payload.discrete_hash,
        "events": payload.events,
        "tanks": {name: tank["temp_c"]
                  for name, tank in sorted(health["tanks"].items())},
    }
    record.update({key: payload.metrics[key]
                   for key in sorted(payload.metrics)})
    return record


def payload_invariants(payload) -> List[str]:
    """The invariants a pooled payload still carries: tank closure,
    finite metrics and frame accounting."""
    problems: List[str] = []
    for name, tank in payload.obs["health"]["tanks"].items():
        residual = tank["energy_residual_j"]
        if not abs(residual) <= PAYLOAD_RESIDUAL_TOL_J:
            problems.append(f"{payload.label}: tank {name} residual "
                            f"{residual}")
    for key, value in payload.metrics.items():
        if not math.isfinite(value):
            problems.append(f"{payload.label}: {key} = {value}")
    if payload.metrics.get("collisions", 0) > payload.metrics.get(
            "transmissions", 0):
        problems.append(f"{payload.label}: collisions > transmissions")
    if payload.events <= 0:
        problems.append(f"{payload.label}: no events dispatched")
    return problems


def rows_digest(result) -> str:
    """SHA-256 over the merged bake-off rows and failures, as JSON."""
    rows = [row.row_dict() for row in result.rows]
    failures = [failure.report_row() for failure in result.failures]
    encoded = json.dumps({"rows": rows, "failures": failures},
                         sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()


def load_reference() -> Dict[str, object]:
    with REFERENCE_PATH.open() as handle:
        return json.load(handle)


def reference_for(workload: str, seed: int) -> Optional[Dict[str, object]]:
    """The recorded record for ``(workload, seed)``, or None."""
    return (load_reference().get("workloads", {}).get(workload, {})
            .get(str(seed)))


def compare_to_reference(record: Dict[str, object],
                         reference: Dict[str, object],
                         exact: Iterable[str],
                         rel_tol: float) -> List[str]:
    """Mismatches, with ``benchmarks/perf/baseline_seed.json``'s
    semantics: keys in ``exact`` must match bit for bit, every other
    number within ``rel_tol`` relative, everything else exactly."""
    exact = set(exact)
    problems: List[str] = []
    flat_now = _flatten(record)
    for key, expected in sorted(_flatten(reference).items()):
        if key not in flat_now:
            problems.append(f"{key}: missing (reference {expected!r})")
            continue
        now = flat_now[key]
        leaf = key.rsplit("/", 1)[-1]
        if (leaf in exact or key in exact
                or not isinstance(expected, (int, float))
                or isinstance(expected, bool)):
            if now != expected:
                problems.append(f"{key}: {now!r} != reference "
                                f"{expected!r}")
            continue
        scale = max(abs(float(expected)), 1e-12)
        drift = abs(float(now) - float(expected)) / scale
        if not drift <= rel_tol:
            problems.append(f"{key}: {now!r} drifts {drift:.3e} from "
                            f"reference {expected!r}")
    return problems


def _flatten(value: object, prefix: str = "") -> Dict[str, object]:
    out: Dict[str, object] = {}
    if isinstance(value, dict):
        for key, sub in value.items():
            out.update(_flatten(sub, f"{prefix}/{key}" if prefix
                                else str(key)))
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            out.update(_flatten(sub, f"{prefix}/{i}"))
    else:
        out[prefix] = value
    return out
