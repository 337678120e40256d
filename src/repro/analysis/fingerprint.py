"""Compact trajectory fingerprints for golden regression tests.

A fingerprint is (a) the continuous room/tank series downsampled to a
few hundred floats and (b) a SHA-256 over the run's *discrete* event
log — per-node send counts, medium statistics, sniffer frames and
condensation events.  The discrete counters are scheduling-exact: the
macro-stepped and reference physics paths dispatch the same sensor
reads and network events in the same order, so the hash must match bit
for bit on both paths, while the continuous series carry the (tiny,
documented) numerical tolerance.

Fingerprints round-trip through NPZ files under ``tests/golden/``;
see ``tests/golden/README.md`` for the regeneration command.

:func:`state_digest` is the complementary oracle for identity claims:
the discrete log is empty on a direct-control grid (no nodes, no
medium, no sniffer), so its hash cannot tell two such runs apart,
while the state digest covers the final physics state itself.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path
from typing import Dict, List

import numpy as np

# Keep every Nth recorded sample (the recorder runs at 10 s).
DEFAULT_STRIDE = 6

# Continuous-series tolerances for fingerprint comparison.  The only
# run-to-run numeric drift on one platform is quantised-key
# psychrometric memoisation (bounded at 1e-9 relative by
# tests/test_perf_equivalence.py); the tolerance here is looser to
# absorb cross-platform libm differences in exp/log.
TEMP_ABS_TOL = 1e-6
CO2_ABS_TOL = 1e-4


def discrete_log_hash(system) -> str:
    """SHA-256 over the run's discrete event counters.

    Deliberately excludes scheduler-internal totals (dispatched event
    counts differ between macro and reference physics by construction)
    and anything wall-clock: only domain-visible discrete outcomes.
    """
    log: Dict[str, object] = {
        "sends": {node.device_id: node.sends for node in system.bt_nodes},
        "condensation_events": system.plant.room.condensation_events,
        "network": {key: value
                    for key, value in sorted(system.network_stats().items())},
    }
    if system.sniffer is not None:
        log["sniffer_frames"] = system.sniffer.frame_count
    encoded = json.dumps(log, sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()


def state_digest(system) -> str:
    """SHA-256 over the exact bytes of the run's final physics state.

    Covers every zone's temperature, humidity ratio and CO2, both tank
    temperatures, the plant's energy meters (sorted by key), the
    condensation guard's worst margin and violation count, and the
    room's macro-gap and fallback counters.  Floats are hashed as their
    IEEE-754 doubles, so two runs share a digest only if their physics
    agrees bit for bit.
    """
    plant = system.plant
    room = plant.room
    values: List[float] = []
    for i in range(len(room.subspaces)):
        state = room.state_of(i)
        values += [state.temp_c, state.humidity_ratio, state.co2_ppm]
    values += [plant.radiant_tank.temp_c, plant.vent_tank.temp_c]
    meters = plant.meter_snapshot()
    values += [meters[key] for key in sorted(meters)]
    values.append(plant.guard.worst_margin_k)
    counters = (plant.guard.violations, room.macro_gaps,
                room.macro_fallbacks)
    encoded = (struct.pack(f"<{len(values)}d", *values)
               + struct.pack(f"<{len(counters)}q", *counters))
    return hashlib.sha256(encoded).hexdigest()


def trajectory_fingerprint(system,
                           stride: int = DEFAULT_STRIDE) -> Dict[str, object]:
    """Downsampled continuous series plus the discrete log hash."""
    if stride < 1:
        raise ValueError("stride must be at least 1")
    trace = system.sim.trace
    fp: Dict[str, object] = {
        "discrete_hash": discrete_log_hash(system),
        "stride": np.asarray(stride),
    }
    names = ["tank/18C", "tank/8C"]
    for i in range(len(system.plant.room.subspaces)):
        names += [f"subspace/{i}/temp", f"subspace/{i}/dew",
                  f"subspace/{i}/co2"]
    for name in names:
        series = trace.series(name)
        fp[_slug(name)] = series.values()[::stride].astype(np.float64)
    return fp


def _slug(name: str) -> str:
    return name.replace("/", "_")


def save_fingerprint(path, fp: Dict[str, object]) -> None:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    arrays = {key: (np.asarray(value) if not isinstance(value, str)
                    else np.asarray(value))
              for key, value in fp.items()}
    np.savez_compressed(out, **arrays)


def load_fingerprint(path) -> Dict[str, object]:
    with np.load(Path(path), allow_pickle=False) as data:
        fp: Dict[str, object] = {}
        for key in data.files:
            array = data[key]
            fp[key] = str(array) if array.dtype.kind in "US" else array
        return fp


def compare_fingerprints(current: Dict[str, object],
                         golden: Dict[str, object],
                         temp_abs_tol: float = TEMP_ABS_TOL,
                         co2_abs_tol: float = CO2_ABS_TOL) -> List[str]:
    """Human-readable mismatches; empty means the run reproduces."""
    problems: List[str] = []
    if str(current["discrete_hash"]) != str(golden["discrete_hash"]):
        problems.append(
            f"discrete log hash mismatch: {current['discrete_hash']} "
            f"!= golden {golden['discrete_hash']}")
    for key, ref in golden.items():
        if key in ("discrete_hash", "stride"):
            continue
        now = current.get(key)
        if now is None:
            problems.append(f"series {key} missing from current run")
            continue
        now = np.asarray(now, dtype=np.float64)
        ref = np.asarray(ref, dtype=np.float64)
        if now.shape != ref.shape:
            problems.append(f"series {key}: shape {now.shape} "
                            f"!= golden {ref.shape}")
            continue
        tol = co2_abs_tol if key.endswith("co2") else temp_abs_tol
        worst = float(np.max(np.abs(now - ref))) if ref.size else 0.0
        if worst > tol:
            problems.append(f"series {key}: max deviation {worst:.3e} "
                            f"exceeds {tol:g}")
    return problems
