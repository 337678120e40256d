"""Exporting runs: CSV traces and JSON run summaries.

The deployment "log[s] all control data with time stamps, based on
which we conduct full analysis" (paper §V).  This module is the
offline-analysis side: it dumps a run's recorded series to CSV (one
column per series, resampled to a common grid) and a machine-readable
summary of the outcomes to JSON, and writes the matrix workloads'
reports as deterministic JSON, so external tooling (spreadsheets,
plotting) can consume a run without importing the library.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.sim.tracing import TraceRecorder, resample


def export_traces_csv(trace: TraceRecorder, path: str,
                      series_names: Optional[Sequence[str]] = None,
                      grid_step_s: float = 10.0) -> int:
    """Write selected series to CSV on a common time grid.

    Returns the number of rows written (excluding the header).  Series
    are zero-order-hold resampled; the grid spans the intersection of
    nothing — it covers from the earliest first-sample to the latest
    last-sample, with pre-start values held at each series' first value.
    """
    if grid_step_s <= 0:
        raise ValueError("grid step must be positive")
    names = list(series_names) if series_names else trace.names()
    series = [trace.series(name) for name in names]
    series = [s for s in series if len(s) > 0]
    if not series:
        raise ValueError("no non-empty series to export")
    start = min(float(s.times()[0]) for s in series)
    end = max(float(s.times()[-1]) for s in series)
    grid = np.arange(start, end + grid_step_s / 2, grid_step_s)
    columns = {s.name: resample(s.times(), s.values(), grid)
               for s in series}

    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time_s"] + [s.name for s in series])
        for i, t in enumerate(grid):
            writer.writerow([f"{t:.3f}"]
                            + [f"{columns[s.name][i]:.6g}" for s in series])
    return len(grid)


def run_summary(system) -> Dict:
    """A JSON-serialisable summary of a BubbleZero run's outcomes."""
    plant = system.plant
    summary: Dict = {
        "seed": system.config.seed,
        "elapsed_s": system.sim.clock.elapsed,
        "room": {
            "mean_temp_c": plant.room.mean_temp_c(),
            "mean_dew_point_c": plant.room.mean_dew_point_c(),
            "mean_co2_ppm": plant.room.mean_co2_ppm(),
            "condensation_events": plant.room.condensation_events,
        },
        "energy": {
            "radiant_heat_removed_j": plant.radiant_heat_removed_j(),
            "vent_heat_removed_j": plant.vent_heat_removed_j(),
            "radiant_power_consumed_j": plant.radiant_power_consumed_j(),
            "vent_power_consumed_j": plant.vent_power_consumed_j(),
            "cop": plant.cop_report(),
        },
    }
    if system.medium is not None:
        summary["network"] = system.network_stats()
        transmitters = system.adaptive_transmitters()
        accuracies = [tx.accuracy() for tx in transmitters
                      if tx.accuracy() is not None]
        if accuracies:
            summary["network"]["mean_adaptation_accuracy"] = (
                sum(accuracies) / len(accuracies))
        summary["bt_devices"] = {
            node.device_id: {
                "sends": node.sends,
                "send_period_s": node.send_period_s,
            }
            for node in system.bt_nodes
        }
    return summary


def export_summary_json(system, path: str) -> None:
    """Write :func:`run_summary` to ``path`` as pretty-printed JSON."""
    write_report_json(run_summary(system), path)


def load_summary_json(path: str) -> Dict:
    """Read back a summary written by :func:`export_summary_json`."""
    with Path(path).open() as handle:
        return json.load(handle)


def write_report_json(report: Dict, path: str) -> None:
    """Write a matrix report dict (campaign, sweep, chaos, bake-off) as
    deterministic JSON.

    Deterministic means byte-identical across re-runs of the same
    config and any worker count: keys are sorted and reports carry no
    wall-clock timestamps, so reproducibility checks can ``cmp`` the
    files directly.
    """
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True, default=float)
        handle.write("\n")
