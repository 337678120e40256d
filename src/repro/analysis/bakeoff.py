"""Controller bake-off scoring and report rendering.

Quantitative cross-scheme comparison in the spirit of Aswani et al.
(arXiv:1205.6114): every control stack is scored on the same seeded
runs along five column families —

* **comfort** — comfort-violation minutes against the occupant band;
* **energy**  — electrical energy and delivered cooling exergy;
* **dew**     — dew-margin violation minutes and condensation events;
* **network** — frames on the air, collisions, collision rate (the
  decentralized stack's state exchange pays real airtime here);
* **SLO**     — rolling-window comfort/dew/degraded minutes and pass
  verdict from :mod:`repro.analysis.slo` over the run's event log.

The scoring is a pure fold over executor payloads in spec order, so a
report is byte-identical for any worker count; rendering keeps every
float formatted (never ``str(float)``) for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.slo import (
    SloBudgets,
    SloReport,
    payload_events,
    score_run,
)

#: Metric keys lifted verbatim from RunResult.metrics into a row.
METRIC_KEYS = (
    "comfort_violation_min", "dew_margin_violation_min",
    "condensation_events", "mean_temp_c", "mean_dew_c",
    "energy_j", "cooling_exergy_j",
    "transmissions", "collisions", "collision_rate",
)


@dataclass
class BakeoffRow:
    """One scored run of one controller on one scenario cell."""

    label: str
    controller: str
    scenario: str
    seed: int
    discrete_hash: str
    metrics: Dict[str, float] = field(default_factory=dict)
    slo: Optional[SloReport] = None

    def row_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "label": self.label,
            "controller": self.controller,
            "scenario": self.scenario,
            "seed": self.seed,
            "discrete_hash": self.discrete_hash,
        }
        for key in METRIC_KEYS:
            row[key] = self.metrics.get(key)
        if self.slo is not None:
            totals = self.slo.totals()
            row["slo_comfort_min"] = totals["comfort_min"]
            row["slo_dew_min"] = totals["dew_min"]
            row["slo_degraded_min"] = totals["degraded_min"]
            row["slo_windows"] = totals["windows"]
            row["slo_windows_passed"] = totals["windows_passed"]
            row["slo_passed"] = totals["passed"]
        return row


def score_payload(payload, *, label: str, controller: str, scenario: str,
                  seed: int, t0: float, horizon_s: float, window_s: float,
                  budgets: SloBudgets, warmup_s: float) -> BakeoffRow:
    """Fold one executor payload into a scored row.

    ``payload`` is a :class:`~repro.runtime.spec.RunResult` whose spec
    ran with ``telemetry=True`` — the SLO columns come from its event
    log, which must be complete (see :func:`payload_events`); the rest
    are the §V paper metrics it already carries.
    """
    slo = score_run(payload_events(payload, label), label, t0=t0,
                    horizon_s=horizon_s, window_s=window_s,
                    budgets=budgets, warmup_s=warmup_s)
    metrics = {key: payload.metrics[key]
               for key in METRIC_KEYS if key in payload.metrics}
    return BakeoffRow(label=label, controller=controller,
                      scenario=scenario, seed=seed,
                      discrete_hash=payload.discrete_hash,
                      metrics=metrics, slo=slo)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
#: Columns averaged into the per-(controller, scenario) comparison
#: table: (row key, header, format).
TABLE_COLUMNS = (
    ("comfort_violation_min", "comfort_min", "{:.1f}"),
    ("energy_j", "energy_kj", "{:.0f}"),
    ("cooling_exergy_j", "exergy_kj", "{:.0f}"),
    ("dew_margin_violation_min", "dew_min", "{:.1f}"),
    ("condensation_events", "cond_ev", "{:.1f}"),
    ("transmissions", "frames", "{:.0f}"),
    ("collision_rate", "coll_rate", "{:.4f}"),
    ("slo_comfort_min", "slo_comfort", "{:.1f}"),
    ("slo_degraded_min", "slo_degraded", "{:.1f}"),
)

#: Row keys rendered in kJ instead of J.
_KILO_KEYS = {"energy_j", "cooling_exergy_j"}


def aggregate_rows(rows: Sequence[BakeoffRow]) -> List[Dict[str, object]]:
    """Seed-mean per (controller, scenario), in first-seen order."""
    groups: Dict[tuple, List[BakeoffRow]] = {}
    for row in rows:
        groups.setdefault((row.controller, row.scenario), []).append(row)
    aggregates: List[Dict[str, object]] = []
    for (controller, scenario), members in groups.items():
        agg: Dict[str, object] = {
            "controller": controller,
            "scenario": scenario,
            "seeds": sorted(r.seed for r in members),
        }
        dicts = [m.row_dict() for m in members]
        for key, _header, _fmt in TABLE_COLUMNS:
            values = [d[key] for d in dicts if d.get(key) is not None]
            agg[key] = (sum(float(v) for v in values) / len(values)
                        if values else None)
        passes = [d.get("slo_passed") for d in dicts
                  if d.get("slo_passed") is not None]
        agg["slo_passed"] = all(passes) if passes else None
        aggregates.append(agg)
    return aggregates


def render_bakeoff_table(aggregates: Sequence[Dict[str, object]]) -> str:
    """Fixed-width comparison table, one line per (controller, cell)."""
    headers = (["controller", "scenario"]
               + [header for _key, header, _fmt in TABLE_COLUMNS]
               + ["slo_pass"])
    table: List[List[str]] = [list(headers)]
    for agg in aggregates:
        cells = [str(agg["controller"]), str(agg["scenario"])]
        for key, _header, fmt in TABLE_COLUMNS:
            value = agg.get(key)
            if value is None:
                cells.append("-")
            else:
                value = float(value)
                if key in _KILO_KEYS:
                    value /= 1e3
                cells.append(fmt.format(value))
        passed = agg.get("slo_passed")
        cells.append("-" if passed is None else
                     ("pass" if passed else "FAIL"))
        table.append(cells)
    widths = [max(len(row[i]) for row in table)
              for i in range(len(headers))]
    lines = []
    for r, row in enumerate(table):
        lines.append("  ".join(cell.ljust(width)
                               for cell, width in zip(row, widths)).rstrip())
        if r == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def render_bakeoff_report(rows: Sequence[BakeoffRow],
                          manifest: Optional[Dict[str, object]] = None
                          ) -> str:
    """The full human-readable report (``repro bakeoff``)."""
    lines: List[str] = ["controller bake-off"]
    if manifest is not None:
        lines.append(f"  config_hash: {manifest.get('config_hash')}")
    lines.append("")
    lines.append(render_bakeoff_table(aggregate_rows(rows)))
    lines.append("")
    lines.append("per-run rows:")
    for row in rows:
        d = row.row_dict()
        slo = ""
        if row.slo is not None:
            slo = (f"  slo[comfort={d['slo_comfort_min']:.1f}m "
                   f"degraded={d['slo_degraded_min']:.1f}m "
                   f"{'pass' if d['slo_passed'] else 'FAIL'}]")
        net = ""
        if d.get("transmissions") is not None:
            net = (f"  net[frames={d['transmissions']:.0f} "
                   f"coll={d['collision_rate']:.4f}]")
        lines.append(
            f"  {row.label}: comfort={d['comfort_violation_min']:.1f}m "
            f"energy={d['energy_j'] / 1e3:.0f}kJ "
            f"dew={d['dew_margin_violation_min']:.1f}m "
            f"cond={d['condensation_events']:.0f}{net}{slo}")
    return "\n".join(lines)


def export_bakeoff_json(rows: Sequence[BakeoffRow],
                        manifest: Optional[Dict[str, object]] = None,
                        failures: Sequence[object] = ()
                        ) -> Dict[str, object]:
    """JSON-safe report document (stable key order, spec-order rows)."""
    return {
        "manifest": manifest,
        "rows": [row.row_dict() for row in rows],
        "aggregates": aggregate_rows(rows),
        "failures": [failure.report_row() for failure in failures],
    }
