"""Compare two benchmark result sets: parent against change.

Usage (from the repository root)::

    python3 perfbench/compare.py PARENT_RESULTS_DIR CHANGE_RESULTS_DIR

Each directory holds the result JSONs ``perfbench/run.py`` writes.  For
every end-to-end metric in ``BENCHMARK.json`` and every workload, the
report gives both sides' medians and quartiles (``--trace 0`` runs),
the share of pairs the change won (runs paired by seed, ties counting
for neither side) and a verdict:

* ``improved``: the change won at least nine tenths of the pairs and
  the medians differ, in its favour, by more than the parent's
  quartile spread;
* ``unresolved``: either side's quartile spread, as a share of its
  median, is wider than the metric's bound, and not every change run
  reads better than every parent run;
* ``worse``: the change's median is worse than the parent's by more
  than the bound;
* ``no worse``: anything else.

Before any timing verdict, the report gives each side's failed and
attempted runs per workload (all result files, traced ones too).  A
change whose results include one with ``correct`` false, or whose fail
rate on a workload exceeds the parent's, is ``worse`` whatever its
timings: a speedup does not count when more runs fail.

Per-layer metrics (``--trace 1`` runs) follow as medians with the
change's delta against the parent's value as its base.  The command
exits 1 when any verdict is ``worse``, 2 when the sets share no
workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

Runs = Dict[Tuple[str, int], List[dict]]


def load(directory: Path) -> Runs:
    """Result JSONs grouped by (workload, trace flag), in seed order."""
    runs: Runs = {}
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text())
        runs.setdefault((result["workload"], result["trace"]),
                        []).append(result)
    for results in runs.values():
        results.sort(key=lambda r: r["seed"])
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(parent: List[dict], change: List[dict]) -> List[Tuple[dict, dict]]:
    """Runs paired by seed; unmatched seeds pair in order."""
    by_seed: Dict[int, List[dict]] = {}
    for result in change:
        by_seed.setdefault(result["seed"], []).append(result)
    matched, rest_parent = [], []
    for result in parent:
        if by_seed.get(result["seed"]):
            matched.append((result, by_seed[result["seed"]].pop(0)))
        else:
            rest_parent.append(result)
    rest_change = [r for group in by_seed.values() for r in group]
    return matched + list(zip(rest_parent, rest_change))


def verdict(metric: dict, parent: List[float], change: List[float],
            won: float) -> str:
    lower = metric["better"] == "lower"
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    gain = (p_med - c_med) if lower else (c_med - p_med)
    if won >= 0.9 and gain > p3 - p1:
        return "improved"
    all_better = (max(change) < min(parent) if lower
                  else min(change) > max(parent))
    spread = max((p3 - p1) / abs(p_med) if p_med else 0.0,
                 (c3 - c1) / abs(c_med) if c_med else 0.0)
    if spread > metric["bound"] and not all_better:
        return "unresolved"
    if p_med and -gain / abs(p_med) > metric["bound"]:
        return "worse"
    return "no worse"


def failures(runs: Runs, workload: str) -> Tuple[int, int, int]:
    """(failed, attempted, incorrect results) over a workload's runs."""
    results = [r for (w, _), group in runs.items() if w == workload
               for r in group]
    return (sum(r["failed"] for r in results),
            sum(r["attempted"] for r in results),
            sum(1 for r in results if not r["correct"]))


def compare(parent: Runs, change: Runs) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = sorted({w for w, _ in parent} & {w for w, _ in change})
    if not workloads:
        print("the result sets share no workload")
        return 2
    for side, runs in (("parent", parent), ("change", change)):
        envs = {json.dumps(r["environment"], sort_keys=True)
                for results in runs.values() for r in results}
        for env in sorted(envs):
            print(f"{side} environment: {env}")
    worse = False
    print(f"\n{'workload':15} {'parent failed/attempted':>24} "
          f"{'change failed/attempted':>24}  verdict")
    for workload in workloads:
        p_failed, p_attempted, _ = failures(parent, workload)
        c_failed, c_attempted, incorrect = failures(change, workload)
        more = (c_failed * max(p_attempted, 1)
                > p_failed * max(c_attempted, 1))
        bad = incorrect > 0 or more
        worse |= bad
        print(f"{workload:15} {f'{p_failed}/{p_attempted}':>24} "
              f"{f'{c_failed}/{c_attempted}':>24}  "
              f"{'worse' if bad else 'no worse'}"
              + (f" ({incorrect} change results not correct)"
                 if incorrect else ""))
    print(f"\n{'workload':15} {'metric':17} {'parent q1/med/q3':>28} "
          f"{'change q1/med/q3':>28} {'won':>6}  verdict")
    for workload in workloads:
        matched = pairs(parent.get((workload, 0), []),
                        change.get((workload, 0), []))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [(p["metrics"][name]["value"],
                       c["metrics"][name]["value"]) for p, c in matched]
            if not values:
                continue
            base = [p for p, _ in values]
            new = [c for _, c in values]
            lower = metric["better"] == "lower"
            wins = sum(1 for p, c in values
                       if (c < p if lower else c > p))
            won = wins / len(values)
            result = verdict(metric, base, new, won)
            worse |= result == "worse"
            print(f"{workload:15} {name:17} "
                  f"{'/'.join(f'{v:.4g}' for v in quartiles(base)):>28} "
                  f"{'/'.join(f'{v:.4g}' for v in quartiles(new)):>28} "
                  f"{won:6.0%}  {result} (n={len(values)}, "
                  f"bound {metric['bound']:.0%})")
    print("\nper-layer medians (traced runs): parent -> change "
          "(delta, as a share of the parent value)")
    for workload in workloads:
        base_runs = parent.get((workload, 1), [])
        new_runs = change.get((workload, 1), [])
        if not base_runs or not new_runs:
            continue
        for metric in spec["per_layer"]:
            name = metric["name"]
            base = statistics.median(r["per_layer"][name]["value"]
                                     for r in base_runs)
            new = statistics.median(r["per_layer"][name]["value"]
                                    for r in new_runs)
            share = f"{(new - base) / base:+.1%}" if base else "n/a"
            print(f"{workload:15} {name:36} {base:12.6g} -> {new:12.6g} "
                  f"({new - base:+.6g}, {share} of {base:.6g})")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    return compare(load(args.parent), load(args.change))


if __name__ == "__main__":
    sys.exit(main())
