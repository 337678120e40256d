"""Telemetry artifacts on disk and the ``repro status`` view.

A telemetry directory is five files:

``manifest.json``
    Provenance (:mod:`repro.obs.manifest`) for the producing command.
``events.jsonl``
    One event record per line.  Sim events appear grouped by run in
    spec order, each tagged ``run=<label>``; worker lifecycle records
    follow, sorted ``(index, attempt, lifecycle)`` so the file is
    deterministic even though pool completion order is not.
``metrics.json``
    Per-run end-of-run metrics (:func:`repro.obs.collect.system_metrics`).
``health.json``
    Per-run liveness snapshots (:func:`repro.obs.collect.health_snapshot`).
``profile.json``
    Per-run sim-time profiler reports (null when profiling was off).

A sixth file, ``trace.jsonl``, appears when causal tracing
(:mod:`repro.obs.trace`) was enabled: per-run ``trace.summary``
roll-up records first, then every span grouped by run in spec order
and sorted ``(trace, span)`` within a run — byte-identical for any
worker count, like everything else here.

``render_status`` turns a loaded directory back into the health tables
shown by ``repro status``; ``validate_telemetry`` checks the whole
directory against the event schema and manifest contract, which is
what CI's schema-validation step runs.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.export import write_report_json
from repro.analysis.reporting import render_table
from repro.obs import events as ev
from repro.obs import schema
from repro.obs import trace as tr
from repro.obs.manifest import MANIFEST_SCHEMA_VERSION

TELEMETRY_FILES = ("manifest.json", "events.jsonl", "metrics.json",
                   "health.json", "profile.json")

_MANIFEST_REQUIRED = ("schema_version", "command", "config_hash", "seed",
                      "packages", "platform", "cpu_count")


def _tagged(records: Iterable[Dict[str, object]],
            label: str) -> List[Dict[str, object]]:
    tagged = []
    for record in records:
        if "run" in record:
            tagged.append(dict(record))
        else:
            tagged.append({**record, "run": label})
    return tagged


def write_run_telemetry(directory: str,
                        manifest: Dict[str, object],
                        labels: Sequence[str],
                        payloads: Dict[str, Optional[Dict[str, object]]],
                        pool_events: Optional[Iterable[Dict[str, object]]]
                        = None) -> List[str]:
    """Write a campaign/sweep telemetry directory; returns paths written.

    ``labels`` fixes the run order (spec order, not completion order);
    ``payloads`` maps label -> the run's obs payload (None for a run
    that produced none, e.g. a worker that ultimately failed).
    """
    os.makedirs(directory, exist_ok=True)
    records: List[Dict[str, object]] = []
    metrics: Dict[str, object] = {}
    health: Dict[str, object] = {}
    profile: Dict[str, object] = {}
    trace_summaries: List[Dict[str, object]] = []
    trace_spans: List[Dict[str, object]] = []
    dropped = 0
    for label in labels:
        payload = payloads.get(label)
        if payload is None:
            continue
        records.extend(_tagged(payload["events"], label))
        dropped += int(payload.get("dropped_events", 0))
        metrics[label] = payload["metrics"]
        health[label] = payload["health"]
        profile[label] = payload.get("profile")
        trace_payload = payload.get("trace")
        if trace_payload is not None:
            trace_summaries.append(
                tr.summary_record(trace_payload["summary"], run=label))
            trace_spans.extend(_tagged(trace_payload["spans"], label))
    if pool_events is not None:
        records.extend(ev.sort_worker_records(pool_events))

    paths = []
    path = os.path.join(directory, "manifest.json")
    write_report_json(manifest, path)
    paths.append(path)
    path = os.path.join(directory, "events.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(ev.to_jsonl(records))
    paths.append(path)
    for name, payload in (("metrics.json", metrics),
                          ("health.json", health),
                          ("profile.json", profile)):
        path = os.path.join(directory, name)
        write_report_json(payload, path)
        paths.append(path)
    if trace_summaries or trace_spans:
        path = os.path.join(directory, "trace.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(ev.to_jsonl(trace_summaries))
            handle.write(ev.to_jsonl(trace_spans))
        paths.append(path)
    if dropped:
        write_report_json({"dropped_events": dropped},
                          os.path.join(directory, "dropped.json"))
    return paths


def write_system_telemetry(directory: str,
                           manifest: Dict[str, object],
                           label: str,
                           payload: Dict[str, object]) -> List[str]:
    """Single-run variant (used by the bench's instrumented trials)."""
    return write_run_telemetry(directory, manifest, [label],
                               {label: payload})


def load_telemetry(directory: str) -> Dict[str, object]:
    """Load a telemetry directory back into one dict.

    Missing files load as empty structures so ``repro status`` can
    render a partial directory; ``validate_telemetry`` is the place
    that complains about absences.
    """
    def _load(name: str, default: object) -> object:
        path = os.path.join(directory, name)
        if not os.path.exists(path):
            return default
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def _load_jsonl(name: str) -> List[Dict[str, object]]:
        path = os.path.join(directory, name)
        if not os.path.exists(path):
            return []
        with open(path, "r", encoding="utf-8") as handle:
            return ev.from_jsonl(handle.read())

    return {
        "directory": directory,
        "manifest": _load("manifest.json", {}),
        "events": _load_jsonl("events.jsonl"),
        "metrics": _load("metrics.json", {}),
        "health": _load("health.json", {}),
        "profile": _load("profile.json", {}),
        "trace": _load_jsonl("trace.jsonl"),
    }


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _fmt(value: object) -> object:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.3g}"
    if value is None:
        return "-"
    return value


def render_status(telemetry: Dict[str, object]) -> str:
    """The ``repro status`` text view of a loaded telemetry directory."""
    sections: List[str] = []
    manifest = telemetry.get("manifest") or {}
    if manifest:
        rows = [(key, _fmt(manifest[key]))
                for key in ("command", "seed", "controller",
                            "config_hash", "git_rev", "platform",
                            "cpu_count")
                if key in manifest]
        packages = manifest.get("packages") or {}
        rows.extend((f"packages.{name}", version)
                    for name, version in sorted(packages.items()))
        sections.append(render_table("Run manifest", ["field", "value"],
                                     rows))

    events = telemetry.get("events") or []
    counts: Dict[str, int] = {}
    for record in events:
        kind = str(record.get("kind"))
        counts[kind] = counts.get(kind, 0) + 1
    if counts:
        sections.append(render_table(
            "Events", ["kind", "count"], sorted(counts.items())))

    health = telemetry.get("health") or {}
    if health:
        rows = []
        for label in health:
            snap = health[label]
            nodes = snap.get("nodes", {})
            boards = snap.get("boards", {})
            crashed = sum(1 for n in nodes.values() if n.get("crashed"))
            stuck = sum(1 for n in nodes.values() if n.get("stuck"))
            max_tier = max((b.get("tier", 1) for b in boards.values()),
                           default=1)
            supervisor = snap.get("supervisor", {})
            tanks = snap.get("tanks", {})
            residual = max((abs(t.get("energy_residual_j", 0.0))
                            for t in tanks.values()), default=0.0)
            rows.append((
                label,
                f"{crashed}/{len(nodes)}",
                stuck,
                max_tier,
                _fmt(supervisor.get("conservative_mode", False)),
                int(supervisor.get("conservative_entries", 0)),
                _fmt(residual),
            ))
        sections.append(render_table(
            "Run health",
            ["run", "crashed", "stuck", "max tier", "conservative",
             "entries", "max |tank res| J"],
            rows))

    if len(health) == 1:
        (label, snap), = health.items()
        node_rows = [
            (device_id,
             _fmt(node.get("crashed", False)),
             int(node.get("sends", 0)),
             _fmt(node.get("send_period_s")),
             _fmt(node.get("silent_s")),
             int(node.get("queue_depth", 0)))
            for device_id, node in sorted(snap.get("nodes", {}).items())
        ]
        if node_rows:
            sections.append(render_table(
                f"Node liveness — {label}",
                ["node", "crashed", "sends", "period s", "silent s",
                 "queue"],
                node_rows))
        board_rows = [
            (board_id,
             int(board.get("tier", 1)),
             int(board.get("degraded_estimates", 0)),
             int(board.get("fallback_estimates", 0)),
             _fmt(board.get("max_staleness_s", 0.0)))
            for board_id, board in sorted(snap.get("boards", {}).items())
        ]
        if board_rows:
            sections.append(render_table(
                f"Board estimates — {label}",
                ["board", "tier", "degraded", "fallback", "staleness s"],
                board_rows))

    physics_rows = []
    for label in health:
        physics = health[label].get("physics") or {}
        if physics:
            physics_rows.append((
                label,
                "SoA" if physics.get("vector") else "scalar",
                physics.get("solver", "dense"),
                int(physics.get("zones", 0)),
                "yes" if physics.get("macro_step") else "no",
                int(physics.get("macro_gaps", 0)),
                int(physics.get("macro_fallbacks", 0)),
                f"{float(physics.get('fallback_rate', 0.0)):.1%}",
            ))
    if physics_rows:
        sections.append(render_table(
            "Physics core",
            ["run", "path", "solver", "zones", "macro", "gaps",
             "fallbacks", "fallback rate"],
            physics_rows))

    trace_records = telemetry.get("trace") or []
    if trace_records:
        from repro.analysis.dataage import summarize_dataage
        summaries = [r for r in trace_records
                     if r.get("name") == tr.TRACE_SUMMARY]
        spans = tr.span_records(trace_records)
        by_run: Dict[str, List[Dict[str, object]]] = {}
        for span in spans:
            by_run.setdefault(str(span.get("run")), []).append(span)
        rows = []
        for summary in summaries:
            run = str(summary.get("run"))
            dataage = summarize_dataage(by_run.get(run, ()))
            overall = (dataage["ages"] or {}).get("overall")
            rows.append((
                run,
                int(summary.get("traces", 0)),
                int(summary.get("spans", 0)),
                int(summary.get("open_spans_at_shutdown", 0)),
                int(summary.get("actuated", 0)),
                int(summary.get("dropped", 0)),
                _fmt(overall["p95_s"] if overall else None),
            ))
        if rows:
            sections.append(render_table(
                "Trace",
                ["run", "traces", "spans", "open@end", "actuated",
                 "dropped", "age p95 s"],
                rows))
        if len(by_run) == 1:
            (run, run_spans), = by_run.items()
            zones = summarize_dataage(run_spans)["ages"]["zones"]
            zone_rows = [
                (zone, int(stats["n"]), _fmt(stats["p50_s"]),
                 _fmt(stats["p95_s"]), _fmt(stats["p99_s"]),
                 _fmt(stats["max_s"]))
                for zone, stats in zones.items()]
            if zone_rows:
                sections.append(render_table(
                    f"Sensing→actuation data age by zone — {run}",
                    ["zone", "n", "p50 s", "p95 s", "p99 s", "max s"],
                    zone_rows))

    profile = telemetry.get("profile") or {}
    component_rows: Dict[str, List[float]] = {}
    for report in profile.values():
        if not report:
            continue
        for component, cell in report.get("components", {}).items():
            agg = component_rows.setdefault(component, [0, 0.0])
            agg[0] += cell.get("events", 0)
            agg[1] += cell.get("est_wall_s") or 0.0
    if component_rows:
        rows = [(component, int(agg[0]), f"{agg[1]:.3f}")
                for component, agg in sorted(
                    component_rows.items(),
                    key=lambda item: -item[1][1])]
        sections.append(render_table(
            "Dispatch profile (est. wall s by component)",
            ["component", "events", "est wall s"],
            rows))

    if not sections:
        return "No telemetry found.\n"
    return "\n".join(sections)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def validate_telemetry(directory: str) -> List[str]:
    """Problems with a telemetry directory; empty when fully valid."""
    problems: List[str] = []
    manifest_path = os.path.join(directory, "manifest.json")
    if not os.path.exists(manifest_path):
        problems.append("manifest.json: missing")
    else:
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except json.JSONDecodeError as exc:
            problems.append(f"manifest.json: not valid JSON ({exc.msg})")
            manifest = None
        if isinstance(manifest, dict):
            for key in _MANIFEST_REQUIRED:
                if key not in manifest:
                    problems.append(
                        f"manifest.json: missing field {key!r}")
            version = manifest.get("schema_version")
            if (version is not None
                    and version != MANIFEST_SCHEMA_VERSION):
                problems.append(
                    f"manifest.json: schema_version {version!r} != "
                    f"{MANIFEST_SCHEMA_VERSION}")
        elif manifest is not None:
            problems.append("manifest.json: not a JSON object")

    events_path = os.path.join(directory, "events.jsonl")
    if not os.path.exists(events_path):
        problems.append("events.jsonl: missing")
    else:
        with open(events_path, "r", encoding="utf-8") as handle:
            problems.extend(f"events.jsonl: {problem}"
                            for problem in schema.validate_jsonl(
                                handle.read()))

    trace_path = os.path.join(directory, "trace.jsonl")
    if os.path.exists(trace_path):
        with open(trace_path, "r", encoding="utf-8") as handle:
            problems.extend(f"trace.jsonl: {problem}"
                            for problem in tr.validate_trace_jsonl(
                                handle.read()))

    for name in ("metrics.json", "health.json", "profile.json"):
        path = os.path.join(directory, name)
        if not os.path.exists(path):
            problems.append(f"{name}: missing")
            continue
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except json.JSONDecodeError as exc:
            problems.append(f"{name}: not valid JSON ({exc.msg})")
            continue
        if not isinstance(payload, dict):
            problems.append(f"{name}: not a JSON object")
    return problems
