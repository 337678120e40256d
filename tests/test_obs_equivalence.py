"""Observation must not perturb the run — and must round-trip.

The cardinal rule of :mod:`repro.obs` is that an observed run is
bit-identical to a blind one: same discrete log hash, same trajectory
fingerprints, same event count.  These tests assert that, plus the
integration seams: fault/tier/conservative/burst events actually fire,
campaign telemetry directories validate against the schema, the pool
tees worker lifecycle events, and ``repro status`` renders it all.
"""

import json

import pytest

from repro.analysis.fingerprint import (
    compare_fingerprints,
    discrete_log_hash,
    trajectory_fingerprint,
)
from repro.control.supervisor import CONSERVATIVE_HOLD_S, Supervisor
from repro.core.config import BubbleZeroConfig
from repro.core.system import BubbleZero
from repro.obs import create_observability
from repro.obs.collect import health_snapshot, obs_payload
from repro.obs.events import (
    CONSERVATIVE_LATCHED,
    CONSERVATIVE_RELEASED,
    FAULT_CLEARED,
    FAULT_INJECTED,
    TIER_TRANSITION,
    WORKER_FINISHED,
    WORKER_STARTED,
    EventLog,
    sort_worker_records,
)
from repro.obs.schema import validate_records
from repro.obs.status import (
    load_telemetry,
    render_status,
    validate_telemetry,
)
from repro.runtime.pool import run_specs
from repro.runtime.spec import RunSpec
from repro.scenarios.spec import ScenarioSpec
from repro.workloads.campaign import (
    CampaignCell,
    CampaignConfig,
    run_campaign,
)
from repro.workloads.faults import FaultScript, NodeCrash, SensorStuck

RUN_S = 8 * 60.0


def _run_system(seed=3, obs=None, faults=False):
    system = BubbleZero(BubbleZeroConfig(seed=seed), obs=obs)
    system.start()
    if faults:
        now = system.sim.now
        FaultScript((
            SensorStuck(now + 120.0, "bt-room-temp-0", 33.0,
                        until=now + 300.0),
            NodeCrash(now + 150.0, "bt-room-hum-0"),
        )).apply_to(system)
    system.run(minutes=RUN_S / 60.0)
    system.finalize()
    return system


class TestBitIdentity:
    @pytest.mark.parametrize("faults", [False, True])
    def test_observed_run_is_bit_identical(self, faults):
        blind = _run_system(faults=faults)
        obs = create_observability(profile=True, profile_stride=4)
        observed = _run_system(obs=obs, faults=faults)
        assert (discrete_log_hash(blind)
                == discrete_log_hash(observed))
        assert (blind.sim.events_dispatched
                == observed.sim.events_dispatched)
        assert compare_fingerprints(trajectory_fingerprint(blind),
                                    trajectory_fingerprint(observed)) == []

    def test_profiler_attributes_components(self):
        obs = create_observability(profile=True, profile_stride=1)
        system = _run_system(obs=obs)
        report = obs.profiler.report()
        # stride=1 times every event, so the count is exact and the
        # attribution must cover the whole run.
        assert report["events_seen"] == system.sim.events_dispatched
        # The default config runs the SoA kernel, so physics time lands
        # on the vector component.
        for component in ("physics-vector", "sensing", "net", "control"):
            assert report["components"][component]["events"] > 0


class TestEventEmission:
    def test_fault_events_are_emitted_and_schema_valid(self):
        obs = create_observability(profile=False)
        _run_system(obs=obs, faults=True)
        counts = obs.events.counts_by_kind()
        # stuck + crash injected; the stuck clears at its ``until``.
        assert counts[FAULT_INJECTED] == 2
        assert counts[FAULT_CLEARED] == 1
        assert validate_records(obs.events.records) == []

    def test_crash_drives_tier_transitions(self):
        obs = create_observability(profile=False)
        system = _run_system(obs=obs, faults=True)
        transitions = obs.events.of_kind(TIER_TRANSITION)
        assert transitions, "a crashed node must force a fallback tier"
        assert all(t["tier"] != t["prev_tier"] for t in transitions)
        assert any(board.current_tier > 0 for board in system.boards)

    def test_blind_run_emits_nothing(self):
        system = _run_system(faults=True)
        assert len(system.sim.obs.events) == 0

    def test_conservative_latch_events(self):
        obs = create_observability(profile=False)
        supervisor = Supervisor()
        supervisor.obs = obs
        supervisor.note_humidity_sensing(True, 100.0)
        supervisor.note_humidity_sensing(False, 200.0)
        supervisor.note_humidity_sensing(
            False, 200.0 + CONSERVATIVE_HOLD_S)
        latched = obs.events.of_kind(CONSERVATIVE_LATCHED)
        released = obs.events.of_kind(CONSERVATIVE_RELEASED)
        assert [e["t"] for e in latched] == [100.0]
        assert len(released) == 1
        assert released[0]["held_s"] == pytest.approx(
            100.0 + CONSERVATIVE_HOLD_S)
        assert validate_records(obs.events.records) == []


class TestCollection:
    def test_obs_payload_metrics_and_health(self):
        obs = create_observability(profile=True)
        system = _run_system(obs=obs, faults=True)
        payload = obs_payload(system, obs)
        metrics = payload["metrics"]
        prefixes = {name.split(".")[0] for name in metrics}
        assert {"engine", "net", "control", "hydronics"} <= prefixes
        assert not any(name.startswith("physics.") for name in metrics)
        assert metrics["workload.faults_injected"] == 2
        # Inline counts agree with the event log (nowhere near its cap).
        assert metrics["control.tier_transitions"] == len(
            obs.events.of_kind(TIER_TRANSITION))
        assert metrics["control.degraded_estimates"] == sum(
            board.degraded_estimates for board in system.boards)
        assert metrics["net.mac.queue_depth_max"]["count"] == (
            len(system.bt_nodes) + len(system.boards))
        health = payload["health"]
        assert health["nodes"]["bt-room-hum-0"]["crashed"]
        assert not health["nodes"]["bt-room-temp-1"]["crashed"]
        assert set(health) >= {"t", "nodes", "boards", "tanks",
                               "supervisor", "engine"}
        assert "psychro_hit_rate" not in health
        assert not any(key.startswith("spectral_")
                       for key in health["physics"])
        assert payload["profile"]["components"]

    def test_health_snapshot_without_obs(self):
        system = _run_system()
        health = health_snapshot(system)
        assert health["engine"]["events_dispatched"] > 0
        assert all("tier" in board for board in health["boards"].values())


def _tiny_campaign():
    return CampaignConfig(
        cells=[
            CampaignCell("stuck-quick", (
                SensorStuck(120.0, "bt-room-temp-0", 33.0, until=300.0),)),
            CampaignCell("crash-quick", (
                NodeCrash(150.0, "bt-room-hum-0"),)),
        ],
        seed=3, run_minutes=10.0, warmup_minutes=5.0)


class TestCampaignTelemetry:
    def test_telemetry_directory_round_trips(self, tmp_path):
        tel_dir = str(tmp_path / "telemetry")
        result = run_campaign(_tiny_campaign(), telemetry_dir=tel_dir)
        assert validate_telemetry(tel_dir) == []
        telemetry = load_telemetry(tel_dir)
        kinds = {json.loads(line)["kind"]
                 for line in (tmp_path / "telemetry" /
                              "events.jsonl").read_text().splitlines()}
        assert len(kinds) >= 4
        assert {FAULT_INJECTED, TIER_TRANSITION,
                WORKER_STARTED, WORKER_FINISHED} <= kinds
        assert telemetry["manifest"]["command"] == "campaign"
        assert result.report_dict()["manifest"] is result.manifest

    def test_telemetry_does_not_change_results(self, tmp_path):
        config = _tiny_campaign()
        blind = run_campaign(config)
        observed = run_campaign(config,
                                telemetry_dir=str(tmp_path / "t"))
        assert blind.baseline_hash == observed.baseline_hash
        assert ([c.discrete_hash for c in blind.cells]
                == [c.discrete_hash for c in observed.cells])

    def test_status_renders_and_cli_validates(self, tmp_path, capsys):
        from repro.cli import main
        tel_dir = str(tmp_path / "telemetry")
        run_campaign(_tiny_campaign(), telemetry_dir=tel_dir)
        rendered = render_status(load_telemetry(tel_dir))
        assert "Run manifest" in rendered
        assert "Events" in rendered
        assert main(["status", "--telemetry", tel_dir,
                     "--validate"]) == 0
        assert "telemetry valid" in capsys.readouterr().out

    def test_validate_flags_corruption(self, tmp_path, capsys):
        from repro.cli import main
        tel_dir = tmp_path / "telemetry"
        run_campaign(_tiny_campaign(), telemetry_dir=str(tel_dir))
        events_path = tel_dir / "events.jsonl"
        events_path.write_text(
            '{"kind": "fault.injected", "t": "not-a-number"}\n')
        problems = validate_telemetry(str(tel_dir))
        assert problems
        assert main(["status", "--telemetry", str(tel_dir),
                     "--validate"]) == 1


class TestTelemetryWorkerIdentity:
    def test_metrics_and_health_do_not_depend_on_workers(self, tmp_path):
        """Per-run telemetry holds only the run's own state, so a
        pooled sweep writes the same metrics.json and health.json
        bytes as a serial one (a direct-control grid exercises the
        macro-step path that process-wide caches would leak through)."""
        from repro.cli import main
        for workers in (1, 2):
            assert main(["sweep", "--seeds", "3", "--minutes", "4",
                         "--warmup-minutes", "1", "--direct",
                         "--workers", str(workers), "--telemetry",
                         str(tmp_path / f"w{workers}")]) == 0
        for name in ("metrics.json", "health.json"):
            assert ((tmp_path / "w1" / name).read_bytes()
                    == (tmp_path / "w2" / name).read_bytes()), name


class TestPoolTee:
    def test_worker_lifecycle_events(self):
        specs = [RunSpec(label=f"seed-{seed}",
                         scenario=ScenarioSpec(
                             name=f"seed-{seed}",
                             config=BubbleZeroConfig(seed=seed),
                             run_minutes=2.0, warmup_minutes=1.0))
                 for seed in (1, 2)]
        log = EventLog(enabled=True)
        payloads = run_specs(specs, workers=1, obs_events=log)
        assert len(payloads) == 2
        ordered = sort_worker_records(log.records)
        assert [(r["kind"], r["run"]) for r in ordered] == [
            (WORKER_STARTED, "seed-1"), (WORKER_FINISHED, "seed-1"),
            (WORKER_STARTED, "seed-2"), (WORKER_FINISHED, "seed-2")]
        assert validate_records(ordered) == []


class TestProgressPrinter:
    def test_default_write_flushes_to_current_stdout(self, capsys):
        from repro.runtime.progress import ProgressEvent, ProgressPrinter
        printer = ProgressPrinter(total=1)
        printer(ProgressEvent("started", 0, "cell-a"))
        printer(ProgressEvent("finished", 0, "cell-a", wall_s=0.5))
        out = capsys.readouterr().out
        assert "[0/1] start cell-a" in out
        assert "[1/1] done cell-a (0.5s)" in out
