"""Tests for the fault-campaign runner (repro.workloads.campaign)."""

import pytest

from repro.workloads.campaign import (
    CampaignCell,
    CampaignConfig,
    full_matrix,
    quick_matrix,
    run_campaign,
)
from repro.workloads.faults import (
    ChannelJam,
    NodeCrash,
    SensorDrift,
    SensorStuck,
    shift_fault,
)


def mini_config(seed=7):
    """Two fast cells: one permanent crash, one self-clearing stick."""
    cells = [
        CampaignCell("crash", (NodeCrash(60.0, "bt-room-temp-0"),)),
        CampaignCell("stick", (
            SensorStuck(60.0, "bt-room-temp-1", 35.0, until=180.0),)),
    ]
    return CampaignConfig(cells=cells, seed=seed, run_minutes=6.0,
                          warmup_minutes=2.0)


class TestMatrices:
    def test_quick_matrix_size_and_coverage(self):
        cells = quick_matrix()
        assert len(cells) >= 8
        classes = {type(fault) for cell in cells for fault in cell.faults}
        assert classes == {SensorStuck, SensorDrift, NodeCrash, ChannelJam}
        assert any(len(cell.faults) > 1 for cell in cells)

    def test_matrix_names_unique(self):
        for cells in (quick_matrix(), full_matrix()):
            names = [cell.name for cell in cells]
            assert len(set(names)) == len(names)

    def test_full_matrix_sweeps_onsets(self):
        cells = full_matrix(onsets_s=(100.0, 200.0))
        onsets = {min(getattr(f, "time", getattr(f, "start", None))
                      for f in cell.faults) for cell in cells}
        assert onsets == {100.0, 200.0}

    def test_single_crash_detection(self):
        assert CampaignCell("c", (NodeCrash(1.0, "x"),)).is_single_crash()
        assert not CampaignCell("c", (NodeCrash(1.0, "x"),
                                      NodeCrash(1.0, "y"))).is_single_crash()
        assert not CampaignCell("c", (SensorStuck(1.0, "x", 2.0),
                                      )).is_single_crash()


class TestConfigValidation:
    def test_rejects_duplicate_names(self):
        cell = CampaignCell("dup", (NodeCrash(1.0, "x"),))
        with pytest.raises(ValueError):
            CampaignConfig(cells=[cell, cell])

    def test_rejects_non_positive_length(self):
        with pytest.raises(ValueError):
            CampaignConfig(cells=[], run_minutes=0.0)

    def test_rejects_warmup_outside_run(self):
        with pytest.raises(ValueError):
            CampaignConfig(cells=[], run_minutes=10.0, warmup_minutes=10.0)
        with pytest.raises(ValueError):
            CampaignConfig(cells=[], run_minutes=10.0, warmup_minutes=-1.0)


class TestShift:
    def test_shift_preserves_relative_offsets(self):
        stuck = SensorStuck(30.0, "d", 1.0, until=90.0)
        shifted = shift_fault(stuck, 1000.0)
        assert shifted.time == 1030.0
        assert shifted.until == 1090.0
        jam = shift_fault(ChannelJam(10.0, 20.0, duty=0.4), 1000.0)
        assert (jam.start, jam.end, jam.duty) == (1010.0, 1020.0, 0.4)
        crash = shift_fault(NodeCrash(5.0, "d"), 1000.0)
        assert crash.time == 1005.0

    def test_shift_keeps_permanent_faults_permanent(self):
        drift = shift_fault(SensorDrift(30.0, "d", 1.0), 500.0)
        assert drift.until is None


class TestRunCampaign:
    def test_mini_campaign_runs_and_scores(self):
        result = run_campaign(mini_config())
        assert result.baseline.label == "baseline"
        assert len(result.cells) == 2
        crash = next(c for c in result.cells if c.cell.name == "crash")
        stick = next(c for c in result.cells if c.cell.name == "stick")
        # Graceful verdict only applies to single-crash cells.
        assert crash.graceful is not None
        assert stick.graceful is None
        # The crashed run diverges from the baseline's discrete log.
        assert crash.discrete_hash != result.baseline_hash

    def test_campaign_is_reproducible(self):
        first = run_campaign(mini_config()).report_dict()
        second = run_campaign(mini_config()).report_dict()
        assert first == second

    def test_different_seed_different_run(self):
        a = run_campaign(CampaignConfig(
            cells=[], seed=7, run_minutes=6.0, warmup_minutes=0.0))
        b = run_campaign(CampaignConfig(
            cells=[], seed=8, run_minutes=6.0, warmup_minutes=0.0))
        assert a.baseline_hash != b.baseline_hash

    def test_progress_callback_sees_every_run(self):
        messages = []
        run_campaign(mini_config(), progress=messages.append)
        assert len(messages) == 3  # baseline + 2 cells


class TestReportRendering:
    def test_json_round_trip(self, tmp_path):
        import json

        from repro.analysis.export import write_report_json
        result = run_campaign(mini_config())
        path = tmp_path / "campaign.json"
        write_report_json(result.report_dict(), str(path))
        loaded = json.loads(path.read_text())
        assert loaded["seed"] == 7
        assert [c["name"] for c in loaded["cells"]] == ["crash", "stick"]
        assert loaded["baseline_hash"] == result.baseline_hash

    def test_markdown_report_mentions_every_cell(self):
        from repro.analysis.reporting import render_campaign_report
        result = run_campaign(mini_config())
        report = render_campaign_report(result)
        assert "# Fault campaign report" in report
        for cell in result.cells:
            assert f"| {cell.cell.name} |" in report
        assert "graceful" in report
