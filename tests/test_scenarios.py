"""Scenario & topology layer: declarative specs, registry, N-zone.

Covers the four contracts of :mod:`repro.scenarios`:

* :class:`SystemTopology` invariants — the paper layout matches the
  historical module constants, the validators reject malformed
  declarations, and :func:`grid_topology` produces valid N-zone
  buildings for any N;
* :class:`ScenarioSpec` is picklable under the spawn start method (the
  process-pool contract) and validates its fields at construction;
* the registry names every hand-wired experiment, and each campaign
  cell's registered fault script carries exactly the matrix faults;
* an 8-zone building declared in one line actually runs end-to-end,
  with energy conservation holding in every tank.
"""

import dataclasses
import math
import pickle
from multiprocessing import get_context

import pytest

from repro.physics import room as room_mod
from repro.scenarios import (
    ScenarioSpec,
    SystemTopology,
    fault_script_names,
    get_fault_script,
    get_scenario,
    grid_topology,
    paper_topology,
    scenario_names,
)
from repro.scenarios.spec import run_scenario


class TestPaperTopology:
    def test_matches_the_historical_module_constants(self):
        topo = paper_topology()
        assert topo.zone_count == 4
        assert topo.panel_zones == ((0, 1), (2, 3))
        assert topo.adjacency == room_mod.ADJACENCY
        assert topo.door_weights == room_mod.DOOR_WEIGHTS
        assert topo.window_weights == room_mod.WINDOW_WEIGHTS
        assert topo.volume_m3 == pytest.approx(6.0 * 5.0 * 2.0)

    def test_device_roster(self):
        topo = paper_topology()
        sensors = topo.sensor_node_ids()
        assert len(sensors) == 16
        assert sensors[:4] == ("bt-room-temp-0", "bt-room-hum-0",
                               "bt-ceil-temp-0", "bt-ceil-hum-0")
        boards = topo.board_ids()
        assert boards[:3] == ("control-c1", "control-c2", "control-v1")
        assert len(boards) == 3 + 2 * topo.zone_count
        assert len(set(topo.device_ids())) == len(sensors) + len(boards)

    def test_panel_and_neighbor_lookup(self):
        topo = paper_topology()
        assert topo.panel_of(0) == 0
        assert topo.panel_of(3) == 1
        assert topo.neighbors(0) == (1, 2)

    def test_rejects_bad_panel_partition(self):
        with pytest.raises(ValueError, match="panel"):
            dataclasses.replace(paper_topology(),
                                panel_zones=((0, 1), (2, 2)))

    def test_rejects_self_loop_adjacency(self):
        with pytest.raises(ValueError, match="adjacency"):
            dataclasses.replace(paper_topology(), adjacency=((0, 0),))

    def test_rejects_unnormalised_weights(self):
        with pytest.raises(ValueError, match="weights"):
            dataclasses.replace(paper_topology(),
                                door_weights=(0.5, 0.5, 0.5, 0.5))

    def test_rejects_wrong_weight_count(self):
        with pytest.raises(ValueError, match="weights"):
            dataclasses.replace(paper_topology(), door_weights=(1.0,))


class TestGridTopology:
    @pytest.mark.parametrize("n", [1, 3, 8, 32])
    def test_invariants_for_any_zone_count(self, n):
        topo = grid_topology(n)
        assert isinstance(topo, SystemTopology)
        assert topo.zone_count == n
        served = sorted(z for pair in topo.panel_zones for z in pair)
        assert served == list(range(n))
        assert math.isclose(sum(topo.door_weights), 1.0, abs_tol=1e-9)
        assert math.isclose(sum(topo.window_weights), 1.0, abs_tol=1e-9)
        assert len(topo.sensor_node_ids()) == 4 * n

    def test_grid_is_connected(self):
        topo = grid_topology(8, cols=4)
        reached = {0}
        frontier = [0]
        while frontier:
            zone = frontier.pop()
            for neighbor in topo.neighbors(zone):
                if neighbor not in reached:
                    reached.add(neighbor)
                    frontier.append(neighbor)
        assert reached == set(range(8))


def _identity(value):
    return value


class TestScenarioSpec:
    def test_pickle_roundtrip(self):
        spec = get_scenario("paper-va")
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_pickles_under_spawn(self):
        """Specs cross the process-pool boundary under spawn intact —
        including a non-paper topology and a named fault script."""
        specs = [get_scenario("eight-zone"),
                 get_scenario("campaign/quick/crash-room-temp")]
        ctx = get_context("spawn")
        with ctx.Pool(1) as pool:
            for spec in specs:
                assert pool.apply(_identity, (spec,)) == spec

    def test_rejects_unknown_script(self):
        with pytest.raises(ValueError, match="unknown workload script"):
            ScenarioSpec(name="x", script="disco")

    def test_rejects_unknown_weather(self):
        with pytest.raises(ValueError, match="unknown weather model"):
            ScenarioSpec(name="x", weather="martian")

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError, match="positive length"):
            ScenarioSpec(name="x", run_minutes=0.0)
        with pytest.raises(ValueError, match="warmup must fit"):
            ScenarioSpec(name="x", run_minutes=10.0, warmup_minutes=10.0)

    def test_resolves_registry_fault_script(self):
        spec = get_scenario("campaign/quick/crash-room-temp")
        resolved = spec.resolve_faults()
        assert resolved == tuple(
            get_fault_script("quick/crash-room-temp").faults)


class TestRegistryCompleteness:
    EXPECTED = ("paper-va", "paper-vc", "paper-cop", "steady-state",
                "lifetime-adaptive", "lifetime-fixed", "golden-hvac-va",
                "golden-network-vc", "campaign-baseline", "sweep-default",
                "tropical-day", "eight-zone")

    def test_named_experiments_registered(self):
        names = scenario_names()
        for expected in self.EXPECTED:
            assert expected in names

    def test_every_campaign_cell_registered(self):
        from repro.workloads.campaign import full_matrix, quick_matrix

        names = set(scenario_names())
        scripts = set(fault_script_names())
        for prefix, cells in (("quick", quick_matrix()),
                              ("full", full_matrix())):
            for cell in cells:
                assert cell.registry_name == f"{prefix}/{cell.name}"
                assert cell.registry_name in scripts
                assert f"campaign/{cell.registry_name}" in names
                script = get_fault_script(cell.registry_name)
                assert tuple(script.faults) == cell.faults

    def test_customised_matrix_cells_carry_faults_inline(self):
        from repro.workloads.campaign import full_matrix

        for cell in full_matrix(onsets_s=(100.0, 200.0)):
            assert cell.registry_name is None
            assert cell.faults

    def test_unknown_names_fail_with_roster(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("nope")
        with pytest.raises(KeyError, match="unknown fault script"):
            get_fault_script("nope")


class TestEightZoneRun:
    def test_eight_zone_smoke(self):
        """A registered 8-zone building runs end-to-end: all 32 nodes
        report, every panel serves its pair, and the first law holds
        in both storage tanks."""
        spec = dataclasses.replace(get_scenario("eight-zone"),
                                   run_minutes=10.0)
        system = run_scenario(spec)
        assert len(system.plant.room.subspaces) == 8
        assert len(system.plant.panel_loops) == 4
        assert len(system.plant.vent_units) == 8
        assert len(system.bt_nodes) == 4 * 8
        assert all(node.sends > 0 for node in system.bt_nodes)
        for tank in (system.plant.radiant_tank, system.plant.vent_tank):
            scale = max(1.0, abs(tank.energy_in_j),
                        abs(tank.chiller.heat_moved_j))
            assert abs(tank.energy_balance_residual_j()) < 1e-6 * scale
