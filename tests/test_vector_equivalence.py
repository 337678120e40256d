"""Scalar-vs-SoA bit-exactness across topology sizes.

The vectorized physics core (:mod:`repro.physics.vector`,
``physics_vector=True``) is a *transcription* of the scalar per-zone
objects, not an approximation: both paths must produce identical
discrete log hashes, identical final zone states, identical energy
meters and identical guard counters on every topology — one zone,
the paper's four, and grid floors up to 128 zones — on both physics
paths (macro-stepped and reference per-tick), with observability on
and off.  Any divergence is a bug in the transcription, never an
accepted tolerance.
"""

import dataclasses

import pytest

from repro.analysis.fingerprint import discrete_log_hash, state_digest
from repro.core.config import BubbleZeroConfig, NetworkConfig
from repro.core.system import BubbleZero
from repro.obs import create_observability
from repro.scenarios.topology import grid_topology


def _run(config, topology=None, minutes=10.0, obs=None):
    system = BubbleZero(config, topology=topology, obs=obs)
    system.start()
    system.run(minutes=minutes)
    system.finalize()
    return system


def _assert_identical(scalar, vector):
    assert discrete_log_hash(scalar) == discrete_log_hash(vector)
    for ss, vs in zip(scalar.plant.room.subspaces,
                      vector.plant.room.subspaces):
        assert ss.state.temp_c == vs.state.temp_c
        assert ss.state.humidity_ratio == vs.state.humidity_ratio
        assert ss.state.co2_ppm == vs.state.co2_ppm
    sm, vm = scalar.plant.meter_snapshot(), vector.plant.meter_snapshot()
    assert sm == vm
    sg, vg = scalar.plant.guard, vector.plant.guard
    assert sg.worst_margin_k == vg.worst_margin_k
    assert sg.violations == vg.violations
    assert (scalar.sim.events_dispatched == vector.sim.events_dispatched)
    assert state_digest(scalar) == state_digest(vector)
    for su, vu in zip(scalar.plant.vent_units, vector.plant.vent_units):
        assert su.last_output == vu.last_output
    for sl, vl in zip(scalar.plant.panel_loops, vector.plant.panel_loops):
        assert sl.last_result == vl.last_result


def _compare(config, topology=None, minutes=10.0, obs_on=False):
    scalar_cfg = dataclasses.replace(config, physics_vector=False)
    vector_cfg = dataclasses.replace(config, physics_vector=True)
    make_obs = (lambda: create_observability(profile=False)) \
        if obs_on else (lambda: None)
    scalar = _run(scalar_cfg, topology, minutes, obs=make_obs())
    vector = _run(vector_cfg, topology, minutes, obs=make_obs())
    _assert_identical(scalar, vector)
    return scalar, vector


DIRECT = NetworkConfig(enabled=False)


class TestGridEquivalence:
    """Both physics paths, grid floors from 1 to 128 zones.

    Horizons shrink as the grids grow — the point is branch coverage
    (panels serving one zone vs pairs, fallback clamps, tank chains at
    width), not long trajectories.
    """

    @pytest.mark.parametrize("zones,cols,minutes", [
        (1, 1, 10.0), (4, 2, 10.0), (8, 4, 10.0),
        (32, 8, 5.0), (128, 16, 2.0),
    ])
    @pytest.mark.parametrize("macro", [True, False])
    def test_direct_grid(self, zones, cols, minutes, macro):
        config = BubbleZeroConfig(seed=7, network=DIRECT,
                                  physics_macro_step=macro)
        _compare(config, topology=grid_topology(zones, cols=cols),
                 minutes=minutes)

    def test_networked_paper_topology(self):
        # The default 4-zone paper layout with the BT stack live: the
        # vector kernel must stay bit-exact under sensed (not wired)
        # control too.
        _compare(BubbleZeroConfig(seed=7), minutes=10.0)

    def test_networked_reference_physics(self):
        _compare(BubbleZeroConfig(seed=7, physics_macro_step=False),
                 minutes=5.0)

    def test_paper_va_scripted_trial(self):
        # The truncated §V-A trial behind the committed golden: BT
        # network live plus the phase-two door script, so the vector
        # path is pinned under workload events too (the goldens pin it
        # against the committed NPZ; this pins it against scalar
        # directly).
        import dataclasses as dc

        from repro.scenarios.registry import get_scenario
        from repro.scenarios.spec import run_scenario

        spec = get_scenario("golden-hvac-va")
        runs = []
        for vector in (False, True):
            run_spec = dc.replace(
                spec, config=dc.replace(spec.config,
                                        physics_vector=vector))
            runs.append(run_scenario(run_spec))
        _assert_identical(*runs)


class TestObservedEquivalence:
    """Telemetry must neither perturb a path nor split the two paths."""

    @pytest.mark.parametrize("zones,cols", [(8, 4), (32, 8)])
    def test_obs_on_grid(self, zones, cols):
        config = BubbleZeroConfig(seed=7, network=DIRECT)
        observed_s, observed_v = _compare(
            config, topology=grid_topology(zones, cols=cols),
            minutes=5.0, obs_on=True)
        blind_s, _ = _compare(
            config, topology=grid_topology(zones, cols=cols),
            minutes=5.0, obs_on=False)
        assert (discrete_log_hash(observed_s)
                == discrete_log_hash(blind_s))


class TestKernelClampFallback:
    """A vector-kernel macro gap that touches the humidity floor.

    The kernel hands such a gap to the per-tick reference integrator
    through the room it shares with the scalar plant; the fallback must
    be counted and the state must stay bit-identical to the scalar
    plant's on the same gap.
    """

    @pytest.mark.parametrize("w0", [2e-6, 1e-5])
    def test_floor_gap_falls_back_identically(self, w0):
        from repro.physics.room import SubspaceState

        systems = []
        for vector in (False, True):
            config = BubbleZeroConfig(seed=7, network=DIRECT,
                                      physics_vector=vector)
            system = BubbleZero(config, topology=grid_topology(8, cols=4))
            for sub in system.plant.room.subspaces:
                state = sub.state
                sub.state = SubspaceState(state.temp_c, w0, state.co2_ppm)
            system.plant.macro_step(system.sim.clock.now, 20, 1.0)
            systems.append(system)
        scalar, vector = systems
        for system in systems:
            room = system.plant.room
            assert room.macro_gaps == 1
            assert room.macro_fallbacks == 1
            # The per-tick clamp held the floor.
            assert all(room.state_of(i).humidity_ratio >= 1e-5
                       for i in range(len(room.subspaces)))
        _assert_identical(scalar, vector)
