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


class TestRegistryGridIdentity:
    """The registered ``grid-4`` and ``grid-32`` trials (tropical
    weather, unlike the grids above) give the same physics on the
    scalar and the vector path, and with the spectral cache on or off.

    Identity is asserted on ``state_digest``: a direct grid's discrete
    log is its fixed control cadence, so ``discrete_log_hash`` is the
    same for both grid sizes and would miss any physics divergence.
    """

    @staticmethod
    def _run(name, vector, cached):
        from repro.physics import spectral
        from repro.scenarios.registry import get_scenario
        from repro.scenarios.spec import run_scenario

        spec = get_scenario(name)
        spec = dataclasses.replace(spec, config=dataclasses.replace(
            spec.config, physics_vector=vector))
        spectral.cache_clear()
        prev = spectral.configure(enabled=cached)
        try:
            system = run_scenario(spec)
        finally:
            spectral.configure(**prev)
        return discrete_log_hash(system), state_digest(system)

    def test_scalar_vector_and_cache_agree(self):
        identity = {}
        for name in ("grid-4", "grid-32"):
            runs = {path: self._run(name, vector, cached)
                    for path, vector, cached in (
                        ("scalar", False, True), ("vector", True, True),
                        ("vector-nocache", True, False))}
            assert runs["scalar"] == runs["vector"], name
            assert runs["vector-nocache"] == runs["vector"], name
            identity[name] = runs["vector"]
        (hash_4, digest_4), (hash_32, digest_32) = identity.values()
        assert digest_4 != digest_32
        assert hash_4 == hash_32


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


class TestVentTickClamps:
    """A dry inlet colder than the coil water, and a flap travel that is
    no whole number of ticks, driven by hand on both plants.

    The vent tank starts warm (a chiller that has fallen behind), so
    three clamps of the vent-unit tick bind: the coil heat floor at 0
    (the apparatus is warmer than the inlet, so the raw enthalpy drop
    is negative), the outlet humidity-ratio
    cap at the inlet's (the inlet dew point is below the coil's
    reachable dew, and its humidity-ratio round trip lands above the
    inlet's) and the flap-travel clamp (3.5 s of travel at 1 s ticks
    overshoots both end stops).  The vector kernel must match the
    scalar plant bit for bit through all of them.
    """

    TEMP_C = 14.0
    DEW_C = 1.05
    TANK_C = 20.0
    TRAVEL_S = 3.5

    def _system(self, vector):
        from repro.physics.weather import ConstantWeather

        config = BubbleZeroConfig(seed=7, network=DIRECT,
                                  physics_vector=vector)
        system = BubbleZero(config, topology=grid_topology(4, cols=2),
                            weather=ConstantWeather(self.TEMP_C,
                                                    self.DEW_C))
        system.plant.vent_tank.temp_c = self.TANK_C
        for unit in system.plant.vent_units:
            unit.flap.travel_time_s = self.TRAVEL_S
            unit.airbox.set_fan_flow_demand(0.03)
            pump = unit.airbox.coil_pump
            pump.set_voltage(pump.curve.max_voltage)
        return system

    def _drive(self, system):
        """Open then close every flap, five unit ticks each, then one
        macro gap; return each tick's flap positions and unit outputs."""
        plant = system.plant
        now = system.sim.clock.now
        log = []
        for flap_open in (True, False):
            for unit in plant.vent_units:
                unit.flap.command(flap_open)
            for _ in range(5):
                plant.step(now, 1.0)
                now += 1.0
                log.append([(unit.flap.position, unit.last_output)
                            for unit in plant.vent_units])
        plant.macro_step(now, 20, 1.0)
        return log

    def test_clamps_bind_and_paths_agree(self):
        from repro.physics.psychrometrics import (
            dew_point_from_humidity_ratio,
            humidity_ratio_from_dew_point,
        )

        scalar, vector = (self._system(v) for v in (False, True))
        out_w = scalar.plant.outdoor(0.0).humidity_ratio
        # The coil hands back the inlet's dew point, whose humidity
        # ratio rounds above the inlet's: the outlet cap must bind.
        assert (humidity_ratio_from_dew_point(
            dew_point_from_humidity_ratio(out_w)) > out_w)
        scalar_log = self._drive(scalar)
        vector_log = self._drive(vector)
        # The scalar reference reaches every clamp: coil and fans on,
        # heat held at the floor, supply capped at the inlet's
        # humidity ratio, and the flap stopped at each end stop (four
        # ticks of 1/3.5 overshoot it) rather than a travel multiple.
        for tick in scalar_log:
            for _, out in tick:
                assert out.flow_m3s > 0 and out.coil_water_flow_lps > 0
                assert out.coil_heat_w == 0.0
                assert out.supply_humidity_ratio == out_w
        positions = [tick[0][0] for tick in scalar_log]
        assert positions[3:5] == [1.0, 1.0]
        assert positions[8:10] == [0.0, 0.0]
        assert vector_log == scalar_log
        _assert_identical(scalar, vector)


class TestZoneMean:
    """The zone mean is one left-to-right sum from int 0.

    ``sum()`` of floats is compensated from Python 3.12 on, so a mean
    written with it would round differently there: ``sum([0.1] * 10)``
    is ``1.0`` on 3.12 but ``0.9999999999999999`` on 3.11.
    """

    def test_mean_is_sequential_sum(self):
        import functools
        import operator

        from repro.physics.room import Room, RoomGeometry, SubspaceState

        n = 10
        room = Room(RoomGeometry(subspace_count=n))
        for sub in room.subspaces:
            sub.state = SubspaceState(0.1, 0.1, 0.1)
        expected = functools.reduce(operator.add, [0.1] * n, 0) / n
        assert room.mean_temp_c() == expected
        assert room.mean_humidity_ratio() == expected
        assert room.mean_co2_ppm() == expected
