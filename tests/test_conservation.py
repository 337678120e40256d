"""Conservation and invariant properties of the physics substrate.

These are the checks that catch sign errors and unit slips in a thermal
model: with all exchange paths closed the state must not move; fluxes
must balance across interfaces; monotone drivers must have monotone
effects.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import OutdoorConfig
from repro.core.plant import CONDENSER_APPROACH_K
from repro.hydronics.panel import RadiantPanel
from repro.hydronics.water import WATER_CP, mass_flow
from repro.physics.room import (
    Room,
    RoomParameters,
    SubspaceInputs,
)
from repro.physics.weather import OutdoorState
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import run_scenario


def sealed_params():
    """A room with every passive exchange path disabled."""
    return RoomParameters(envelope_ua_w_per_k=0.0,
                          coupling_ua_w_per_k=0.0,
                          mixing_flow_m3s=0.0,
                          infiltration_ach=0.0,
                          door_exchange_m3s=0.0)


IDLE = [SubspaceInputs(equipment_w=0.0) for _ in range(4)]
OUTDOOR = OutdoorState(28.9, 27.4)


class TestSealedRoomInvariance:
    def test_temperature_frozen(self):
        room = Room(params=sealed_params(), initial_temp_c=24.0,
                    initial_dew_c=16.0)
        for _ in range(3600):
            room.step(1.0, OUTDOOR, IDLE)
        assert room.mean_temp_c() == pytest.approx(24.0, abs=1e-9)

    def test_moisture_frozen(self):
        room = Room(params=sealed_params(), initial_dew_c=16.0)
        w0 = room.mean_humidity_ratio()
        for _ in range(3600):
            room.step(1.0, OUTDOOR, IDLE)
        assert room.mean_humidity_ratio() == pytest.approx(w0, rel=1e-12)

    def test_co2_frozen(self):
        room = Room(params=sealed_params(), initial_co2_ppm=600.0)
        for _ in range(3600):
            room.step(1.0, OUTDOOR, IDLE)
        assert room.mean_co2_ppm() == pytest.approx(600.0, abs=1e-9)

    def test_known_heat_input_integrates_exactly(self):
        """1 kW into a sealed room for 1000 s raises each subspace by
        exactly Q / C."""
        params = sealed_params()
        room = Room(params=params, initial_temp_c=20.0, initial_dew_c=10.0)
        inputs = [SubspaceInputs(equipment_w=250.0) for _ in range(4)]
        for _ in range(1000):
            room.step(1.0, OUTDOOR, inputs)
        expected = 20.0 + 250.0 * 1000.0 / params.capacity_j_per_k
        assert room.mean_temp_c() == pytest.approx(expected, rel=1e-9)

    def test_occupant_latent_mass_balance(self):
        """Occupant vapour accumulates at exactly the emission rate."""
        from repro.physics.room import AIR_DENSITY, OCCUPANT_LATENT_KGS
        params = sealed_params()
        room = Room(params=params, initial_temp_c=25.0, initial_dew_c=10.0)
        inputs = [SubspaceInputs(occupants=1.0, equipment_w=0.0)
                  for _ in range(4)]
        w0 = room.state_of(0).humidity_ratio
        seconds = 600
        for _ in range(seconds):
            room.step(1.0, OUTDOOR, inputs)
        buffer_mass = (15.0 * AIR_DENSITY
                       * params.moisture_buffer_factor)
        expected = w0 + OCCUPANT_LATENT_KGS * seconds / buffer_mass
        # Occupants also heat the room, but moisture bookkeeping is
        # independent of temperature in this model.
        assert room.state_of(0).humidity_ratio == pytest.approx(
            expected, rel=1e-6)


class TestInterfaceBalances:
    @settings(max_examples=30, deadline=None)
    @given(flow=st.floats(0.02, 0.3), water=st.floats(8.0, 22.0),
           room=st.floats(20.0, 32.0))
    def test_panel_water_air_balance(self, flow, water, room):
        """Heat leaving the room equals heat entering the water."""
        panel = RadiantPanel("p")
        result = panel.exchange(flow, water, room)
        water_side = mass_flow(flow) * WATER_CP * (
            result.return_temp_c - water)
        assert result.heat_w == pytest.approx(water_side, rel=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(flow_a=st.floats(0.0, 0.2), flow_b=st.floats(0.0, 0.2))
    def test_junction_mass_balance(self, flow_a, flow_b):
        from repro.hydronics.mixing import MixingJunction
        from repro.hydronics.pump import DCPump
        supply, recycle = DCPump("s"), DCPump("r")
        supply.set_voltage(supply.curve.voltage_for(flow_a))
        recycle.set_voltage(recycle.curve.voltage_for(flow_b))
        junction = MixingJunction(supply, recycle)
        result = junction.mix(18.0, 23.0)
        assert result.flow_lps == pytest.approx(
            result.supply_flow_lps + result.recycle_flow_lps)

    def test_junction_energy_balance(self):
        """Mixed stream carries exactly the two inlets' enthalpy."""
        from repro.hydronics.mixing import MixingJunction
        from repro.hydronics.pump import DCPump
        supply, recycle = DCPump("s"), DCPump("r")
        supply.set_voltage(3.0)
        recycle.set_voltage(4.0)
        junction = MixingJunction(supply, recycle)
        result = junction.mix(18.0, 23.0)
        inflow = (result.supply_flow_lps * 18.0
                  + result.recycle_flow_lps * 23.0)
        assert result.temp_c * result.flow_lps == pytest.approx(inflow)


class TestConservationUnderFaults:
    """Injected faults corrupt *readings*, never physics: every balance
    that holds fault-free must keep holding while sensors lie, nodes
    die, and the channel jams."""

    @staticmethod
    def _faulted_system(seed=11):
        from repro.core.config import BubbleZeroConfig
        from repro.core.system import BubbleZero
        from repro.workloads.faults import (
            ChannelJam,
            FaultScript,
            NodeCrash,
            SensorStuck,
        )
        system = BubbleZero(BubbleZeroConfig(seed=seed))
        start = system.sim.now
        FaultScript([
            SensorStuck(start + 300.0, "bt-room-temp-0", 35.0),
            NodeCrash(start + 600.0, "bt-ceil-hum-1"),
            ChannelJam(start + 900.0, start + 1200.0, duty=0.9),
        ]).apply_to(system)
        return system

    def test_tank_energy_ledger_closes(self):
        """First law on each storage tank: heat in from the loops plus
        ambient gain minus heat moved by the chiller equals the change
        in stored energy — also with faults active."""
        system = self._faulted_system()
        system.run(minutes=30)
        for tank in (system.plant.radiant_tank, system.plant.vent_tank):
            scale = max(1.0, abs(tank.energy_in_j),
                        abs(tank.chiller.heat_moved_j))
            assert abs(tank.energy_balance_residual_j()) < 1e-6 * scale

    def test_meters_monotone_through_jam(self):
        """Cumulative heat/power meters never step backwards, including
        across the jam window."""
        system = self._faulted_system()
        previous = None
        for _ in range(8):
            system.run(minutes=5)
            snap = system.plant.meter_snapshot()
            if previous is not None:
                for key, value in snap.items():
                    assert value >= previous[key] - 1e-9, key
            previous = snap

    def test_room_state_stays_physical(self):
        """Moisture and CO2 remain inside physically meaningful bounds
        for the whole faulted run (lying sensors must not push the
        plant model outside its domain)."""
        system = self._faulted_system()
        for _ in range(12):
            system.run(minutes=5)
            for i in range(4):
                state = system.plant.room.state_of(i)
                assert 0.0 < state.humidity_ratio < 0.05
                assert state.dew_point_c <= state.temp_c + 1e-9
            assert 300.0 < system.plant.room.mean_co2_ppm() < 5000.0

    def test_crashed_supplier_does_not_leak_heat(self):
        """A sealed room with zero inputs stays frozen even while the
        (disconnected) sensing layer degrades — physics is independent
        of the health of its observers."""
        room = Room(params=sealed_params(), initial_temp_c=24.0,
                    initial_dew_c=16.0, initial_co2_ppm=600.0)
        w0 = room.mean_humidity_ratio()
        for _ in range(1800):
            room.step(1.0, OUTDOOR, IDLE)
        assert room.mean_temp_c() == pytest.approx(24.0, abs=1e-9)
        assert room.mean_humidity_ratio() == pytest.approx(w0, rel=1e-12)
        assert room.mean_co2_ppm() == pytest.approx(600.0, abs=1e-9)


class TestMonotonicity:
    @settings(max_examples=20, deadline=None)
    @given(heat1=st.floats(0.0, 400.0), heat2=st.floats(0.0, 400.0))
    def test_more_cooling_colder_room(self, heat1, heat2):
        if heat1 > heat2:
            heat1, heat2 = heat2, heat1
        rooms = []
        for heat in (heat1, heat2):
            room = Room()
            inputs = [SubspaceInputs(panel_heat_w=heat, equipment_w=0.0)
                      for _ in range(4)]
            for _ in range(120):
                room.step(5.0, OUTDOOR, inputs)
            rooms.append(room.mean_temp_c())
        assert rooms[1] <= rooms[0] + 1e-9

    def test_more_ventilation_drier_room(self):
        results = []
        for flow in (0.002, 0.02):
            room = Room()
            inputs = [SubspaceInputs(vent_flow_m3s=flow,
                                     vent_supply_temp_c=18.0,
                                     vent_supply_w=0.011,
                                     equipment_w=0.0)
                      for _ in range(4)]
            for _ in range(600):
                room.step(1.0, OUTDOOR, inputs)
            results.append(room.mean_humidity_ratio())
        assert results[1] < results[0]


class TestLowLiftRegime:
    """Outdoor air at or below the chilled-water setpoint minus the
    condenser approach used to make Carnot's COP undefined and crash
    the plant; the chiller's lift floor keeps every weather runnable."""

    @pytest.mark.parametrize("temp_c,dew_point_c", [
        (13.0, 8.0), (10.0, 5.0), (0.0, -5.0), (-10.0, -15.0),
        (45.0, 30.0)])
    def test_paper_va_runs_and_tanks_close(self, temp_c, dew_point_c):
        base = get_scenario("paper-va")
        spec = dataclasses.replace(
            base, run_minutes=20.0, warmup_minutes=0.0,
            config=dataclasses.replace(
                base.config,
                outdoor=OutdoorConfig(temp_c, dew_point_c)))
        system = run_scenario(spec)
        plant = system.plant
        for tank in (plant.radiant_tank, plant.vent_tank):
            assert abs(tank.energy_balance_residual_j()) <= 1e-6
            cop = tank.chiller.cop_at(temp_c + CONDENSER_APPROACH_K)
            assert math.isfinite(cop) and cop > 0
