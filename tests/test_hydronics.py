"""Tests for water properties, pumps, mixing, chiller, tank, panel."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.hydronics.chiller import CarnotFractionChiller
from repro.hydronics.mixing import MixingJunction
from repro.hydronics.panel import RadiantPanel
from repro.hydronics.pump import DCPump, PumpCurve
from repro.hydronics.tank import ColdWaterTank
from repro.hydronics.water import (
    WATER_CP,
    mass_flow,
    mix_temperature,
    water_heat_flux,
)


class TestWater:
    def test_mass_flow(self):
        assert mass_flow(1.0) == pytest.approx(0.998)

    def test_mass_flow_rejects_negative(self):
        with pytest.raises(ValueError):
            mass_flow(-1.0)

    def test_heat_flux_sign(self):
        """Water leaving warmer than it entered removed heat (positive)."""
        assert water_heat_flux(0.1, 18.0, 22.0) > 0
        assert water_heat_flux(0.1, 22.0, 18.0) < 0

    def test_heat_flux_magnitude(self):
        # 0.1 L/s, 4 K rise: ~0.0998 kg/s * 4186 * 4 ~ 1671 W.
        assert water_heat_flux(0.1, 18.0, 22.0) == pytest.approx(
            0.0998 * WATER_CP * 4.0, rel=1e-6)

    def test_mix_temperature_balanced(self):
        assert mix_temperature(1.0, 10.0, 1.0, 20.0) == 15.0

    def test_mix_temperature_weighted(self):
        assert mix_temperature(3.0, 10.0, 1.0, 20.0) == pytest.approx(12.5)

    def test_mix_zero_flow_raises(self):
        with pytest.raises(ValueError):
            mix_temperature(0.0, 10.0, 0.0, 20.0)

    @given(fa=st.floats(0.01, 5.0), ta=st.floats(0.0, 40.0),
           fb=st.floats(0.01, 5.0), tb=st.floats(0.0, 40.0))
    def test_mix_within_bounds(self, fa, ta, fb, tb):
        mixed = mix_temperature(fa, ta, fb, tb)
        assert min(ta, tb) - 1e-9 <= mixed <= max(ta, tb) + 1e-9


class TestPump:
    def test_deadband(self):
        pump = DCPump("p")
        pump.set_voltage(0.2)
        assert pump.flow_lps == 0.0

    def test_full_voltage_full_flow(self):
        pump = DCPump("p")
        pump.set_voltage(5.0)
        assert pump.flow_lps == pytest.approx(pump.curve.max_flow_lps)

    def test_voltage_clamped(self):
        pump = DCPump("p")
        pump.set_voltage(12.0)
        assert pump.voltage == 5.0
        pump.set_voltage(-3.0)
        assert pump.voltage == 0.0

    def test_curve_inverse_roundtrip(self):
        curve = PumpCurve()
        for flow in (0.0, 0.05, 0.1, 0.2):
            voltage = curve.voltage_for(flow)
            assert curve.flow_at(voltage) == pytest.approx(flow, abs=1e-9)

    def test_stopped_pump_draws_standby(self):
        pump = DCPump("p")
        assert pump.electrical_power_w() == pump.standby_power_w

    def test_running_power_exceeds_standby_and_below_rated(self):
        pump = DCPump("p")
        pump.set_voltage(5.0)
        power = pump.electrical_power_w()
        assert pump.standby_power_w < power <= pump.rated_power_w

    def test_energy_integration(self):
        pump = DCPump("p")
        pump.set_voltage(5.0)
        pump.integrate(100.0)
        assert pump.energy_j == pytest.approx(
            pump.electrical_power_w() * 100.0)

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            DCPump("p", efficiency=0.0)


class TestMixingJunction:
    def make(self):
        supply = DCPump("s")
        recycle = DCPump("r")
        return MixingJunction(supply, recycle), supply, recycle

    def test_zero_flow_when_pumps_off(self):
        junction, _, _ = self.make()
        result = junction.mix(18.0, 22.0)
        assert result.flow_lps == 0.0
        assert result.temp_c == 18.0

    def test_pure_supply(self):
        junction, supply, _ = self.make()
        supply.set_voltage(5.0)
        result = junction.mix(18.0, 22.0)
        assert result.temp_c == pytest.approx(18.0)
        assert result.recycle_flow_lps == 0.0

    def test_mixture_temperature(self):
        junction, supply, recycle = self.make()
        supply.set_voltage(5.0)
        recycle.set_voltage(5.0)
        result = junction.mix(18.0, 22.0)
        assert result.temp_c == pytest.approx(20.0)

    def test_flows_for_target_achieves_temp(self):
        f_supp, f_rcyc = MixingJunction.flows_for_target(
            0.2, 19.0, 18.0, 22.0)
        assert f_supp + f_rcyc == pytest.approx(0.2)
        mixed = (f_supp * 18.0 + f_rcyc * 22.0) / 0.2
        assert mixed == pytest.approx(19.0)

    def test_flows_for_target_clamps_below_supply(self):
        f_supp, f_rcyc = MixingJunction.flows_for_target(
            0.2, 10.0, 18.0, 22.0)
        assert f_rcyc == 0.0
        assert f_supp == pytest.approx(0.2)

    def test_flows_for_target_clamps_above_return(self):
        f_supp, f_rcyc = MixingJunction.flows_for_target(
            0.2, 30.0, 18.0, 22.0)
        assert f_supp == 0.0
        assert f_rcyc == pytest.approx(0.2)

    def test_zero_total_flow(self):
        assert MixingJunction.flows_for_target(0.0, 19.0, 18.0, 22.0) == (
            0.0, 0.0)

    @given(total=st.floats(0.01, 0.4), target=st.floats(10.0, 30.0),
           supply=st.floats(15.0, 20.0), ret=st.floats(20.0, 28.0))
    def test_flows_never_negative(self, total, target, supply, ret):
        f_supp, f_rcyc = MixingJunction.flows_for_target(
            total, target, supply, ret)
        assert f_supp >= 0 and f_rcyc >= 0
        assert f_supp + f_rcyc == pytest.approx(total)


class TestChiller:
    def make(self):
        return CarnotFractionChiller("c", cold_setpoint_c=18.0,
                                     second_law_fraction=0.30,
                                     parasitic_w=6.0, capacity_w=2000.0)

    def test_cop_is_fraction_of_carnot(self):
        chiller = self.make()
        from repro.physics.exergy import carnot_cop_celsius
        assert chiller.cop_at(34.9) == pytest.approx(
            0.30 * carnot_cop_celsius(18.0, 34.9))

    def test_higher_cold_temperature_higher_cop(self):
        """The low-exergy claim at machine level."""
        warm = CarnotFractionChiller("w", 18.0, 0.30)
        cold = CarnotFractionChiller("c", 8.0, 0.30)
        assert warm.cop_at(34.9) > cold.cop_at(34.9)

    def test_low_lift_is_floored(self):
        """At or below the setpoint, the reject temperature is lifted
        to setpoint + MIN_LIFT_K: the COP stays finite and bounded."""
        from repro.hydronics.chiller import MIN_LIFT_K
        chiller = self.make()
        floor = chiller.cop_at(18.0 + MIN_LIFT_K)
        for reject in (18.0 + MIN_LIFT_K - 1e-9, 18.5, 18.0, 0.0, -40.0):
            assert chiller.cop_at(reject) == floor
        assert math.isfinite(floor)
        assert chiller.cop_at(18.0 + MIN_LIFT_K + 1.0) < floor

    def test_idle_draws_parasitic(self):
        chiller = self.make()
        assert chiller.electrical_power_w(0.0, 34.9) == 6.0

    def test_load_clamped_to_capacity(self):
        chiller = self.make()
        at_capacity = chiller.electrical_power_w(2000.0, 34.9)
        beyond = chiller.electrical_power_w(9000.0, 34.9)
        assert beyond == at_capacity

    def test_integrate_accumulates_meters(self):
        chiller = self.make()
        chiller.integrate(100.0, 1000.0, 34.9)
        assert chiller.heat_moved_j == pytest.approx(100_000.0)
        assert chiller.energy_j > 0

    def test_measured_cop_close_to_model(self):
        chiller = self.make()
        chiller.integrate(3600.0, 1000.0, 34.9)
        measured = chiller.measured_cop()
        # Slightly below the thermodynamic COP due to parasitics.
        assert measured < chiller.cop_at(34.9)
        assert measured == pytest.approx(chiller.cop_at(34.9), rel=0.05)

    def test_measured_cop_before_running_raises(self):
        with pytest.raises(RuntimeError):
            self.make().measured_cop()

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            CarnotFractionChiller("c", 18.0, 1.5)


class TestTank:
    def make(self, setpoint=18.0):
        chiller = CarnotFractionChiller("c", setpoint, 0.30,
                                        capacity_w=2000.0)
        return ColdWaterTank("t", chiller, volume_l=100.0,
                             setpoint_c=setpoint)

    def test_draw_at_setpoint(self):
        tank = self.make()
        assert tank.draw() == 18.0

    def test_warm_return_raises_temperature(self):
        tank = self.make()
        tank.accept_return(0.5, 30.0, 10.0)
        assert tank.temp_c > 18.0

    def test_chiller_recovers_setpoint(self):
        tank = self.make()
        tank.accept_return(1.0, 35.0, 60.0)  # ~4 MJ heat slug
        warm = tank.temp_c
        # 2 kW of chilling needs ~36 min to work off 4 MJ.
        for _ in range(3000):
            tank.step(1.0, ambient_temp_c=25.0, reject_temp_c=34.9)
        assert tank.temp_c < warm
        assert abs(tank.temp_c - 18.0) < 0.5

    def test_heat_returned_metered(self):
        tank = self.make()
        tank.accept_return(0.5, 30.0, 10.0)
        assert tank.heat_returned_j > 0

    def test_zero_flow_return_is_noop(self):
        tank = self.make()
        tank.accept_return(0.0, 30.0, 10.0)
        assert tank.temp_c == 18.0

    def test_rejects_negative(self):
        tank = self.make()
        with pytest.raises(ValueError):
            tank.accept_return(-1.0, 30.0, 1.0)
        with pytest.raises(ValueError):
            tank.step(-1.0, 25.0, 34.9)


class TestPanel:
    def test_zero_flow_no_heat_and_safe_surface(self):
        panel = RadiantPanel("p")
        result = panel.exchange(0.0, 18.0, 25.0)
        assert result.heat_w == 0.0
        assert result.surface_temp_c == 25.0

    def test_cooling_heat_positive(self):
        panel = RadiantPanel("p")
        result = panel.exchange(0.15, 18.0, 25.0)
        assert result.heat_w > 0
        assert 18.0 < result.return_temp_c < 25.0

    def test_energy_balance(self):
        """Heat absorbed equals water-side enthalpy rise."""
        panel = RadiantPanel("p")
        flow = 0.15
        result = panel.exchange(flow, 18.0, 25.0)
        water_side = mass_flow(flow) * WATER_CP * (
            result.return_temp_c - 18.0)
        assert result.heat_w == pytest.approx(water_side, rel=1e-9)

    def test_surface_between_water_and_room(self):
        panel = RadiantPanel("p")
        result = panel.exchange(0.15, 18.0, 25.0)
        assert 18.0 < result.surface_temp_c < 25.0

    def test_more_flow_more_heat(self):
        panel = RadiantPanel("p")
        low = panel.exchange(0.05, 18.0, 25.0).heat_w
        high = panel.exchange(0.20, 18.0, 25.0).heat_w
        assert high > low

    def test_paper_scale_heat(self):
        """Two panels at design conditions move roughly 1 kW together."""
        panel = RadiantPanel("p")
        heat = panel.exchange(0.15, 18.0, 25.0).heat_w
        assert 300.0 < heat < 900.0

    def test_integrate_only_counts_cooling(self):
        panel = RadiantPanel("p")
        heating = panel.exchange(0.15, 30.0, 25.0)  # warm water, cool room
        panel.integrate(heating, 100.0)
        assert panel.heat_absorbed_j == 0.0

    @given(flow=st.floats(0.001, 0.3), water=st.floats(10.0, 24.0),
           room=st.floats(18.0, 32.0))
    def test_effectiveness_in_unit_interval(self, flow, water, room):
        panel = RadiantPanel("p")
        result = panel.exchange(flow, water, room)
        assert 0.0 < result.effectiveness < 1.0
