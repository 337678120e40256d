"""Deadband/hysteresis bang-bang control stack (``deadband``).

The classic thermostat baseline the bake-off measures the paper's PID
decomposition against: every actuator is either fully on or fully off,
with a hysteresis band so the relays don't chatter.  The stack keeps
the plant's condensation interlocks — the mixed-water temperature is
still dew-point limited through
:func:`repro.control.condensation.mix_temperature_target` and the
supervisor's conservative latch widens the margin exactly as it does
for the PID laws — because condensation safety belongs to the physics,
not to the tuning of the decision law.
"""

from __future__ import annotations

from typing import Optional

from repro.airside.fan import FAN_SPEED_TABLE, lookup_fan_speed
from repro.control.condensation import (
    mix_temperature_target,
    room_dew_target,
    supply_dew_target,
)
from repro.control.policy import (
    ControllerSpec,
    ControlPolicy,
    register_controller,
)
from repro.control.radiant import RadiantCommand, RadiantInputs
from repro.control.ventilation import VentilationCommand, VentilationInputs
from repro.hydronics.mixing import MixingJunction
from repro.hydronics.pump import PumpCurve
from repro.physics.psychrometrics import dew_point
from repro.scenarios.topology import SystemTopology

# Hysteresis half-widths.  Temperatures in kelvin, CO2 in ppm; the
# temperature band matches the comfort scorer's +-1 K band so a
# perfectly-tuned bang-bang rides the edge of the violation counter.
TEMP_BAND_K = 1.0
DEW_ON_K = 0.8
DEW_OFF_K = 0.2
CO2_BAND_PPM = 100.0
# Fan duty while the ventilation relay is on: a mid-table speed step.
FAN_ON_FLOW_M3S = FAN_SPEED_TABLE[len(FAN_SPEED_TABLE) // 2][1]


class DeadbandRadiantLaw:
    """Bang-bang panel loop: full mixed flow above band, off below."""

    def __init__(self, name: str, preferred_temp_c: float = 25.0,
                 pump_curve: PumpCurve = PumpCurve(),
                 max_flow_lps: float = 0.20,
                 band_k: float = TEMP_BAND_K,
                 dew_margin_k: float = 0.8) -> None:
        self.name = name
        self.preferred_temp_c = preferred_temp_c
        self.pump_curve = pump_curve
        self.max_flow_lps = max_flow_lps
        self.band_k = band_k
        self.dew_margin_k = dew_margin_k
        self.conservative_extra_margin_k = 0.0
        self._on = False

    def set_preferred_temp(self, temp_c: float) -> None:
        self.preferred_temp_c = temp_c

    def step(self, inputs: RadiantInputs, dt: float) -> RadiantCommand:
        mix_temp = mix_temperature_target(
            inputs.supply_temp_c,
            inputs.ceiling_dew_point_c + self.dew_margin_k
            + self.conservative_extra_margin_k)
        # Same achievability interlock as the reference law: when no
        # mixture is condensation-safe the loop must hold off and wait
        # for the ventilation module to dry the air.
        achievable = max(inputs.supply_temp_c, inputs.return_temp_c)
        if mix_temp > achievable + 1e-9:
            self._on = False
            return RadiantCommand(0.0, 0.0, mix_temp, 0.0)
        error = inputs.room_temp_c - self.preferred_temp_c
        if error > self.band_k / 2:
            self._on = True
        elif error < -self.band_k / 2:
            self._on = False
        flow = self.max_flow_lps if self._on else 0.0
        supply_flow, recycle_flow = MixingJunction.flows_for_target(
            flow, mix_temp, inputs.supply_temp_c, inputs.return_temp_c)
        return RadiantCommand(self.pump_curve.voltage_for(supply_flow),
                              self.pump_curve.voltage_for(recycle_flow),
                              mix_temp, flow)


class DeadbandVentilationLaw:
    """Bang-bang airbox: relay coil pump, one fixed fan speed."""

    def __init__(self, name: str, subspace_volume_m3: float,
                 preferred_temp_c: float = 25.0,
                 preferred_rh_percent: float = 65.0,
                 co2_target_ppm: float = 800.0,
                 coil_pump_curve: PumpCurve = PumpCurve(max_flow_lps=0.06),
                 min_fresh_air_m3s: float = 0.0012) -> None:
        if subspace_volume_m3 <= 0:
            raise ValueError("subspace volume must be positive")
        self.name = name
        self.subspace_volume_m3 = subspace_volume_m3
        self.preferred_temp_c = preferred_temp_c
        self.preferred_rh_percent = preferred_rh_percent
        self.co2_target_ppm = co2_target_ppm
        self.coil_pump_curve = coil_pump_curve
        self.min_fresh_air_m3s = min_fresh_air_m3s
        self._coil_on = False
        self._fan_on = False

    def set_preferences(self, temp_c: float, rh_percent: float) -> None:
        self.preferred_temp_c = temp_c
        self.preferred_rh_percent = rh_percent

    def preferred_dew_point(self) -> float:
        return dew_point(self.preferred_temp_c, self.preferred_rh_percent)

    def step(self, inputs: VentilationInputs,
             dt: float) -> VentilationCommand:
        room_target = room_dew_target(self.preferred_dew_point(),
                                      inputs.supply_water_temp_c)
        supply_target = supply_dew_target(room_target,
                                          inputs.room_dew_point_c)
        # Coil relay: chill the coil whenever the airbox outlet is too
        # wet, release once it is comfortably below the target.
        coil_error = inputs.airbox_out_dew_point_c - supply_target
        if coil_error > DEW_OFF_K:
            self._coil_on = True
        elif coil_error < -DEW_OFF_K:
            self._coil_on = False
        coil_flow = (self.coil_pump_curve.max_flow_lps
                     if self._coil_on else 0.0)
        # Fan relay: run at the fixed duty while either surplus stands,
        # with asymmetric thresholds so the relay doesn't chatter.
        dew_surplus = inputs.room_dew_point_c - room_target
        co2_surplus = inputs.room_co2_ppm - self.co2_target_ppm
        if dew_surplus > DEW_ON_K or co2_surplus > CO2_BAND_PPM / 2:
            self._fan_on = True
        elif dew_surplus < DEW_OFF_K and co2_surplus < -CO2_BAND_PPM / 2:
            self._fan_on = False
        flow_demand = (FAN_ON_FLOW_M3S if self._fan_on
                       else self.min_fresh_air_m3s)
        fan_step = lookup_fan_speed(flow_demand)
        return VentilationCommand(
            self.coil_pump_curve.voltage_for(coil_flow), fan_step,
            flow_demand, fan_step > 0, supply_target, room_target)


class DeadbandPolicy(ControlPolicy):
    """Build the bang-bang stack from the registered spec's bands."""

    def radiant_law(self, name: str, *, preferred_temp_c: float,
                    pump_curve: PumpCurve, panel: int = 0,
                    topology: Optional[SystemTopology] = None
                    ) -> DeadbandRadiantLaw:
        return DeadbandRadiantLaw(
            name, preferred_temp_c=preferred_temp_c, pump_curve=pump_curve,
            band_k=self.param("band_k", TEMP_BAND_K))

    def ventilation_law(self, name: str, *, subspace_volume_m3: float,
                        preferred_temp_c: float,
                        preferred_rh_percent: float, zone: int = 0,
                        coil_pump_curve: Optional[PumpCurve] = None,
                        topology: Optional[SystemTopology] = None
                        ) -> DeadbandVentilationLaw:
        if coil_pump_curve is None:
            coil_pump_curve = PumpCurve(max_flow_lps=0.06)
        return DeadbandVentilationLaw(
            name, subspace_volume_m3=subspace_volume_m3,
            preferred_temp_c=preferred_temp_c,
            preferred_rh_percent=preferred_rh_percent,
            coil_pump_curve=coil_pump_curve)


register_controller(
    ControllerSpec(
        name="deadband",
        description=("hysteresis bang-bang thermostat baseline: relay "
                     "pumps/fans with a comfort-band deadband"),
        exchanges_state=False,
        params=(("band_k", TEMP_BAND_K),
                ("dew_on_k", DEW_ON_K),
                ("co2_band_ppm", CO2_BAND_PPM)),
    ),
    DeadbandPolicy)
