"""Distributed ventilation module control logic (paper §III-C).

Each of the four subspaces runs an independent instance of this
controller (Control-V-1 computes the dew-point loop; Control-V-2 drives
the fans; Control-V-3 the CO2flap).  The logic:

1. T_dew^p from the occupant's preferred temperature and humidity;
2. room dew target T_dew^{r,t} = min{T_dew^p, T_supp};
3. supply-air dew target T_dew^{a,t} per the pulldown/hold rule;
4. a PID loop on the measured airbox-output dew point adjusts the coil
   water pump so the supply air hits T_dew^{a,t};
5. ventilation volume:  V_humd and V_CO2 are the air volumes needed to
   neutralise the humidity and CO2 surpluses; the fan flow is
   F_vent = max{V_humd, V_CO2} / T  with T = 60 s, matched to the fan
   speed lookup table;
6. the CO2flap opens whenever the fans run.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.airside.fan import lookup_fan_speed, FAN_SPEED_TABLE
from repro.control.condensation import room_dew_target, supply_dew_target
from repro.control.pid import PIDController, PIDGains
from repro.hydronics.pump import PumpCurve
from repro.physics.psychrometrics import (
    dew_point,
    humidity_ratio_from_dew_point,
)

# Horizon over which the module aims to neutralise the surpluses
# ("to promptly approach to the control targets in T seconds (e.g., 60
# seconds)" — paper §III-C).
CONTROL_HORIZON_S = 60.0


def air_volume_for_humidity(room_volume_m3: float,
                            current_w: float, target_w: float,
                            supply_w: float) -> float:
    """Air volume (m^3) of supply air needed to bring the room humidity
    ratio from ``current_w`` to ``target_w``.

    Derived from the well-mixed replacement balance: each m^3 of supply
    air displaces a m^3 of room air, shifting the inventory by
    (current - supply) per unit volume; the deficit to cover is
    (current - target) * room volume.  Zero when the room is already at
    or below target, or when the supply air cannot dry the room.
    """
    if room_volume_m3 <= 0:
        raise ValueError("room volume must be positive")
    surplus = current_w - target_w
    if surplus <= 0:
        return 0.0
    leverage = current_w - supply_w
    if leverage <= 1e-9:
        return 0.0  # supply air is as wet as the room: ventilating won't dry
    return room_volume_m3 * surplus / leverage


def air_volume_for_co2(room_volume_m3: float,
                       current_ppm: float, target_ppm: float,
                       outdoor_ppm: float) -> float:
    """Air volume (m^3) needed to dilute CO2 to ``target_ppm``.

    Same replacement balance as the humidity case, with outdoor air as
    the diluent.
    """
    if room_volume_m3 <= 0:
        raise ValueError("room volume must be positive")
    surplus = current_ppm - target_ppm
    if surplus <= 0:
        return 0.0
    leverage = current_ppm - outdoor_ppm
    if leverage <= 1e-9:
        return 0.0
    return room_volume_m3 * surplus / leverage


class VentilationInputs(NamedTuple):
    """Sensor values one control step consumes.

    Like the radiant records, a ``NamedTuple`` built once per zone per
    control step (DESIGN.md §6).
    """

    room_temp_c: float
    room_dew_point_c: float
    room_co2_ppm: float
    supply_water_temp_c: float     # T_supp of the radiant tank (18 degC)
    airbox_out_dew_point_c: float  # SHT75 at the airbox outlet
    outdoor_co2_ppm: float = 400.0


class VentilationCommand(NamedTuple):
    """Actuation produced by one control step."""

    coil_pump_voltage: float
    fan_speed_step: int
    fan_flow_demand_m3s: float
    flap_open: bool
    supply_dew_target_c: float
    room_dew_target_c: float


class VentilationController:
    """Per-subspace controller for one airbox + CO2flap pair."""

    def __init__(self, name: str, subspace_volume_m3: float,
                 preferred_temp_c: float = 25.0,
                 preferred_rh_percent: float = 65.0,
                 co2_target_ppm: float = 800.0,
                 gains: PIDGains = PIDGains(kp=0.01, ki=0.0005, kd=0.004),
                 coil_pump_curve: PumpCurve = PumpCurve(max_flow_lps=0.06),
                 min_fresh_air_m3s: float = 0.0012,
                 dew_deadband_k: float = 0.6) -> None:
        if subspace_volume_m3 <= 0:
            raise ValueError("subspace volume must be positive")
        self.name = name
        self.subspace_volume_m3 = subspace_volume_m3
        self.preferred_temp_c = preferred_temp_c
        self.preferred_rh_percent = preferred_rh_percent
        self.co2_target_ppm = co2_target_ppm
        self.coil_pump_curve = coil_pump_curve
        self.min_fresh_air_m3s = min_fresh_air_m3s
        self.dew_deadband_k = dew_deadband_k
        # PID regulates (target - measured) dew point around zero; a
        # too-wet outlet yields a positive error and more coil water.
        self._pid = PIDController(
            gains, output_limits=(0.0, coil_pump_curve.max_flow_lps),
            setpoint=0.0)

    @property
    def pid(self) -> PIDController:
        return self._pid

    def set_preferences(self, temp_c: float, rh_percent: float) -> None:
        """Occupant updates comfort preferences."""
        self.preferred_temp_c = temp_c
        self.preferred_rh_percent = rh_percent

    def preferred_dew_point(self) -> float:
        """T_dew^p from the occupant's (T_pref, H_pref) (paper §III-C)."""
        return dew_point(self.preferred_temp_c, self.preferred_rh_percent)

    def step(self, inputs: VentilationInputs, dt: float) -> VentilationCommand:
        """One control period: sensor inputs in, actuation out."""
        # (1)-(3): the dew-point target chain.
        room_target = room_dew_target(self.preferred_dew_point(),
                                      inputs.supply_water_temp_c)
        supply_target = supply_dew_target(room_target,
                                          inputs.room_dew_point_c)

        # (4): coil-water PID toward the supply-air dew target.
        dew_error_proxy = supply_target - inputs.airbox_out_dew_point_c
        coil_flow = self._pid.update(dew_error_proxy, dt)

        # (5): ventilation volume from the two surpluses.  A small dew
        # deadband keeps sensor noise at the equilibrium from demanding
        # full-volume air changes (the formula's leverage term shrinks
        # with the surplus, so any nonzero surplus otherwise asks for
        # roughly one air change per horizon).
        if inputs.room_dew_point_c - room_target > self.dew_deadband_k:
            current_w = humidity_ratio_from_dew_point(
                inputs.room_dew_point_c)
            target_w = humidity_ratio_from_dew_point(room_target)
            supply_w = humidity_ratio_from_dew_point(
                max(supply_target,
                    inputs.airbox_out_dew_point_c - 5.0))  # conservative
            v_humd = air_volume_for_humidity(
                self.subspace_volume_m3, current_w, target_w, supply_w)
        else:
            v_humd = 0.0
        v_co2 = air_volume_for_co2(
            self.subspace_volume_m3, inputs.room_co2_ppm,
            self.co2_target_ppm, inputs.outdoor_co2_ppm)
        # A trickle of fresh air is kept at all times for air quality;
        # the deployment's airboxes likewise never fully stop.
        flow_demand = max(v_humd, v_co2) / CONTROL_HORIZON_S
        flow_demand = max(flow_demand, self.min_fresh_air_m3s)
        flow_demand = min(flow_demand, FAN_SPEED_TABLE[-1][1])
        fan_step = lookup_fan_speed(flow_demand)

        # (6): flap tracks the fans.
        return VentilationCommand(
            self.coil_pump_curve.voltage_for(coil_flow), fan_step,
            flow_demand, fan_step > 0, supply_target, room_target)
