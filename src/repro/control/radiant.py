"""Radiant cooling module control logic (paper §III-B).

For each ceiling panel the controller:

1. computes the ceiling dew point T_dew^c from the six temperature /
   humidity sensors beneath the panel;
2. sets the mixed-water temperature target T_mix^t = max{T_supp, T_dew^c}
   (direct tank supply when safe, recycle mixing when the dew point
   forces warmer water);
3. runs a PID loop on the room-vs-preferred temperature difference to
   produce the mixed-flow target F_mix^t;
4. solves the mixing equation for supply/recycle pump flows and converts
   them to the 0-5 V DAC commands Control-C-2 sends to the DC pumps.

The controller is *sensor-driven*: its inputs arrive as plain numbers
(already-averaged sensor readings), so it runs identically whether those
readings came straight from the physics or across the simulated 802.15.4
network.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.control.condensation import mix_temperature_target
from repro.control.pid import PIDController, PIDGains
from repro.hydronics.mixing import MixingJunction
from repro.hydronics.pump import PumpCurve


class RadiantCommand(NamedTuple):
    """Actuation produced by one control step.

    The control records are ``NamedTuple``s, built positionally on the
    hot paths: one per panel or zone per control step (DESIGN.md §6).
    """

    supply_voltage: float
    recycle_voltage: float
    mix_temp_target_c: float
    mix_flow_target_lps: float


class RadiantInputs(NamedTuple):
    """Sensor values one control step consumes."""

    room_temp_c: float          # averaged room temperature sensors
    ceiling_dew_point_c: float  # T_dew^c from the 6 under-panel sensors
    supply_temp_c: float        # tank water temperature T_supp
    return_temp_c: float        # panel return water temperature T_rcyc


class RadiantCoolingController:
    """Per-panel controller producing pump voltages from sensor inputs."""

    def __init__(self, name: str,
                 preferred_temp_c: float = 25.0,
                 gains: PIDGains = PIDGains(kp=0.05, ki=0.0008, kd=0.02),
                 max_flow_lps: float = 0.20,
                 pump_curve: PumpCurve = PumpCurve(),
                 dew_margin_k: float = 0.8) -> None:
        self.name = name
        self.preferred_temp_c = preferred_temp_c
        self.max_flow_lps = max_flow_lps
        self.pump_curve = pump_curve
        self.dew_margin_k = dew_margin_k
        # Extra margin the supervisor latches on while humidity sensing
        # is compromised (see repro.control.supervisor); 0 in healthy
        # operation so the fault-free trajectory is untouched.
        self.conservative_extra_margin_k = 0.0
        # The PID regulates delta = T_pref - T_room around zero; its
        # error is then T_room - T_pref, so a hot room drives the output
        # (the flow target) up.  See PIDController docs.
        self._pid = PIDController(gains, output_limits=(0.0, max_flow_lps),
                                  setpoint=0.0)

    @property
    def pid(self) -> PIDController:
        return self._pid

    def set_preferred_temp(self, temp_c: float) -> None:
        """Occupant changes the thermostat."""
        self.preferred_temp_c = temp_c

    def step(self, inputs: RadiantInputs, dt: float) -> RadiantCommand:
        """One control period: sensor inputs in, pump voltages out."""
        # (1)-(2): condensation-safe mixed-water temperature target.
        mix_temp = mix_temperature_target(
            inputs.supply_temp_c,
            inputs.ceiling_dew_point_c + self.dew_margin_k
            + self.conservative_extra_margin_k)

        # Safety interlock: when the room is so humid that even pure
        # recycle water sits below the required mixed temperature, no
        # achievable mixture is condensation-safe — hold the pumps off
        # and wait for the ventilation module to dry the air.  This is
        # the cross-module cooperation of paper §III-A: radiant cooling
        # cannot start until dehumidification has made it safe.
        achievable = max(inputs.supply_temp_c, inputs.return_temp_c)
        if mix_temp > achievable + 1e-9:
            self._pid.reset()
            return RadiantCommand(0.0, 0.0, mix_temp, 0.0)

        # (3): PID from temperature error to mixed-flow target.
        delta = self.preferred_temp_c - inputs.room_temp_c
        flow_target = self._pid.update(delta, dt)

        # (4): split the mixed flow between the two pumps.  The recycle
        # stream is drawn from the panel return; when the return water is
        # colder than the required mixture (rare transient), the solver
        # clamps to all-recycle and the guard margin does the rest.
        supply_flow, recycle_flow = MixingJunction.flows_for_target(
            flow_target, mix_temp,
            inputs.supply_temp_c, inputs.return_temp_c)
        return RadiantCommand(self.pump_curve.voltage_for(supply_flow),
                              self.pump_curve.voltage_for(recycle_flow),
                              mix_temp, flow_target)
