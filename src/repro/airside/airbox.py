"""The airbox: one subspace's ventilation/dehumidification unit.

An airbox is "four DC fans (inhale air), one damper (prevent the air
leakage when fans are not working), one filter (remove dusts), and 3
copper pipes (dehumidify) circulated with cold water" (paper §III-C).
It inhales outdoor air, dries and cools it across the coil, and blows
the conditioned air into its subspace.  A dedicated DC pump circulates
8 degC tank water through the coil; the controller sets that pump's
voltage (via PID) and the fan speed step.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from repro.airside.coil import CoilResult, DehumidifierCoil
from repro.airside.damper import BackdraftDamper
from repro.airside.fan import DCFanBank
from repro.hydronics.pump import DCPump, PumpCurve
from repro.physics.weather import OutdoorState


class AirboxOutput(NamedTuple):
    """Conditioned air delivered to the subspace for one step.

    A ``NamedTuple`` rather than a frozen dataclass: one is built per
    zone per physics tick, and a tuple builds ~3x faster (DESIGN.md §6).
    """

    flow_m3s: float
    supply_temp_c: float
    supply_humidity_ratio: float
    supply_dew_point_c: float
    coil_heat_w: float          # load handed to the 8 degC tank
    coil_water_flow_lps: float
    fan_power_w: float


class Airbox:
    """Fan bank + damper + dehumidifier coil + coil pump, assembled."""

    # Fan motor heat and duct gains warm the supply stream slightly
    # between the coil face and the diffuser.
    SUPPLY_REHEAT_K = 2.5

    # Water-side time constant: the copper array holds chilled water, so
    # its effective cooling follows pump commands with a first-order lag
    # rather than instantaneously.  Without this the dew-point loop has
    # zero plant inertia and the real controller gains would limit-cycle.
    COIL_FLOW_TAU_S = 45.0

    def __init__(self, name: str, coil: DehumidifierCoil = None,
                 fans: DCFanBank = None, damper: BackdraftDamper = None,
                 coil_pump: DCPump = None) -> None:
        self.name = name
        self.coil = coil or DehumidifierCoil(f"{name}/coil")
        self.fans = fans or DCFanBank(f"{name}/fans")
        self.damper = damper or BackdraftDamper(f"{name}/damper")
        self.coil_pump = coil_pump or DCPump(
            f"{name}/coil-pump",
            curve=PumpCurve(max_flow_lps=self.coil.max_water_flow_lps),
            rated_power_w=6.0)
        self._coil_flow_effective_lps = 0.0
        # (dt, alpha) of the last lag-filter evaluation; dt is the fixed
        # physics tick in practice, so the exp() is computed once.
        self._alpha_dt = -1.0
        self._alpha = 0.0

    # -- actuation interface used by Control-V boards -------------------
    def set_fan_flow_demand(self, flow_m3s: float) -> int:
        """Drive the fans at the table step covering ``flow_m3s``."""
        return self.fans.set_flow_demand(flow_m3s)

    def set_coil_pump_voltage(self, voltage: float) -> None:
        self.coil_pump.set_voltage(voltage)

    @property
    def coil_water_flow_lps(self) -> float:
        """Effective (lagged) water flow through the copper array."""
        return self._coil_flow_effective_lps

    # -- physics step ----------------------------------------------------
    def process(self, outdoor: OutdoorState, dt: float) -> AirboxOutput:
        """Condition one step's worth of outdoor air.

        Returns the supply-air state for the room model and accumulates
        the coil and fan energy meters.
        """
        if dt < 0:
            raise ValueError("dt must be non-negative")
        fan_flow = self.fans.flow_m3s
        flow = self.damper.effective_flow(fan_flow)
        # First-order lag of the coil's effective water flow.
        if dt != self._alpha_dt:
            self._alpha = 1.0 - (0.0 if dt == 0 else
                                 math.exp(-dt / self.COIL_FLOW_TAU_S))
            self._alpha_dt = dt
        alpha = self._alpha
        self._coil_flow_effective_lps += alpha * (
            self.coil_pump.flow_lps - self._coil_flow_effective_lps)
        result: CoilResult = self.coil.process(
            flow, outdoor.temp_c, outdoor.humidity_ratio,
            self._coil_flow_effective_lps)
        supply_temp = result.out_temp_c
        if flow > 0:
            supply_temp += self.SUPPLY_REHEAT_K
        self.coil.integrate(result, dt)
        self.fans.integrate(dt)
        self.coil_pump.integrate(dt)
        return AirboxOutput(flow, supply_temp, result.out_humidity_ratio,
                            result.out_dew_point_c, result.heat_extracted_w,
                            self._coil_flow_effective_lps,
                            self.fans.power_w)
