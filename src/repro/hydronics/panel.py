"""Radiant ceiling panels (paper §III-B).

Each of the two metal ceiling panels is a water-to-room heat exchanger.
We use the standard effectiveness-NTU model for a constant-wall-side
exchanger: with water mass flow m and conductance UA,

    effectiveness = 1 - exp(-UA / (m * cp))
    Q = effectiveness * m * cp * (T_room - T_water_in)

The panel surface temperature — the quantity the condensation constraint
guards (surface must stay above the local dew point) — is approximated
as the mean water temperature pulled toward the room by the surface film
resistance.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from repro.hydronics.water import WATER_CP, mass_flow


class PanelResult(NamedTuple):
    """Outcome of one panel heat-exchange step.

    A ``NamedTuple`` (cheap to build once per panel per tick; see
    DESIGN.md §6).
    """

    heat_w: float            # heat absorbed from the room (>= 0 when cooling)
    return_temp_c: float     # water temperature leaving the panel
    surface_temp_c: float    # panel surface temperature (condensation check)
    effectiveness: float


class RadiantPanel:
    """One ceiling panel fed by the mixing junction."""

    def __init__(self, name: str, ua_w_per_k: float = 110.0,
                 area_m2: float = 12.0,
                 surface_film_fraction: float = 0.35) -> None:
        if ua_w_per_k <= 0:
            raise ValueError(f"panel {name!r}: UA must be positive")
        if not (0 <= surface_film_fraction <= 1):
            raise ValueError(
                f"panel {name!r}: film fraction must be within [0, 1]")
        self.name = name
        self.ua_w_per_k = ua_w_per_k
        self.area_m2 = area_m2
        self.surface_film_fraction = surface_film_fraction
        self.heat_absorbed_j = 0.0

    def exchange(self, flow_lps: float, water_in_c: float,
                 room_temp_c: float) -> PanelResult:
        """Compute the heat exchange at the given water flow and states.

        With zero flow the panel equilibrates with the room: no heat
        moves and the surface floats at room temperature (so a stopped
        panel can never condense).
        """
        if flow_lps < 0:
            raise ValueError("flow cannot be negative")
        if flow_lps == 0:
            return PanelResult(0.0, water_in_c, room_temp_c, 0.0)
        m_cp = mass_flow(flow_lps) * WATER_CP
        effectiveness = 1.0 - math.exp(-self.ua_w_per_k / m_cp)
        heat_w = effectiveness * m_cp * (room_temp_c - water_in_c)
        return_temp = water_in_c + heat_w / m_cp
        mean_water = 0.5 * (water_in_c + return_temp)
        surface = (mean_water
                   + self.surface_film_fraction * (room_temp_c - mean_water))
        return PanelResult(heat_w, return_temp, surface, effectiveness)

    def integrate(self, result: PanelResult, dt: float) -> None:
        """Accumulate absorbed heat for the COP meters."""
        if dt < 0:
            raise ValueError("dt must be non-negative")
        if result.heat_w > 0:
            self.heat_absorbed_j += result.heat_w * dt
