"""Carnot-fraction chiller model.

The paper's headline result — 18 degC chilled water buys a COP of 4.52
against 2.8 for a conventional 8 degC system — is a direct consequence
of the Carnot bound COP_ideal = T_c / (T_h - T_c).  We model each
chiller as a fixed fraction (the "second-law efficiency", eta_II) of
that bound plus a parasitic power floor for controls and refrigerant
pumping.  The eta_II values are calibrated per DESIGN.md §4 so that the
paper's measured operating points land on the paper's measured COPs; the
*ordering* of the machines is pure thermodynamics and holds for any
fraction.

Cold weather has a defined low-lift regime: the lift (reject minus
cold setpoint) is floored at :data:`MIN_LIFT_K`, so a reject
temperature at or below the setpoint gives a finite, bounded COP
instead of a Carnot singularity.  No committed weather reaches it.
"""

from __future__ import annotations

from repro.physics.exergy import carnot_cop_celsius

#: Smallest lift the chiller model uses, in K.  A real machine keeps a
#: minimum condensing pressure; without a floor, Carnot's COP diverges
#: as the reject temperature nears the cold setpoint and is undefined
#: past it.
MIN_LIFT_K = 5.0


class CarnotFractionChiller:
    """A vapour-compression chiller at a fixed fraction of Carnot."""

    def __init__(self, name: str, cold_setpoint_c: float,
                 second_law_fraction: float, parasitic_w: float = 8.0,
                 capacity_w: float = 2500.0) -> None:
        if not (0 < second_law_fraction < 1):
            raise ValueError(
                f"chiller {name!r}: second-law fraction must be in (0, 1)")
        if capacity_w <= 0:
            raise ValueError(f"chiller {name!r}: capacity must be positive")
        self.name = name
        self.cold_setpoint_c = cold_setpoint_c
        self.second_law_fraction = second_law_fraction
        self.parasitic_w = parasitic_w
        self.capacity_w = capacity_w
        self.energy_j = 0.0
        self.heat_moved_j = 0.0

    def cop_at(self, reject_temp_c: float) -> float:
        """Thermodynamic COP (before parasitics) when rejecting heat at
        ``reject_temp_c`` — typically the outdoor temperature plus a
        condenser approach.  The lift is floored at :data:`MIN_LIFT_K`."""
        reject_temp_c = max(reject_temp_c,
                            self.cold_setpoint_c + MIN_LIFT_K)
        ideal = carnot_cop_celsius(self.cold_setpoint_c, reject_temp_c)
        return self.second_law_fraction * ideal

    def electrical_power_w(self, cooling_load_w: float,
                           reject_temp_c: float) -> float:
        """Electrical draw to move ``cooling_load_w`` of heat.

        Load is clamped to the machine's capacity; a zero load still
        draws the parasitic floor while the machine is enabled.
        """
        if cooling_load_w < 0:
            raise ValueError("cooling load cannot be negative")
        load = min(cooling_load_w, self.capacity_w)
        if load == 0:
            return self.parasitic_w
        return self.parasitic_w + load / self.cop_at(reject_temp_c)

    def integrate(self, dt: float, cooling_load_w: float,
                  reject_temp_c: float) -> float:
        """Run for ``dt`` seconds at the given load.

        Returns the electrical power drawn, and accumulates both the
        energy consumed and the heat moved, which the COP analysis reads
        back (paper §V-B installs power meters on exactly these
        machines).
        """
        power = self.electrical_power_w(cooling_load_w, reject_temp_c)
        self.energy_j += power * dt
        self.heat_moved_j += min(cooling_load_w, self.capacity_w) * dt
        return power

    def measured_cop(self) -> float:
        """Lifetime COP from the accumulated meters (heat / electricity)."""
        if self.energy_j <= 0:
            raise RuntimeError(f"chiller {self.name!r} has not run yet")
        return self.heat_moved_j / self.energy_j
