"""Occupant preferences and cross-module coordination.

The two modules are deliberately decoupled (that is the paper's point),
but they share three pieces of information: the occupant's preferences
(T_pref, H_pref), the radiant tank's supply temperature T_supp (the
ventilation module needs it for the room dew-point target), and the
CO2 comfort ceiling.  The :class:`Supervisor` owns those shared values
and fans preference changes out to the per-panel and per-subspace
controllers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.control.radiant import RadiantCoolingController
from repro.control.ventilation import VentilationController
from repro.obs.events import CONSERVATIVE_LATCHED, CONSERVATIVE_RELEASED
from repro.physics.psychrometrics import dew_point

# Conservative-mode latch: extra dew-point margin applied to the
# radiant loop while humidity sensing is compromised, and how long
# sensing must stay healthy before the latch releases.  The margin
# biases toward condensation safety (warmer panels, less cooling) —
# the correct failure direction for a chilled ceiling.
CONSERVATIVE_EXTRA_MARGIN_K = 1.5
CONSERVATIVE_HOLD_S = 300.0


@dataclass
class OccupantPreferences:
    """What the occupant dialled in on the wall panel."""

    temp_c: float = 25.0
    rh_percent: float = 65.0
    co2_ppm: float = 800.0

    def __post_init__(self) -> None:
        if not (16.0 <= self.temp_c <= 32.0):
            raise ValueError(
                f"preferred temperature {self.temp_c} outside sane range")
        if not (20.0 <= self.rh_percent <= 90.0):
            raise ValueError(
                f"preferred humidity {self.rh_percent} outside sane range")
        if self.co2_ppm < 400.0:
            raise ValueError("CO2 target cannot be below outdoor levels")

    @property
    def dew_point_c(self) -> float:
        """T_dew^p implied by the preferences."""
        return dew_point(self.temp_c, self.rh_percent)


class Supervisor:
    """Distributes shared targets to the module controllers."""

    def __init__(self, preferences: OccupantPreferences = None) -> None:
        self.preferences = preferences or OccupantPreferences()
        self._radiant: List[RadiantCoolingController] = []
        self._ventilation: List[VentilationController] = []
        self.conservative_mode = False
        self.conservative_entries = 0
        self.conservative_mode_s = 0.0
        self._conservative_since: Optional[float] = None
        self._healthy_since: Optional[float] = None
        # Observability context; the system wires it after construction
        # so standalone Supervisors (unit tests) keep working untouched.
        self.obs = None

    def register_radiant(self, controller: RadiantCoolingController) -> None:
        self._radiant.append(controller)
        controller.set_preferred_temp(self.preferences.temp_c)

    def register_ventilation(self, controller: VentilationController) -> None:
        self._ventilation.append(controller)
        controller.set_preferences(self.preferences.temp_c,
                                   self.preferences.rh_percent)
        controller.co2_target_ppm = self.preferences.co2_ppm

    def apply_preferences(self, preferences: OccupantPreferences) -> None:
        """Occupant changed the targets: push them to every controller."""
        self.preferences = preferences
        for controller in self._radiant:
            controller.set_preferred_temp(preferences.temp_c)
        for controller in self._ventilation:
            controller.set_preferences(preferences.temp_c,
                                       preferences.rh_percent)
            controller.co2_target_ppm = preferences.co2_ppm

    # ------------------------------------------------------------------
    # Conservative-mode latch (graceful degradation, paper §II)
    # ------------------------------------------------------------------
    def note_humidity_sensing(self, compromised: bool, now: float) -> None:
        """Health report from a humidity consumer (Control-C-2).

        Compromised sensing latches conservative mode immediately: every
        radiant controller gains :data:`CONSERVATIVE_EXTRA_MARGIN_K` of
        dew-point margin.  The latch only releases after sensing has
        stayed healthy for :data:`CONSERVATIVE_HOLD_S` — a dead node
        flapping at the staleness boundary must not chatter the margin.
        """
        if compromised:
            self._healthy_since = None
            if not self.conservative_mode:
                self.conservative_mode = True
                self.conservative_entries += 1
                self._conservative_since = now
                for controller in self._radiant:
                    controller.conservative_extra_margin_k = (
                        CONSERVATIVE_EXTRA_MARGIN_K)
                if self.obs is not None and self.obs.enabled:
                    self.obs.events.emit(CONSERVATIVE_LATCHED, now)
            return
        if not self.conservative_mode:
            return
        if self._healthy_since is None:
            self._healthy_since = now
        elif now - self._healthy_since >= CONSERVATIVE_HOLD_S:
            self.conservative_mode = False
            self._healthy_since = None
            held_s = 0.0
            if self._conservative_since is not None:
                held_s = now - self._conservative_since
                self.conservative_mode_s += held_s
                self._conservative_since = None
            for controller in self._radiant:
                controller.conservative_extra_margin_k = 0.0
            if self.obs is not None and self.obs.enabled:
                self.obs.events.emit(CONSERVATIVE_RELEASED, now,
                                     held_s=held_s)

    def conservative_seconds(self, now: float) -> float:
        """Total time spent latched conservative, up to ``now``."""
        total = self.conservative_mode_s
        if self._conservative_since is not None:
            total += now - self._conservative_since
        return total

    @property
    def radiant_controllers(self) -> List[RadiantCoolingController]:
        return list(self._radiant)

    @property
    def ventilation_controllers(self) -> List[VentilationController]:
        return list(self._ventilation)
