"""Decentralized consensus temperature control stack (``consensus``).

In the spirit of Zhang et al. (arXiv:1702.03308): instead of one board
averaging every zone's temperature centrally, each zone runs a local
agent holding a consensus estimate of the building mean temperature and
repeatedly averages it with its topology neighbors,

    x_i <- x_i + gain * mean_{j in N(i)} (x_j - x_i)
               + blend * (T_i - x_i),

so the estimates converge to (a weighted) building mean using only
neighbor-to-neighbor exchange.  The per-panel radiant law then steps
the paper's PID against the consensus estimates of its served zones
rather than the centrally-averaged room temperature.

The zone agents live on the per-zone ventilation laws (the V-2 boards
in network mode, the direct per-zone laws otherwise).  In network mode
each agent broadcasts its state as a
:data:`~repro.net.packet.DataType.CONSENSUS` frame after every control
step and reads its neighbors' states from the type-addressed bus — the
exchange rides the simulated 802.15.4 channel, so the extra frames,
collisions and staleness show up in the bake-off's network columns.
Ventilation actuation itself is untouched: consensus only replaces the
temperature aggregation feeding the radiant loop.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.control.policy import (
    ControllerSpec,
    ControlPolicy,
    register_controller,
)
from repro.control.radiant import (
    RadiantCommand,
    RadiantCoolingController,
    RadiantInputs,
)
from repro.control.ventilation import (
    VentilationCommand,
    VentilationController,
    VentilationInputs,
)
from repro.hydronics.pump import PumpCurve
from repro.scenarios.topology import SystemTopology

# Consensus step weights: ``GAIN`` pulls toward the neighbor mean,
# ``BLEND`` re-anchors on the local measurement so the agreed value
# tracks the building as it moves.  gain < 1 keeps the undirected
# averaging a contraction on any connected graph.
CONSENSUS_GAIN = 0.5
LOCAL_BLEND = 0.3


class ConsensusVentilationLaw(VentilationController):
    """Per-zone ventilation law doubling as the zone's consensus agent.

    Inherits the reference dew-point/CO2 ventilation behaviour
    unchanged; on top it maintains the consensus state ``x`` the
    radiant side consumes.  The board (or direct loop) feeds neighbor
    states in before the step and reads :meth:`shared_state` after.
    """

    def __init__(self, *args, zone: int = 0,
                 neighbors: Tuple[int, ...] = (),
                 consensus_gain: float = CONSENSUS_GAIN,
                 local_blend: float = LOCAL_BLEND, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.zone = zone
        self.neighbors = tuple(neighbors)
        self.consensus_gain = consensus_gain
        self.local_blend = local_blend
        self._x: Optional[float] = None
        self._neighbor_states: Dict[int, float] = {}

    def shared_state(self) -> Optional[float]:
        """The consensus estimate to broadcast (None before first step)."""
        return self._x

    def set_neighbor_states(self, states: Dict[int, float]) -> None:
        """Latest neighbor estimates heard on the channel (may be {})."""
        self._neighbor_states = dict(states)

    def step(self, inputs: VentilationInputs,
             dt: float) -> VentilationCommand:
        local = inputs.room_temp_c
        if self._x is None:
            self._x = local
        else:
            peers = [self._neighbor_states[j] for j in self.neighbors
                     if j in self._neighbor_states]
            if peers:
                mean_delta = (sum(peers) / len(peers)) - self._x
                self._x += self.consensus_gain * mean_delta
            self._x += self.local_blend * (local - self._x)
        return super().step(inputs, dt)


class ConsensusRadiantLaw(RadiantCoolingController):
    """Reference radiant PID fed by consensus zone estimates.

    The board injects the served zones' consensus states through
    :meth:`set_zone_estimates` before stepping; the PID then regulates
    against their mean instead of the centrally-averaged room
    temperature.  With no estimates yet heard the law degrades to the
    reference behaviour (the board's own room-temperature estimate).
    """

    def __init__(self, *args, zones: Tuple[int, ...] = (),
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.zones = tuple(zones)
        self._zone_estimates: Dict[int, float] = {}

    def set_zone_estimates(self, estimates: Dict[int, float]) -> None:
        """Consensus states of the served zones, keyed by zone id."""
        self._zone_estimates = dict(estimates)

    def step(self, inputs: RadiantInputs, dt: float) -> RadiantCommand:
        values = [self._zone_estimates[z] for z in self.zones
                  if z in self._zone_estimates]
        if values:
            inputs = inputs._replace(room_temp_c=sum(values) / len(values))
        return super().step(inputs, dt)


class ConsensusPolicy(ControlPolicy):
    """Build the neighbor-averaging stack from the registered spec."""

    def radiant_law(self, name: str, *, preferred_temp_c: float,
                    pump_curve: PumpCurve, panel: int = 0,
                    topology: Optional[SystemTopology] = None
                    ) -> ConsensusRadiantLaw:
        zones: Tuple[int, ...] = ()
        if topology is not None:
            zones = topology.panel_zones[panel]
        return ConsensusRadiantLaw(
            name, preferred_temp_c=preferred_temp_c, pump_curve=pump_curve,
            zones=zones)

    def ventilation_law(self, name: str, *, subspace_volume_m3: float,
                        preferred_temp_c: float,
                        preferred_rh_percent: float, zone: int = 0,
                        coil_pump_curve: Optional[PumpCurve] = None,
                        topology: Optional[SystemTopology] = None
                        ) -> ConsensusVentilationLaw:
        neighbors: Tuple[int, ...] = ()
        if topology is not None:
            neighbors = topology.neighbors(zone)
        kwargs = {}
        if coil_pump_curve is not None:
            kwargs["coil_pump_curve"] = coil_pump_curve
        return ConsensusVentilationLaw(
            name, subspace_volume_m3=subspace_volume_m3,
            preferred_temp_c=preferred_temp_c,
            preferred_rh_percent=preferred_rh_percent,
            zone=zone, neighbors=neighbors,
            consensus_gain=self.param("gain", CONSENSUS_GAIN),
            local_blend=self.param("blend", LOCAL_BLEND), **kwargs)


register_controller(
    ControllerSpec(
        name="consensus",
        description=("decentralized neighbor-averaging temperature "
                     "control: zone agents agree on the building mean "
                     "over the WSN (Zhang et al. style)"),
        exchanges_state=True,
        params=(("gain", CONSENSUS_GAIN), ("blend", LOCAL_BLEND)),
    ),
    ConsensusPolicy)
