"""TelosB mote abstraction.

Every device in BubbleZERO — sensor node or control board — computes and
communicates through a TelosB mote (paper §IV).  A mote owns a MAC
entity on the shared medium, a type-addressed bus for reception, and an
energy ledger; battery-powered motes pay the TELOSB profile for every
transmission, AC-powered motes are metered but unconstrained.
"""

from __future__ import annotations

import enum
from typing import Any, Optional

from repro.net.broadcast import TypeBus
from repro.net.energy import BatteryModel, EnergyLedger, TELOSB_PROFILE
from repro.net.mac import CsmaMac
from repro.net.medium import BroadcastMedium
from repro.net.packet import DataType, Packet
from repro.sim.engine import Simulator


class PowerSource(enum.Enum):
    """How a device is powered — the distinction driving paper §IV."""

    AC = "ac"
    BATTERY = "battery"


class Mote:
    """One TelosB node: MAC + type bus + energy ledger."""

    def __init__(self, sim: Simulator, medium: BroadcastMedium,
                 device_id: str, power: PowerSource,
                 battery: Optional[BatteryModel] = None) -> None:
        self.sim = sim
        self.device_id = device_id
        self.power = power
        self.energy = EnergyLedger(
            device_id, profile=TELOSB_PROFILE,
            battery=battery or BatteryModel(), start_time=sim.now)
        self.mac = CsmaMac(sim, medium, device_id,
                           on_transmit=self._on_transmit)
        self.bus = TypeBus(sim, medium, device_id)
        # Causal tracing: every broadcast is one sensing epoch, and
        # this mote is where its trace begins.
        self._trace = sim.obs.trace

    def _on_transmit(self, packet: Packet) -> None:
        if self.power is PowerSource.BATTERY:
            self.energy.charge_transmission()

    # ------------------------------------------------------------------
    def broadcast(self, data_type: DataType, value: Any, key: Any = None,
                  payload_bytes: int = 8, **extra) -> bool:
        """Broadcast one typed value to the channel.

        Returns False if the MAC queue rejected the frame.
        """
        payload = {"value": value, "key": key}
        if extra:
            payload.update(extra)
        packet = Packet(data_type=data_type, source=self.device_id,
                        created_at=self.sim.clock.now, payload=payload,
                        payload_bytes=payload_bytes)
        if self._trace.enabled:
            packet.trace_ctx = self._trace.begin(
                self.device_id, data_type, key, self.sim.clock.now)
        return self.mac.send(packet)

    def subscribe(self, data_type: DataType, handler=None) -> None:
        self.bus.subscribe(data_type, handler)

    # ------------------------------------------------------------------
    def finalize_energy(self, now: float) -> None:
        """Close the base-load accounting at the end of a run."""
        self.energy.accrue_base(now)

    def projected_lifetime_years(self, elapsed_s: float) -> float:
        """Battery-life projection for bt-devices."""
        if self.power is not PowerSource.BATTERY:
            raise RuntimeError(
                f"{self.device_id!r} is AC powered; lifetime is unbounded")
        return self.energy.projected_lifetime_years(elapsed_s)
