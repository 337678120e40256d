"""Wireless networking substrate and the paper's transmission algorithms.

* ``packet`` / ``medium`` / ``mac`` — an 802.15.4-style broadcast
  channel: 250 kbps airtime, CSMA/CA with random backoff, collision and
  loss modelling, a promiscuous sniffer.
* ``broadcast`` — type-addressed data dissemination: suppliers label
  messages with a data type and broadcast; consumers filter (paper
  §IV-A).
* ``adaptive`` — BT-ADPT: variance-triggered duty cycling of
  battery-powered senders (paper §IV-B).
* ``histogram`` — the constant-memory histogram approximation of the
  variance distribution and Algorithm 1's threshold selection.
* ``schedule`` — AC-device transmission schedule adaptation to
  alleviate channel contention.
* ``energy`` — TelosB energy ledger and battery-lifetime projection.
* ``topology`` / ``multihop`` — the paper's future-work extension:
  building-scale range-limited radio with type-based multicast.
"""

from repro.net.packet import DataType, Packet, frame_airtime_s
from repro.net.medium import BroadcastMedium, Sniffer
from repro.net.mac import CsmaMac, MacStats
from repro.net.broadcast import TypeBus
from repro.net.adaptive import AdaptiveTransmitter, AdaptivePolicy, SAMPLING_PERIODS
from repro.net.histogram import (
    VarianceHistogram,
    ExactClusterOracle,
    select_threshold,
    histogram_ram_bytes,
    histogram_cpu_seconds,
)
from repro.net.schedule import AcScheduleAdapter, FixedScheduleAdapter
from repro.net.topology import NodePlacement, RadioTopology, corridor_deployment
from repro.net.multihop import (
    FloodingRouter,
    MulticastRouter,
    MultihopMedium,
    build_multicast_trees,
)
from repro.net.energy import EnergyLedger, BatteryModel, TELOSB_PROFILE

__all__ = [
    "DataType",
    "Packet",
    "frame_airtime_s",
    "BroadcastMedium",
    "Sniffer",
    "CsmaMac",
    "MacStats",
    "TypeBus",
    "AdaptiveTransmitter",
    "AdaptivePolicy",
    "SAMPLING_PERIODS",
    "VarianceHistogram",
    "ExactClusterOracle",
    "select_threshold",
    "histogram_ram_bytes",
    "histogram_cpu_seconds",
    "AcScheduleAdapter",
    "FixedScheduleAdapter",
    "NodePlacement",
    "RadioTopology",
    "corridor_deployment",
    "FloodingRouter",
    "MulticastRouter",
    "MultihopMedium",
    "build_multicast_trees",
    "EnergyLedger",
    "BatteryModel",
    "TELOSB_PROFILE",
]
