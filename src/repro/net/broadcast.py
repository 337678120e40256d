"""Type-addressed data dissemination (paper §IV-A).

Suppliers broadcast; consumers subscribe to data *types* and filter
everything else out.  ``TypeBus`` is the per-device middleware sitting
between the MAC/medium and the application: it owns the device's
receive handler, dispatches matching packets to subscribers, and tracks
per-type freshness so controllers can detect stale inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.medium import BroadcastMedium
from repro.net.packet import DataType, Packet
from repro.sim.engine import Simulator

Subscriber = Callable[[Packet, str], None]


@dataclass(slots=True)
class CachedValue:
    """Latest value seen for a (type, key) pair."""

    value: Any
    received_at: float
    source: str


class TypeBus:
    """One device's subscription endpoint on the broadcast medium."""

    def __init__(self, sim: Simulator, medium: BroadcastMedium,
                 device_id: str) -> None:
        self.sim = sim
        self.device_id = device_id
        self._subscribers: Dict[DataType, List[Subscriber]] = {}
        self._cache: Dict[Tuple[DataType, Any], CachedValue] = {}
        self.packets_received = 0
        self.packets_filtered = 0
        # Registering the bus itself lets the medium inline the type
        # filter and skip a Python call per uninterested receiver.
        self._medium = medium
        # Causal-trace collector; only consulted for frames carrying a
        # trace_ctx, so untraced delivery pays one attribute test.
        self._trace = sim.obs.trace
        medium.attach_receiver(device_id, self._on_receive, bus=self)

    # ------------------------------------------------------------------
    def subscribe(self, data_type: DataType,
                  handler: Optional[Subscriber] = None) -> None:
        """Express interest in ``data_type``.

        Packets of subscribed types update the freshness cache and are
        handed to ``handler`` when given; all other packets are filtered
        out, exactly as the paper's consumers "filter out messages with
        undesired types".
        """
        handlers = self._subscribers.setdefault(data_type, [])
        if handler is not None:
            handlers.append(handler)
        # The medium precomputes per-(sender, type) delivery plans from
        # the subscription tables; a new subscription stales them.
        self._medium.invalidate_delivery_plans()

    def _on_receive(self, packet: Packet, sender: str) -> None:
        if packet.data_type not in self._subscribers:
            self.packets_filtered += 1
            return
        self.receive_subscribed(packet, sender, self.sim.clock.now)

    def receive_subscribed(self, packet: Packet, sender: str,
                           now: float) -> None:
        """Deliver a packet already known to match a subscription.

        The medium calls this directly after applying the type filter
        inline (see ``BroadcastMedium._complete``; keep the two in sync).
        """
        self.packets_received += 1
        payload = packet.payload
        data_type = packet.data_type
        cache_key = (data_type, payload.get("key"))
        if packet.trace_ctx is not None:
            self._trace.ingest(packet.trace_ctx, self.device_id,
                               cache_key, now)
        entry = self._cache.get(cache_key)
        if entry is None:
            self._cache[cache_key] = CachedValue(
                value=payload.get("value"), received_at=now, source=sender)
        else:
            # Recycle the slot: one reception per frame per subscriber
            # makes this the busiest allocation site of network runs.
            entry.value = payload.get("value")
            entry.received_at = now
            entry.source = sender
        handlers = self._subscribers[data_type]
        if handlers:
            for handler in handlers:
                handler(packet, sender)

    # ------------------------------------------------------------------
    def latest(self, data_type: DataType, key: Any = None) -> Optional[CachedValue]:
        """Most recent cached value for ``(data_type, key)``, or None."""
        return self._cache.get((data_type, key))

    def latest_value(self, data_type: DataType, key: Any = None,
                     default: Optional[float] = None) -> Optional[float]:
        cached = self.latest(data_type, key)
        if cached is None:
            return default
        return cached.value

    def age_of(self, data_type: DataType, key: Any = None) -> Optional[float]:
        """Seconds since the last packet of this type/key, or None."""
        cached = self.latest(data_type, key)
        if cached is None:
            return None
        return self.sim.clock.now - cached.received_at

    def mean_of(self, data_type: DataType, keys: List[Any],
                default: Optional[float] = None) -> Optional[float]:
        """Average of the cached values for ``keys`` that are present.

        Controllers use this to average "a set of sensors deployed in
        the room" (paper §III-B) without requiring every sensor to have
        reported yet.
        """
        values = [self._cache[(data_type, key)].value
                  for key in keys if (data_type, key) in self._cache]
        if not values:
            return default
        return sum(values) / len(values)

    # ------------------------------------------------------------------
    # Staleness bookkeeping (supplier-loss detection)
    # ------------------------------------------------------------------
    def fresh_values(self, data_type: DataType, keys: List[Any],
                     max_age_s: float) -> List[float]:
        """Cached values for ``keys`` no older than ``max_age_s``.

        The consumer-side view of supplier health: a dead or jammed
        supplier simply stops appearing here, and the caller's average
        narrows to the survivors instead of freezing on stale data.
        """
        now = self.sim.clock.now
        values: List[float] = []
        for key in keys:
            entry = self._cache.get((data_type, key))
            if entry is not None and now - entry.received_at <= max_age_s:
                values.append(entry.value)
        return values

    def oldest_age(self, data_type: DataType,
                   keys: List[Any]) -> Optional[float]:
        """Age of the *stalest* cached entry among ``keys``.

        None until every key has reported at least once — early in a
        run "never heard from" is indistinguishable from "dead", and
        callers must not diagnose supplier loss before first contact.
        """
        now = self.sim.clock.now
        ages: List[float] = []
        for key in keys:
            entry = self._cache.get((data_type, key))
            if entry is None:
                return None
            ages.append(now - entry.received_at)
        return max(ages)
