"""The shared broadcast radio channel.

BubbleZERO's space is small relative to TelosB range ("TelosB motes can
reliably communicate up to 50 m in the indoor environment" — paper
§IV-A), so the medium is a single-cell broadcast domain: every
transmission is heard by every device.  Two transmissions that overlap
in time collide and are lost at all receivers; otherwise delivery
succeeds unless an independent per-reception noise loss strikes.

A :class:`Sniffer` registered on the medium sees every frame and its
fate — the simulation counterpart of the paper's "TelosB based sniffer
nodes [that] collect all network packets".

Delivery is the hottest loop of network-bound runs, so the medium
vectorises the per-receiver loss draws (one ``uniform(size=n)`` call per
frame, consuming the ``medium/loss`` stream in exactly the same order as
the former one-draw-per-receiver loop) and, for receivers that are
:class:`~repro.net.broadcast.TypeBus` endpoints, inlines the bus's
type-filter fast path to skip a Python call per uninterested receiver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.packet import Packet
from repro.obs.events import COLLISION_BURST
from repro.sim.engine import Simulator, PRIORITY_NETWORK


@dataclass(slots=True, eq=False)
class Transmission:
    """One frame in flight.

    Identity equality (``eq=False``): ``_active.remove(tx)`` runs once
    per frame, and a generated ``__eq__`` would deep-compare packets
    (including payload dicts) on every scan step.
    """

    packet: Packet
    sender: str
    start: float
    end: float
    collided: bool = False
    # How many receivers heard the frame; set when its airtime ends.
    receivers_reached: int = 0


# The sniffer logs each finished ``Transmission`` itself (nothing
# mutates one after its airtime has ended); the old record name stays
# for callers that import it.
SnifferRecord = Transmission


class Sniffer:
    """Promiscuous logger of everything on the channel.

    ``collision_count`` and ``frames_of`` are answered from running
    counters and a per-type index maintained in :meth:`log` — both
    used to re-scan the full frame list on every call, which made each
    per-report query O(total frames) on multi-hour runs.
    """

    def __init__(self) -> None:
        self.records: List[Transmission] = []
        self._collisions = 0
        self._by_type: Dict[object, List[Transmission]] = {}

    def log(self, record: Transmission) -> None:
        self.records.append(record)
        if record.collided:
            self._collisions += 1
        self._by_type.setdefault(record.packet.data_type,
                                 []).append(record)

    def frames_of(self, data_type) -> List[Transmission]:
        """Frames carrying ``data_type``, in arrival order (a copy)."""
        return list(self._by_type.get(data_type, ()))

    @property
    def collision_count(self) -> int:
        return self._collisions

    @property
    def frame_count(self) -> int:
        return len(self.records)


class ChannelActivityLog:
    """Shared record of channel occupancy, consumed pull-style.

    The AC schedule adapters used to be push-subscribed to every
    transmission (one Python call per adapter per frame); instead the
    medium appends ``(start, airtime)`` once per frame and each adapter
    drains the entries it has not yet seen when it actually needs its
    busy profile (at adaptation time).  Entries every cursor has passed
    are trimmed so the log stays bounded.
    """

    __slots__ = ("_starts", "_durations", "_base", "_cursors")

    _TRIM_THRESHOLD = 4096

    def __init__(self) -> None:
        # Parallel flat lists rather than a list of pairs: consumers
        # feed the slices straight into numpy, and ``asarray`` on a flat
        # float list is far cheaper than on a list of tuples.
        self._starts: List[float] = []
        self._durations: List[float] = []
        self._base = 0  # absolute index of _starts[0]
        self._cursors: Dict[int, int] = {}

    def __bool__(self) -> bool:
        return bool(self._cursors)

    def append(self, start: float, duration: float) -> None:
        self._starts.append(start)
        self._durations.append(duration)

    def register(self, owner: object) -> None:
        """Start a cursor for ``owner`` at the current end of the log."""
        self._cursors[id(owner)] = self._base + len(self._starts)

    def drain(self, owner: object) -> Tuple[List[float], List[float]]:
        """Entries appended since ``owner`` last drained, oldest first.

        Returns parallel ``(starts, durations)`` lists.
        """
        cursor = self._cursors[id(owner)]
        end = self._base + len(self._starts)
        lo = cursor - self._base
        pending = (self._starts[lo:], self._durations[lo:])
        self._cursors[id(owner)] = end
        lag = min(self._cursors.values()) - self._base
        if lag > self._TRIM_THRESHOLD:
            del self._starts[:lag]
            del self._durations[:lag]
            self._base += lag
        return pending


class BroadcastMedium:
    """Single-cell broadcast channel with collision semantics."""

    def __init__(self, sim: Simulator, loss_probability: float = 0.02) -> None:
        if not (0 <= loss_probability < 1):
            raise ValueError("loss probability must be in [0, 1)")
        self.sim = sim
        self.loss_probability = loss_probability
        self._active: List[Transmission] = []
        self._receivers: Dict[str, Callable[[Packet, str], None]] = {}
        # Flat snapshot of (device_id, handler, bus) for the delivery
        # loop; rebuilt lazily after attach/detach.  ``bus`` is the
        # receiver's TypeBus when it has one, enabling the inlined
        # type-filter fast path in ``_complete``.
        self._entries: Optional[List[Tuple[str, Callable, object]]] = None
        # Per-sender views of ``_entries`` with the sender itself
        # removed, so the delivery loop needs no string compare per
        # receiver.  Keyed by sender id, built lazily, invalidated with
        # ``_entries``.
        self._entries_by_sender: Dict[str, List[Tuple[str, Callable,
                                                      object]]] = {}
        # Delivery plans keyed by (sender, data_type): the sender view
        # pre-split into type-subscribed receivers and filter-only
        # buses, so the per-frame loop does no subscription lookups.
        # Invalidated on attach/detach and on any new subscription
        # (TypeBus.subscribe calls ``invalidate_delivery_plans``).
        self._delivery_plans: Dict[Tuple[str, object], tuple] = {}
        self._buses: Dict[str, object] = {}
        self._loss_rng = None
        # Prefetched loss draws: ``random(N)`` consumes the stream as the
        # concatenation of smaller draws (verified by
        # tests/test_perf_equivalence), and ``medium/loss`` has no other
        # consumer, so slicing per-frame flags out of a block keeps the
        # sequence identical while amortising the per-call RNG overhead
        # over ~200 frames.  ``_loss_floats`` keeps the raw uniforms so a
        # mid-run change of ``loss_probability`` can re-threshold the
        # unconsumed tail without redrawing.
        self._loss_floats = None
        self._loss_bools: List[bool] = []
        self._loss_idx = 0
        self._loss_p: Optional[float] = None
        self._sniffers: List[Sniffer] = []
        self._activity_listeners: List[Callable[[float, float], None]] = []
        self.activity_log = ChannelActivityLog()
        self.total_transmissions = 0
        self.total_collisions = 0
        # Collision-burst tracking (observability).  The obs context is
        # cached once — the Simulator owns it from construction — and the
        # accumulators stay zero when disabled, so the clean delivery
        # path only ever tests an int.
        self._obs = sim.obs
        self._burst_frames = 0
        self._burst_start = 0.0
        self._burst_end = 0.0

    # ------------------------------------------------------------------
    def attach_receiver(self, device_id: str,
                        handler: Callable[[Packet, str], None],
                        bus: object = None) -> None:
        """Register ``handler(packet, sender)`` to hear the channel.

        ``bus`` is an optional :class:`~repro.net.broadcast.TypeBus`
        owning the handler; when given, the medium dispatches through
        the bus's type filter directly instead of calling the handler
        for every frame.
        """
        if device_id in self._receivers:
            raise ValueError(f"device {device_id!r} already attached")
        self._receivers[device_id] = handler
        if bus is not None:
            self._buses[device_id] = bus
        self._entries = None
        self._entries_by_sender.clear()
        self._delivery_plans.clear()

    def detach_receiver(self, device_id: str) -> None:
        self._receivers.pop(device_id, None)
        self._buses.pop(device_id, None)
        self._entries = None
        self._entries_by_sender.clear()
        self._delivery_plans.clear()

    def invalidate_delivery_plans(self) -> None:
        """Drop cached per-(sender, type) plans after a subscription
        change on any attached bus."""
        self._delivery_plans.clear()

    def attach_sniffer(self, sniffer: Sniffer) -> None:
        self._sniffers.append(sniffer)

    def add_activity_listener(self,
                              listener: Callable[[float, float], None]) -> None:
        """Register ``listener(start_time, airtime)`` called on every
        transmission — the hook the AC schedule adapters use to build
        their channel-busy profiles from their always-on radios."""
        self._activity_listeners.append(listener)

    # ------------------------------------------------------------------
    def is_busy(self) -> bool:
        """Clear-channel assessment at the current instant."""
        now = self.sim.clock.now
        for tx in self._active:
            if tx.start <= now < tx.end:
                return True
        return False

    def transmit(self, packet: Packet, sender: str) -> Transmission:
        """Put ``packet`` on the air starting now.

        The MAC is responsible for CCA; the medium faithfully collides
        anything that overlaps (e.g. two devices whose CCA passed at the
        same instant).
        """
        now = self.sim.clock.now
        airtime = packet.airtime_s()
        tx = Transmission(packet=packet, sender=sender, start=now,
                          end=now + airtime)
        for other in self._active:
            if other.end > now:  # any still-active frame overlaps ours
                other.collided = True
                tx.collided = True
        self._active.append(tx)
        self.total_transmissions += 1
        if self.activity_log:
            self.activity_log.append(now, airtime)
        if self._activity_listeners:
            for listener in self._activity_listeners:
                listener(now, airtime)
        # Direct fire-and-forget push (``tx.end >= now`` by construction,
        # so ``post_at``'s validation cannot fire here).
        self.sim.queue.push_fire(tx.end, PRIORITY_NETWORK,
                                 partial(self._complete, tx), "rx-complete")
        return tx

    def _complete(self, tx: Transmission) -> None:
        self._active.remove(tx)
        reached = 0
        if tx.collided:
            self.total_collisions += 1
            if self._obs.enabled:
                if not self._burst_frames:
                    self._burst_start = tx.start
                self._burst_frames += 1
                self._burst_end = tx.end
        else:
            if self._burst_frames:
                self._flush_burst()
            sender = tx.sender
            packet = tx.packet
            plan_key = (sender, packet.data_type)
            plan = self._delivery_plans.get(plan_key)
            if plan is None:
                plan = self._build_plan(plan_key)
            n_receivers, interested, filter_only = plan
            if n_receivers:
                # Slice this frame's flags out of the prefetched block.
                # Receivers keep their registration-order index into the
                # draw block, so draw i belongs to receiver i exactly as
                # in the original one-scalar-draw-per-receiver loop.
                i0 = self._loss_idx
                i1 = i0 + n_receivers
                if (i1 > len(self._loss_bools)
                        or self.loss_probability != self._loss_p):
                    self._refill_loss(n_receivers)
                    i0 = 0
                    i1 = n_receivers
                self._loss_idx = i1
                lost_flags = self._loss_bools[i0:i1]
                now = self.sim.clock.now
                if True not in lost_flags:
                    # Most frames lose nothing (p ~2% per receiver), so
                    # skip the per-receiver flag checks entirely.
                    reached = n_receivers
                    for i, handler, bus in interested:
                        if bus is None:
                            handler(packet, sender)
                        else:
                            bus.receive_subscribed(packet, sender, now)
                    for i, bus in filter_only:
                        bus.packets_filtered += 1
                else:
                    for i, handler, bus in interested:
                        if lost_flags[i]:
                            continue
                        reached += 1
                        if bus is None:
                            handler(packet, sender)
                        else:
                            bus.receive_subscribed(packet, sender, now)
                    for i, bus in filter_only:
                        if not lost_flags[i]:
                            reached += 1
                            bus.packets_filtered += 1
        if tx.packet.trace_ctx is not None:
            # One hook covers the whole airtime: tx carries its start,
            # and collided/reached are only known here anyway.
            self._obs.trace.air(tx.packet.trace_ctx, tx.sender,
                                tx.start, self.sim.clock.now,
                                1 if tx.collided else 0, reached)
        if self._sniffers:
            tx.receivers_reached = reached
            for sniffer in self._sniffers:
                sniffer.log(tx)

    # Minimum run of consecutively collided frames that counts as a
    # "burst" worth an event record; isolated collisions are routine
    # CSMA behaviour and would drown the log.
    BURST_MIN_FRAMES = 3

    def _flush_burst(self) -> None:
        """Close the current collision run; emit if it was a burst."""
        if self._burst_frames >= self.BURST_MIN_FRAMES:
            self._obs.events.emit(COLLISION_BURST, self._burst_end,
                                  frames=self._burst_frames,
                                  start=self._burst_start,
                                  end=self._burst_end)
            self._obs.metrics.counter("net.collision_bursts").inc()
        self._burst_frames = 0

    def flush_collision_burst(self) -> None:
        """End-of-run hook: report a burst still open at the horizon."""
        if self._burst_frames:
            self._flush_burst()

    def _sender_entries(self, sender: str) -> List[Tuple[str, Callable,
                                                         object]]:
        """Build and cache the delivery list for frames from ``sender``."""
        entries = self._entries
        if entries is None:
            buses = self._buses
            entries = [(device_id, handler, buses.get(device_id))
                       for device_id, handler in self._receivers.items()]
            self._entries = entries
        without_sender = [entry for entry in entries if entry[0] != sender]
        self._entries_by_sender[sender] = without_sender
        return without_sender

    _LOSS_BLOCK = 4096

    def _refill_loss(self, n: int) -> None:
        """Extend the prefetched loss block so ≥ ``n`` flags are ready.

        The unconsumed tail of the previous block stays at the front —
        the stream is consumed strictly in draw order, blocks only
        partition it.  Re-thresholds everything against the current
        ``loss_probability`` so a mid-run probability change applies to
        all not-yet-used draws.
        """
        import numpy as np

        rng = self._loss_rng
        if rng is None:
            rng = self._loss_rng = self.sim.rng.stream("medium/loss")
        if self._loss_floats is None:
            parts = []
        else:
            parts = [self._loss_floats[self._loss_idx:]]
        parts.append(rng.random(self._LOSS_BLOCK))
        while sum(len(part) for part in parts) < n:  # pragma: no cover
            parts.append(rng.random(self._LOSS_BLOCK))
        floats = parts[0] if len(parts) == 1 else np.concatenate(parts)
        p = self.loss_probability
        self._loss_floats = floats
        self._loss_bools = (floats < p).tolist()
        self._loss_p = p
        self._loss_idx = 0

    def _build_plan(self, plan_key: Tuple[str, object]) -> tuple:
        """Split a sender's receiver list by interest in one data type.

        ``interested`` holds ``(draw_index, handler, bus)`` for bus-less
        receivers (which hear every frame) and buses subscribed to the
        type, in registration order; ``filter_only`` holds
        ``(draw_index, bus)`` for buses that will just count the frame
        as filtered.  Draw indices preserve each receiver's position in
        the per-frame loss block, keeping the ``medium/loss`` stream
        consumption identical to the unsplit loop.
        """
        sender, data_type = plan_key
        entries = self._entries_by_sender.get(sender)
        if entries is None:
            entries = self._sender_entries(sender)
        interested = []
        filter_only = []
        for i, (device_id, handler, bus) in enumerate(entries):
            if bus is None or data_type in bus._subscribers:
                interested.append((i, handler, bus))
            else:
                filter_only.append((i, bus))
        plan = (len(entries), interested, filter_only)
        self._delivery_plans[plan_key] = plan
        return plan

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        sent = self.total_transmissions
        return {
            "transmissions": sent,
            "collisions": self.total_collisions,
            "collision_rate": (self.total_collisions / sent) if sent else 0.0,
        }
