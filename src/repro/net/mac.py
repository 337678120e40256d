"""Unslotted CSMA/CA MAC, 802.15.4 style.

Before transmitting, a device backs off a random number of 320 us unit
backoff periods (initial exponent 3, growing to 5), then performs a
clear-channel assessment; a busy channel retries with a larger window,
up to ``max_backoffs`` attempts before the frame is dropped.  Broadcast
frames carry no acknowledgement, matching the paper's type-addressed
dissemination.

The MAC keeps per-device statistics (frames sent/dropped, backoffs,
queueing + access delay) that the networking benchmarks read.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Tuple

import numpy as np

from repro.net.medium import BroadcastMedium
from repro.net.packet import Packet
from repro.sim.engine import Simulator, PRIORITY_NETWORK

UNIT_BACKOFF_S = 320e-6
MIN_BE = 3
MAX_BE = 5

# RX->TX turnaround (aTurnaroundTime, 12 symbols).  Between a passing
# CCA and the first transmitted symbol the radio is deaf and the
# channel still looks idle to everyone else — this window is where real
# 802.15.4 collisions come from.
TURNAROUND_S = 192e-6

# Backoff window sizes 2**BE for BE = 0..MAX_BE, as a tuple lookup —
# cheaper than re-evaluating the power on every backoff attempt.
_BACKOFF_WINDOW = tuple(2 ** be for be in range(MAX_BE + 1))

# Raw uint64 blocks prefetched per refill of a MAC's backoff buffer.
# Each uint64 yields two 32-bit draw chunks.
_BACKOFF_BLOCK = 128

# Result of the one-time prefetch self-check (None = not yet run).
_PREFETCH_OK: Optional[bool] = None


def _prefetch_is_exact() -> bool:
    """Verify the chunk-prefetch trick against ``Generator.integers``.

    ``_refill_backoff_chunks`` relies on undocumented numpy internals:
    PCG64 serving 32-bit draw chunks as the low/high halves of
    successive uint64s, and ``integers`` spending exactly one chunk per
    draw for the power-of-two backoff windows.  numpy is not pinned, so
    before trusting the trick we replay a few prefetched chunks against
    what ``integers`` itself returns from an identically seeded
    generator; any mismatch (a future numpy changing either internal)
    disables prefetching for the whole process and every MAC falls back
    to per-draw scalar calls — slower, but correct on any numpy.
    """
    global _PREFETCH_OK
    if _PREFETCH_OK is None:
        raw = np.random.Generator(np.random.PCG64(0xB0FF)).integers(
            0, 1 << 64, dtype=np.uint64, size=8)
        chunks = np.empty(16, dtype=np.uint64)
        chunks[0::2] = raw & np.uint64(0xFFFFFFFF)
        chunks[1::2] = raw >> np.uint64(32)
        ref = np.random.Generator(np.random.PCG64(0xB0FF))
        windows = _BACKOFF_WINDOW[MIN_BE:MAX_BE + 1]
        ok = True
        for i, chunk in enumerate(chunks.tolist()):
            w = windows[i % len(windows)]
            if (chunk * w) >> 32 != int(ref.integers(0, w)):
                ok = False
                break
        _PREFETCH_OK = ok
    return _PREFETCH_OK


@dataclass(slots=True)
class MacStats:
    """Counters one CsmaMac accumulates."""

    enqueued: int = 0
    sent: int = 0
    dropped: int = 0
    backoffs: int = 0
    cca_failures: int = 0
    total_access_delay_s: float = 0.0
    max_queue_depth: int = 0

    @property
    def mean_access_delay_s(self) -> float:
        if self.sent == 0:
            return 0.0
        return self.total_access_delay_s / self.sent

    @property
    def drop_rate(self) -> float:
        if self.enqueued == 0:
            return 0.0
        return self.dropped / self.enqueued


class CsmaMac:
    """One device's MAC entity."""

    def __init__(self, sim: Simulator, medium: BroadcastMedium,
                 device_id: str, max_backoffs: int = 4,
                 queue_limit: int = 16,
                 on_transmit: Optional[Callable[[Packet], None]] = None) -> None:
        self.sim = sim
        self.medium = medium
        self.device_id = device_id
        self.max_backoffs = max_backoffs
        self.queue_limit = queue_limit
        self.on_transmit = on_transmit
        self.stats = MacStats()
        self._queue: Deque[Tuple[Packet, float]] = deque()
        self._busy = False
        self._rng = sim.rng.stream(f"mac/{device_id}")
        # Prefetched backoff draws (see ``_refill_backoff_chunks``): the
        # mac stream is consumed only by ``_attempt``, so its 32-bit
        # draw chunks can be buffered ahead of time — but only when the
        # self-check confirms this numpy still serves chunks the way the
        # trick assumes, and the stream really is PCG64-backed.
        self._prefetch = (_prefetch_is_exact()
                          and isinstance(self._rng.bit_generator,
                                         np.random.PCG64))
        self._chunk_buf: List[int] = []
        self._chunk_idx = 0
        # Causal-trace collector, cached like the medium caches its obs
        # context.  Hooks only fire for packets carrying a trace_ctx,
        # so an untraced run pays one attribute test per frame.
        self._trace = sim.obs.trace
        # Event names are rebuilt on every schedule otherwise — three
        # f-strings per frame on the hot path.
        self._cca_name = f"cca/{device_id}"
        self._tx_name = f"mac-tx/{device_id}"
        self._next_name = f"mac-next/{device_id}"
        # The frame in contention.  ``_busy`` admits one frame at a time
        # (a send while busy only queues), so its state lives here and
        # not in per-event closures: the three callbacks below are
        # bound once and pushed as they are, with no allocation per
        # event.  ``_packet`` stays set from its first backoff to its
        # transmission, after ``_cca`` has popped it off the queue.
        self._packet: Optional[Packet] = None
        self._enqueue_time = 0.0
        self._attempt_no = 0
        self._be = MIN_BE
        self._attempt_start = 0.0
        self._push = sim.queue.push_fire
        self._on_cca = self._cca
        self._on_transmit = self._transmit
        self._on_next = self._start_next

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Enqueue ``packet`` for transmission.

        Returns False when the queue is full and the frame was dropped
        at admission (the MCU's small frame buffer overflowed).
        """
        now = self.sim.clock.now
        if len(self._queue) >= self.queue_limit:
            self.stats.dropped += 1
            if packet.trace_ctx is not None:
                self._trace.mac_drop(packet.trace_ctx, self.device_id, now)
            return False
        self.stats.enqueued += 1
        self._queue.append((packet, now))
        if packet.trace_ctx is not None:
            self._trace.mac_enqueue(packet.trace_ctx, packet.packet_id,
                                    self.device_id, now)
        depth = len(self._queue)
        if depth > self.stats.max_queue_depth:
            self.stats.max_queue_depth = depth
        if not self._busy:
            self._start_next()
        return True

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        self._packet, self._enqueue_time = self._queue[0]
        self._attempt_no = 0
        self._be = MIN_BE
        self._attempt()

    def _refill_backoff_chunks(self) -> List[int]:
        """Prefetch a block of the 32-bit chunks ``integers`` would draw.

        For a power-of-two bound ``w`` ≤ 2**32, ``Generator.integers``
        consumes exactly one 32-bit chunk per draw (Lemire rejection
        never triggers when ``w`` divides 2**32) and computes
        ``(chunk * w) >> 32``; PCG64 serves those chunks as the low then
        high half of each successive uint64.  Drawing the raw uint64s in
        a block and splitting them therefore reproduces the per-call
        sequence bit for bit — verified by
        tests/test_perf_equivalence.  Valid only because this stream has
        no other consumer.
        """
        raw = self._rng.integers(0, 1 << 64, dtype=np.uint64,
                                 size=_BACKOFF_BLOCK)
        chunks = np.empty(2 * _BACKOFF_BLOCK, dtype=np.uint64)
        chunks[0::2] = raw & np.uint64(0xFFFFFFFF)
        chunks[1::2] = raw >> np.uint64(32)
        buf = chunks.tolist()
        self._chunk_buf = buf
        self._chunk_idx = 0
        return buf

    def _attempt(self) -> None:
        """Back off a random number of slots, then assess the channel."""
        window = _BACKOFF_WINDOW[self._be]
        if self._prefetch:
            i = self._chunk_idx
            buf = self._chunk_buf
            if i >= len(buf):
                buf = self._refill_backoff_chunks()
                i = 0
            self._chunk_idx = i + 1
            slots = (buf[i] * window) >> 32
        else:
            # Self-check failed: draw per call, the sequence ``integers``
            # defines rather than the one the prefetch trick predicts.
            slots = int(self._rng.integers(0, window))
        if self._attempt_no:
            self.stats.backoffs += 1
        # Direct fire-and-forget push: the delay is provably >= 0 (slot
        # count times a positive constant), so ``post_in``'s validation
        # is dead weight on this several-times-per-frame path.  The
        # attempt's start time is kept for the trace hook, which fires
        # once per CCA verdict, never at attempt start.
        now = self.sim.clock.now
        self._attempt_start = now
        self._push(now + slots * UNIT_BACKOFF_S, PRIORITY_NETWORK,
                   self._on_cca, self._cca_name)

    def _cca(self) -> None:
        packet = self._packet
        attempt = self._attempt_no
        now = self.sim.clock.now
        if self.medium.is_busy():
            self.stats.cca_failures += 1
            if attempt + 1 >= self.max_backoffs:
                # Channel access failure: drop the frame.
                self.stats.dropped += 1
                if packet.trace_ctx is not None:
                    self._trace.mac_cca(packet.packet_id, self.device_id,
                                        self._attempt_start, now,
                                        attempt, True, True)
                self._queue.popleft()
                self._start_next()
                return
            if packet.trace_ctx is not None:
                self._trace.mac_cca(packet.packet_id, self.device_id,
                                    self._attempt_start, now,
                                    attempt, True, False)
            self._attempt_no = attempt + 1
            self._be = min(self._be + 1, MAX_BE)
            self._attempt()
            return
        # Channel clear: transmit after the radio turnaround.  Another
        # device whose CCA also passes inside this window will overlap
        # us on the air — the collision mechanism of real CSMA/CA.
        if packet.trace_ctx is not None:
            self._trace.mac_cca(packet.packet_id, self.device_id,
                                self._attempt_start, now,
                                attempt, False, False)
        self._queue.popleft()
        self._push(now + TURNAROUND_S, PRIORITY_NETWORK, self._on_transmit,
                   self._tx_name)

    def _transmit(self) -> None:
        packet = self._packet
        now = self.sim.clock.now
        self.stats.sent += 1
        self.stats.total_access_delay_s += now - self._enqueue_time
        if packet.trace_ctx is not None:
            self._trace.mac_sent(packet.packet_id, self.device_id, now,
                                 self._attempt_no)
        self.medium.transmit(packet, self.device_id)
        if self.on_transmit is not None:
            self.on_transmit(packet)
        # Next frame (if any) contends after this one's airtime.
        self._push(now + packet.airtime_s(), PRIORITY_NETWORK,
                   self._on_next, self._next_name)
