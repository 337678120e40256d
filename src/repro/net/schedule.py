"""AC-device transmission schedule adaptation (paper §I, §IV).

AC-powered devices (the control boards) transmit periodic reports and
never need to sleep, but with many of them sharing one channel their
periodic schedules collide.  The paper "let[s] the AC powered devices
adapt their transmission schedules to alleviate channel contentions",
reducing packet loss and delay — which in turn saves bt-device energy
(fewer retransmissions of lost updates).

The adapter implements phase desynchronisation: each device divides its
period into phase bins, listens to the (always-on) radio to accumulate
a channel-busy profile per bin, and periodically re-anchors its send
offset to the quietest bin, with a small random dither to break ties
between devices that would otherwise pick the same bin.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.sim.engine import Simulator


class AcScheduleAdapter:
    """Per-device phase chooser for periodic AC transmissions."""

    # Whether this adapter ever reads its busy profile; the fixed
    # baseline never adapts, so it skips activity-log registration.
    wants_activity = True

    def __init__(self, sim: Simulator, device_id: str, period_s: float,
                 bins: int = 20, adapt_every: int = 10,
                 dither_fraction: float = 0.15) -> None:
        if period_s <= 0:
            raise ValueError("period must be positive")
        if bins < 2:
            raise ValueError("need at least 2 phase bins")
        if not (0 <= dither_fraction < 1):
            raise ValueError("dither fraction must be in [0, 1)")
        self.sim = sim
        self.device_id = device_id
        self.period_s = period_s
        self.bins = bins
        self.adapt_every = adapt_every
        self.dither_fraction = dither_fraction
        self._busy_profile: List[float] = [0.0] * bins
        self._activity_log = None
        self._sends_since_adapt = 0
        self._rng = sim.rng.stream(f"acsched/{device_id}")
        # Start at a random phase, as real boards boot at arbitrary times.
        self._offset = float(self._rng.uniform(0.0, period_s))
        self.adaptations = 0

    # ------------------------------------------------------------------
    @property
    def offset_s(self) -> float:
        """Current send offset within the period."""
        return self._offset

    def connect(self, medium) -> None:
        """Follow ``medium``'s channel-activity log.

        Occupancy accumulates lazily: transmissions land in the shared
        log and are folded into the busy profile only when the adapter
        is about to adapt.  The result is identical to per-frame
        ``observe_busy`` push calls — the offset never changes between
        adaptations, so deferred frames bin exactly the same way — but
        frames nobody will ever inspect cost one shared tuple append
        instead of one Python call per adapter.
        """
        if self.wants_activity:
            self._activity_log = medium.activity_log
            self._activity_log.register(self)

    def _drain_activity(self) -> None:
        if self._activity_log is None:
            return
        start_l, dur_l = self._activity_log.drain(self)
        if len(start_l) < 64:
            observe = self.observe_busy
            for start, duration in zip(start_l, dur_l):
                observe(start, duration)
            return
        # Bulk path: the phase/bin arithmetic is vectorised, then the
        # accumulation runs as a minimal Python loop *in log order* so
        # float rounding matches the per-frame path bit for bit (summing
        # out of order would perturb the quietest-bin argmin).  Frames
        # spanning a bin boundary (airtime ~1 ms vs bins >= 100 ms, so
        # rare) fall back to the exact multi-bin walk.
        bin_width = self.period_s / self.bins
        starts = np.asarray(start_l)
        durations = np.asarray(dur_l)
        phases = (starts - self._offset) % self.period_s
        idx = np.minimum((phases / bin_width).astype(np.int64), self.bins - 1)
        to_boundary = (idx + 1) * bin_width - phases
        single_bin = ((to_boundary > 1e-9 * bin_width)
                      & (durations <= to_boundary))
        profile = self._busy_profile
        observe = self.observe_busy
        idx_l = idx.tolist()
        if bool(single_bin.all()):
            for k, j in enumerate(idx_l):
                profile[j] += dur_l[k]
            return
        fast_l = single_bin.tolist()
        for k, j in enumerate(idx_l):
            if fast_l[k]:
                profile[j] += dur_l[k]
            else:
                observe(start_l[k], dur_l[k])

    def observe_busy(self, start: float, duration: float) -> None:
        """Record channel occupancy overheard by the always-on radio.

        ``start`` is an absolute simulation time; the busy time is
        attributed to the phase bin(s) it falls into.
        """
        if duration < 0:
            raise ValueError("duration cannot be negative")
        bin_width = self.period_s / self.bins
        # Fast path: frame airtimes (~1 ms) are usually far shorter than
        # a phase bin, so the whole burst lands in one bin.
        phase = (start - self._offset) % self.period_s
        idx = int(phase / bin_width)
        if idx >= self.bins:
            idx = self.bins - 1
        to_boundary = (idx + 1) * bin_width - phase
        if to_boundary > 1e-9 * bin_width and duration <= to_boundary:
            self._busy_profile[idx] += duration
            return
        remaining = duration
        t = start
        # Guard against float round-off producing zero-length advances.
        eps = 1e-9 * bin_width
        while remaining > 1e-12:
            phase = (t - self._offset) % self.period_s
            idx = min(int(phase / bin_width), self.bins - 1)
            to_boundary = (idx + 1) * bin_width - phase
            if to_boundary <= eps:
                to_boundary = bin_width
            in_bin = min(remaining, to_boundary)
            self._busy_profile[idx] += in_bin
            t += in_bin
            remaining -= in_bin

    def next_send_time(self) -> float:
        """Absolute time of the next transmission under the schedule.

        Guaranteed strictly in the future: float round-off in the
        division could otherwise return the current instant and trap a
        caller that reschedules from its own firing in a zero-length
        loop.
        """
        now = self.sim.clock.now
        k = int((now - self._offset) // self.period_s) + 1
        when = self._offset + k * self.period_s
        if when <= now + 1e-9:
            when += self.period_s
        return when

    def on_sent(self) -> None:
        """Notify the adapter that one periodic send completed."""
        self._sends_since_adapt += 1
        if self._sends_since_adapt >= self.adapt_every:
            self._sends_since_adapt = 0
            self._adapt()

    # ------------------------------------------------------------------
    def _adapt(self) -> None:
        """Move the offset to the quietest observed phase bin."""
        self._drain_activity()
        if all(b == 0.0 for b in self._busy_profile):
            return
        bin_width = self.period_s / self.bins
        quietest = min(range(self.bins), key=lambda i: self._busy_profile[i])
        dither = float(self._rng.uniform(0.0, self.dither_fraction * bin_width))
        new_phase = quietest * bin_width + dither
        self._offset = (self._offset + new_phase) % self.period_s
        self._busy_profile = [0.0] * self.bins
        self.adaptations += 1


class FixedScheduleAdapter(AcScheduleAdapter):
    """Baseline: keeps its initial phase forever (no adaptation).

    Used by the ablation benchmark to quantify what the contention
    adaptation buys.  Construct with ``aligned_offset`` to force many
    devices onto the same phase — the worst case the adaptive scheme
    escapes.
    """

    wants_activity = False  # never reads its busy profile

    def __init__(self, sim: Simulator, device_id: str, period_s: float,
                 aligned_offset: Optional[float] = None, **kwargs) -> None:
        super().__init__(sim, device_id, period_s, **kwargs)
        if aligned_offset is not None:
            self._offset = float(aligned_offset) % period_s

    def _adapt(self) -> None:  # never moves
        return
