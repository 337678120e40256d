"""Histogram-based variance clustering and threshold selection.

This is the constant-memory mechanism of paper §IV-B: instead of storing
every historical variance value, a bt-device keeps

* ``var_min`` / ``var_max`` — the extreme variances observed so far,
* ``N`` counters ``U_i`` — how many variances rounded into slot ``i``,
  where slot ``i`` (1-based) has centre
  ``c_i = var_min + (i - 0.5) * delta`` and
  ``delta = (var_max - var_min) / N``.

Algorithm 1 enumerates the N-1 candidate boundaries j; the first
cluster is slots 1..j with centre ``cc1 = mean(c_1..c_j)`` and the
second is slots j+1..N with centre ``cc2 = mean(c_{j+1}..c_N)`` (plain
means of slot centres, exactly as the paper defines them); the total
intra-cluster distance is ``sum_i U_i * |c_i - cc|`` and the optimal
boundary yields the threshold ``lambda = var_min + j* * delta``.

``ExactClusterOracle`` is the reference the paper evaluates accuracy
against: it stores *all* variance values and clusters them exactly, so
the histogram's adaptation decisions can be scored against the optimal
ones (paper Fig. 12(a), Fig. 13).

``histogram_ram_bytes`` / ``histogram_cpu_seconds`` model the MSP430
resource cost the paper reports in Fig. 12(b,c); see DESIGN.md for the
calibration (130 bytes and 1600 ms at N = 60).
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Sequence


class VarianceHistogram:
    """Constant-memory approximation of the variance distribution."""

    def __init__(self, n_slots: int) -> None:
        if n_slots < 2:
            raise ValueError(f"need at least 2 slots, got {n_slots}")
        self.n_slots = int(n_slots)
        self.var_min: Optional[float] = None
        self.var_max: Optional[float] = None
        self.counts: List[int] = [0] * self.n_slots
        self.range_reforms = 0  # how often var_min/var_max moved

    # ------------------------------------------------------------------
    @property
    def total_count(self) -> int:
        return sum(self.counts)

    @property
    def delta(self) -> float:
        """Slot step length; zero while the range is degenerate."""
        if self.var_min is None or self.var_max is None:
            return 0.0
        return (self.var_max - self.var_min) / self.n_slots

    def slot_center(self, index: int) -> float:
        """Centre of 1-based slot ``index``."""
        if not (1 <= index <= self.n_slots):
            raise IndexError(f"slot index {index} out of 1..{self.n_slots}")
        if self.var_min is None:
            raise RuntimeError("histogram has no samples yet")
        return self.var_min + (index - 0.5) * self.delta

    def slot_of(self, variance: float) -> int:
        """1-based slot a variance value rounds into."""
        if self.var_min is None or self.delta == 0.0:
            return 1
        idx = int((variance - self.var_min) / self.delta) + 1
        return min(max(idx, 1), self.n_slots)

    # ------------------------------------------------------------------
    def add(self, variance: float) -> None:
        """Record one variance observation.

        Growing the observed range re-rounds the existing histogram onto
        the new slot grid ("if either var_max or var_min is changed,
        histogram values will be rounded to N new slot centers").
        """
        if variance < 0:
            raise ValueError(f"variance cannot be negative: {variance}")
        if self.var_min is None:
            self.var_min = self.var_max = variance
            self.counts[0] += 1
            return
        if variance < self.var_min or variance > self.var_max:
            new_min = min(self.var_min, variance)
            new_max = max(self.var_max, variance)
            self._reform(new_min, new_max)
        self.counts[self.slot_of(variance) - 1] += 1

    def _reform(self, new_min: float, new_max: float) -> None:
        """Re-round all counted mass onto the new slot grid."""
        old_centers = ([self.slot_center(i) for i in range(1, self.n_slots + 1)]
                       if self.delta > 0 else
                       [self.var_min] * self.n_slots)
        old_counts = list(self.counts)
        self.var_min, self.var_max = new_min, new_max
        self.counts = [0] * self.n_slots
        self.range_reforms += 1
        for center, count in zip(old_centers, old_counts):
            if count:
                self.counts[self.slot_of(center) - 1] += count

    def reset_counts(self) -> None:
        """Periodic cleanup "to eliminate approximation errors cumulated
        in the past week" (paper §IV-B); the range is retained."""
        self.counts = [0] * self.n_slots

    # ------------------------------------------------------------------
    def threshold(self) -> Optional[float]:
        """Run Algorithm 1 and return lambda, or None without data."""
        if self.var_min is None or self.delta == 0.0:
            return None
        return select_threshold(self.var_min, self.delta, self.counts)


def select_threshold(var_min: float, delta: float,
                     counts: Sequence[int]) -> float:
    """Algorithm 1: optimal 2-cluster boundary over histogram slots.

    Returns lambda = var_min + j* * delta where j* minimises the summed
    intra-cluster distances with plain-mean cluster centres.
    """
    n = len(counts)
    if n < 2:
        raise ValueError("need at least 2 slots")
    if delta <= 0:
        raise ValueError("delta must be positive")
    centers = [var_min + (i - 0.5) * delta for i in range(1, n + 1)]

    # Prefix sums for O(1) per-candidate centre computation; the
    # distance sums remain O(N) per candidate, matching the embedded
    # implementation's O(N^2) clustering cost.
    best_j = 1
    best_sum = float("inf")
    for j in range(1, n):
        cc1 = sum(centers[:j]) / j
        cc2 = sum(centers[j:]) / (n - j)
        sum1 = sum(counts[k] * abs(centers[k] - cc1) for k in range(j))
        sum2 = sum(counts[k] * abs(centers[k] - cc2) for k in range(j, n))
        total = sum1 + sum2
        if total < best_sum:
            best_sum = total
            best_j = j
    return var_min + best_j * delta


class ExactClusterOracle:
    """Ground-truth clustering over all historical variance values.

    Stores every variance (which a 10 KB-RAM mote cannot) and finds the
    split of the *sorted values* minimising total intra-cluster L1
    distance to the cluster means.  Its threshold is the optimal lambda
    the histogram approximates.

    ``values`` is an append-only ``array('d')``, 8 B per variance; a
    transmitter's :class:`~repro.net.adaptive.DecisionLog` reads its
    variances from it instead of storing them again.  Readers copy it
    (``np.array(values)``) and never keep a ``np.asarray`` or
    ``np.frombuffer`` view: while a view is alive, the next ``add``
    raises ``BufferError``.
    """

    def __init__(self) -> None:
        self.values = array("d")

    def add(self, variance: float) -> None:
        if variance < 0:
            raise ValueError(f"variance cannot be negative: {variance}")
        self.values.append(variance)

    def threshold(self) -> Optional[float]:
        """Optimal two-cluster boundary, or None with < 2 distinct values.

        Fully vectorised over the n-1 candidate splits: for sorted
        values, the L1 distance of a contiguous block [lo, hi) to its
        mean is ``mean*b - P[j] + (P[hi]-P[j]) - mean*a`` from prefix
        sums P, where j positions the mean within the block.  Because
        the array is globally sorted, the per-block ``searchsorted`` is
        recoverable from one whole-array searchsorted per side: elements
        below a left-block mean all live in the prefix (clip at the
        split) and elements below a right-block mean fill at least the
        prefix (clip the other way).  Each elementwise operation repeats
        the scalar expression, so costs — and the selected split — match
        the former per-split loop bit for bit.  The boundary is returned
        as a Python ``float``, so no decision carries a numpy scalar.
        """
        if len(self.values) < 2:
            return None
        import numpy as np

        ordered = np.array(self.values, dtype=float)
        ordered.sort()
        if ordered[0] == ordered[-1]:
            return None
        n = ordered.size
        prefix = np.concatenate(([0.0], np.cumsum(ordered)))

        splits = np.arange(1, n)
        # Left block [0, s): mean <= ordered[s-1], so every element
        # below it sits in the prefix and the global insertion point
        # needs at most clipping to s.
        mean1 = prefix[splits] / splits
        j1 = np.minimum(np.searchsorted(ordered, mean1), splits)
        cost1 = ((mean1 * j1 - prefix[j1])
                 + ((prefix[splits] - prefix[j1]) - mean1 * (splits - j1)))
        # Right block [s, n): mean >= ordered[s], so the insertion point
        # is at least s.
        mean2 = (prefix[n] - prefix[splits]) / (n - splits)
        j2 = np.maximum(np.searchsorted(ordered, mean2), splits)
        cost2 = ((mean2 * (j2 - splits) - (prefix[j2] - prefix[splits]))
                 + ((prefix[n] - prefix[j2]) - mean2 * (n - j2)))
        best_split = int(np.argmin(cost1 + cost2)) + 1
        return float(0.5 * (ordered[best_split - 1] + ordered[best_split]))


# ----------------------------------------------------------------------
# MSP430 resource model (paper Fig. 12(b,c)); calibration in DESIGN.md.
# ----------------------------------------------------------------------

# Each slot counter is 2 bytes; var_min/var_max and bookkeeping add a
# fixed 10 bytes.  N = 60 -> 130 bytes, matching the paper.
_RAM_PER_SLOT_BYTES = 2
_RAM_FIXED_BYTES = 10

# Algorithm 1 is O(N^2) on the mote; the paper measures 1600 ms at
# N = 60, giving the quadratic coefficient below.
_CPU_SECONDS_AT_60 = 1.6


def histogram_ram_bytes(n_slots: int) -> int:
    """RAM footprint of an N-slot histogram on the MSP430."""
    if n_slots < 1:
        raise ValueError("need at least one slot")
    return _RAM_FIXED_BYTES + _RAM_PER_SLOT_BYTES * n_slots


def histogram_cpu_seconds(n_slots: int) -> float:
    """Wall time of one Algorithm 1 run on the MSP430."""
    if n_slots < 1:
        raise ValueError("need at least one slot")
    return _CPU_SECONDS_AT_60 * (n_slots / 60.0) ** 2
