"""BT-ADPT: adaptive sensory-data transmission for battery devices.

Paper §IV-B.  A bt-device samples its sensor every T_spl seconds
(3 s temperature, 2 s humidity, 4 s CO2) and transmits every
T_snd = w * T_spl.  Over a sliding window of recent samples it computes
the variance; a threshold lambda classifies each new variance as
*stable* or *transition*:

* transition  -> w := 1 and the send timer resets immediately;
* stable      -> keep the current period, but after 10 consecutive
  stable sampling periods double w, up to w_max = 32.

lambda is re-learned every 20 minutes from the histogram approximation
(:mod:`repro.net.histogram`); an :class:`~repro.net.histogram.ExactClusterOracle`
runs alongside to score every adaptation decision against the optimal
one — the quantity plotted in the paper's Fig. 12(a) and Fig. 13.

The decisions grow with run length (~96k over the 300-minute §V-C
trial), so :class:`DecisionLog` keeps them as typed columns, not as
objects: the times in an ``array('d')``, both classifiers' verdicts in
one ``bytearray`` byte, the two thresholds as a short change-point list
(they move only on the 20-minute relearn), and the variances not at
all — they are the oracle's own ``values`` column.  Reading the log
builds :class:`AdaptationDecision` tuples on demand.  Readers copy a
column (``np.array(col)``) and never keep a ``np.asarray`` or
``np.frombuffer`` view of one: while a view is alive, the next
``append`` raises ``BufferError``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import (Deque, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from repro.net.histogram import ExactClusterOracle, VarianceHistogram
from repro.net.packet import DataType

# Sampling periods from paper §IV-B.
SAMPLING_PERIODS = {
    DataType.TEMPERATURE: 3.0,
    DataType.HUMIDITY: 2.0,
    DataType.CO2: 4.0,
}


@dataclass(frozen=True)
class AdaptivePolicy:
    """Tunable constants of BT-ADPT (defaults are the paper's)."""

    sampling_period_s: float = 2.0
    window_size: int = 10          # samples in the variance window
    w_max: int = 32                # maximum T_snd / T_spl multiplier
    stable_periods_to_double: int = 10
    threshold_update_period_s: float = 20.0 * 60.0
    histogram_slots: int = 40      # the paper's default N

    def __post_init__(self) -> None:
        if self.sampling_period_s <= 0:
            raise ValueError("sampling period must be positive")
        if self.window_size < 2:
            raise ValueError("variance window needs at least 2 samples")
        if self.w_max < 1:
            raise ValueError("w_max must be at least 1")
        if self.stable_periods_to_double < 1:
            raise ValueError("stable_periods_to_double must be at least 1")

    @classmethod
    def for_type(cls, data_type: DataType, **overrides) -> "AdaptivePolicy":
        """Policy with the paper's sampling period for ``data_type``."""
        period = SAMPLING_PERIODS.get(data_type, 2.0)
        return cls(sampling_period_s=period, **overrides)


class AdaptationDecision(NamedTuple):
    """One classified variance and how both classifiers judged it."""

    time: float
    variance: float
    histogram_unstable: bool
    oracle_unstable: bool
    histogram_threshold: Optional[float]
    oracle_threshold: Optional[float]

    @property
    def matches_oracle(self) -> bool:
        return self.histogram_unstable == self.oracle_unstable


# Verdict byte: bit 0 is the histogram's "unstable", bit 1 the
# oracle's, so the two classifiers agree on bytes 0 and 3.
_HISTOGRAM_UNSTABLE = 1
_ORACLE_UNSTABLE = 2
_AGREES = (1, 0, 0, 1)


class DecisionLog(Sequence[AdaptationDecision]):
    """Columnar, append-only log of one transmitter's decisions.

    Decision ``i`` is the ``i``-th entry of ``variances`` (the oracle's
    column, which gains one value per decision and is read, not
    copied), the ``i``-th time and verdict byte, and the threshold pair
    of the last change point at or before ``i``.  Indexing, slicing and
    iterating build :class:`AdaptationDecision` tuples.
    """

    __slots__ = ("_times", "_verdicts", "_variances", "_change_at",
                 "_thresholds")

    def __init__(self, variances: Sequence[float]) -> None:
        self._times = array("d")
        self._verdicts = bytearray()
        self._variances = variances
        # The decision index from which each threshold pair holds.
        self._change_at: List[int] = [0]
        self._thresholds: List[Tuple[Optional[float], Optional[float]]] = [
            (None, None)]

    def append(self, time: float, histogram_unstable: bool,
               oracle_unstable: bool) -> None:
        self._times.append(time)
        self._verdicts.append(histogram_unstable | oracle_unstable << 1)

    def set_thresholds(self, histogram: Optional[float],
                       oracle: Optional[float]) -> None:
        """Thresholds that hold from the next appended decision on."""
        at = len(self._times)
        if self._change_at[-1] == at:
            self._thresholds[-1] = (histogram, oracle)
        else:
            self._change_at.append(at)
            self._thresholds.append((histogram, oracle))

    def __len__(self) -> int:
        return len(self._times)

    def _decision(self, i: int, thresholds) -> AdaptationDecision:
        verdict = self._verdicts[i]
        return AdaptationDecision(
            self._times[i], self._variances[i],
            bool(verdict & _HISTOGRAM_UNSTABLE),
            bool(verdict & _ORACLE_UNSTABLE), *thresholds)

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = range(len(self))[index]  # IndexError; negative indices
        return self._decision(
            i, self._thresholds[bisect_right(self._change_at, i) - 1])

    def __iter__(self) -> Iterator[AdaptationDecision]:
        ends = self._change_at[1:] + [len(self)]
        for start, end, thresholds in zip(self._change_at, ends,
                                          self._thresholds):
            for i in range(start, end):
                yield self._decision(i, thresholds)

    def accuracy(self) -> Optional[float]:
        """Fraction of decisions matching the oracle, or None if empty."""
        if not self._verdicts:
            return None
        matches = (self._verdicts.count(0) + self._verdicts.count(
            _HISTOGRAM_UNSTABLE | _ORACLE_UNSTABLE))
        return matches / len(self._verdicts)

    def accuracy_series(self, bucket_s: float) -> List[tuple]:
        """(bucket_end_time, accuracy) over consecutive time buckets."""
        if not self._times:
            return []
        series = []
        bucket_end = self._times[0] + bucket_s
        hits = total = 0
        for time, verdict in zip(self._times, self._verdicts):
            while time > bucket_end:
                if total:
                    series.append((bucket_end, hits / total))
                bucket_end += bucket_s
                hits = total = 0
            hits += _AGREES[verdict]
            total += 1
        if total:
            series.append((bucket_end, hits / total))
        return series


class AdaptiveTransmitter:
    """The per-(device, data-type) BT-ADPT state machine."""

    def __init__(self, name: str, policy: AdaptivePolicy,
                 track_oracle: bool = True) -> None:
        self.name = name
        self.policy = policy
        self.histogram = VarianceHistogram(policy.histogram_slots)
        self.oracle = ExactClusterOracle() if track_oracle else None
        self._window: Deque[float] = deque(maxlen=policy.window_size)
        self._w = 1
        self._stable_streak = 0
        self._threshold: Optional[float] = None
        self._oracle_threshold: Optional[float] = None
        self._last_threshold_update: Optional[float] = None
        # Only a transmitter with an oracle logs (scored) decisions.
        self.decisions = DecisionLog(
            self.oracle.values if self.oracle is not None else array("d"))
        self.period_changes: List[tuple] = []  # (time, new_period)

    # ------------------------------------------------------------------
    @property
    def w(self) -> int:
        return self._w

    @property
    def send_period_s(self) -> float:
        """Current T_snd = w * T_spl."""
        return self._w * self.policy.sampling_period_s

    @property
    def threshold(self) -> Optional[float]:
        return self._threshold

    # ------------------------------------------------------------------
    def on_sample(self, value: float, now: float) -> Optional[str]:
        """Feed one sensor sample.

        Returns ``"reset"`` when the device must drop T_snd to T_spl and
        restart its send timer immediately, ``"doubled"`` when T_snd just
        doubled, or None when the period is unchanged.
        """
        self._maybe_update_threshold(now)
        self._window.append(float(value))
        if len(self._window) < self.policy.window_size:
            return None
        variance = self._window_variance()
        self.histogram.add(variance)
        if self.oracle is not None:
            self.oracle.add(variance)
        unstable = (self._threshold is not None
                    and variance > self._threshold)
        if self.oracle is not None:
            oracle_unstable = (self._oracle_threshold is not None
                               and variance > self._oracle_threshold)
            self.decisions.append(now, unstable, oracle_unstable)

        if unstable:
            self._stable_streak = 0
            if self._w != 1:
                self._w = 1
                self.period_changes.append((now, self.send_period_s))
                return "reset"
            return "reset"  # timer still resets for prompt updates
        self._stable_streak += 1
        if (self._stable_streak >= self.policy.stable_periods_to_double
                and self._w < self.policy.w_max):
            self._w = min(self._w * 2, self.policy.w_max)
            self._stable_streak = 0
            self.period_changes.append((now, self.send_period_s))
            return "doubled"
        return None

    def _window_variance(self) -> float:
        """Population variance E[X^2] - E[X]^2, as in the paper.

        One explicit pass instead of two ``sum`` calls: same left-to-
        right accumulation order, so the result is bit-identical, minus
        the generator overhead on a per-sample call.
        """
        n = len(self._window)
        total = 0.0
        total_sq = 0.0
        for x in self._window:
            total += x
            total_sq += x * x
        mean = total / n
        mean_sq = total_sq / n
        return max(0.0, mean_sq - mean * mean)

    # ------------------------------------------------------------------
    def _maybe_update_threshold(self, now: float) -> None:
        """Re-learn lambda on the paper's 20-minute cadence."""
        if (self._last_threshold_update is not None
                and now - self._last_threshold_update
                < self.policy.threshold_update_period_s):
            return
        self._last_threshold_update = now
        new_threshold = self.histogram.threshold()
        if new_threshold is not None:
            self._threshold = new_threshold
        if self.oracle is not None:
            oracle_threshold = self.oracle.threshold()
            if oracle_threshold is not None:
                self._oracle_threshold = oracle_threshold
            self.decisions.set_thresholds(self._threshold,
                                          self._oracle_threshold)

    def force_threshold_update(self, now: float) -> None:
        """Immediate lambda refresh (used by tests and benches)."""
        self._last_threshold_update = None
        self._maybe_update_threshold(now)

    # ------------------------------------------------------------------
    def accuracy(self) -> Optional[float]:
        """Fraction of adaptation decisions matching the oracle."""
        return self.decisions.accuracy()

    def accuracy_series(self, bucket_s: float = 600.0) -> List[tuple]:
        """(bucket_end_time, accuracy) over consecutive time buckets."""
        return self.decisions.accuracy_series(bucket_s)
