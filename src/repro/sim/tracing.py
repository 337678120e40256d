"""Trace recording: named time series collected during a run.

The paper's evaluation is a set of logged time series (temperatures, dew
points, send periods) analysed offline.  ``TraceRecorder`` plays the role
of the TelosB sniffer + flash logs: components append ``(time, value)``
samples to named series, and the analysis layer reads them back as numpy
arrays.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np


class TraceSeries:
    """One append-only time series of scalar samples.

    Times and values are two ``array('d')`` columns, 16 B per sample,
    instead of lists of boxed floats (each list slot also kept alive
    the float object of the event time it was given).  Every reader
    returns copies (``np.array(col)``); none keeps a ``np.asarray`` or
    ``np.frombuffer`` view of a column, because while such a view is
    alive the next ``append`` raises ``BufferError``.
    """

    __slots__ = ("name", "_times", "_values")

    def __init__(self, name: str) -> None:
        self.name = name
        self._times = array("d")
        self._values = array("d")

    def __len__(self) -> int:
        return len(self._times)

    def append(self, time: float, value: float) -> None:
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"series {self.name!r}: non-monotonic time "
                f"{time} after {self._times[-1]}")
        self._times.append(time)
        self._values.append(value)

    def times(self) -> np.ndarray:
        return np.array(self._times, dtype=float)

    def values(self) -> np.ndarray:
        return np.array(self._values, dtype=float)

    def last(self) -> Optional[Tuple[float, float]]:
        """Most recent ``(time, value)`` sample, or None if empty."""
        if not self._times:
            return None
        return self._times[-1], self._values[-1]

    def value_at(self, time: float) -> float:
        """Zero-order-hold lookup of the series value at ``time``."""
        if not self._times:
            raise LookupError(f"series {self.name!r} is empty")
        idx = bisect_right(self._times, time) - 1
        if idx < 0:
            raise LookupError(
                f"series {self.name!r} has no sample at or before {time}")
        return self._values[idx]

    def window(self, start: float, end: float) -> Tuple[np.ndarray, np.ndarray]:
        """Samples with ``start <= t <= end`` as a pair of arrays."""
        times = self.times()
        values = self.values()
        mask = (times >= start) & (times <= end)
        return times[mask], values[mask]


class TraceRecorder:
    """Registry of named :class:`TraceSeries`."""

    def __init__(self) -> None:
        self._series: Dict[str, TraceSeries] = {}

    def series(self, name: str) -> TraceSeries:
        """Return the series called ``name``, creating it if needed."""
        if name not in self._series:
            self._series[name] = TraceSeries(name)
        return self._series[name]

    def record(self, name: str, time: float, value: float) -> None:
        """Append one sample to the named series."""
        self.series(name).append(time, value)

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def names(self) -> List[str]:
        return sorted(self._series)

    def matching(self, prefix: str) -> List[TraceSeries]:
        """All series whose name starts with ``prefix``."""
        return [self._series[name] for name in self.names()
                if name.startswith(prefix)]

    def summary(self) -> Dict[str, Dict[str, object]]:
        """Per-series sample count and first/last sample times.

        The first/last timestamps let a liveness view (``repro
        status``) compute how long each sender has been silent without
        touching the raw arrays.  Empty series report ``None`` times.
        """
        out: Dict[str, Dict[str, object]] = {}
        for name, series in self._series.items():
            first = series._times[0] if series._times else None
            last = series._times[-1] if series._times else None
            out[name] = {"count": len(series), "first_t": first,
                         "last_t": last}
        return out


def resample(times: Iterable[float], values: Iterable[float],
             grid: np.ndarray) -> np.ndarray:
    """Zero-order-hold resample of an irregular series onto ``grid``.

    Grid points that precede the first sample take the first value; this
    mirrors how the paper's offline analysis treats sensor logs whose
    first report lands slightly after the experiment start.
    """
    times_arr = np.asarray(list(times), dtype=float)
    values_arr = np.asarray(list(values), dtype=float)
    if times_arr.size == 0:
        raise ValueError("cannot resample an empty series")
    idx = np.searchsorted(times_arr, grid, side="right") - 1
    idx = np.clip(idx, 0, times_arr.size - 1)
    return values_arr[idx]
