"""BT-ADPT decision log and trace series pinned on a ``paper-vc`` slice.

Every transmitter keeps its adaptation decisions as columns and every
trace series keeps its samples as two ``array('d')``s.  Neither may
change a value a reader sees: the literals below were recorded from
the list-of-objects decision log and list-backed series on the same
slice.  The slice runs past the first 20-minute threshold relearn, so
it holds decisions made before any threshold was learned (``None``
thresholds) and after.

The slice runs under ``tracemalloc`` from before the system is built,
so bounded buffers that are replaced during the run (jitter and noise
blocks, pending events) cancel out, and the live memory the decision
path gains per decision is measured on the same run.
"""

import dataclasses
import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.analysis.replay import mean_accuracy_at_n, variance_stream_of
from repro.net.adaptive import (AdaptationDecision, AdaptivePolicy,
                                AdaptiveTransmitter)
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import prepare_run
from repro.sim.tracing import TraceSeries

SLICE_MINUTES = 25.0
MEASURE_FROM_MINUTES = 5.0
# All decisions, those made before the first relearn (both thresholds
# None), and sha256 over every decision as a plain tuple.
PINNED_DECISIONS = (7862, 6262, "ac550910854a1522afa026319be29dc9"
                                "5cb1f38274cf0f9d9c078cf8c2d0de88")
# sha256 over every transmitter's (accuracy(), accuracy_series()).
PINNED_ACCURACY = ("8340c8b013bb7488c78401f87ba50fe4"
                   "0eed7c5b67ef2defd666c7b87ae85c5b")
# sha256 over every transmitter's variance_stream_of, then the replayed
# fleet accuracy at N = 20 and N = 40 slots.
PINNED_REPLAY = ("c3816127d65e4579b45c9f0c1be34d7b"
                 "08174211b4ac4ee66f9d7ef5a79b43b0",
                 0.9835450713219803, 0.9830320042385146)
TRACE_NAME = "subspace/0/temp"
# Samples, sha256 over times() then values() bytes, value_at at three
# offsets from the run start, and the window's sample count and sum.
PINNED_TRACE = (151, "e27e4beb4db2165938683d5610c85de5"
                     "9e26152e612a44184360ecc5e9ed4732",
                (28.9, 27.988607145386343, 26.53629078131178),
                (61, 1708.74805177233))
VALUE_AT_OFFSETS_S = (0.0, 601.5, 1499.0)
WINDOW_S = (300.0, 900.0)
# Decision-path modules whose live allocations may grow with the
# number of decisions only by the log's columns (a time, a verdict
# byte and the oracle's variance, ~20 B); one AdaptationDecision
# object per decision, which also keeps its event-time float alive,
# costs ~200 B.
DECISION_PATH_FILES = ("repro/net/adaptive.py", "repro/net/histogram.py",
                       "repro/sim/process.py")
MAX_RETAINED_BYTES_PER_DECISION = 48


def _decision_count(system):
    return sum(len(tx.decisions) for tx in system.adaptive_transmitters())


def _decision_path_bytes():
    gc.collect()
    stats = tracemalloc.take_snapshot().statistics("filename")
    return sum(stat.size for stat in stats
               if stat.traceback[0].filename.replace("\\", "/").endswith(
                   DECISION_PATH_FILES))


@pytest.fixture(scope="module")
def slice_run():
    spec = dataclasses.replace(get_scenario("paper-vc"),
                               run_minutes=SLICE_MINUTES, warmup_minutes=0.0)
    tracemalloc.start()
    try:
        system, _ = prepare_run(spec)
        system.start()
        system.run(minutes=MEASURE_FROM_MINUTES)
        decisions_a, bytes_a = _decision_count(system), _decision_path_bytes()
        system.run(minutes=SLICE_MINUTES - MEASURE_FROM_MINUTES)
        decisions_b, bytes_b = _decision_count(system), _decision_path_bytes()
    finally:
        tracemalloc.stop()
    retained = (bytes_b - bytes_a) / (decisions_b - decisions_a)
    return system, retained


def _optional(value):
    return None if value is None else float(value)


def _plain(decision):
    return (float(decision.time), float(decision.variance),
            bool(decision.histogram_unstable), bool(decision.oracle_unstable),
            _optional(decision.histogram_threshold),
            _optional(decision.oracle_threshold))


def _sha(items):
    digest = hashlib.sha256()
    for item in items:
        digest.update(repr(item).encode())
    return digest.hexdigest()


class TestPinnedSlice:
    def test_decisions(self, slice_run):
        system, _ = slice_run
        decisions = [_plain(d) for tx in system.adaptive_transmitters()
                     for d in tx.decisions]
        unlearned = sum(1 for d in decisions if d[4] is None and d[5] is None)
        assert (len(decisions), unlearned, _sha(decisions)) == (
            PINNED_DECISIONS)
        # Every transmitter has relearned by the end of the slice.
        for tx in system.adaptive_transmitters():
            assert tx.decisions[-1].histogram_threshold is not None

    def test_decisions_hold_python_scalars(self, slice_run):
        """No decision field is a numpy scalar, so a decision's ``repr``
        does not depend on the numpy version: the raw tuples hash to the
        same pinned SHA as the normalised ones."""
        system, _ = slice_run
        decisions = [d for tx in system.adaptive_transmitters()
                     for d in tx.decisions]
        for d in decisions:
            assert type(d.oracle_threshold) in (float, type(None)), d
            assert type(d.oracle_unstable) is bool, d
            assert "np." not in repr(d), d
        assert _sha(tuple(d) for d in decisions) == PINNED_DECISIONS[2]

    def test_accuracy(self, slice_run):
        system, _ = slice_run
        assert _sha((tx.accuracy(), tx.accuracy_series())
                    for tx in system.adaptive_transmitters()
                    ) == PINNED_ACCURACY

    def test_replay(self, slice_run):
        system, _ = slice_run
        transmitters = system.adaptive_transmitters()
        assert (_sha(variance_stream_of(tx) for tx in transmitters),
                mean_accuracy_at_n(transmitters, 20),
                mean_accuracy_at_n(transmitters, 40)) == PINNED_REPLAY

    def test_trace_series(self, slice_run):
        system, _ = slice_run
        series = system.sim.trace.series(TRACE_NAME)
        start = system.config.start_time_s
        times, values = series.window(start + WINDOW_S[0],
                                      start + WINDOW_S[1])
        assert (len(series),
                hashlib.sha256(series.times().tobytes()
                               + series.values().tobytes()).hexdigest(),
                tuple(series.value_at(start + offset)
                      for offset in VALUE_AT_OFFSETS_S),
                (len(times), float(values.sum()))) == PINNED_TRACE

    def test_indexing_and_slicing(self, slice_run):
        system, _ = slice_run
        for tx in system.adaptive_transmitters():
            log = tx.decisions
            everything = list(log)
            assert len(everything) == len(log)
            assert log[-50:] == everything[-50:]
            assert log[3:200:7] == everything[3:200:7]
            assert log[::-1] == everything[::-1]
            assert log[-1] == everything[-1]
            assert log[-len(log)] == log[0] == everything[0]
            with pytest.raises(IndexError):
                log[len(log)]
            with pytest.raises(IndexError):
                log[-len(log) - 1]
            assert all(type(d) is AdaptationDecision
                       and d.matches_oracle == (d.histogram_unstable
                                                == d.oracle_unstable)
                       for d in everything)

    def test_decision_path_retains_no_objects(self, slice_run):
        _, retained = slice_run
        assert retained <= MAX_RETAINED_BYTES_PER_DECISION, (
            f"{retained:.0f} B retained per adaptation decision")


def _feed(tx, n, value=lambda i: 20.0 + (i % 3) * 0.01, t=0.0):
    for i in range(n):
        tx.on_sample(value(i), t)
        t += 2.0
    return t


class TestLogEdges:
    def test_empty_log(self):
        tx = AdaptiveTransmitter("tx", AdaptivePolicy())
        log = tx.decisions
        assert len(log) == 0
        assert list(log) == [] and log[-50:] == [] and log[:] == []
        with pytest.raises(IndexError):
            log[0]
        with pytest.raises(IndexError):
            log[-1]
        assert tx.accuracy() is None
        assert tx.accuracy_series() == []

    def test_untracked_transmitter_logs_nothing(self):
        tx = AdaptiveTransmitter("tx", AdaptivePolicy(window_size=5),
                                 track_oracle=False)
        t = _feed(tx, 200)
        tx.force_threshold_update(t)
        _feed(tx, 200, value=lambda i: 20.0 + 5.0 * (i % 2), t=t)
        assert tx.oracle is None
        assert len(tx.decisions) == 0 and list(tx.decisions) == []
        assert tx.accuracy() is None
        assert tx.accuracy_series() == []

    def test_thresholds_follow_relearns(self):
        tx = AdaptiveTransmitter(
            "tx", AdaptivePolicy(window_size=5,
                                 threshold_update_period_s=60.0))
        # Spikes that grow, so every relearn sees a wider variance range.
        _feed(tx, 300, value=lambda i: 20.0 + (i // 40 + 1.0) * (i % 40 < 5))
        log = tx.decisions
        learned = [(d.histogram_threshold, d.oracle_threshold) for d in log]
        assert learned[0] == (None, None)
        assert len(set(learned)) > 2
        # Indexing resolves each decision's change point like iteration.
        assert [log[i] for i in range(len(log))] == list(log)

    def test_readers_hold_no_views(self):
        """Reading a column leaves it free to grow: a buffer view kept
        alive by a reader would make the next append raise."""
        tx = AdaptiveTransmitter("tx", AdaptivePolicy(window_size=5))
        t = _feed(tx, 100)
        series = TraceSeries("x")
        for i in range(10):
            series.append(float(i), float(i * i))
        held = (series.times(), series.values(), series.window(2.0, 5.0),
                series.value_at(3.5), iter(tx.decisions),
                tx.decisions[-5:], variance_stream_of(tx),
                tx.oracle.threshold())
        next(held[4])
        _feed(tx, 10, t=t)
        series.append(10.0, 100.0)
        assert len(series) == 11 and held[0].size == 10
        assert len(tx.oracle.values) == len(tx.decisions)
        np.testing.assert_array_equal(held[1], np.arange(10.0) ** 2)
