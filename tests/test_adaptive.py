"""Tests for BT-ADPT (paper §IV-B)."""

import pytest

from repro.net.adaptive import (
    AdaptivePolicy,
    AdaptiveTransmitter,
    SAMPLING_PERIODS,
)
from repro.net.packet import DataType


def make_tx(**overrides):
    defaults = dict(sampling_period_s=2.0, window_size=5,
                    stable_periods_to_double=10, w_max=32,
                    threshold_update_period_s=60.0, histogram_slots=20)
    defaults.update(overrides)
    return AdaptiveTransmitter("tx", AdaptivePolicy(**defaults))


def feed_stable(tx, start, count, value=20.0, period=2.0):
    """Feed ``count`` identical-ish samples; returns the end time."""
    t = start
    for i in range(count):
        tx.on_sample(value + 0.001 * (i % 2), t)
        t += period
    return t


def feed_spike(tx, start, count=8, period=2.0):
    t = start
    for i in range(count):
        tx.on_sample(20.0 + 3.0 * i, t)
        t += period
    return t


class TestPolicy:
    def test_paper_sampling_periods(self):
        assert SAMPLING_PERIODS[DataType.TEMPERATURE] == 3.0
        assert SAMPLING_PERIODS[DataType.HUMIDITY] == 2.0
        assert SAMPLING_PERIODS[DataType.CO2] == 4.0

    def test_for_type(self):
        policy = AdaptivePolicy.for_type(DataType.CO2)
        assert policy.sampling_period_s == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptivePolicy(sampling_period_s=0.0)
        with pytest.raises(ValueError):
            AdaptivePolicy(window_size=1)
        with pytest.raises(ValueError):
            AdaptivePolicy(w_max=0)


class TestDoubling:
    def test_starts_at_w1(self):
        tx = make_tx()
        assert tx.w == 1
        assert tx.send_period_s == 2.0

    def test_doubles_after_stable_streak(self):
        tx = make_tx()
        t = feed_spike(tx, 0.0)          # establish a variance range
        t = feed_stable(tx, t, 200)      # long stable stretch
        assert tx.w > 1

    def test_w_capped_at_max(self):
        tx = make_tx(w_max=32)
        t = feed_spike(tx, 0.0)
        t = feed_stable(tx, t, 2000)
        assert tx.w == 32
        assert tx.send_period_s == 64.0

    def test_growth_is_powers_of_two(self):
        tx = make_tx()
        t = feed_spike(tx, 0.0)
        feed_stable(tx, t, 2000)
        ws = {2.0}
        for _time, period in tx.period_changes:
            ws.add(period)
        doubling = sorted(w for w in ws if w >= 2.0)
        for a, b in zip(doubling, doubling[1:]):
            assert b == 2 * a


class TestReset:
    def test_transition_resets_to_sampling_period(self):
        tx = make_tx()
        t = feed_spike(tx, 0.0)
        t = feed_stable(tx, t, 400)
        assert tx.w > 1
        # Force a threshold refresh so the learned lambda is current,
        # then inject a spike.
        tx.force_threshold_update(t)
        verdicts = []
        for i in range(6):
            verdicts.append(tx.on_sample(40.0 + 5 * i, t))
            t += 2.0
        assert "reset" in verdicts
        assert tx.w == 1

    def test_reset_verdict_repeats_while_unstable(self):
        """The paper resets the timer on every unstable sample."""
        tx = make_tx()
        t = feed_spike(tx, 0.0)
        t = feed_stable(tx, t, 400)
        tx.force_threshold_update(t)
        t2 = t
        verdicts = []
        for i in range(10):
            verdicts.append(tx.on_sample(100.0 * ((i % 2) + 1), t2))
            t2 += 2.0
        assert verdicts.count("reset") >= 2


class TestThresholdLearning:
    def test_threshold_updates_on_schedule(self):
        tx = make_tx(threshold_update_period_s=60.0)
        t = feed_spike(tx, 0.0)
        feed_stable(tx, t, 100)
        assert tx.threshold is not None

    def test_no_decisions_before_window_full(self):
        tx = make_tx(window_size=10)
        for i in range(9):
            assert tx.on_sample(20.0, float(i)) is None
        assert len(tx.decisions) == 0

    def test_oracle_disabled(self):
        tx = AdaptiveTransmitter(
            "tx", AdaptivePolicy(window_size=5), track_oracle=False)
        feed_spike(tx, 0.0)
        assert tx.oracle is None
        assert tx.accuracy() is None


class TestAccuracy:
    def test_accuracy_high_on_bimodal_stream(self):
        tx = make_tx()
        t = 0.0
        for _round in range(6):
            t = feed_stable(tx, t, 150)
            t = feed_spike(tx, t)
        accuracy = tx.accuracy()
        assert accuracy is not None
        assert accuracy > 0.9

    def test_accuracy_series_buckets(self):
        tx = make_tx()
        t = feed_spike(tx, 0.0)
        t = feed_stable(tx, t, 300)
        series = tx.accuracy_series(bucket_s=120.0)
        assert len(series) >= 2
        for _t, acc in series:
            assert 0.0 <= acc <= 1.0


class TestVariance:
    def test_window_variance_formula(self):
        """var = E[X^2] - E[X]^2 on the sliding window, per the paper."""
        tx = make_tx(window_size=4)
        samples = [1.0, 2.0, 3.0, 4.0]
        for i, sample in enumerate(samples):
            tx.on_sample(sample, float(i) * 2.0)
        expected = sum(x * x for x in samples) / 4 - (sum(samples) / 4) ** 2
        assert tx.decisions[-1].variance == pytest.approx(expected)
