"""Property-based tests for the PID controller.

The invariants that keep the control loops safe under arbitrary inputs:
the output never leaves its clamp band, the integral cannot wind up
past what the clamp can express, and reset really forgets history.
Hypothesis drives the controller with random gain/measurement
sequences, which exercises the conditional-integration branches far
harder than the scripted cases in test_pid.py.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from repro.control.pid import PIDController, PIDGains  # noqa: E402

GAINS = st.builds(
    PIDGains,
    kp=st.floats(min_value=0.0, max_value=10.0),
    ki=st.floats(min_value=0.0, max_value=5.0),
    kd=st.floats(min_value=0.0, max_value=5.0),
)
MEASUREMENTS = st.lists(
    st.floats(min_value=-100.0, max_value=100.0), min_size=1, max_size=40)
DTS = st.floats(min_value=1e-3, max_value=60.0)


class TestClamping:
    @given(gains=GAINS, setpoint=st.floats(-50.0, 50.0),
           measurements=MEASUREMENTS, dt=DTS)
    def test_output_always_within_limits(self, gains, setpoint,
                                         measurements, dt):
        pid = PIDController(gains, output_limits=(-2.0, 3.0),
                            setpoint=setpoint)
        for measurement in measurements:
            out = pid.update(measurement, dt)
            assert -2.0 <= out <= 3.0
            assert pid.last_output == out

    @given(gains=GAINS, measurements=MEASUREMENTS)
    def test_asymmetric_limits_respected(self, gains, measurements):
        pid = PIDController(gains, output_limits=(0.2, 0.8))
        for measurement in measurements:
            assert 0.2 <= pid.update(measurement, 1.0) <= 0.8


class TestAntiWindup:
    @given(ki=st.floats(min_value=0.01, max_value=5.0),
           error=st.floats(min_value=0.5, max_value=50.0),
           steps=st.integers(min_value=1, max_value=200))
    def test_integral_stays_bounded_under_saturation(self, ki, error,
                                                     steps):
        """Constant unreachable setpoint: conditional integration must
        freeze the integral once the output saturates, instead of
        accumulating ki*error*dt forever."""
        pid = PIDController(PIDGains(kp=0.0, ki=ki),
                            output_limits=(0.0, 1.0), setpoint=error)
        for _ in range(steps):
            pid.update(0.0, 1.0)
        # The integral alone can saturate the output, but never by more
        # than one update's worth of overshoot.
        assert pid._integral <= 1.0 + ki * error * 1.0

    @given(ki=st.floats(min_value=0.01, max_value=5.0),
           error=st.floats(min_value=0.5, max_value=50.0))
    def test_recovery_after_windup_is_immediate(self, ki, error):
        """After a long one-sided error, a strong reversal must drive
        the output to the opposite rail immediately (the classic windup
        symptom is a tail where a bloated integral pins the output)."""
        pid = PIDController(PIDGains(kp=2.0, ki=ki),
                            output_limits=(0.0, 1.0), setpoint=error)
        for _ in range(500):
            pid.update(0.0, 1.0)
        # A naive always-integrate PID would have stored up to
        # ki*error*500 here and stayed railed high for hundreds of
        # samples; conditional integration keeps the integral small
        # enough that the proportional reversal wins at once.
        outputs = [pid.update(error + 1000.0, 1.0) for _ in range(5)]
        assert min(outputs) == 0.0

    @given(gains=GAINS, measurements=MEASUREMENTS, dt=DTS)
    @example(gains=PIDGains(kp=0.0, ki=0.015, kd=5.0),
             measurements=[-75.0, -62.0, -74.0, -48.0], dt=9.0)
    def test_integral_never_exceeds_expressible_range(self, gains,
                                                      measurements, dt):
        """Whatever the input sequence, the stored integral stays within
        one step plus the largest derivative kick of the clamp band.

        It only grows while the output is inside or moving inward.  An
        accepted step leaves ``P + I + D`` inside the band with ``P``
        of the step's own sign, so ``I`` can overshoot the band by at
        most that step's ``|D|``: the derivative on measurement can pull
        the sum back into the band while the integral sits outside it.
        The pinned example leaves I=16.2, past high + one step = 16.175,
        with a last kick of 14.4.
        """
        low, high = -1.0, 2.0
        pid = PIDController(gains, output_limits=(low, high), setpoint=5.0)
        max_step = gains.ki * (5.0 + 100.0) * dt
        kick = 0.0
        prev = None
        for measurement in measurements:
            pid.update(measurement, dt)
            if prev is not None:
                kick = max(kick, abs(gains.kd * ((measurement - prev) / dt)))
            prev = measurement
            slack = max_step + kick
            assert low - slack <= pid._integral <= high + slack


class TestStateHygiene:
    @given(gains=GAINS, measurements=MEASUREMENTS)
    def test_reset_forgets_history(self, gains, measurements):
        pid = PIDController(gains, setpoint=1.0)
        for measurement in measurements:
            pid.update(measurement, 1.0)
        pid.reset()
        fresh = PIDController(gains, setpoint=1.0)
        assert pid.update(0.3, 1.0) == fresh.update(0.3, 1.0)

    @given(gains=GAINS, dt=DTS)
    def test_rejects_non_positive_dt(self, gains, dt):
        pid = PIDController(gains)
        with pytest.raises(ValueError):
            pid.update(0.0, -dt)
        with pytest.raises(ValueError):
            pid.update(0.0, 0.0)
