"""Property test: the bulk channel-activity drain is bit-exact.

``AcScheduleAdapter`` folds the medium's activity log into its busy
profile lazily, binning a whole drain with vectorised arithmetic.  That
must leave exactly the floats that one ``observe_busy`` call per frame,
in log order, leaves — the quietest-bin choice compares them —
including when the profile already holds busy time from earlier drains.
"""

import struct

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from repro.net.medium import ChannelActivityLog  # noqa: E402
from repro.net.schedule import AcScheduleAdapter  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402

BINS = 20
PERIOD_S = 10.0

PROFILES = st.lists(st.floats(min_value=0.0, max_value=5.0),
                    min_size=BINS, max_size=BINS)


def frames(max_duration_s):
    """At least 64 frames, so the drain takes the bulk path.

    Sub-0.1 ms busy periods almost never cross a 0.5 s phase bin, so
    nearly every drain adds each frame to its one bin; with up to 0.3 s
    most drains hold a bin-crossing frame, which takes the exact
    multi-bin walk.
    """
    return st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=600.0),
                  st.floats(min_value=0.0, max_value=max_duration_s)),
        min_size=64, max_size=300)


def _bits(values):
    return [struct.pack("<d", value) for value in values]


def _drain_and_push(profile, frames, seed):
    drained = AcScheduleAdapter(Simulator(seed=seed), "a", PERIOD_S,
                                bins=BINS)
    pushed = AcScheduleAdapter(Simulator(seed=seed), "a", PERIOD_S,
                               bins=BINS)
    assert drained.offset_s == pushed.offset_s
    drained._busy_profile = list(profile)
    pushed._busy_profile = list(profile)

    log = ChannelActivityLog()
    drained._activity_log = log
    log.register(drained)
    for start, duration in frames:
        log.append(start, duration)
        pushed.observe_busy(start, duration)
    drained._drain_activity()
    return _bits(drained._busy_profile), _bits(pushed._busy_profile)


@given(profile=PROFILES, frames=frames(1e-4), seed=st.integers(0, 2**16))
def test_bulk_drain_matches_per_frame_observe(profile, frames, seed):
    drained, pushed = _drain_and_push(profile, frames, seed)
    assert drained == pushed


@given(profile=PROFILES, frames=frames(0.3), seed=st.integers(0, 2**16))
def test_drain_with_bin_crossing_frames_matches(profile, frames, seed):
    drained, pushed = _drain_and_push(profile, frames, seed)
    assert drained == pushed
