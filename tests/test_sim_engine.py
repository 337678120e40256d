"""Tests for the discrete-event engine."""

import pytest

from repro.obs import create_observability
from repro.sim.engine import (
    EventQueue,
    SimulationError,
    Simulator,
    PRIORITY_CONTROL,
    PRIORITY_PHYSICS,
)


class TestEventQueue:
    def test_pop_orders_by_time(self):
        queue = EventQueue()
        order = []
        queue.push(5.0, 0, lambda: order.append("b"))
        queue.push(1.0, 0, lambda: order.append("a"))
        queue.push(9.0, 0, lambda: order.append("c"))
        while True:
            event = queue.pop()
            if event is None:
                break
            event.callback()
        assert order == ["a", "b", "c"]

    def test_same_time_orders_by_priority(self):
        queue = EventQueue()
        order = []
        queue.push(1.0, PRIORITY_CONTROL, lambda: order.append("control"))
        queue.push(1.0, PRIORITY_PHYSICS, lambda: order.append("physics"))
        queue.pop().callback()
        queue.pop().callback()
        assert order == ["physics", "control"]

    def test_same_time_same_priority_is_fifo(self):
        queue = EventQueue()
        events = [queue.push(1.0, 0, lambda: None) for _ in range(5)]
        popped = [queue.pop() for _ in range(5)]
        assert [e.seq for e in popped] == [e.seq for e in events]

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        first = queue.push(1.0, 0, lambda: None)
        queue.push(2.0, 0, lambda: None)
        first.cancel()
        assert queue.pop().time == 2.0

    def test_len_excludes_cancelled(self):
        queue = EventQueue()
        event = queue.push(1.0, 0, lambda: None)
        queue.push(2.0, 0, lambda: None)
        assert len(queue) == 2
        event.cancel()
        assert len(queue) == 1

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(3.0, 0, lambda: None)
        assert queue.peek_time() == 3.0

    def test_peek_skips_cancelled(self):
        queue = EventQueue()
        event = queue.push(1.0, 0, lambda: None)
        queue.push(4.0, 0, lambda: None)
        event.cancel()
        assert queue.peek_time() == 4.0


class TestSimulator:
    def test_schedule_and_run(self, sim):
        fired = []
        sim.schedule_at(10.0, lambda: fired.append(sim.now))
        sim.run_until(20.0)
        assert fired == [10.0]
        assert sim.now == 20.0

    def test_schedule_in_relative(self, sim):
        fired = []
        sim.schedule_in(5.0, lambda: fired.append(sim.now))
        sim.run(4.0)
        assert fired == []
        sim.run(2.0)
        assert fired == [5.0]

    def test_cannot_schedule_in_past(self, sim):
        sim.run(10.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_cannot_schedule_negative_delay(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_in(-1.0, lambda: None)

    def test_cannot_schedule_nan(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)

    def test_run_until_does_not_run_later_events(self, sim):
        fired = []
        sim.schedule_at(10.0, lambda: fired.append("early"))
        sim.schedule_at(30.0, lambda: fired.append("late"))
        sim.run_until(20.0)
        assert fired == ["early"]
        sim.run_until(40.0)
        assert fired == ["early", "late"]

    def test_clock_advances_to_horizon_even_when_queue_drains(self, sim):
        sim.run_until(123.0)
        assert sim.now == 123.0

    def test_events_can_schedule_events(self, sim):
        fired = []

        def chain():
            fired.append(sim.now)
            if len(fired) < 3:
                sim.schedule_in(1.0, chain)

        sim.schedule_in(1.0, chain)
        sim.run(10.0)
        assert fired == [1.0, 2.0, 3.0]

    def test_stop_halts_run(self, sim):
        fired = []
        sim.schedule_at(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule_at(2.0, lambda: fired.append(2))
        sim.run_until(10.0)
        assert fired == [1]

    def test_max_events_bound(self, sim):
        for i in range(10):
            sim.schedule_at(float(i + 1), lambda: None)
        dispatched = sim.run_until(100.0, max_events=4)
        assert dispatched == 4

    def test_stats(self, sim):
        sim.schedule_at(1.0, lambda: None)
        sim.run(2.0)
        stats = sim.stats()
        assert stats["events_dispatched"] == 1
        assert stats["pending_events"] == 0

    def test_start_time_offsets_clock(self):
        sim = Simulator(seed=0, start_time=100.0)
        assert sim.now == 100.0
        fired = []
        sim.schedule_in(5.0, lambda: fired.append(sim.now))
        sim.run(10.0)
        assert fired == [105.0]


class TestHeapCompaction:
    def test_compact_reclaims_cancelled_entries(self, sim):
        """Heavy cancellation shrinks the raw heap, not just __len__."""
        events = [sim.schedule_at(10.0 + i, lambda: None) for i in range(128)]
        assert sim.queue.heap_size == 128
        for event in events[: 100]:
            event.cancel()
        assert len(sim.queue) == 28
        assert sim.queue.heap_size < 64  # compaction reclaimed the rest

    def test_compact_inside_callback_keeps_run_until_consistent(self, sim):
        """Cancel-triggered compaction mid-run must not strand run_until.

        Regression test: ``compact()`` used to rebind ``_heap`` to a
        fresh list while ``run_until`` iterated a local alias of the old
        one — events scheduled after the compaction were silently
        dropped, surviving entries were re-dispatched by the next run,
        and the clock moved backwards.  Compaction now mutates the list
        in place, so a callback that cancels most of the queue must
        leave exactly-once dispatch and a monotone clock intact.
        """
        from collections import Counter
        from functools import partial

        fired = Counter()
        times = []
        heap_sizes = []

        def record(tag):
            times.append(sim.now)
            fired[tag] += 1

        victims = [
            sim.schedule_at(50.0 + 0.01 * i, partial(record, f"victim-{i}"))
            for i in range(100)
        ]

        def cancel_most_and_schedule_more():
            # 80 of 120 pending entries cancelled: the heap is >= 64
            # entries and the cancelled fraction crosses 1/2, so
            # compaction fires while run_until is mid-dispatch.
            for event in victims[20:]:
                event.cancel()
            heap_sizes.append(sim.queue.heap_size)
            # Scheduled *after* the compaction: these land in whatever
            # list the queue now owns and must still be dispatched.
            for i in range(20):
                sim.schedule_at(60.0 + i, partial(record, f"late-{i}"))

        sim.schedule_at(10.0, cancel_most_and_schedule_more)

        sim.run_until(200.0)
        assert heap_sizes and heap_sizes[0] < 100  # compaction really ran

        expected = {f"victim-{i}": 1 for i in range(20)}
        expected.update({f"late-{i}": 1 for i in range(20)})
        assert dict(fired) == expected      # exactly once, none dropped
        assert times == sorted(times)       # clock never moved backwards
        assert sim.now == 200.0

        # Nothing survives to be re-dispatched by a later run.
        assert sim.run_until(400.0) == 0
        assert dict(fired) == expected


def _profiled_sim():
    """The ``sim`` fixture's simulator with a dispatch profiler attached;
    stride 3 makes short runs take both the timed and the skipped path."""
    return Simulator(seed=42, obs=create_observability(profile_stride=3))


class TestSimulatorProfiled(TestSimulator):
    """Every :class:`TestSimulator` case with a profiler attached."""

    @pytest.fixture
    def sim(self):
        return _profiled_sim()

    def test_profiler_times_one_event_in_stride(self, sim):
        for i in range(10):
            sim.schedule_at(float(i + 1), lambda: None)
        assert sim.run_until(4.5) == 4
        # The countdown carries over into the next run_until call.
        assert sim.run_until(20.0) == 6
        assert sim.obs.profiler.events_timed == 4  # events 1, 4, 7, 10


class TestHeapCompactionProfiled(TestHeapCompaction):
    """Every :class:`TestHeapCompaction` case with a profiler attached."""

    @pytest.fixture
    def sim(self):
        return _profiled_sim()
