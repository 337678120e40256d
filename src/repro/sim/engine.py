"""Core discrete-event simulator.

Events are stored in a binary heap of ``(time, priority, seq, event)``
tuples.  ``priority`` breaks ties between events scheduled for the same
instant (lower runs first); ``seq`` is a monotonically increasing counter
that makes ordering fully deterministic and keeps tuple comparison from
ever reaching the (non-comparable) event object itself.  Heaping plain
tuples keeps every comparison in C — the previous ``order=True``
dataclass paid a Python ``__lt__`` call per sift step, which dominated
the dispatch cost of network-heavy runs.

The simulator supports cancellation (lazy deletion with periodic heap
compaction) and bounded runs (``run_until``).
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import NULL_OBS
from repro.sim.clock import SimClock
from repro.sim.rng import RngRegistry
from repro.sim.tracing import TraceRecorder

# Priorities for same-instant ordering.  Physics integrates first so that
# sensors sampled "now" observe the freshest state; controllers run after
# sensing; network delivery happens between the two.
PRIORITY_PHYSICS = 0
PRIORITY_SENSING = 10
PRIORITY_NETWORK = 20
PRIORITY_CONTROL = 30
PRIORITY_DEFAULT = 50
PRIORITY_MONITOR = 90


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests (e.g. events in the past)."""


class Event:
    """A scheduled callback.

    Events order by ``(time, priority, seq)``; the callback and
    bookkeeping fields take no part in comparison.
    """

    __slots__ = ("time", "priority", "seq", "callback", "name",
                 "cancelled", "_queue")

    def __init__(self, time: float, priority: int, seq: int,
                 callback: Callable[[], None], name: str = "",
                 queue: Optional["EventQueue"] = None) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.name = name
        self.cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event so the dispatcher skips it (lazy deletion)."""
        if not self.cancelled:
            self.cancelled = True
            if self._queue is not None:
                self._queue._note_cancel()

    def __lt__(self, other: "Event") -> bool:
        return ((self.time, self.priority, self.seq)
                < (other.time, other.priority, other.seq))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return (f"Event(t={self.time!r}, prio={self.priority}, "
                f"seq={self.seq}, name={self.name!r}{state})")


# Heap entries: (time, priority, seq, callback, name, event_or_None).
# seq is unique, so tuple comparison never falls through to the later
# fields.  ``event`` is None for fire-and-forget entries — the majority
# of network-path schedules are never cancelled and skip the Event
# allocation entirely.
_Entry = Tuple[float, int, int, Callable[[], None], str, Optional[Event]]

# Compaction policy for lazily-deleted events: rebuild the heap once the
# cancelled fraction exceeds half, but never bother below this size.
_COMPACT_MIN_SIZE = 64


class EventQueue:
    """Binary-heap priority queue of :class:`Event` objects.

    Cancellation is lazy, but the queue tracks a live-event counter
    (``__len__`` is O(1)) and compacts the heap whenever cancelled
    entries outnumber live ones, so a workload that cancels heavily
    (e.g. BT-ADPT timer resets) cannot grow the heap without bound.
    """

    __slots__ = ("_heap", "_next_seq", "_live")

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self._next_seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def push(self, time: float, priority: int, callback: Callable[[], None],
             name: str = "") -> Event:
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time, priority, seq, callback, name, self)
        heapq.heappush(self._heap, (time, priority, seq, callback, name,
                                    event))
        self._live += 1
        return event

    def push_fire(self, time: float, priority: int,
                  callback: Callable[[], None], name: str = "") -> None:
        """Push a fire-and-forget entry: no handle, cannot be cancelled.

        Skips the :class:`Event` allocation — worth it on paths that
        schedule several events per radio frame and never cancel any.
        """
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self._heap, (time, priority, seq, callback, name,
                                    None))
        self._live += 1

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest non-cancelled event, or None.

        Fire-and-forget entries are materialised into an :class:`Event`
        on the way out (this path serves tests, not the batched
        ``run_until`` loop).
        """
        heap = self._heap
        while heap:
            time, priority, seq, callback, name, event = heapq.heappop(heap)
            if event is None:
                self._live -= 1
                return Event(time, priority, seq, callback, name)
            if not event.cancelled:
                self._live -= 1
                event._queue = None  # dispatched; a late cancel is a no-op
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest pending event without removing it."""
        heap = self._heap
        while heap:
            event = heap[0][5]
            if event is not None and event.cancelled:
                heapq.heappop(heap)
                continue
            return heap[0][0]
        return None

    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """Bookkeeping for :meth:`Event.cancel`; compacts when stale."""
        self._live -= 1
        heap_size = len(self._heap)
        if (heap_size >= _COMPACT_MIN_SIZE
                and (heap_size - self._live) * 2 > heap_size):
            self.compact()

    def compact(self) -> None:
        """Drop cancelled entries and re-heapify (O(live)).

        Mutates the heap list *in place*: ``run_until`` holds a local
        alias to it, and compaction can be triggered from inside an
        event callback (a cancel during dispatch), so rebinding
        ``self._heap`` to a fresh list would strand that alias on a
        stale snapshot — dropping later events and re-dispatching the
        survivors on the next run.
        """
        self._heap[:] = [entry for entry in self._heap
                         if entry[5] is None or not entry[5].cancelled]
        heapq.heapify(self._heap)

    @property
    def heap_size(self) -> int:
        """Raw heap length including not-yet-reclaimed cancelled entries."""
        return len(self._heap)


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for the :class:`RngRegistry`.  Every named stream is
        derived from it, so a run is fully reproducible from one integer.
    start_time:
        Simulation epoch in seconds.  Benchmarks reproducing the paper's
        afternoon experiment set this to 13:00 (46800 s past midnight).
    obs:
        Observability context (:class:`repro.obs.Observability`).
        Defaults to the shared disabled ``NULL_OBS`` singleton, which
        keeps the unobserved path allocation-free.  When the context
        carries a profiler, ``run_until`` samples dispatch wall-time;
        observation never touches the RNG or the event queue, so
        observed runs stay bit-identical to blind ones.
    """

    def __init__(self, seed: int = 0, start_time: float = 0.0,
                 obs=None) -> None:
        self.clock = SimClock(start_time)
        self.queue = EventQueue()
        self.rng = RngRegistry(seed)
        self.trace = TraceRecorder()
        self.obs = obs if obs is not None else NULL_OBS
        self._stopped = False
        self._events_dispatched = 0

    # ------------------------------------------------------------------
    # Scheduling API
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self.clock.now

    def schedule_at(self, time: float, callback: Callable[[], None],
                    priority: int = PRIORITY_DEFAULT, name: str = "") -> Event:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        # One branch covers both rejection cases: the comparison is
        # False for past times and for NaN.
        if not (time >= self.clock.now):
            if math.isnan(time):
                raise SimulationError("cannot schedule an event at NaN time")
            raise SimulationError(
                f"cannot schedule event {name!r} at {time:.6f}, "
                f"which is before now ({self.clock.now:.6f})")
        return self.queue.push(time, priority, callback, name)

    def schedule_in(self, delay: float, callback: Callable[[], None],
                    priority: int = PRIORITY_DEFAULT, name: str = "") -> Event:
        """Schedule ``callback`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for event {name!r}")
        return self.schedule_at(self.clock.now + delay, callback, priority, name)

    def post_at(self, time: float, callback: Callable[[], None],
                priority: int = PRIORITY_DEFAULT, name: str = "") -> None:
        """Schedule a fire-and-forget callback at absolute time ``time``.

        Like :meth:`schedule_at` but returns no handle and cannot be
        cancelled — which lets the queue skip the per-event object
        allocation.  Use it on hot paths that never cancel (the MAC and
        medium schedule four such events per radio frame).
        """
        if not (time >= self.clock.now):
            if math.isnan(time):
                raise SimulationError("cannot schedule an event at NaN time")
            raise SimulationError(
                f"cannot schedule event {name!r} at {time:.6f}, "
                f"which is before now ({self.clock.now:.6f})")
        self.queue.push_fire(time, priority, callback, name)

    def post_in(self, delay: float, callback: Callable[[], None],
                priority: int = PRIORITY_DEFAULT, name: str = "") -> None:
        """Fire-and-forget counterpart of :meth:`schedule_in`."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for event {name!r}")
        self.post_at(self.clock.now + delay, callback, priority, name)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Request the current run loop to halt after the running event."""
        self._stopped = True

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> int:
        """Run events up to and including ``end_time``.

        Returns the number of events dispatched.  The clock is advanced to
        ``end_time`` even if the queue drains early, so fixed-horizon
        experiments always end at the same instant.

        The dispatch loop pops heap entries directly and batches all
        events sharing one instant: the horizon check and clock advance
        happen once per distinct timestamp rather than once per event.

        With a profiler attached, one event in ``stride`` is timed with
        ``perf_counter`` and recorded on the profiler; the rest pay one
        int decrement.  The skip countdown lives in a local and is
        persisted back to the profiler in the ``finally``, so sampling
        stays uniform across successive ``run_until`` calls.  Without a
        profiler the callback is called directly.
        """
        dispatched = 0
        self._stopped = False
        queue = self.queue
        heap = queue._heap
        clock = self.clock
        heappop = heapq.heappop
        profiler = self.obs.profiler
        if profiler is not None:
            perf = time.perf_counter
            record = profiler.record
            stride = profiler.stride
            skip = profiler._skip
        # ``inf`` sentinel keeps the per-event limit check to a single
        # comparison in the (overwhelmingly common) unlimited case.
        limit = math.inf if max_events is None else max_events
        # ``self._events_dispatched`` is folded in once at exit (the
        # ``finally`` covers callbacks that raise); per-event attribute
        # updates are measurable at millions of events per run.
        try:
            while not self._stopped:
                if dispatched >= limit:
                    break
                while heap:
                    head_event = heap[0][5]
                    if head_event is not None and head_event.cancelled:
                        heappop(heap)
                        continue
                    break
                if not heap:
                    break
                batch_time = heap[0][0]
                if batch_time > end_time:
                    break
                # Monotone by heap order and the no-past-scheduling
                # invariant, so the clock's advance_to guard is skipped.
                clock.now = batch_time
                # Dispatch every event at this instant without
                # re-checking the horizon; new same-instant events land
                # in the batch via the head re-peek.
                while True:
                    entry = heappop(heap)
                    event = entry[5]
                    if event is not None:
                        event._queue = None  # dispatched; cancel no-ops
                    queue._live -= 1
                    if profiler is None:
                        entry[3]()
                    elif skip:
                        skip -= 1
                        entry[3]()
                    else:
                        skip = stride - 1
                        t0 = perf()
                        entry[3]()
                        record(entry[4], perf() - t0)
                    dispatched += 1
                    if self._stopped or dispatched >= limit:
                        break
                    while heap:
                        head_event = heap[0][5]
                        if head_event is not None and head_event.cancelled:
                            heappop(heap)
                            continue
                        break
                    if not heap or heap[0][0] != batch_time:
                        break
        finally:
            if profiler is not None:
                profiler._skip = skip
            self._events_dispatched += dispatched
        if self.clock.now < end_time:
            self.clock.advance_to(end_time)
        return dispatched

    def run(self, duration: float, max_events: Optional[int] = None) -> int:
        """Run for ``duration`` simulated seconds from the current time."""
        return self.run_until(self.clock.now + duration, max_events=max_events)

    @property
    def events_dispatched(self) -> int:
        return self._events_dispatched

    def stats(self) -> Dict[str, Any]:
        """Small diagnostics snapshot, useful in logs and tests."""
        return {
            "now": self.clock.now,
            "pending_events": len(self.queue),
            "events_dispatched": self._events_dispatched,
        }
