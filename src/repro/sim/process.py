"""Process abstractions layered on the event queue.

``PeriodicTask`` is the workhorse: physics integration ticks, sensor
sampling loops and controller loops are all periodic tasks.  Its period
can be changed while running — exactly what the paper's adaptive
transmission scheme does when it doubles or resets T_snd.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import (Event, SimulationError, Simulator,
                              PRIORITY_DEFAULT)


class Process:
    """Base class for simulation actors owning scheduled activity."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name

    def start(self) -> None:
        """Begin the process's activity.  Subclasses override."""

    def stop(self) -> None:
        """Cease the process's activity.  Subclasses override."""


class PeriodicTask(Process):
    """Run ``action(now)`` every ``period`` seconds.

    Parameters
    ----------
    sim: the simulator to schedule on.
    name: label used for queue diagnostics.
    period: interval between invocations, seconds (> 0).
    action: callable receiving the current simulation time.
    priority: same-instant ordering class (see ``repro.sim.engine``).
    jitter: optional uniform jitter, in seconds, added to each interval
        (drawn from the task's own RNG stream) — used to desynchronise
        device start-up just as real motes boot at slightly different
        times.
    phase: delay before the first invocation (defaults to one period).
    """

    def __init__(self, sim: Simulator, name: str, period: float,
                 action: Callable[[float], None],
                 priority: int = PRIORITY_DEFAULT,
                 jitter: float = 0.0,
                 phase: Optional[float] = None) -> None:
        super().__init__(sim, name)
        if period <= 0:
            raise ValueError(f"task {name!r}: period must be positive")
        if jitter < 0:
            raise ValueError(f"task {name!r}: jitter must be non-negative")
        self._period = float(period)
        self._action = action
        self._priority = priority
        self._jitter = float(jitter)
        self._phase = self._period if phase is None else float(phase)
        # Jittered tasks hit their RNG stream on every reschedule; cache
        # the stream and serve draws from a prefetched block of
        # uniforms.  ``uniform(0, j)`` equals ``j * random()`` bit for
        # bit (0 + j*u in both), and ``random(n)`` partitions the stream
        # exactly like n scalar draws — see tests/test_perf_equivalence.
        self._jitter_stream = (sim.rng.stream(f"task/{name}")
                               if jitter > 0 else None)
        self._jitter_buf: list = []
        self._jitter_idx = 0
        self._pending: Optional[Event] = None
        self._running = False
        self.invocations = 0

    # ------------------------------------------------------------------
    @property
    def period(self) -> float:
        return self._period

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._schedule(self._phase)

    def stop(self) -> None:
        self._running = False
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def set_period(self, period: float, reschedule: bool = True) -> None:
        """Change the interval; optionally reschedule the pending firing.

        With ``reschedule=True`` the next invocation happens ``period``
        seconds from *now* — the behaviour the paper specifies when a
        bt-device detects instability and "immediately resets the timer
        using the updated T_snd".
        """
        if period <= 0:
            raise ValueError(f"task {self.name!r}: period must be positive")
        self._period = float(period)
        if reschedule and self._running:
            if self._pending is not None:
                self._pending.cancel()
            self._schedule(self._period)

    def fire_now(self) -> None:
        """Invoke the action immediately and restart the interval."""
        if not self._running:
            return
        if self._pending is not None:
            self._pending.cancel()
        self._fire()

    # ------------------------------------------------------------------
    def _schedule(self, delay: float) -> None:
        if self._jitter > 0:
            i = self._jitter_idx
            buf = self._jitter_buf
            if i >= len(buf):
                buf = self._jitter_buf = (
                    self._jitter_stream.random(64).tolist())
                i = 0
            self._jitter_idx = i + 1
            delay += self._jitter * buf[i]
        # Direct queue push: the validation of ``schedule_in`` reduces to
        # the one check below because ``now + delay >= now`` always holds
        # for a non-negative delay.  Periodic tasks reschedule once per
        # invocation, making this the busiest scheduling call site.
        sim = self.sim
        if delay < 0:
            raise SimulationError(
                f"negative delay {delay} for event {self.name!r}")
        self._pending = sim.queue.push(sim.clock.now + delay, self._priority,
                                       self._fire, self.name)

    def _fire(self) -> None:
        if not self._running:
            return
        self._pending = None
        self.invocations += 1
        self._action(self.sim.clock.now)
        # The action may have stopped the task or rescheduled it.
        if self._running and self._pending is None:
            self._schedule(self._period)
