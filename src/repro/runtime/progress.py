"""Progress reporting for pooled run execution.

The pool emits one :class:`ProgressEvent` per lifecycle transition of
each spec (started, finished, retried, failed).  Consumers either pass
a plain callable straight through or use :class:`ProgressPrinter`,
which renders ``[done/total]`` counter lines suitable for a terminal.

Events arrive in *completion* order, which under a parallel pool is
not spec order — progress output is advisory, and nothing derived from
it may enter a report (reports are merged in spec order; see
:mod:`repro.runtime.pool`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

# Event kinds, in lifecycle order.
STARTED = "started"
FINISHED = "finished"
RETRIED = "retried"
FAILED = "failed"


@dataclass(frozen=True)
class ProgressEvent:
    """One lifecycle transition of one spec inside the pool."""

    kind: str
    index: int
    label: str
    attempt: int = 0
    wall_s: Optional[float] = None
    detail: str = ""


ProgressCallback = Callable[[ProgressEvent], None]


def _default_write(line: str) -> None:
    """Write one progress line to stdout and flush immediately.

    Resolves ``sys.stdout`` at call time (not at printer construction)
    so output still lands correctly under pytest's capture swaps or a
    caller re-binding stdout mid-campaign, and flushes per event so a
    pipe or CI log shows progress live rather than on buffer fill.
    """
    import sys
    stream = sys.stdout
    stream.write(line + "\n")
    stream.flush()


class ProgressPrinter:
    """Render pool progress as counter-prefixed terminal lines."""

    def __init__(self, total: int,
                 write: Optional[Callable[[str], None]] = None) -> None:
        self.total = total
        self.done = 0
        self._write = write or _default_write

    def __call__(self, event: ProgressEvent) -> None:
        if event.kind == STARTED:
            self._write(f"  [{self.done}/{self.total}] "
                        f"start {event.label}")
        elif event.kind == FINISHED:
            self.done += 1
            wall = ("" if event.wall_s is None
                    else f" ({event.wall_s:.1f}s)")
            self._write(f"  [{self.done}/{self.total}] "
                        f"done {event.label}{wall}")
        elif event.kind == RETRIED:
            self._write(f"  retry {event.label} "
                        f"(attempt {event.attempt + 1}): {event.detail}")
        elif event.kind == FAILED:
            self.done += 1
            self._write(f"  [{self.done}/{self.total}] "
                        f"FAILED {event.label}: {event.detail}")


def first_starts(write: Optional[Callable[[str], None]],
                 describe: Callable[[ProgressEvent], str]
                 ) -> Optional[ProgressCallback]:
    """A callback that writes ``describe(event)`` once per spec, when
    its first attempt starts (retries stay silent); ``None`` when there
    is nothing to write to."""
    if write is None:
        return None

    def callback(event: ProgressEvent) -> None:
        if event.kind == STARTED and not event.attempt:
            write(describe(event))
    return callback


def emit(progress: Optional[ProgressCallback],
         event: ProgressEvent) -> None:
    """Deliver ``event`` if a callback is registered; never raise."""
    if progress is None:
        return
    try:
        progress(event)
    except Exception:  # pragma: no cover - progress must not kill runs
        pass
