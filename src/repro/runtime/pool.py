"""Spawn-safe process pool for independent seeded runs.

Fans a list of :class:`~repro.runtime.spec.RunSpec` out over worker
processes and merges the payloads **in spec order**, so the merged
list — and anything serialised from it — is byte-identical between
``workers=1`` and ``workers=N`` regardless of completion order.

Design decisions, in order of importance:

* **Determinism.**  Results are keyed by spec index, never by arrival.
  Each run is a pure function of its spec (fresh ``BubbleZero`` built
  inside the worker), so scheduling cannot leak into outcomes.

* **Spawn, not fork.**  Workers start with the ``spawn`` method: a
  forked child would inherit the parent's psychrometric caches, RNG
  block prefetch state and any partially-built system, which is both a
  correctness hazard (state the spec did not declare) and unavailable
  on platforms without ``fork``.  Spawn forces every run to prove it
  is reconstructible from its picklable spec alone.

* **Robustness.**  Each worker owns a duplex pipe; the parent
  multiplexes over connections *and* process sentinels, so a worker
  that dies without replying is detected immediately (no hang), a run
  that exceeds ``timeout_s`` gets its worker terminated, and either
  event triggers one bounded retry on a fresh worker before the slot
  is recorded as a structured :class:`~repro.runtime.spec.RunFailure`.
  Exceptions raised *inside* a run are deterministic and are recorded
  as failures without retry.

* **Retire on drain.**  Once no spec is left to hand out, every idle
  worker is sent the shutdown sentinel at once instead of idling until
  the last run finishes; the worker leaves through ``os._exit(0)``
  (nothing it holds needs an orderly interpreter teardown), so by the
  time the slowest run replies the others have long exited and the
  final join of every worker returns immediately.

``workers=1`` executes in-process (no pool, no spawn overhead) with
identical merge semantics — the reference path the parallel result is
tested against.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os
import sys
import time
from collections import deque
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, List, Optional, Sequence, TypeVar, Union

from repro.obs.events import EventLog, worker_record
from repro.runtime.progress import (
    FAILED,
    FINISHED,
    RETRIED,
    STARTED,
    ProgressCallback,
    ProgressEvent,
    emit,
)
from repro.runtime.spec import (
    RunFailure,
    RunResult,
    RunSpec,
    execute_spec,
)

DEFAULT_START_METHOD = "spawn"

# How long the multiplex wait may block between liveness checks.
_POLL_S = 0.25

RunPayload = Union[RunResult, RunFailure]

MatrixResult = TypeVar("MatrixResult")


def default_worker_count(n_tasks: Optional[int] = None) -> int:
    """``os.cpu_count()``-aware default, capped at the task count."""
    workers = os.cpu_count() or 1
    if n_tasks is not None:
        workers = min(workers, max(1, n_tasks))
    return max(1, workers)


def run_specs(specs: Sequence[RunSpec],
              workers: Optional[int] = None,
              timeout_s: Optional[float] = None,
              retries: int = 1,
              progress: Optional[ProgressCallback] = None,
              start_method: str = DEFAULT_START_METHOD,
              obs_events: Optional[EventLog] = None
              ) -> List[RunPayload]:
    """Execute every spec; return payloads in spec order.

    Every slot of the returned list holds either the spec's
    :class:`RunResult` or a :class:`RunFailure` describing how its
    bounded retries were exhausted — the list is always complete, never
    partial, and ``run_specs`` never hangs on a dead or stuck worker
    (given a ``timeout_s`` for the stuck case).

    ``obs_events`` tees every worker lifecycle transition (started /
    finished / retried / failed) into an observability event log in
    addition to the ``progress`` callback.  The log records arrival
    order; serialise it through
    :func:`repro.obs.events.sort_worker_records` for artifacts.
    """
    specs = list(specs)
    if not specs:
        return []
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if workers is None:
        workers = default_worker_count(len(specs))
    workers = max(1, min(workers, len(specs)))
    if obs_events is not None:
        progress = _tee_progress(progress, obs_events)
    if workers == 1:
        return _run_serial(specs, progress)
    return _run_pooled(specs, workers, timeout_s, retries, progress,
                       start_method)


def run_matrix(specs: Sequence[RunSpec],
               merge: Callable[[List[RunPayload]], MatrixResult],
               manifest: dict,
               *,
               workers: Optional[int] = 1,
               timeout_s: Optional[float] = None,
               progress: Optional[ProgressCallback] = None,
               telemetry_dir: Optional[str] = None) -> MatrixResult:
    """The one matrix pipeline: specs -> pool -> merge -> telemetry.

    Every matrix workload (campaign, sweep, chaos, bake-off) is a spec
    builder, a merger and a manifest around this call.  ``merge`` folds
    the in-spec-order payloads into the workload's result, which gets
    ``manifest`` as its ``.manifest``; a merger that raises (a
    campaign whose baseline failed) aborts before anything is written.

    ``telemetry_dir`` records the pool's worker lifecycle events and
    writes the artifact directory of :mod:`repro.obs.status` from the
    runs' observability payloads, in spec order.  The specs must carry
    telemetry for their runs to contribute payloads.
    """
    specs = list(specs)
    pool_events = (EventLog(enabled=True) if telemetry_dir is not None
                   else None)
    payloads = run_specs(specs, workers=workers, timeout_s=timeout_s,
                         progress=progress, obs_events=pool_events)
    result = merge(payloads)
    result.manifest = manifest
    if pool_events is not None:
        from repro.obs.status import write_run_telemetry
        write_run_telemetry(
            telemetry_dir, manifest, [spec.label for spec in specs],
            {payload.label: payload.obs for payload in payloads
             if not isinstance(payload, RunFailure)},
            pool_events.records)
    return result


def _tee_progress(progress: Optional[ProgressCallback],
                  obs_events: EventLog) -> ProgressCallback:
    """Wrap ``progress`` so every event also lands in ``obs_events``."""
    def tee(event: ProgressEvent) -> None:
        record = worker_record(event)
        kind = record.pop("kind")
        t = record.pop("t")
        obs_events.emit(kind, t, **record)
        emit(progress, event)
    return tee


def _run_serial(specs: List[RunSpec],
                progress: Optional[ProgressCallback]) -> List[RunPayload]:
    """In-process reference path; merge semantics match the pool."""
    results: List[RunPayload] = []
    for index, spec in enumerate(specs):
        emit(progress, ProgressEvent(STARTED, index, spec.label))
        try:
            payload: RunPayload = execute_spec(spec)
        except Exception as exc:
            payload = RunFailure(index=index, label=spec.label,
                                 kind="exception",
                                 message=f"{type(exc).__name__}: {exc}",
                                 attempts=1)
            emit(progress, ProgressEvent(FAILED, index, spec.label,
                                         detail=payload.message))
        else:
            emit(progress, ProgressEvent(FINISHED, index, spec.label,
                                         wall_s=payload.wall_s))
        results.append(payload)
    return results


def _worker_main(conn) -> None:
    """Worker loop: receive ``(index, attempt, spec)``, reply with
    ``(index, "ok", RunResult, None)`` or ``(index, "error", None,
    message)``.  ``None`` or a closed pipe retires the worker."""
    while True:
        try:
            message = conn.recv()
        except (EOFError, KeyboardInterrupt):  # pragma: no cover
            break
        if message is None:
            break
        index, attempt, spec = message
        # A finished run leaves its simulated system behind as one large
        # reference cycle, which the generational collector frees at a
        # moment set by allocation counts.  Free it before building the
        # next system, so a worker's peak memory is that of its largest
        # run, not of how many runs the schedule happened to give it.
        gc.collect()
        try:
            reply = (index, "ok", execute_spec(spec, attempt=attempt), None)
        except Exception as exc:
            reply = (index, "error", None, f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except (OSError, BrokenPipeError):  # pragma: no cover
            break
    _exit_worker()


def _exit_worker() -> None:
    """Leave the worker process without interpreter teardown.

    Every reply has been sent and the worker owns no files, locks or
    child processes, so finalising its modules and collecting the
    simulated systems it built is pure waste.  Only the standard
    streams can hold unwritten output, so they are flushed first.
    """
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError, ValueError):  # pragma: no cover
            pass
    os._exit(0)


class _Worker:
    """One spawned worker process plus its duplex pipe and task slot."""

    def __init__(self, ctx) -> None:
        parent_conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(target=_worker_main, args=(child_conn,),
                                   daemon=True, name="repro-run-worker")
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.task: Optional[tuple] = None  # (index, attempt)
        self.deadline: Optional[float] = None

    def assign(self, index: int, attempt: int, spec: RunSpec,
               timeout_s: Optional[float]) -> None:
        self.conn.send((index, attempt, spec))
        self.task = (index, attempt)
        self.deadline = (None if timeout_s is None
                         else time.monotonic() + timeout_s)

    def retire(self) -> None:
        """Send the shutdown sentinel to an idle worker; do not wait."""
        try:
            self.conn.send(None)
        except (OSError, BrokenPipeError):
            pass

    def reap(self) -> None:
        """Join a retired worker; escalates if it ignored the sentinel."""
        self.conn.close()
        self.process.join(timeout=2.0)
        if self.process.is_alive():  # pragma: no cover
            self.process.terminate()
            self.process.join(timeout=2.0)

    def kill(self) -> None:
        """Hard stop for crashed or timed-out workers."""
        self.conn.close()
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
        if self.process.is_alive():  # pragma: no cover
            self.process.kill()
            self.process.join(timeout=2.0)


def _run_pooled(specs: List[RunSpec], workers: int,
                timeout_s: Optional[float], retries: int,
                progress: Optional[ProgressCallback],
                start_method: str) -> List[RunPayload]:
    ctx = mp.get_context(start_method)
    n = len(specs)
    results: List[Optional[RunPayload]] = [None] * n
    pending = deque((index, 0) for index in range(n))
    # ``None`` marks a slot without a live worker: its worker retired
    # (nothing left to hand out) or was lost.  A slot is respawned only
    # when a task is waiting for it.
    pool: List[Optional[_Worker]] = [_Worker(ctx) for _ in range(workers)]
    retired: List[_Worker] = []

    def lose_task(slot: int, kind: str, message: str) -> None:
        """A worker died or was timed out while holding a task."""
        worker = pool[slot]
        index, attempt = worker.task
        worker.kill()
        pool[slot] = None
        if attempt < retries:
            pending.appendleft((index, attempt + 1))
            emit(progress, ProgressEvent(RETRIED, index,
                                         specs[index].label,
                                         attempt=attempt, detail=kind))
        else:
            results[index] = RunFailure(index=index,
                                        label=specs[index].label,
                                        kind=kind, message=message,
                                        attempts=attempt + 1)
            emit(progress, ProgressEvent(FAILED, index, specs[index].label,
                                         attempt=attempt, detail=message))

    def record_reply(slot: int, reply: tuple) -> None:
        worker = pool[slot]
        _, attempt = worker.task
        worker.task = None
        worker.deadline = None
        index, status, payload, error = reply
        if status == "ok":
            results[index] = payload
            emit(progress, ProgressEvent(FINISHED, index, payload.label,
                                         attempt=attempt,
                                         wall_s=payload.wall_s))
        else:
            # A raising run is deterministic: retrying would raise again.
            results[index] = RunFailure(index=index,
                                        label=specs[index].label,
                                        kind="exception", message=error,
                                        attempts=attempt + 1)
            emit(progress, ProgressEvent(FAILED, index, specs[index].label,
                                         attempt=attempt, detail=error))

    try:
        while pending or any(w is not None and w.task is not None
                             for w in pool):
            # Feed idle workers, (re)spawning empty or dead-idle slots,
            # and retire every idle worker once nothing is pending.
            for slot, worker in enumerate(pool):
                if worker is not None and worker.task is not None:
                    continue
                if not pending:
                    if worker is not None:
                        worker.retire()
                        retired.append(worker)
                        pool[slot] = None
                    continue
                if worker is None or not worker.process.is_alive():
                    if worker is not None:
                        worker.kill()
                    pool[slot] = worker = _Worker(ctx)
                index, attempt = pending.popleft()
                try:
                    worker.assign(index, attempt, specs[index], timeout_s)
                except (OSError, BrokenPipeError):  # pragma: no cover
                    pending.appendleft((index, attempt))
                    worker.kill()
                    pool[slot] = None
                    continue
                emit(progress, ProgressEvent(STARTED, index,
                                             specs[index].label,
                                             attempt=attempt))
            busy = [(slot, w) for slot, w in enumerate(pool)
                    if w is not None and w.task is not None]
            if not busy:  # pragma: no cover - pending implies assignable
                continue
            now = time.monotonic()
            wait_s = _POLL_S
            for _, worker in busy:
                if worker.deadline is not None:
                    wait_s = min(wait_s, max(0.0, worker.deadline - now))
            waitables = [w.conn for _, w in busy]
            waitables += [w.process.sentinel for _, w in busy]
            ready = set(_connection_wait(waitables, timeout=wait_s))
            now = time.monotonic()
            for slot, worker in busy:
                if worker.conn in ready:
                    try:
                        reply = worker.conn.recv()
                    except (EOFError, OSError):
                        lose_task(slot, "crash", _death_notice(worker))
                        continue
                    record_reply(slot, reply)
                elif (worker.process.sentinel in ready
                        and not worker.process.is_alive()):
                    # The worker died; drain any reply it buffered
                    # before death rather than discarding a good run.
                    drained = False
                    try:
                        if worker.conn.poll():
                            record_reply(slot, worker.conn.recv())
                            drained = True
                    except (EOFError, OSError):
                        pass
                    if not drained:
                        lose_task(slot, "crash", _death_notice(worker))
                elif (worker.deadline is not None
                        and now >= worker.deadline):
                    lose_task(slot, "timeout",
                              f"run exceeded {timeout_s:g}s "
                              f"(attempt {worker.task[1] + 1})")
    finally:
        for worker in pool:
            if worker is None:
                continue
            if worker.task is None:
                worker.retire()
                retired.append(worker)
            else:  # pragma: no cover - only on parent exceptions
                worker.kill()
        for worker in retired:
            worker.reap()
    undecided = [index for index, payload in enumerate(results)
                 if payload is None]
    if undecided:  # pragma: no cover - the loop exits only when complete
        raise RuntimeError(f"pool exited with undecided runs: {undecided}")
    return list(results)  # type: ignore[arg-type]


def _death_notice(worker: _Worker) -> str:
    code = worker.process.exitcode
    return f"worker exited unexpectedly (exit code {code})"
