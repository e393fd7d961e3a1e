"""The request-coalescing queue behind the allocation service.

HTTP request threads :meth:`~RequestCoalescer.submit` cold tasks and block
on a future; a single worker thread sleeps until a request is queued, then
takes everything queued so far and turns it into as few solves as
possible.  Requests that arrive while that drain is solving queue up and
form the next one, so batches grow with load and a lone request starts
solving at once.

* requests for the **same digest** collapse onto one in-flight future
  (submitted while an identical request is already queued or solving,
  a request never recomputes — it joins the existing lane);
* the distinct tasks of a drain are scheduled by the sweep engine itself:
  :func:`~repro.experiments.runner.plan_units` cuts them into units
  exactly as it cuts a ``repro run --batch-size`` sweep (``"proposed"``
  tasks of one :meth:`~repro.experiments.runner.SweepRunner.batch_group_key`
  form even chunks of at most ``batch_size``; baselines and custom kinds
  are units of one), and the runner's unit step runs each unit through
  :func:`~repro.experiments.runner.execute_batch` — so a coalesced
  response is bit-identical to a per-drop ``solve()``, hard-deadline
  lanes included.

Batched units run before the units of one, and each unit resolves its
futures as soon as it finishes, not when the whole drain does.  At most
:data:`MAX_QUEUED` distinct digests wait to be drained; past that
:meth:`~RequestCoalescer.submit` refuses a new digest with
:class:`QueueFullError` (joins are still accepted).

Failures follow the sweep engine's crash-isolation contract: a broken
lane resolves its futures with an error string, never an exception, and
one bad request cannot take the worker (or a neighbouring lane) down.
:meth:`~RequestCoalescer.close` drains every queued request before the
worker exits, which is what makes the service's SIGINT shutdown graceful.
"""

from __future__ import annotations

import threading
import warnings
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable

from ..experiments.runner import SweepTask, _execute_step, batchable_task, plan_units
from ..perf.timers import StageTimings

__all__ = ["MAX_QUEUED", "QueueFullError", "SolveOutcome", "RequestCoalescer"]

#: Most distinct digests waiting to be drained; a new digest past this is
#: refused (the service answers 429).  Lanes already solving do not count.
MAX_QUEUED = 256


class QueueFullError(RuntimeError):
    """:meth:`RequestCoalescer.submit` refused a new digest: the queue is full."""


@dataclass(frozen=True)
class SolveOutcome:
    """What one coalesced solve produced for one digest.

    ``batch_size`` is the number of *distinct* tasks solved in the same
    unit (1 for a unit of one) — the observability hook the coalescing
    tests assert on.
    """

    digest: str
    task: SweepTask
    metrics: dict[str, float] | None
    state: dict[str, Any] | None
    error: str | None
    batch_size: int = 1

    @property
    def ok(self) -> bool:
        return self.metrics is not None


@dataclass
class _Lane:
    """One in-flight digest: the task plus every future waiting on it."""

    task: SweepTask
    futures: list[Future] = field(default_factory=list)


class RequestCoalescer:
    """Single-worker coalescing queue; see the module docstring.

    Parameters
    ----------
    batch_size:
        Maximum lanes per lockstep unit; a larger same-shape group in one
        drain is cut evenly (:func:`plan_units`).
    on_outcome:
        Optional callback invoked in the worker thread with each
        :class:`SolveOutcome` *before* its futures resolve — the service
        uses it to write the result store and bump counters, so a client
        that re-asks immediately after its response hits the cache.
    """

    def __init__(
        self,
        *,
        batch_size: int = 8,
        on_outcome: Callable[[SolveOutcome], None] | None = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = int(batch_size)
        self.on_outcome = on_outcome
        self.timings = StageTimings()
        #: Digests submitted and not yet drained, oldest first.
        self._queued: list[str] = []
        self._lanes: dict[str, _Lane] = {}
        self._lock = threading.Lock()
        self._arrived = threading.Condition(self._lock)
        self._stop = threading.Event()
        self._stats = {
            "submitted": 0,
            "joined": 0,
            "solved": 0,
            "errors": 0,
            "batches": 0,
            "batched_tasks": 0,
            "solo_tasks": 0,
            "max_batch_size": 0,
            "last_batch_size": 0,
        }
        self._worker = threading.Thread(
            target=self._run, name="repro-serve-coalescer", daemon=True
        )
        self._worker.start()

    # -- the request-thread side ---------------------------------------------
    def submit(self, task: SweepTask, digest: str) -> Future:
        """Enqueue ``task`` and return the future its solve will resolve.

        A digest already queued (or currently solving) is *joined*: the
        caller gets the existing lane's future machinery and no duplicate
        work is enqueued.  The future resolves with a :class:`SolveOutcome`.
        A new digest while :data:`MAX_QUEUED` digests wait raises
        :class:`QueueFullError`.
        """
        future: Future = Future()
        with self._lock:
            if self._stop.is_set():
                raise RuntimeError("coalescer is shut down")
            lane = self._lanes.get(digest)
            if lane is not None:
                lane.futures.append(future)
                self._stats["joined"] += 1
                return future
            if len(self._queued) >= MAX_QUEUED:
                raise QueueFullError(f"{len(self._queued)} requests already queued")
            self._lanes[digest] = _Lane(task=task, futures=[future])
            self._stats["submitted"] += 1
            self._queued.append(digest)
            self._arrived.notify()
        return future

    def snapshot(self) -> dict[str, int]:
        """A consistent copy of the coalescing counters (plus queue depth)."""
        with self._lock:
            counters = dict(self._stats)
            counters["queue_depth"] = len(self._queued)
        return counters

    def close(self) -> None:
        """Drain every queued request, then stop the worker (idempotent).

        New submissions are refused immediately; everything already queued
        is still solved — their futures resolve before this returns — so a
        SIGINT shutdown never strands a waiting client.
        """
        with self._lock:
            self._stop.set()
            self._arrived.notify()
        self._worker.join()

    # -- the worker side -----------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._lock:
                while not self._queued and not self._stop.is_set():
                    self._arrived.wait()
                if not self._queued:
                    return
                digests, self._queued = self._queued, []
            try:
                self._drain(digests)
            except Exception as exc:  # repro-lint: disable=RL005 -- a worker bug must fail the drained lanes loudly, not hang their clients
                error = f"{type(exc).__name__}: {exc}"
                for digest in digests:
                    with self._lock:
                        lane = self._lanes.get(digest)
                    if lane is not None:
                        self._resolve(SolveOutcome(digest, lane.task, None, None, error))

    def _drain(self, digests: list[str]) -> None:
        """Solve one drain with the sweep engine's planner, unit by unit."""
        with self._lock:
            tasks = [self._lanes[digest].task for digest in digests]
        for unit in plan_units(tasks, range(len(tasks)), self.batch_size):
            results = _execute_step([tasks[i] for i in unit])
            with self._lock:
                if batchable_task(tasks[unit[0]]):
                    self._stats["batches"] += 1
                    self._stats["batched_tasks"] += len(unit)
                else:
                    self._stats["solo_tasks"] += 1
                self._stats["last_batch_size"] = len(unit)
                self._stats["max_batch_size"] = max(self._stats["max_batch_size"], len(unit))
                for _metrics, _state, timings, _error in results:
                    if timings:
                        self.timings.merge(timings)
            for i, (metrics, state, _timings, error) in zip(unit, results):
                self._resolve(
                    SolveOutcome(
                        digest=digests[i],
                        task=tasks[i],
                        metrics=metrics,
                        state=state,
                        error=error,
                        batch_size=len(unit),
                    )
                )

    def _resolve(self, outcome: SolveOutcome) -> None:
        """Publish one outcome: store callback first, then the futures."""
        if self.on_outcome is not None:
            try:
                self.on_outcome(outcome)
            except Exception as exc:  # repro-lint: disable=RL005 -- a store/metrics callback failure must not strand the waiting clients
                warnings.warn(
                    f"serve: result callback failed for {outcome.digest[:12]}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
        with self._lock:
            lane = self._lanes.pop(outcome.digest, None)
            self._stats["solved"] += 1
            if outcome.error is not None:
                self._stats["errors"] += 1
        if lane is not None:
            for future in lane.futures:
                future.set_result(outcome)
