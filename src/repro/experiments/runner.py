"""The parallel sweep engine behind every experiment runner.

The paper's evaluation is a large grid of independent allocator solves —
(grid point × random drop) — and nothing in one solve depends on another.
This module turns that structure into an explicit task list and executes it
through a pluggable :class:`SweepRunner`:

* a **task** (:class:`SweepTask`) is pure data — the scenario recipe, the
  solver kind and its parameters — so it can be hashed, cached and shipped
  to a worker process;
* **solver kinds** live in a registry (:func:`register_solver_kind`), so an
  experiment can plug in a custom metric function without the engine
  knowing about it (the built-in kinds are ``"proposed"`` and
  ``"baseline"``);
* the runner fans tasks out over a :class:`~concurrent.futures.ProcessPoolExecutor`
  (``jobs > 1``) or runs them inline (``jobs == 1``), with **deterministic
  seeding** (the seed is part of the task, so serial and parallel runs
  produce bit-identical tables), **crash isolation** (a failing task becomes
  an error outcome instead of killing the sweep) and optional **progress
  reporting**;
* successful results are stored in a pluggable **on-disk result store**
  (:mod:`repro.store` — JSON-per-task or packed columnar) keyed by a
  SHA-256 hash of the task's canonical payload, so repeating a sweep with an
  unchanged configuration is instant and changing any knob invalidates
  exactly the affected tasks;
* with ``shard="I/N"`` the runner executes only the tasks whose hash lands
  in shard ``I`` of ``N``, returning the rest as ``skipped`` outcomes — N
  independent invocations partition any task list exactly, and
  ``repro store merge`` reassembles their shard stores into the serial
  store bit-for-bit;
* one planner (:func:`plan_units`) and one executor (:func:`execute_batch`)
  schedule every solve, the sweeps' and the ``repro serve`` coalescer's:
  batchable tasks of one shape (:meth:`SweepRunner.batch_group_key`) run
  in even contiguous units through their kind's :func:`batch_twin` —
  ``"proposed"`` solves in one :meth:`ResourceAllocator.solve_batch`
  pass, ``"proposed"`` closed FL runs a global round at a time
  (:func:`repro.fl.roundloop.run_lockstep`) — and every other task is a
  unit of one.  Every lane is bit-identical to its per-task run.

Every solve starts cold from the paper's initial point, so a task's result
depends on nothing but the task itself.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..baselines.registry import get_baseline
from ..core.allocation import ResourceAllocation
from ..core.allocator import AllocationResult, ResourceAllocator
from ..core.problem import JointProblem, ProblemWeights
from ..exceptions import ConfigurationError
from ..perf.timers import StageTimings, collect_timings, stage, wall_clock
from ..scenarios import SCENARIO_SCHEMA_VERSION, ScenarioSpec
from ..store import ResultStore, open_store, shard_for_digest
from ..system import SystemModel

__all__ = [
    "BatchConfig",
    "SweepTask",
    "TaskOutcome",
    "SweepStats",
    "SweepRunner",
    "register_solver_kind",
    "solver_kinds",
    "allocation_from_state",
    "batch_twin",
    "batchable_task",
    "execute_batch",
    "execute_task",
    "execute_task_detailed",
    "plan_units",
    "task_hash",
    "parse_shard",
    "default_cache_dir",
    "get_active_runner",
    "set_default_runner",
    "use_runner",
]

#: Bump to invalidate every cached result (e.g. if the metric schema changes).
#: 2: scenarios became (family, params) specs — the family name and scenario
#: schema version joined the payload, so pre-registry entries are stale.
#: 3: the metrics schema gained solver iteration counts (inner_iterations)
#: and entries may carry the final allocation as solution state.
#: 4: the SP2 backend knob joined the allocator configuration (and the
#: multiplier search gained its exact-root polish), so pre-backend entries
#: were solved to a different tolerance profile and are stale.
#: 5: RoundLoopConfig grew the dynamic-fleet layer (churn / battery /
#: estimated-profile knobs ride into the payload through the asdict
#: carrier) and fl_roundloop metrics gained the per-round dynamic keys, so
#: pre-dynamic FL entries carry an incomplete schema.
#: The SP2 backend knob later left the payload again with no bump: the
#: results kept their bits, so entries keyed with it are unreachable, not
#: stale.
CACHE_VERSION = 5

SolverFn = Callable[
    [SystemModel, Mapping[str, Any]],
    Mapping[str, float] | tuple[Mapping[str, float], dict[str, Any]],
]

#: A solver kind's lockstep twin (see :func:`batch_twin`).
BatchFn = Callable[
    [Sequence[SystemModel], Sequence[Mapping[str, Any]]],
    list[Any],
]

_SOLVER_KINDS: dict[str, SolverFn] = {}


def register_solver_kind(name: str) -> Callable[[SolverFn], SolverFn]:
    """Register ``fn(system, params) -> metrics`` under ``name``.

    The registry is what keeps the engine pluggable: experiments declare the
    *name* of the computation in their tasks and the worker looks the
    function up at execution time, so task objects stay pure data.

    A kind may instead return ``(metrics, state)``: ``state`` is a JSON-able
    snapshot of the solution that the runner stores beside the metrics in
    the result cache.
    """

    def decorator(fn: SolverFn) -> SolverFn:
        _SOLVER_KINDS[name] = fn
        return fn

    return decorator


def batch_twin(
    kind: SolverFn, accepts: Callable[[Mapping[str, Any]], bool] = lambda params: True
) -> Callable[[BatchFn], BatchFn]:
    """Give the solver-kind function ``kind`` a lockstep batch twin.

    ``twin(systems, params)`` runs a whole batched unit at once and returns
    one output per task, in order: what ``kind(system, params)`` returns,
    or the exception it would raise.  ``accepts(params)`` says which tasks
    of the kind batch (:func:`batchable_task`); the rest run per task.  The
    twin lives on the function object, so a kind re-registered with a
    plain function runs every task per task again.
    """

    def decorator(twin: BatchFn) -> BatchFn:
        kind.batch = twin  # type: ignore[attr-defined]
        kind.batch_accepts = accepts  # type: ignore[attr-defined]
        return twin

    return decorator


def solver_kinds() -> tuple[str, ...]:
    """The currently registered solver-kind names."""
    return tuple(sorted(_SOLVER_KINDS))


def allocation_from_state(
    system: SystemModel, state: Mapping[str, Any]
) -> ResourceAllocation | None:
    """Rebuild a task's stored allocation from its state snapshot.

    The snapshot is projected into ``system``'s boxes: power and frequency
    are clipped, the bandwidth split is rescaled into the budget.  Anything
    unusable (wrong fleet size, non-finite values, zero rates) returns
    ``None``.
    """
    try:
        power = np.asarray(state["power_w"], dtype=float)
        bandwidth = np.asarray(state["bandwidth_hz"], dtype=float)
        frequency = np.asarray(state["frequency_hz"], dtype=float)
    except (KeyError, TypeError, ValueError):
        return None
    shape = (system.num_devices,)
    if power.shape != shape or bandwidth.shape != shape or frequency.shape != shape:
        return None
    finite = (
        np.all(np.isfinite(power))
        and np.all(np.isfinite(bandwidth))
        and np.all(np.isfinite(frequency))
    )
    if not finite:
        return None
    power = np.clip(power, np.maximum(system.min_power_w, 1e-6), system.max_power_w)
    frequency = np.clip(frequency, system.min_frequency_hz, system.max_frequency_hz)
    bandwidth = np.maximum(bandwidth, 0.0)
    total = float(bandwidth.sum())
    if total <= 0.0 or np.any(bandwidth <= 0.0) or np.any(power <= 0.0):
        return None
    if total > system.total_bandwidth_hz:
        bandwidth = bandwidth * (system.total_bandwidth_hz / total)
    return ResourceAllocation(
        power_w=power, bandwidth_hz=bandwidth, frequency_hz=frequency
    )


def _resolve_solver(name: str) -> SolverFn:
    if name not in _SOLVER_KINDS:
        # Experiment modules register extra kinds at import time; a worker
        # process may not have imported them yet, so pull in the full
        # experiment registry before giving up.
        from . import registry  # noqa: F401  (import for side effects)
    if name not in _SOLVER_KINDS and ":" in name:
        # ``"pkg.module:function"`` kinds resolve by import, which keeps
        # third-party solver kinds working in worker processes even under
        # the spawn/forkserver start methods (where a decorator run in the
        # parent never executes in the child).
        module_name, _, attr = name.partition(":")
        fn = getattr(importlib.import_module(module_name), attr)
        _SOLVER_KINDS[name] = fn
        return fn
    try:
        return _SOLVER_KINDS[name]
    except KeyError as exc:
        known = ", ".join(solver_kinds())
        raise KeyError(f"unknown solver kind {name!r}; known: {known}") from exc


def _proposed_state(result: AllocationResult) -> dict[str, Any]:
    """The JSON-able solution snapshot stored beside a proposed task's metrics."""
    return {
        "power_w": result.allocation.power_w.tolist(),
        "bandwidth_hz": result.allocation.bandwidth_hz.tolist(),
        "frequency_hz": result.allocation.frequency_hz.tolist(),
        "mu": result.mu,
    }


def _joint_problem(system: SystemModel, params: Mapping[str, Any]) -> JointProblem:
    weights = ProblemWeights.from_energy_weight(params["energy_weight"])
    return JointProblem(system, weights, deadline_s=params.get("deadline_s"))


@register_solver_kind("proposed")
def _run_proposed(
    system: SystemModel, params: Mapping[str, Any]
) -> tuple[Mapping[str, float], dict[str, Any]]:
    """Algorithm 2 on one drop (the paper's proposed scheme)."""
    result = ResourceAllocator(params.get("allocator")).solve(
        _joint_problem(system, params)
    )
    return result.summary(), _proposed_state(result)


@batch_twin(_run_proposed)
def _run_proposed_batch(
    systems: Sequence[SystemModel], params: Sequence[Mapping[str, Any]]
) -> list[Any]:
    """Algorithm 2 on every drop of a unit in one lockstep pass.

    The unit shares a :meth:`SweepRunner.batch_group_key`, so one
    :class:`ResourceAllocator` serves it.
    """
    outputs: list[Any] = [None] * len(systems)
    lanes: list[tuple[int, JointProblem]] = []
    for position, (system, task_params) in enumerate(zip(systems, params)):
        try:
            lanes.append((position, _joint_problem(system, task_params)))
        except Exception as exc:  # repro-lint: disable=RL005 -- crash isolation: one bad drop must become an error row, not kill the batch
            outputs[position] = exc
    if lanes:
        allocator = ResourceAllocator(params[lanes[0][0]].get("allocator"))
        solved = allocator.solve_batch(
            [problem for _, problem in lanes], return_exceptions=True
        )
        for (position, _problem), result in zip(lanes, solved):
            outputs[position] = (
                result
                if isinstance(result, Exception)
                else (result.summary(), _proposed_state(result))
            )
    return outputs


@register_solver_kind("baseline")
def _run_baseline(system: SystemModel, params: Mapping[str, Any]) -> Mapping[str, float]:
    """A named baseline scheme on one drop."""
    kwargs = dict(params.get("kwargs", {}))
    return get_baseline(params["name"])(_joint_problem(system, params), **kwargs).summary()


@dataclass(frozen=True)
class SweepTask:
    """One independent unit of sweep work: build a drop, solve it, report.

    ``key`` identifies the grid point; the trials sharing a key are averaged
    by the aggregation layer.  ``scenario`` holds the
    :class:`~repro.scenario.ScenarioConfig` keyword arguments *including the
    trial seed*, which is what makes execution order irrelevant.
    """

    key: tuple
    scenario: Mapping[str, Any]
    solver_kind: str
    solver_params: Mapping[str, Any] = field(default_factory=dict)

    def scenario_spec(self) -> ScenarioSpec:
        """The task's scenario as a (family, params) spec.

        ``scenario`` is a flat mapping whose optional ``"family"`` key names
        the scenario family (default ``"paper"``, matching the pre-registry
        task format).
        """
        return ScenarioSpec.from_mapping(self.scenario)

    def payload(self) -> dict[str, Any]:
        """The canonical JSON-able description used for cache hashing.

        The scenario family and scenario schema version are explicit fields,
        so results from different families (or from an older scenario
        encoding) can never collide.  The package version is part of the
        payload so a release that changes solver behaviour invalidates the
        cache automatically; CACHE_VERSION handles schema changes between
        releases.
        """
        from .. import __version__

        spec = self.scenario_spec()
        return {
            "cache_version": CACHE_VERSION,
            "scenario_schema": SCENARIO_SCHEMA_VERSION,
            "repro_version": __version__,
            "scenario_family": spec.family,
            "scenario": _jsonify(spec.params),
            "solver_kind": self.solver_kind,
            "solver_params": _jsonify(self.solver_params),
        }


def _jsonify(value: Any) -> Any:
    """Canonicalise a task component into JSON-stable plain data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            "fields": _jsonify(dataclasses.asdict(value)),
        }
    if isinstance(value, Mapping):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"cannot canonicalise {type(value).__name__} for cache hashing")


def task_hash(task: SweepTask) -> str:
    """A stable SHA-256 over the task's canonical payload (the cache key)."""
    return _task_key(task)[0]


def _task_key(task: SweepTask) -> tuple[str, dict[str, Any]]:
    """``(task_hash(task), task.payload())``, building the payload once."""
    payload = task.payload()
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest(), payload


def execute_task(task: SweepTask) -> dict[str, float]:
    """Build the task's scenario and run its solver kind (worker entry point).

    The scenario family resolves through the registry (importing
    :mod:`repro.scenarios` registered the built-ins; dotted
    ``module:function`` families resolve by import), so custom families
    work in spawned worker processes exactly like custom solver kinds.
    """
    metrics, _state, _timings = execute_task_detailed(task)
    return metrics


def execute_task_detailed(
    task: SweepTask,
) -> tuple[dict[str, float], dict[str, Any] | None, dict[str, float]]:
    """Run one task and also return its solution state and stage timings.

    The returned state is ``None`` for kinds that return bare metrics.
    Timings cover the whole execution (``scenario_build`` / ``solve`` plus
    whatever stages the solver recorded through :mod:`repro.perf.timers`).
    """
    solver = _resolve_solver(task.solver_kind)
    collector = StageTimings()
    with collect_timings(collector):
        with stage("scenario_build"):
            system = task.scenario_spec().build()
        with stage("solve"):
            output = solver(system, task.solver_params)
    metrics, state = output if isinstance(output, tuple) else (output, None)
    return dict(metrics), state, collector.as_dict()


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def batchable_task(task: SweepTask) -> bool:
    """Whether ``task`` rides a lockstep batch (:func:`execute_batch`).

    The check behind :func:`plan_units`, which cuts the units of both the
    runner and the ``repro serve`` coalescer: a task batches when its
    registered kind function has a :func:`batch_twin` that accepts its
    parameters — every ``"proposed"`` solve (:meth:`ResourceAllocator.solve_batch`
    runs each lane kind) and every ``"proposed"`` closed FL run
    (:func:`repro.fl.roundloop.run_lockstep`).  Baselines and custom
    kinds run per task.
    """
    accepts = getattr(_SOLVER_KINDS.get(task.solver_kind), "batch_accepts", None)
    return accepts is not None and bool(accepts(task.solver_params))


def plan_units(
    tasks: Sequence[SweepTask],
    indices: Iterable[int],
    batch_size: int | None,
    jobs: int = 1,
    payloads: Mapping[int, Mapping[str, Any]] | None = None,
) -> list[list[int]]:
    """Cut the tasks at ``indices`` into scheduling units, batches first.

    Batchable tasks (:func:`batchable_task`) are grouped by
    :meth:`SweepRunner.batch_group_key` and each group is cut into even
    contiguous chunks: as many as the ``batch_size`` cap needs (``None``:
    one), and with ``jobs > 1`` up to ``jobs`` so every worker gets one.
    Every other task, and every task when ``batch_size == 1``, is a unit
    of one, in ``indices`` order.  ``payloads`` maps an index to the
    task's :meth:`SweepTask.payload` where the caller built it already.
    """
    groups: dict[str, list[int]] = {}
    solo: list[list[int]] = []
    for index in indices:
        task = tasks[index]
        if batch_size != 1 and batchable_task(task):
            payload = payloads.get(index) if payloads is not None else None
            groups.setdefault(SweepRunner.batch_group_key(task, payload), []).append(index)
        else:
            solo.append([index])
    units: list[list[int]] = []
    for members in groups.values():
        count = len(members)
        pieces = 1 if batch_size is None else -(-count // batch_size)
        if jobs > 1:
            pieces = max(pieces, min(jobs, count))
        base, extra = divmod(count, pieces)
        start = 0
        for piece in range(pieces):
            stop = start + base + (piece < extra)
            units.append(members[start:stop])
            start = stop
    return units + solo


def execute_batch(
    tasks: Sequence[SweepTask],
) -> list[tuple[dict[str, float] | None, dict[str, Any] | None, str | None]]:
    """Run one scheduling unit of :func:`plan_units`.

    A unit of several batchable tasks (one kind and group key) runs in one
    lockstep pass of the kind's :func:`batch_twin`; any other unit calls
    each task's kind function, as :func:`execute_task` does.  Returns one
    ``(metrics, state, error)`` triple per task, in task order, built as
    :func:`execute_task_detailed` builds them, so cache entries are
    byte-identical either way.  Crash isolation: an unresolvable kind, a
    failed scenario build or a raised solve becomes that lane's
    ``"Type: message"`` error, never an exception, so one bad drop cannot
    take the sweep down and the outcome stays picklable.
    """
    results: list[tuple[dict[str, float] | None, dict[str, Any] | None, str | None]] = [
        (None, None, None)
    ] * len(tasks)
    lanes: list[tuple[int, SolverFn, SystemModel]] = []
    for position, task in enumerate(tasks):
        try:
            solver = _resolve_solver(task.solver_kind)
            with stage("scenario_build"):
                lanes.append((position, solver, task.scenario_spec().build()))
        except Exception as exc:  # repro-lint: disable=RL005 -- crash isolation: one bad drop must become an error row, not kill the unit
            results[position] = (None, None, _error_text(exc))
    outputs: list[Any] = []
    if lanes and len(tasks) > 1 and batchable_task(tasks[0]):
        with stage("solve"):
            outputs = lanes[0][1].batch(  # type: ignore[attr-defined]
                [system for _, _, system in lanes],
                [tasks[position].solver_params for position, _, _ in lanes],
            )
    else:
        for position, solver, system in lanes:
            try:
                with stage("solve"):
                    outputs.append(solver(system, tasks[position].solver_params))
            except Exception as exc:  # repro-lint: disable=RL005 -- crash isolation: one bad drop must become an error row, not kill the unit
                outputs.append(exc)
    for (position, _solver, _system), output in zip(lanes, outputs):
        if isinstance(output, Exception):
            results[position] = (None, None, _error_text(output))
            continue
        metrics, state = output if isinstance(output, tuple) else (output, None)
        results[position] = (dict(metrics), state, None)
    return results


def _execute_step(
    tasks: Sequence[SweepTask],
) -> list[tuple[dict[str, float] | None, dict[str, Any] | None, dict[str, float] | None, str | None]]:
    """Run one scheduling unit and time it (worker entry point).

    One :func:`execute_batch` call under a stage collector; one
    ``(metrics, state, timings, error)`` tuple comes back per task.  A
    pass of several lanes has no per-lane stage breakdown, so only a
    successful one-task unit reports ``timings``.
    """
    collector = StageTimings()
    with collect_timings(collector):
        triples = execute_batch(tasks)
    timings = collector.as_dict() if len(tasks) == 1 else None
    return [
        (metrics, state, timings if error is None else None, error)
        for metrics, state, error in triples
    ]


@dataclass(frozen=True)
class TaskOutcome:
    """What happened to one task: metrics, a cache hit, an error, or a skip.

    ``state`` is the solver's solution snapshot (stored beside the metrics)
    and ``timings`` the per-stage wall-clock breakdown of the execution.
    ``skipped`` marks a task that belongs to a *different* shard of a
    ``--shard I/N`` run: it was neither executed nor failed, and the
    aggregation layer must not count it against the grid point.
    """

    task: SweepTask
    metrics: dict[str, float] | None
    error: str | None = None
    cached: bool = False
    state: dict[str, Any] | None = None
    timings: dict[str, float] | None = None
    skipped: bool = False

    @property
    def ok(self) -> bool:
        return self.metrics is not None


@dataclass(frozen=True)
class BatchConfig:
    """How the runner groups tasks into lockstep units.

    The batch size is a *scheduling knob only*: a batched lane's trajectory
    is bit-identical to its per-task run (``ResourceAllocator.solve_batch``
    and :func:`repro.fl.roundloop.run_lockstep` guarantee it, the parity
    tests enforce it), so the size is deliberately excluded from
    :meth:`SweepTask.payload` and cache keys are unchanged.
    """

    #: Maximum number of tasks in one lockstep unit — ``"proposed"`` solves
    #: in one Algorithm-2 pass, or ``"proposed"`` FL runs advanced together
    #: (``None``: the whole same-shape group).
    size: int | None = None


@dataclass
class SweepStats:
    """Bookkeeping of one :meth:`SweepRunner.run` call."""

    total: int = 0
    cache_hits: int = 0
    executed: int = 0
    failed: int = 0
    elapsed_s: float = 0.0
    cache_io_s: float = 0.0
    #: Lockstep units executed: ``"proposed"`` solve passes and units of
    #: ``"proposed"`` FL runs (0 with ``batch_size=1``, or when no pending
    #: task is batchable).
    batches: int = 0
    #: Tasks that went through the batched path (the rest ran per task).
    batched_tasks: int = 0
    #: Tasks belonging to another shard of a ``--shard I/N`` run.
    skipped: int = 0
    #: Result-store backend the run's cache lived on ("" when uncached).
    store_backend: str = ""


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``.repro-cache`` in the cwd."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro-cache"))


def parse_shard(spec: str | tuple[int, int] | None) -> tuple[int, int] | None:
    """Normalise a ``--shard`` spec (``"I/N"`` or ``(I, N)``) to ``(I, N)``.

    ``I`` is the zero-based shard index, ``N`` the shard count; ``None``
    (and the trivial ``(0, 1)`` spec, which selects every task) mean
    unsharded.  Anything malformed raises :class:`ConfigurationError`.
    """
    if spec is None:
        return None
    if isinstance(spec, str):
        index_text, sep, count_text = spec.partition("/")
        try:
            if not sep:
                raise ValueError("missing '/'")
            parsed = (int(index_text), int(count_text))
        except ValueError:
            raise ConfigurationError(
                f"shard spec must look like I/N (e.g. 0/4), got {spec!r}"
            ) from None
    else:
        parsed = (int(spec[0]), int(spec[1]))
    index, count = parsed
    if count < 1 or not 0 <= index < count:
        raise ConfigurationError(
            f"shard index must satisfy 0 <= I < N, got {index}/{count}"
        )
    return None if count == 1 else (index, count)


ProgressFn = Callable[[int, int, TaskOutcome], None]


class SweepRunner:
    """Execute a batch of :class:`SweepTask` with caching and parallelism.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (default) runs inline in this process —
        no pool, no pickling; ``0`` or ``None`` means "all CPU cores";
        ``N > 1`` uses a :class:`~concurrent.futures.ProcessPoolExecutor`.
        A negative count raises :class:`ConfigurationError`.
    cache_dir:
        Root of the result cache; defaults to :func:`default_cache_dir`.
    use_cache:
        Disable to force recomputation (the cache is neither read nor
        written).  Only successful results are stored, keyed by
        :func:`task_hash`, so a failed task is retried on the next run.
    progress:
        Optional ``fn(done, total, outcome)`` invoked in the parent process
        after every task completes (including cache hits).
    batch_size:
        Cap on the tasks of one lockstep unit (at least 1, else
        :class:`ConfigurationError`).  Batchable tasks
        (:func:`batchable_task`: ``"proposed"`` solves and ``"proposed"``
        FL runs) are grouped by shape (:meth:`batch_group_key`) and each
        group runs in ``ceil(len / batch_size)`` even units
        (:func:`plan_units`, :func:`execute_batch`); ``None`` (default)
        runs a whole group as one unit, ``1`` runs every task on its own.
        With ``jobs > 1`` a group is further cut into up to ``jobs``
        contiguous chunks, each one pool call.  A lone task of its shape
        is a batch of one, which runs its kind function like a per-task
        run.  Results and cache keys are bit-identical to the per-task
        path; only the wall clock changes, and outcomes of a unit of
        several tasks carry no ``timings``.
    store_backend:
        Result-store backend for the cache (``"json"`` / ``"columnar"``);
        ``None`` auto-detects from the cache directory's on-disk layout.
        A scheduling/storage knob only — cache keys are unchanged.
    shard:
        ``"I/N"`` (or ``(I, N)``) hash-shards the task list: only tasks
        whose :func:`task_hash` lands in shard ``I`` of ``N`` (by
        :func:`repro.store.shard_for_digest`) execute; the rest come back
        as ``skipped`` outcomes.  N invocations with the same task list
        and different ``I`` partition it exactly, so independent hosts can
        each fill a shard store and ``repro store merge`` reassembles the
        serial result bit-for-bit.
    """

    def __init__(
        self,
        jobs: int | None = 1,
        *,
        cache_dir: str | Path | None = None,
        use_cache: bool = False,
        progress: ProgressFn | None = None,
        batch_size: int | None = None,
        store_backend: str | None = None,
        shard: str | tuple[int, int] | None = None,
    ) -> None:
        if jobs is not None and jobs < 0:
            raise ConfigurationError(f"jobs must be >= 0 (0: all cores), got {jobs}")
        if batch_size is not None and batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        self.jobs = int(jobs or os.cpu_count() or 1)
        self.use_cache = use_cache
        self.store: ResultStore = open_store(
            cache_dir if cache_dir is not None else default_cache_dir(), store_backend
        )
        self.shard = parse_shard(shard)
        self.progress = progress
        self.batch = (
            None
            if batch_size == 1
            else BatchConfig(size=None if batch_size is None else int(batch_size))
        )
        self.last_stats = SweepStats()

    # -- execution -----------------------------------------------------------
    def run(self, tasks: Sequence[SweepTask]) -> list[TaskOutcome]:
        """Run every task, returning outcomes in task order."""
        started = wall_clock()
        stats = SweepStats(total=len(tasks))
        stats.store_backend = self.store.backend if self.use_cache else ""
        outcomes: list[TaskOutcome | None] = [None] * len(tasks)
        done = 0

        pending: list[int] = []
        # Digest and payload per task, built once for the shard filter, the
        # store lookup, the unit planner and the put.
        digests: dict[int, str] = {}
        payloads: dict[int, dict[str, Any]] = {}
        for index, task in enumerate(tasks):
            if self.shard is not None or self.use_cache:
                digests[index], payloads[index] = _task_key(task)
            if self.shard is not None:
                shard_index, shard_count = self.shard
                if shard_for_digest(digests[index], shard_count) != shard_index:
                    outcome = TaskOutcome(task=task, metrics=None, skipped=True)
                    outcomes[index] = outcome
                    stats.skipped += 1
                    done += 1
                    self._report(done, stats.total, outcome)
                    continue
            entry = None
            if self.use_cache:
                io_started = wall_clock()
                entry = self.store.get_entry(digests[index])
                stats.cache_io_s += wall_clock() - io_started
            if entry is not None:
                metrics, state = entry
                outcome = TaskOutcome(
                    task=task, metrics=metrics, cached=True, state=state
                )
                outcomes[index] = outcome
                stats.cache_hits += 1
                done += 1
                self._report(done, stats.total, outcome)
            else:
                pending.append(index)

        def record(index: int, outcome: TaskOutcome) -> None:
            nonlocal done
            outcomes[index] = outcome
            stats.executed += 1
            if outcome.error is not None:
                stats.failed += 1
            elif self.use_cache:
                io_started = wall_clock()
                self._cache_put(outcome, digests[index], payloads[index])
                stats.cache_io_s += wall_clock() - io_started
            done += 1
            self._report(done, stats.total, outcome)

        try:
            if pending:
                units = plan_units(
                    tasks,
                    pending,
                    1 if self.batch is None else self.batch.size,
                    self.jobs,
                    payloads,
                )
                for unit in units:
                    if self.batch is not None and batchable_task(tasks[unit[0]]):
                        stats.batches += 1
                        stats.batched_tasks += len(unit)
                executor = (
                    ProcessPoolExecutor(max_workers=min(self.jobs, len(units)))
                    if self.jobs > 1
                    else None
                )
                try:
                    for index, outcome in self._execute(tasks, units, executor):
                        record(index, outcome)
                finally:
                    if executor is not None:
                        executor.shutdown(wait=True, cancel_futures=True)
        except KeyboardInterrupt:
            # Graceful interrupt: the executor shutdown above already
            # cancelled the not-yet-started futures; flush whatever results
            # made it into the store (a columnar backend may hold pending
            # appends) and record the partial stats before re-raising, so
            # Ctrl-C mid-sweep strands neither workers nor tmp files and
            # the finished work survives for the next (cached) run.
            if self.use_cache:
                self.store.flush()
            stats.elapsed_s = wall_clock() - started
            self.last_stats = stats
            raise

        if self.use_cache:
            io_started = wall_clock()
            self.store.flush()
            stats.cache_io_s += wall_clock() - io_started
        stats.elapsed_s = wall_clock() - started
        self.last_stats = stats
        return [outcome for outcome in outcomes if outcome is not None]

    # -- lockstep units -------------------------------------------------------
    @staticmethod
    def batch_group_key(task: SweepTask, payload: Mapping[str, Any] | None = None) -> str:
        """The problem-shape key batched tasks are grouped by.

        Derived from the same canonical-payload machinery as the cache key
        (:func:`_jsonify` over the allocator configuration, the scenario
        spec's device count): tasks in one group share their kind,
        ``num_devices`` and the full solver configuration, so one
        :class:`ResourceAllocator` serves a group of ``"proposed"``
        solves.  (FL runs carry their allocator inside the round-loop
        config; the lockstep driver groups their solves by it.)
        ``payload`` is the task's :meth:`SweepTask.payload` when the caller
        built it already; its canonical scenario and solver parameters give
        the same key without canonicalising them again.
        """
        if payload is None:
            num_devices = task.scenario_spec().params.get("num_devices")
            allocator = _jsonify(task.solver_params.get("allocator"))
        else:
            num_devices = payload["scenario"].get("num_devices")
            allocator = payload["solver_params"].get("allocator")
        key = {
            "solver_kind": task.solver_kind,
            "num_devices": num_devices,
            "allocator": allocator,
        }
        return json.dumps(key, sort_keys=True, separators=(",", ":"))

    def _execute(
        self,
        tasks: Sequence[SweepTask],
        units: Sequence[list[int]],
        executor: ProcessPoolExecutor | None,
    ) -> Iterator[tuple[int, TaskOutcome]]:
        """Run every unit, inline in order or fanned out over the pool."""

        def outcomes_of(indices: list[int], results) -> Iterator[tuple[int, TaskOutcome]]:
            for index, (metrics, state, timings, error) in zip(indices, results):
                yield index, TaskOutcome(
                    task=tasks[index],
                    metrics=metrics,
                    error=error,
                    state=state,
                    timings=timings,
                )

        if executor is None:
            for indices in units:
                yield from outcomes_of(indices, _execute_step([tasks[i] for i in indices]))
            return

        futures = {
            executor.submit(_execute_step, [tasks[i] for i in indices]): indices
            for indices in units
        }
        for future in as_completed(futures):
            indices = futures[future]
            try:
                results = future.result()
            except Exception as exc:  # repro-lint: disable=RL005 -- pool failures (e.g. BrokenProcessPool) must become error outcomes
                results = [(None, None, None, _error_text(exc))] * len(indices)
            yield from outcomes_of(indices, results)

    def _cache_put(
        self, outcome: TaskOutcome, digest: str, payload: dict[str, Any]
    ) -> None:
        """Store one result, degrading to cache-off if the disk won't take it.

        A computed result must never be lost to a cache problem — an
        unwritable or misconfigured cache directory downgrades the run to
        uncached instead of crashing it.
        """
        try:
            self.store.put(digest, payload, outcome.metrics, outcome.state)
        except OSError as exc:
            self.use_cache = False
            warnings.warn(
                f"result cache disabled: cannot write under {self.store.root}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )

    def _report(self, done: int, total: int, outcome: TaskOutcome) -> None:
        if self.progress is not None:
            self.progress(done, total, outcome)


# -- the ambient runner ------------------------------------------------------
#
# Experiment functions accept an explicit ``runner=`` argument, but the CLI
# (and ad-hoc scripts) can install a configured runner once and have every
# ``run_figN`` call pick it up without threading it through each signature.

_DEFAULT_RUNNER: SweepRunner | None = None


def get_active_runner(runner: SweepRunner | None = None) -> SweepRunner:
    """Resolve the runner to use: explicit > installed default > serial."""
    if runner is not None:
        return runner
    if _DEFAULT_RUNNER is not None:
        return _DEFAULT_RUNNER
    return SweepRunner()


def set_default_runner(runner: SweepRunner | None) -> None:
    """Install (or clear, with ``None``) the process-wide default runner."""
    global _DEFAULT_RUNNER
    _DEFAULT_RUNNER = runner


@contextmanager
def use_runner(runner: SweepRunner) -> Iterator[SweepRunner]:
    """Temporarily install ``runner`` as the process-wide default."""
    global _DEFAULT_RUNNER
    previous = _DEFAULT_RUNNER
    _DEFAULT_RUNNER = runner
    try:
        yield runner
    finally:
        _DEFAULT_RUNNER = previous
