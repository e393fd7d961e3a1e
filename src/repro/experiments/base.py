"""Shared machinery for the per-figure experiment runners.

The paper evaluates every scheme on random user drops and reports averages.
Each ``figN`` module declares its sweep grid as a flat list of
:class:`~repro.experiments.runner.SweepTask` (one per grid point × trial),
hands the list to a :class:`~repro.experiments.runner.SweepRunner` — which
executes it serially or over a process pool, with caching and per-task crash
isolation — and folds the outcomes back into a
:class:`~repro.experiments.results.ResultTable` with the helpers here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence

import numpy as np

from .. import constants
from ..core.allocator import AllocatorConfig
from ..exceptions import ConfigurationError
from .results import ResultTable
from .runner import SweepRunner, SweepTask, TaskOutcome, get_active_runner

__all__ = [
    "DEFAULT_METRICS",
    "PAPER_WEIGHT_PAIRS",
    "SweepConfig",
    "GridPoint",
    "average_metrics",
    "proposed_tasks",
    "baseline_tasks",
    "run_sweep",
    "add_grid_row",
]

#: The five weight pairs the paper compares in Figs. 2-4.
PAPER_WEIGHT_PAIRS: tuple[tuple[float, float], ...] = (
    (0.9, 0.1),
    (0.7, 0.3),
    (0.5, 0.5),
    (0.3, 0.7),
    (0.1, 0.9),
)


@dataclass(frozen=True)
class SweepConfig:
    """Common knobs of every figure experiment.

    ``scenario_family`` selects the registered scenario recipe the sweep's
    drops are built from (default: the paper's Section VII-A recipe), and
    ``scenario_extra`` carries family-specific parameters (e.g.
    ``{"num_clusters": 5}`` for ``hotspot``).  The standard knobs below are
    passed to every family, so ``p_max`` / ``f_max`` / device-count sweeps
    apply to any workload.
    """

    num_devices: int = constants.DEFAULT_NUM_DEVICES
    num_trials: int = 3
    base_seed: int = 0
    radius_km: float = constants.DEFAULT_CELL_RADIUS_KM
    local_iterations: int = constants.DEFAULT_LOCAL_ITERATIONS
    global_rounds: int = constants.DEFAULT_GLOBAL_ROUNDS
    max_power_dbm: float = constants.DEFAULT_MAX_POWER_DBM
    max_frequency_hz: float = constants.DEFAULT_MAX_FREQUENCY_HZ
    allocator: AllocatorConfig = field(default_factory=AllocatorConfig)
    scenario_family: str = "paper"
    scenario_extra: Mapping[str, Any] = field(default_factory=dict)

    def with_scenario(self, family: str, /, **extra: Any) -> "SweepConfig":
        """Copy of this sweep targeting another scenario family.

        ``extra`` updates the family-specific parameters (merged over any
        already configured).
        """
        if "family" in extra:
            raise ConfigurationError(
                "scenario parameters must not include 'family'; pass the "
                "family as with_scenario's first argument / --scenario"
            )
        if "seed" in extra:
            raise ConfigurationError(
                "scenario parameters must not include 'seed'; the sweep "
                "derives one seed per trial from base_seed"
            )
        return replace(
            self,
            scenario_family=family,
            scenario_extra={**dict(self.scenario_extra), **extra},
        )

    def scenario_params(self, *, seed: int, **overrides: Any) -> dict[str, Any]:
        """The flat scenario-spec mapping of one random drop.

        The ``"family"`` key names the scenario family; the rest are the
        family's builder parameters (see :mod:`repro.scenarios`).
        """
        if "family" in self.scenario_extra or "family" in overrides:
            raise ConfigurationError(
                "scenario parameters must not include 'family'; select the "
                "family via SweepConfig.scenario_family / --scenario instead"
            )
        if "seed" in self.scenario_extra:
            # A fixed seed would make every "random" trial the same drop.
            raise ConfigurationError(
                "scenario_extra must not include 'seed'; the sweep derives "
                "one seed per trial from base_seed"
            )
        params: dict[str, Any] = {
            "family": self.scenario_family,
            "num_devices": self.num_devices,
            "radius_km": self.radius_km,
            "local_iterations": self.local_iterations,
            "global_rounds": self.global_rounds,
            "max_power_dbm": self.max_power_dbm,
            "max_frequency_hz": self.max_frequency_hz,
            "seed": seed,
        }
        params.update(self.scenario_extra)
        params.update(overrides)
        return params

    def trial_seeds(self) -> tuple[int, ...]:
        """The deterministic per-trial seeds (``base_seed + trial``)."""
        return tuple(self.base_seed + trial for trial in range(self.num_trials))


def average_metrics(results: list[Mapping[str, float]]) -> dict[str, float]:
    """Average a list of scalar-metric dictionaries key by key."""
    if not results:
        raise ValueError("cannot average an empty result list")
    keys = results[0].keys()
    return {key: float(np.mean([r[key] for r in results])) for key in keys}


# -- task construction -------------------------------------------------------

def proposed_tasks(
    key: tuple,
    sweep: SweepConfig,
    energy_weight: float,
    *,
    deadline_s: float | None = None,
    **scenario_overrides: Any,
) -> list[SweepTask]:
    """One ``"proposed"`` task per trial of ``sweep`` for this grid point."""
    return [
        SweepTask(
            key=key,
            scenario=sweep.scenario_params(seed=seed, **scenario_overrides),
            solver_kind="proposed",
            solver_params={
                "energy_weight": energy_weight,
                "deadline_s": deadline_s,
                "allocator": sweep.allocator,
            },
        )
        for seed in sweep.trial_seeds()
    ]


def baseline_tasks(
    key: tuple,
    sweep: SweepConfig,
    name: str,
    energy_weight: float,
    *,
    deadline_s: float | None = None,
    solver_kwargs: Mapping[str, Any] | None = None,
    seed_rng_kwarg: str | None = None,
    **scenario_overrides: Any,
) -> list[SweepTask]:
    """One ``"baseline"`` task per trial of ``sweep`` for this grid point.

    ``seed_rng_kwarg`` names a baseline keyword argument to fill with the
    trial seed (the random benchmark takes its RNG that way), keeping the
    per-trial randomness deterministic under any execution order.
    """
    tasks = []
    for seed in sweep.trial_seeds():
        kwargs = dict(solver_kwargs or {})
        if seed_rng_kwarg is not None:
            kwargs[seed_rng_kwarg] = seed
        tasks.append(
            SweepTask(
                key=key,
                scenario=sweep.scenario_params(seed=seed, **scenario_overrides),
                solver_kind="baseline",
                solver_params={
                    "name": name,
                    "energy_weight": energy_weight,
                    "deadline_s": deadline_s,
                    "kwargs": kwargs,
                },
            )
        )
    return tasks


# -- aggregation -------------------------------------------------------------

#: The column -> summary-metric mapping shared by the energy/delay figures.
DEFAULT_METRICS: Mapping[str, str] = {
    "energy_j": "energy_j",
    "time_s": "completion_time_s",
    "objective": "objective",
}


@dataclass(frozen=True)
class GridPoint:
    """The aggregate of every trial sharing one task key.

    ``skipped`` counts trials belonging to another shard of a sharded run —
    they were never attempted, so they are neither successes nor failures
    (a point whose every trial was skipped simply has ``metrics=None``
    without error records).
    """

    key: tuple
    metrics: dict[str, float] | None
    trials: int
    failures: int
    errors: tuple[str, ...]
    skipped: int = 0

    @property
    def ok(self) -> bool:
        return self.metrics is not None


def run_sweep(
    tasks: Sequence[SweepTask],
    *,
    runner: SweepRunner | None = None,
) -> dict[tuple, GridPoint]:
    """Execute ``tasks`` and average the outcomes per grid-point key.

    Trials are averaged in task order, so the aggregate is identical whether
    the runner executed serially or over a process pool.  Failed trials are
    excluded from the average; a grid point whose every trial failed gets
    ``metrics=None`` and shows up as an error row in the tables.  Trials a
    sharded runner skipped (they belong to another shard) are excluded from
    both the average and the failure count.
    """
    outcomes = get_active_runner(runner).run(tasks)
    grouped: dict[tuple, list[TaskOutcome]] = {}
    for outcome in outcomes:
        grouped.setdefault(outcome.task.key, []).append(outcome)
    points: dict[tuple, GridPoint] = {}
    for key, group in grouped.items():
        successes = [dict(o.metrics) for o in group if o.ok]
        errors = tuple(o.error for o in group if o.error is not None)
        skipped = sum(1 for o in group if o.skipped)
        points[key] = GridPoint(
            key=key,
            metrics=average_metrics(successes) if successes else None,
            trials=len(group),
            failures=len(group) - len(successes) - skipped,
            errors=errors,
            skipped=skipped,
        )
    return points


def add_grid_row(
    table: ResultTable,
    point: GridPoint,
    metric_columns: Mapping[str, str],
    **fixed: Any,
) -> None:
    """Append one table row for ``point``.

    ``metric_columns`` maps table columns to keys of the averaged metrics
    (e.g. ``{"time_s": "completion_time_s"}``).  If every trial of the grid
    point failed, the metric columns are filled with NaN and the error
    messages are recorded in the table metadata — the sweep keeps its full
    shape instead of dying on one bad drop.  A point whose trials were all
    *skipped* (they belong to another shard of a ``--shard I/N`` run) is
    not a failure: its metric columns are ``None`` (empty cells in CSV and
    markdown, where a crash renders NaN) and the skip is recorded via
    :meth:`ResultTable.add_skip`.  Unsharded runs never skip, so their
    tables are byte-identical to before.
    """
    if point.ok:
        values = {column: point.metrics[source] for column, source in metric_columns.items()}
    elif point.skipped and not point.failures:
        values = {column: None for column in metric_columns}
        table.add_skip(point.key)
    else:
        values = {column: float("nan") for column in metric_columns}
    if point.failures:
        table.add_error(point.key, point.errors)
    table.add_row(**fixed, **values)
