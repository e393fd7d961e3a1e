"""Figure 2: energy and delay versus the maximum transmit power limit.

The paper sweeps ``p_max`` from 5 to 12 dBm and plots, for five weight pairs
plus the random benchmark, the total energy consumption (Fig. 2a) and the
total completion time (Fig. 2b).  The qualitative claims are: larger ``w1``
gives lower energy and higher delay; every weight pair beats the benchmark
on energy by a wide margin.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .base import (
    DEFAULT_METRICS,
    PAPER_WEIGHT_PAIRS,
    SweepConfig,
    add_grid_row,
    baseline_tasks,
    proposed_tasks,
    run_sweep,
)
from .results import ResultTable
from .runner import SweepRunner, SweepTask

__all__ = ["Fig2Config", "run_fig2"]


@dataclass(frozen=True)
class Fig2Config:
    """Sweep definition for Figure 2."""

    sweep: SweepConfig = field(default_factory=lambda: SweepConfig(num_devices=30, num_trials=2))
    max_power_dbm_grid: tuple[float, ...] = (5.0, 7.0, 9.0, 12.0)
    weight_pairs: tuple[tuple[float, float], ...] = PAPER_WEIGHT_PAIRS
    include_benchmark: bool = True

    @classmethod
    def paper(cls) -> "Fig2Config":
        """The full Section VII-A setting (50 devices, 5-12 dBm, 100 drops)."""
        return cls(
            sweep=SweepConfig(num_devices=50, num_trials=100),
            max_power_dbm_grid=(5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0),
        )

    def tasks(self) -> list[SweepTask]:
        """The full (grid point × trial) task list of this sweep."""
        tasks: list[SweepTask] = []
        for p_max_dbm in self.max_power_dbm_grid:
            sweep = replace(self.sweep, max_power_dbm=p_max_dbm)
            for w1, _w2 in self.weight_pairs:
                tasks += proposed_tasks(("proposed", p_max_dbm, w1), sweep, w1)
            if self.include_benchmark:
                tasks += baseline_tasks(
                    ("benchmark", p_max_dbm),
                    sweep,
                    "benchmark",
                    0.5,
                    solver_kwargs={"randomize": "frequency"},
                    seed_rng_kwarg="rng",
                )
        return tasks


def run_fig2(config: Fig2Config | None = None, *, runner: SweepRunner | None = None) -> ResultTable:
    """Regenerate the Figure-2 series."""
    config = config or Fig2Config()
    points = run_sweep(config.tasks(), runner=runner)
    table = ResultTable(
        name="fig2",
        columns=["max_power_dbm", "scheme", "w1", "w2", "energy_j", "time_s", "objective"],
        metadata={"figure": "2", "x_axis": "max_power_dbm"},
    )
    for p_max_dbm in config.max_power_dbm_grid:
        for w1, w2 in config.weight_pairs:
            add_grid_row(
                table,
                points[("proposed", p_max_dbm, w1)],
                DEFAULT_METRICS,
                max_power_dbm=p_max_dbm,
                scheme="proposed",
                w1=w1,
                w2=w2,
            )
        if config.include_benchmark:
            add_grid_row(
                table,
                points[("benchmark", p_max_dbm)],
                DEFAULT_METRICS,
                max_power_dbm=p_max_dbm,
                scheme="benchmark",
                w1=0.5,
                w2=0.5,
            )
    return table
