"""Figure 3: energy and delay versus the maximum CPU frequency.

The paper sweeps ``f_max`` from 0.1 to 2 GHz.  Expected behaviour: the
benchmark's energy grows with ``f_max`` (it always runs at random/maximum
frequency) while its delay falls; the proposed algorithm's curves flatten
once the optimal frequency for the given weights is below ``f_max``.
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

__all__ = ["Fig3Config", "run_fig3"]


@dataclass(frozen=True)
class Fig3Config:
    """Sweep definition for Figure 3."""

    sweep: SweepConfig = field(default_factory=lambda: SweepConfig(num_devices=30, num_trials=2))
    max_frequency_ghz_grid: tuple[float, ...] = (0.3, 0.6, 1.0, 2.0)
    weight_pairs: tuple[tuple[float, float], ...] = PAPER_WEIGHT_PAIRS
    include_benchmark: bool = True

    @classmethod
    def paper(cls) -> "Fig3Config":
        """The full Section VII-A setting (0.1-2 GHz, 50 devices, 100 drops)."""
        return cls(
            sweep=SweepConfig(num_devices=50, num_trials=100),
            max_frequency_ghz_grid=(0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0),
        )

    def tasks(self) -> list[SweepTask]:
        """The full (grid point × trial) task list of this sweep."""
        tasks: list[SweepTask] = []
        for f_max_ghz in self.max_frequency_ghz_grid:
            sweep = replace(self.sweep, max_frequency_hz=f_max_ghz * 1e9)
            for w1, _w2 in self.weight_pairs:
                tasks += proposed_tasks(("proposed", f_max_ghz, w1), sweep, w1)
            if self.include_benchmark:
                tasks += baseline_tasks(
                    ("benchmark", f_max_ghz),
                    sweep,
                    "benchmark",
                    0.5,
                    solver_kwargs={"randomize": "power"},
                    seed_rng_kwarg="rng",
                )
        return tasks


def run_fig3(config: Fig3Config | None = None, *, runner: SweepRunner | None = None) -> ResultTable:
    """Regenerate the Figure-3 series."""
    config = config or Fig3Config()
    points = run_sweep(config.tasks(), runner=runner)
    table = ResultTable(
        name="fig3",
        columns=["max_frequency_ghz", "scheme", "w1", "w2", "energy_j", "time_s", "objective"],
        metadata={"figure": "3", "x_axis": "max_frequency_ghz"},
    )
    for f_max_ghz in config.max_frequency_ghz_grid:
        for w1, w2 in config.weight_pairs:
            add_grid_row(
                table,
                points[("proposed", f_max_ghz, w1)],
                DEFAULT_METRICS,
                max_frequency_ghz=f_max_ghz,
                scheme="proposed",
                w1=w1,
                w2=w2,
            )
        if config.include_benchmark:
            add_grid_row(
                table,
                points[("benchmark", f_max_ghz)],
                DEFAULT_METRICS,
                max_frequency_ghz=f_max_ghz,
                scheme="benchmark",
                w1=0.5,
                w2=0.5,
            )
    return table
