"""Samples-per-device sweep (the text experiment at the end of Section VII-B).

The paper states that, keeping every other parameter fixed, the number of
samples on each device is positively correlated with both energy and delay.
This experiment verifies that claim numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .base import DEFAULT_METRICS, SweepConfig, add_grid_row, proposed_tasks, run_sweep
from .results import ResultTable
from .runner import SweepRunner, SweepTask

__all__ = ["SamplesConfig", "run_samples_sweep"]


@dataclass(frozen=True)
class SamplesConfig:
    """Sweep definition for the samples-per-device experiment."""

    sweep: SweepConfig = field(default_factory=lambda: SweepConfig(num_devices=30, num_trials=1))
    samples_grid: tuple[int, ...] = (250, 500, 1000)
    energy_weight: float = 0.5

    @classmethod
    def paper(cls) -> "SamplesConfig":
        """A denser sweep at the paper's scale."""
        return cls(
            sweep=SweepConfig(num_devices=50, num_trials=20),
            samples_grid=(100, 250, 500, 750, 1000, 1500),
        )

    def tasks(self) -> list[SweepTask]:
        """The full (grid point × trial) task list of this sweep."""
        tasks: list[SweepTask] = []
        for samples in self.samples_grid:
            tasks += proposed_tasks(
                (samples,),
                self.sweep,
                self.energy_weight,
                samples_per_device=samples,
            )
        return tasks


def run_samples_sweep(
    config: SamplesConfig | None = None, *, runner: SweepRunner | None = None
) -> ResultTable:
    """Regenerate the samples-per-device series."""
    config = config or SamplesConfig()
    points = run_sweep(config.tasks(), runner=runner)
    table = ResultTable(
        name="samples",
        columns=["samples_per_device", "energy_j", "time_s", "objective"],
        metadata={"experiment": "samples-per-device", "w1": config.energy_weight},
    )
    for samples in config.samples_grid:
        add_grid_row(table, points[(samples,)], DEFAULT_METRICS, samples_per_device=samples)
    return table
