"""Ablations over the design choices DESIGN.md calls out.

Four internal choices of the proposed algorithm are compared on the same
random drops:

* the Subproblem-1 solver (exact primal search vs the paper's dual
  water-filling with clipping);
* the damping base ``xi`` of the Newton-like update in Algorithm 1;
* the initial-point strategy of Algorithm 2 (equal split vs delay-min);
* the SP2_v2 solver (closed-form KKT vs numeric dual decomposition).

The SP2-agreement measurement is not an Algorithm-2 run, so it plugs into
the sweep engine as its own registered solver kind (``"sp2_agreement"``)
rather than going through the ``"proposed"`` kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

import numpy as np

from ..core.problem import JointProblem, ProblemWeights
from ..core.subproblem1 import solve_subproblem1
from ..core.subproblem2 import solve_sp2_v2, solve_sp2_v2_numeric
from .base import SweepConfig, add_grid_row, proposed_tasks, run_sweep
from .results import ResultTable
from .runner import SweepRunner, SweepTask, register_solver_kind

__all__ = ["AblationConfig", "run_ablation"]

_METRICS = {"objective": "objective", "energy_j": "energy_j", "time_s": "completion_time_s"}


@dataclass(frozen=True)
class AblationConfig:
    """Sweep definition for the ablation study."""

    sweep: SweepConfig = field(default_factory=lambda: SweepConfig(num_devices=25, num_trials=2))
    energy_weight: float = 0.5
    damping_values: tuple[float, ...] = (0.25, 0.5, 0.75)

    @classmethod
    def paper(cls) -> "AblationConfig":
        """A larger-scale ablation at the paper's device count."""
        return cls(sweep=SweepConfig(num_devices=50, num_trials=10))

    def variants(self) -> list[tuple[str, str, SweepConfig]]:
        """Every (variant, setting, sweep-with-that-allocator) combination."""
        sweep = self.sweep
        variants: list[tuple[str, str, SweepConfig]] = []
        for method in ("primal", "dual"):
            allocator = replace(sweep.allocator, subproblem1_method=method)
            variants.append(("subproblem1", method, replace(sweep, allocator=allocator)))
        for xi in self.damping_values:
            # Vary only the damping: every other configured sum-of-ratios
            # field (fallback, tolerances) must survive the variant.
            sum_of_ratios = replace(sweep.allocator.sum_of_ratios, damping_xi=xi)
            allocator = replace(sweep.allocator, sum_of_ratios=sum_of_ratios)
            variants.append(("damping_xi", f"{xi:g}", replace(sweep, allocator=allocator)))
        for strategy in ("equal", "delay_min"):
            allocator = replace(sweep.allocator, initial_strategy=strategy)
            variants.append(("initialisation", strategy, replace(sweep, allocator=allocator)))
        return variants

    def tasks(self) -> list[SweepTask]:
        """The full (variant × trial) task list of the ablation."""
        tasks: list[SweepTask] = []
        for variant, setting, sweep in self.variants():
            tasks += proposed_tasks((variant, setting), sweep, self.energy_weight)
        tasks += [
            SweepTask(
                key=("sp2_solver", "kkt_vs_numeric"),
                scenario=self.sweep.scenario_params(seed=seed),
                solver_kind="sp2_agreement",
                solver_params={"energy_weight": self.energy_weight},
            )
            for seed in self.sweep.trial_seeds()
        ]
        return tasks


@register_solver_kind("sp2_agreement")
def _sp2_solver_agreement(system, params: Mapping[str, Any]) -> dict[str, float]:
    """Objective gap between the closed-form and numeric SP2_v2 solvers."""
    energy_weight = params["energy_weight"]
    problem = JointProblem(system, ProblemWeights.from_energy_weight(energy_weight))
    allocation = problem.initial_allocation(bandwidth_fraction=0.5)
    upload = system.upload_time_s(allocation.power_w, allocation.bandwidth_hz)
    sp1 = solve_subproblem1(system, energy_weight, 1.0 - energy_weight, upload)
    min_rate = problem.min_rate_requirements(sp1.frequency_hz, sp1.round_deadline_s)
    rates = system.rates_bps(allocation.power_w, allocation.bandwidth_hz)
    beta = allocation.power_w * system.upload_bits / rates
    nu = energy_weight * system.global_rounds / rates
    kkt = solve_sp2_v2(system, nu, beta, min_rate)
    numeric = solve_sp2_v2_numeric(system, nu, beta, min_rate)
    scale = max(abs(numeric.objective), 1e-12)
    return {
        "kkt_objective": kkt.objective,
        "numeric_objective": numeric.objective,
        "relative_gap": (kkt.objective - numeric.objective) / scale,
    }


def run_ablation(
    config: AblationConfig | None = None, *, runner: SweepRunner | None = None
) -> ResultTable:
    """Run the ablation grid and collect the weighted objectives."""
    config = config or AblationConfig()
    points = run_sweep(config.tasks(), runner=runner)
    table = ResultTable(
        name="ablation",
        columns=["variant", "setting", "objective", "energy_j", "time_s"],
        metadata={"experiment": "ablation", "w1": config.energy_weight},
    )
    for variant, setting, _sweep in config.variants():
        add_grid_row(table, points[(variant, setting)], _METRICS, variant=variant, setting=setting)

    # Agreement between the two SP2_v2 solvers (reported as objectives).
    gap_point = points[("sp2_solver", "kkt_vs_numeric")]
    if gap_point.ok:
        if gap_point.failures:
            table.add_error(gap_point.key, gap_point.errors)
        averaged_gap = gap_point.metrics
        table.add_row(
            variant="sp2_solver",
            setting="kkt_vs_numeric",
            objective=float(np.abs(averaged_gap["relative_gap"])),
            energy_j=averaged_gap["kkt_objective"],
            time_s=averaged_gap["numeric_objective"],
        )
    else:
        add_grid_row(table, gap_point, _METRICS, variant="sp2_solver", setting="kkt_vs_numeric")
    return table
