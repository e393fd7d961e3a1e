"""Experiment runners that regenerate every figure of the paper's evaluation.

Each ``figN`` module exposes a config dataclass and a ``run_figN`` function
returning one or more :class:`~repro.experiments.results.ResultTable`.  The
default configurations are scaled down (fewer trials / grid points) so the
benchmark suite completes quickly; every config has a ``paper()``
constructor with the full Section VII-A settings.

See DESIGN.md for the experiment index (figure -> module -> bench target)
and EXPERIMENTS.md for the paper-versus-measured comparison.
"""

from ..scenarios import (
    ScenarioSpec,
    build_scenario_spec,
    register_scenario_family,
    scenario_families,
)
from .ablation import AblationConfig, run_ablation
from .base import (
    PAPER_WEIGHT_PAIRS,
    GridPoint,
    SweepConfig,
    average_metrics,
    baseline_tasks,
    proposed_tasks,
    run_sweep,
)
from .fig2 import Fig2Config, run_fig2
from .fig3 import Fig3Config, run_fig3
from .fig4 import Fig4Config, run_fig4
from .fig5 import Fig5Config, run_fig5
from .fig6 import Fig6Config, run_fig6
from .fig7 import Fig7Config, run_fig7
from .fig8 import Fig8Config, run_fig8
from .flcurve import FLCurveConfig, run_flcurve
from .plotting import ascii_line_plot
from .registry import EXPERIMENTS, get_experiment, run_experiment
from .results import ResultTable
from .runner import (
    SweepRunner,
    SweepStats,
    SweepTask,
    TaskOutcome,
    parse_shard,
    register_solver_kind,
    set_default_runner,
    task_hash,
    use_runner,
)
from .samples import SamplesConfig, run_samples_sweep

__all__ = [
    "PAPER_WEIGHT_PAIRS",
    "GridPoint",
    "SweepConfig",
    "SweepRunner",
    "SweepStats",
    "SweepTask",
    "TaskOutcome",
    "average_metrics",
    "baseline_tasks",
    "proposed_tasks",
    "parse_shard",
    "register_solver_kind",
    "run_sweep",
    "set_default_runner",
    "task_hash",
    "use_runner",
    "ScenarioSpec",
    "build_scenario_spec",
    "register_scenario_family",
    "scenario_families",
    "Fig2Config",
    "run_fig2",
    "Fig3Config",
    "run_fig3",
    "Fig4Config",
    "run_fig4",
    "Fig5Config",
    "run_fig5",
    "Fig6Config",
    "run_fig6",
    "Fig7Config",
    "run_fig7",
    "Fig8Config",
    "run_fig8",
    "FLCurveConfig",
    "run_flcurve",
    "SamplesConfig",
    "run_samples_sweep",
    "AblationConfig",
    "run_ablation",
    "ascii_line_plot",
    "EXPERIMENTS",
    "get_experiment",
    "run_experiment",
    "ResultTable",
]
