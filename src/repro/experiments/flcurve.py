"""Closed-loop FL training curves: accuracy versus wall-clock per scheme.

The paper's core claim is that joint communication/computation resource
allocation changes the *wall-clock trajectory* of federated training: for
the same FedAvg schedule, a better allocation reaches a given accuracy in
fewer seconds and joules.  This experiment runs the closed-loop round loop
(:mod:`repro.fl.roundloop`) once per (scenario family × scheme × trial) —
the proposed Algorithm 2, re-solved cold every round, against the
registered baseline schemes — and reports one
row per global round: cumulative wall-clock, cumulative energy and test
accuracy.  Plotting ``accuracy`` against ``elapsed_s`` per scheme is the
accuracy-versus-wall-clock comparison.

Each (family, scheme, trial) run is one :class:`SweepTask` of solver kind
``"fl_roundloop"``, so the sweep engine's parallelism, caching and crash
isolation apply: trajectories are flattened to scalar metrics
(``r012_accuracy`` …) for the cache and unfolded back into rows here.  The
kind's batch twin lets the engine run the ``"proposed"`` runs as one
lockstep unit (:func:`~repro.fl.roundloop.run_lockstep`: one
``solve_batch`` per global round), bit-identical to running them one by
one; baseline runs stay per task.

A ``profiles`` axis compares the oracle allocator (true device profiles)
against the estimated one (:mod:`repro.fl.estimation` fits compute and
channel parameters from observed round timings), surfacing the
oracle-versus-estimated accuracy gap the paper's idealised system model
hides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..fl.roundloop import FLRoundLoop, RoundLoopConfig, run_lockstep
from ..system import SystemModel
from .base import SweepConfig, run_sweep
from .results import ResultTable
from .runner import SweepRunner, SweepTask, batch_twin, register_solver_kind

__all__ = ["FLCurveConfig", "run_flcurve"]


@register_solver_kind("fl_roundloop")
def _run_fl_roundloop(
    system: SystemModel, params: Mapping[str, Any]
) -> Mapping[str, float]:
    """One full closed-loop training run on a pre-built drop (worker entry)."""
    config: RoundLoopConfig = params["roundloop"]
    return FLRoundLoop(config, system=system).run().flat_metrics()


def _proposed_run(params: Mapping[str, Any]) -> bool:
    return getattr(params.get("roundloop"), "scheme", None) == "proposed"


@batch_twin(_run_fl_roundloop, accepts=_proposed_run)
def _run_fl_roundloop_batch(
    systems: Sequence[SystemModel], params: Sequence[Mapping[str, Any]]
) -> list[Mapping[str, float] | Exception]:
    """The unit's ``"proposed"`` runs in lockstep, one ``solve_batch`` a round."""
    reports = run_lockstep(
        [FLRoundLoop(p["roundloop"], system=system) for system, p in zip(systems, params)]
    )
    return [
        report if isinstance(report, Exception) else report.flat_metrics()
        for report in reports
    ]


@dataclass(frozen=True)
class FLCurveConfig:
    """Sweep definition for the closed-loop FL training comparison."""

    sweep: SweepConfig = field(
        default_factory=lambda: SweepConfig(num_devices=10, num_trials=1)
    )
    #: Global rounds each run trains for.
    rounds: int = 12
    #: Schemes to compare: ``"proposed"`` plus baseline-registry names.
    schemes: tuple[str, ...] = ("proposed", "static", "delay_min")
    #: Scenario families each scheme runs on.
    families: tuple[str, ...] = ("paper", "hotspot")
    #: Client-selection strategy (shared by every scheme, so the FedAvg
    #: schedule is identical and only the allocation differs).
    selection: str = "all"
    selection_params: Mapping[str, Any] = field(default_factory=dict)
    #: Per-round fading redraw (None = static channel).
    fading: str | None = "rayleigh"
    energy_weight: float = 0.5
    local_iterations: int = 8
    #: Device-profile modes the allocator runs on: ``"oracle"`` (the true
    #: profiles) and/or ``"estimated"`` (profiles fitted online from
    #: observed round timings).  The gap between the two curves is the
    #: price of not knowing the fleet.
    profile_modes: tuple[str, ...] = ("oracle",)
    #: Optional churn schedule / battery spec applied to every run (see
    #: :class:`repro.fl.roundloop.RoundLoopConfig`).
    churn: Mapping[str, Any] | None = None
    battery: Mapping[str, Any] | None = None

    @classmethod
    def paper(cls) -> "FLCurveConfig":
        """The fuller comparison: more rounds, trials and families."""
        return cls(
            sweep=SweepConfig(num_devices=20, num_trials=3),
            rounds=30,
            families=("paper", "hotspot", "cell-edge", "hetero-fleet"),
            profile_modes=("oracle", "estimated"),
        )

    def __post_init__(self) -> None:
        for mode in self.profile_modes:
            if mode not in ("oracle", "estimated"):
                raise ValueError(
                    f"unknown profile mode {mode!r}; known: oracle, estimated"
                )
        if not self.profile_modes:
            raise ValueError("profile_modes must name at least one mode")

    def roundloop_config(
        self, scheme: str, seed: int, profiles: str = "oracle"
    ) -> RoundLoopConfig:
        """The per-task round-loop config (scenario comes from the task)."""
        return RoundLoopConfig(
            rounds=self.rounds,
            local_iterations=self.local_iterations,
            energy_weight=self.energy_weight,
            scheme=scheme,
            selection=self.selection,
            selection_params=dict(self.selection_params),
            fading=self.fading,
            seed=seed,
            allocator=self.sweep.allocator,
            churn=dict(self.churn) if self.churn is not None else None,
            battery=dict(self.battery) if self.battery is not None else None,
            estimate_profiles=profiles == "estimated",
        )

    def tasks(self) -> list[SweepTask]:
        """One task per (family × scheme × profile mode × trial)."""
        tasks: list[SweepTask] = []
        for family in self.families:
            sweep = self.sweep.with_scenario(family)
            for scheme in self.schemes:
                for profiles in self.profile_modes:
                    for seed in sweep.trial_seeds():
                        tasks.append(
                            SweepTask(
                                key=("fl", family, scheme, profiles),
                                scenario=sweep.scenario_params(seed=seed),
                                solver_kind="fl_roundloop",
                                solver_params={
                                    "roundloop": self.roundloop_config(
                                        scheme, seed, profiles
                                    )
                                },
                            )
                        )
        return tasks


def run_flcurve(
    config: FLCurveConfig | None = None, *, runner: SweepRunner | None = None
) -> ResultTable:
    """Run the comparison and return one row per (family, scheme, round)."""
    config = config or FLCurveConfig()
    points = run_sweep(config.tasks(), runner=runner)
    table = ResultTable(
        name="flcurve",
        columns=[
            "family",
            "scheme",
            "profiles",
            "round",
            "elapsed_s",
            "energy_j",
            "accuracy",
            "test_loss",
            "selected",
        ],
        metadata={
            "figure": "fl-curve",
            "x_axis": "elapsed_s",
            "rounds": config.rounds,
            "selection": config.selection,
            "profile_modes": list(config.profile_modes),
        },
    )
    for family in config.families:
        for scheme in config.schemes:
            for profiles in config.profile_modes:
                point = points[("fl", family, scheme, profiles)]
                if not point.ok:
                    table.add_error(point.key, point.errors)
                    for round_index in range(1, config.rounds + 1):
                        table.add_row(
                            family=family,
                            scheme=scheme,
                            profiles=profiles,
                            round=round_index,
                            elapsed_s=float("nan"),
                            energy_j=float("nan"),
                            accuracy=float("nan"),
                            test_loss=float("nan"),
                            selected=float("nan"),
                        )
                    continue
                metrics = point.metrics
                for round_index in range(1, config.rounds + 1):
                    prefix = f"r{round_index:03d}"
                    table.add_row(
                        family=family,
                        scheme=scheme,
                        profiles=profiles,
                        round=round_index,
                        elapsed_s=metrics[f"{prefix}_elapsed_s"],
                        energy_j=metrics[f"{prefix}_energy_j"],
                        accuracy=metrics[f"{prefix}_accuracy"],
                        test_loss=metrics[f"{prefix}_test_loss"],
                        selected=metrics[f"{prefix}_selected"],
                    )
    return table
