"""The fixed, seeded configurations the performance checks run on.

``perfbench`` (see ``perfbench/README.md``) times the ``sweep`` workload on
:func:`bench_config` and the ``fl`` workload on
:func:`fl_dynamic_bench_config`, and pins digests of their result CSVs, so
these configurations must not change.  The quick variants are what the
tests run: ``benchmarks/test_bench_solver.py`` holds the wall-clock floors
(batched over per-drop sweeps, the SP2 stage over its run under the scalar
test oracle, columnar over JSON store reads) and pins the sweep's iteration
counters exactly, and
``tests/test_perf.py`` pins the FL runs'.
"""

from __future__ import annotations

from dataclasses import replace

from ..experiments.base import SweepConfig
from ..experiments.fig2 import Fig2Config
from ..fl.roundloop import RoundLoopConfig

__all__ = ["bench_config", "fl_bench_config", "fl_dynamic_bench_config"]


def bench_config(quick: bool = False) -> Fig2Config:
    """The benchmarked Figure-2 sweep (reduced paper grid, fixed seeds)."""
    if quick:
        return Fig2Config(
            sweep=SweepConfig(num_devices=12, num_trials=1),
            max_power_dbm_grid=(5.0, 7.0, 9.0, 12.0),
            weight_pairs=((0.9, 0.1), (0.5, 0.5)),
            include_benchmark=False,
        )
    return Fig2Config(
        sweep=SweepConfig(num_devices=20, num_trials=2),
        max_power_dbm_grid=(5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0),
        weight_pairs=((0.9, 0.1), (0.5, 0.5), (0.1, 0.9)),
        include_benchmark=False,
    )


def fl_bench_config(quick: bool = False) -> RoundLoopConfig:
    """The benchmarked closed-loop FL run (fixed seed, Rayleigh redraws)."""
    scenario = {
        "family": "paper",
        "num_devices": 8 if quick else 12,
        "seed": 7,
    }
    return RoundLoopConfig(
        scenario=scenario,
        rounds=4 if quick else 8,
        local_iterations=6,
        selection="deadline-k",
        seed=7,
    )


def fl_dynamic_bench_config(quick: bool = False) -> RoundLoopConfig:
    """The benchmarked *dynamic-fleet* closed-loop run.

    The frozen-fleet bench config plus seeded Poisson churn and battery
    drain: arrivals and departures change the active fleet's shape
    mid-training, so the allocator is re-solved around them.  The capacity
    is generous enough that no device retires inside the benchmark horizon
    — retirement coverage lives in the test suite; here the batteries exist
    to price the drain bookkeeping, not to shrink the fleet
    nondeterministically across suite scales.
    """
    return replace(
        fl_bench_config(quick),
        churn={
            "mode": "poisson",
            "arrive_rate": 0.4,
            "depart_rate": 0.3,
            "initial_absent_fraction": 0.25,
        },
        battery={"capacity_j": 50.0, "policy": "graceful"},
    )
