"""Micro-benchmarks of the proposed algorithm's building blocks.

Unlike the figure benchmarks (macro-benchmarks run once), these time the
individual solver layers with pytest-benchmark's normal repetition so the
cost of each stage of Algorithm 2 can be tracked:

* one full Algorithm-2 solve at the paper's device count,
* one Algorithm-1 (sum-of-ratios) solve,
* one closed-form SP2_v2 solve (Theorem 2 / Appendix B),
* one Subproblem-1 solve,
* the SP2 stage of a small Figure-2 sweep on the vector backend against
  the scalar reference backend.
"""

import dataclasses
import time

import numpy as np
import pytest

from repro import JointProblem, ProblemWeights, ResourceAllocator, build_paper_scenario
from repro.core.subproblem1 import solve_subproblem1
from repro.core.subproblem2 import solve_sp2_v2
from repro.core.sum_of_ratios import SumOfRatiosSolver
from repro.experiments import Fig2Config, run_fig2
from repro.experiments.runner import SweepRunner

from .conftest import bench_sweep


@pytest.fixture(scope="module")
def paper_system():
    return build_paper_scenario(num_devices=50, seed=0)


@pytest.fixture(scope="module")
def start_point(paper_system):
    """A feasible (p, B, nu, beta, r_min) tuple shared by the micro-benchmarks."""
    system = paper_system
    n = system.num_devices
    power = system.max_power_w.copy()
    bandwidth = np.full(n, system.total_bandwidth_hz * 0.5 / n)
    rates = system.rates_bps(power, bandwidth)
    upload = system.upload_bits / rates
    compute = system.cycles_per_round / system.max_frequency_hz
    deadline = float(np.max(upload + compute)) * 1.5
    min_rate = system.upload_bits / np.maximum(deadline - compute, 1e-9)
    beta = power * system.upload_bits / rates
    nu = 0.5 * system.global_rounds / rates
    return power, bandwidth, upload, min_rate, nu, beta


def test_bench_full_algorithm2(benchmark, paper_system):
    problem = JointProblem(paper_system, ProblemWeights(energy=0.5, time=0.5))
    allocator = ResourceAllocator()
    result = benchmark(allocator.solve, problem)
    assert result.feasible


def test_bench_sum_of_ratios(benchmark, paper_system, start_point):
    power, bandwidth, _, min_rate, _, _ = start_point
    solver = SumOfRatiosSolver(paper_system, 0.5)
    result = benchmark(solver.solve, min_rate, power, bandwidth)
    assert result.feasible


def test_bench_sp2_closed_form(benchmark, paper_system, start_point):
    _, _, _, min_rate, nu, beta = start_point
    result = benchmark(solve_sp2_v2, paper_system, nu, beta, min_rate)
    assert result.feasible


def test_bench_subproblem1(benchmark, paper_system, start_point):
    _, _, upload, _, _, _ = start_point
    result = benchmark(
        solve_subproblem1, paper_system, 0.5, 0.5, upload
    )
    assert result.round_deadline_s > 0


def _timed_fig2(backend):
    """A small per-drop Figure-2 sweep on ``backend``; returns (table,
    outcomes, wall seconds).  Per drop (``batch_size=1``) because batched
    lanes carry no per-stage timings."""
    config = Fig2Config(
        sweep=bench_sweep(num_devices=15, num_trials=1),
        max_power_dbm_grid=(5.0, 7.0, 9.0, 12.0),
        weight_pairs=((0.9, 0.1), (0.5, 0.5)),
        include_benchmark=False,
    )
    config = dataclasses.replace(config, sweep=config.sweep.with_backend(backend))
    outcomes = []
    runner = SweepRunner(
        jobs=1,
        use_cache=False,
        progress=lambda done, total, outcome: outcomes.append(outcome),
        batch_size=1,
    )
    started = time.perf_counter()
    table = run_fig2(config, runner=runner)
    return table, outcomes, time.perf_counter() - started


def test_bench_backend_sp2_speedup(run_once):
    """Vector backend beats the scalar oracle on the SP2 stage wall-clock."""
    scalar_table, scalar_outcomes, scalar_s = _timed_fig2("scalar")
    vector_table, vector_outcomes, vector_s = run_once(_timed_fig2, "vector")

    stage_total = lambda outs, name: sum(  # noqa: E731
        (o.timings or {}).get(name, 0.0) for o in outs
    )
    scalar_sp2 = stage_total(scalar_outcomes, "sp2")
    vector_sp2 = stage_total(vector_outcomes, "sp2")
    speedup = scalar_sp2 / max(vector_sp2, 1e-9)
    print(
        f"\n[backend] sp2 stage scalar {scalar_sp2:.2f}s vs vector "
        f"{vector_sp2:.2f}s ({speedup:.2f}x); wall {scalar_s:.2f}s -> {vector_s:.2f}s"
    )

    # The backends must agree within the bench parity tolerance...
    for scalar_row, vector_row in zip(scalar_table.rows, vector_table.rows):
        for column in ("energy_j", "time_s", "objective"):
            assert vector_row[column] == pytest.approx(scalar_row[column], rel=1e-8)

    # ...and the vector backend must be the fast one (soft floor; the
    # strict >= 2x gate lives in the bench comparison).
    assert speedup > 1.5
