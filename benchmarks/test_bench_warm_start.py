"""Benchmark the warm-started sweep hot path against the cold baseline.

This is the pytest-visible twin of ``repro bench``: it times the same
Figure-2 sweep cold and warm-started and asserts the warm-start contract —
identical solver trajectories (same iteration totals) and metric parity
within 1e-6.

Since the vector backend became the default, the *wall-clock* part of the
warm-start story lives on the scalar reference backend: vectorization
removed the probe-sequential multiplier search that warm hints used to
skip, so on the vector backend a warm sweep is parity-identical but no
longer meaningfully faster, while on the scalar backend the seeded
bracket + Illinois hot path still shows its historical speedup.  The
asserted floors are softer than the ``repro bench`` gates so a loaded CI
box cannot flake the tier-1 suite; the strict gates live in the bench
job's baseline comparison.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.experiments import Fig2Config, run_fig2
from repro.experiments.runner import SweepRunner

from .conftest import bench_sweep


def _timed_run(config, warm, backend=None):
    if backend is not None:
        config = dataclasses.replace(config, sweep=config.sweep.with_backend(backend))
    outcomes = []
    # Per-drop solves (batch_size=1): warm chains never batch, so a batched
    # cold run would compare batching with warm starts; batched lanes also
    # carry no per-stage timings.
    runner = SweepRunner(
        jobs=1,
        use_cache=False,
        warm_start=warm,
        progress=lambda done, total, outcome: outcomes.append(outcome),
        batch_size=1,
    )
    started = time.perf_counter()
    table = run_fig2(config, runner=runner)
    elapsed = time.perf_counter() - started
    return table, outcomes, elapsed


def _config():
    return Fig2Config(
        sweep=bench_sweep(num_devices=15, num_trials=1),
        max_power_dbm_grid=(5.0, 7.0, 9.0, 12.0),
        weight_pairs=((0.9, 0.1), (0.5, 0.5)),
        include_benchmark=False,
    )


def _total(outcomes, key):
    return sum(o.metrics[key] for o in outcomes if o.ok)


def test_bench_warm_start_fig2_vector_parity(run_once):
    """Default (vector) backend: warm starts preserve the trajectory."""
    config = _config()
    cold_table, cold_outcomes, cold_s = _timed_run(config, warm=False)
    warm_table, warm_outcomes, warm_s = run_once(_timed_run, config, warm=True)

    print(
        f"\n[vector] cold {cold_s:.2f}s vs warm {warm_s:.2f}s "
        f"({cold_s / max(warm_s, 1e-9):.2f}x); outer iterations "
        f"{_total(cold_outcomes, 'iterations'):.0f} -> "
        f"{_total(warm_outcomes, 'iterations'):.0f}"
    )

    # Trajectory preservation: identical iteration totals, parity <= 1e-6.
    assert _total(warm_outcomes, "iterations") == _total(cold_outcomes, "iterations")
    assert _total(warm_outcomes, "inner_iterations") == _total(
        cold_outcomes, "inner_iterations"
    )
    for cold_row, warm_row in zip(cold_table.rows, warm_table.rows):
        for column in ("energy_j", "time_s", "objective"):
            assert warm_row[column] == pytest.approx(cold_row[column], rel=1e-6)

    # Warm hints must never make the vector hot path meaningfully slower.
    assert warm_s < cold_s * 1.5


def test_bench_warm_start_fig2_scalar_speedup(run_once):
    """Scalar oracle backend: the seeded hot path is still actually hotter."""
    config = _config()
    cold_table, cold_outcomes, cold_s = _timed_run(config, warm=False, backend="scalar")
    warm_table, warm_outcomes, warm_s = run_once(
        _timed_run, config, warm=True, backend="scalar"
    )

    speedup = cold_s / max(warm_s, 1e-9)
    print(
        f"\n[scalar] cold {cold_s:.2f}s vs warm {warm_s:.2f}s ({speedup:.2f}x); "
        f"outer iterations {_total(cold_outcomes, 'iterations'):.0f} -> "
        f"{_total(warm_outcomes, 'iterations'):.0f}"
    )

    assert _total(warm_outcomes, "iterations") == _total(cold_outcomes, "iterations")
    for cold_row, warm_row in zip(cold_table.rows, warm_table.rows):
        for column in ("energy_j", "time_s", "objective"):
            assert warm_row[column] == pytest.approx(cold_row[column], rel=1e-6)

    # The seeded scalar path must actually be hotter (soft floor; see
    # module docstring).
    assert speedup > 1.15


def test_bench_backend_sp2_speedup(run_once):
    """Vector backend beats the scalar oracle on the SP2 stage wall-clock."""
    config = _config()
    scalar_table, scalar_outcomes, scalar_s = _timed_run(
        config, warm=False, backend="scalar"
    )
    vector_table, vector_outcomes, vector_s = run_once(
        _timed_run, config, warm=False, backend="vector"
    )

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
