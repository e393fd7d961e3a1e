"""Shared configuration for the benchmark suite.

Every figure test regenerates one of the paper's figures (Figs. 2-8 plus
the samples sweep and the ablation study) at a reduced scale — fewer random
drops and coarser grids than Section VII-A, so the whole suite finishes in
a minute or two — and asserts the figure's qualitative claim on the
produced table; ``test_bench_solver.py`` adds the wall-clock floors of the
batched sweep, the multiplier search (against its scalar test oracle) and
the columnar store.  Run them with
``python -m pytest benchmarks -q``; see EXPERIMENTS.md for the full
paper-scale sweeps and ``perfbench/README.md`` for the timed benchmark.

The figure sweeps run through the shared
:class:`~repro.experiments.runner.SweepRunner`; set ``REPRO_BENCH_JOBS=N``
to fan each sweep out over ``N`` worker processes (the cache is kept off
either way, so every sweep really solves).
"""

from __future__ import annotations

import os

import pytest

from repro.core.allocator import AllocatorConfig
from repro.experiments.base import SweepConfig
from repro.experiments.runner import SweepRunner, set_default_runner


def bench_sweep(num_devices: int = 20, num_trials: int = 1, **kwargs) -> SweepConfig:
    """The reduced-scale sweep shared by the benchmark configurations."""
    kwargs.setdefault("allocator", AllocatorConfig(max_iterations=8))
    return SweepConfig(num_devices=num_devices, num_trials=num_trials, **kwargs)


@pytest.fixture(scope="session", autouse=True)
def bench_runner():
    """Install the suite-wide sweep runner (serial unless REPRO_BENCH_JOBS is set)."""
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    runner = SweepRunner(jobs=jobs, use_cache=False)
    set_default_runner(runner)
    yield runner
    set_default_runner(None)

