"""Performance subsystem: stage timers, the benchmark suite and the
perf-trajectory tracking behind ``repro bench``.

``repro.perf.timers`` is import-light (no dependency on the experiment
stack) so the core solvers can use it freely; ``repro.perf.bench`` pulls in
the sweep engine and is therefore loaded lazily.
"""

from __future__ import annotations

from typing import Any

from .timers import StageTimings, active_collector, collect_timings, stage, wall_clock

__all__ = [
    "StageTimings",
    "active_collector",
    "collect_timings",
    "stage",
    "wall_clock",
    "run_bench",
    "compare_reports",
    "write_report",
    "load_report",
]

_BENCH_EXPORTS = {"run_bench", "compare_reports", "write_report", "load_report"}


def __getattr__(name: str) -> Any:
    # Lazy: repro.perf.bench imports repro.experiments, which imports
    # repro.core, which imports repro.perf.timers — eager import here would
    # make that a cycle.
    if name in _BENCH_EXPORTS:
        from . import bench

        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
