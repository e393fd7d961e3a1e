"""Performance subsystem: stage timers and the benchmarked configurations.

``repro.perf.timers`` is import-light (no dependency on the experiment
stack) so the core solvers can use it freely.  ``repro.perf.bench`` holds
the fixed configurations that ``perfbench`` and the perf tests run; it
imports the sweep engine, so it is not imported here.  The benchmark
harness itself is ``perfbench/`` (see ``perfbench/README.md``).
"""

from __future__ import annotations

from .timers import StageTimings, active_collector, collect_timings, stage, wall_clock

__all__ = [
    "StageTimings",
    "active_collector",
    "collect_timings",
    "stage",
    "wall_clock",
]
