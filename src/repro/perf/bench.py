"""The benchmark suite and perf-trajectory tracking behind ``repro bench``.

One invocation runs the Figure-2 sweep three times through the shared
:class:`~repro.experiments.runner.SweepRunner` — on the vector backend and
on the scalar reference backend, both solved per drop (``batch_size=1``),
and through the batched multi-solve path (``batch_size=8``) — on a fixed,
seeded configuration (serial, cache off, so the timings are honest), and
writes a ``BENCH_PR<k>.json`` report:

* **per-stage wall-clock** summed over every task (``scenario_build``,
  ``solve``, ``algorithm2``, ``sp1``, ``sp2``, ``sp2_inner``) plus the
  runner-level dispatch overhead, for each per-drop mode;
* **solver iteration counts** (outer Algorithm-2 and inner Algorithm-1
  totals) — these are deterministic for a fixed suite, which is what makes
  cross-machine regression tracking meaningful;
* the **backend SP2-stage speedup** (scalar over vector, on the ``sp2``
  stage wall-clock) and the **scalar/vector parity** (max relative metric
  deviation across the produced tables).

Since schema 3 the report also carries a **closed-loop FL suite**: one
:class:`~repro.fl.roundloop.FLRoundLoop` run per backend (vector / scalar)
on a fixed seeded configuration, reporting the round-loop throughput
(rounds per second), the per-stage split (allocate versus train), the
deterministic total of allocator iterations across rounds, and an *exact*
backend parity — fixed-seed round loops must be bit-identical across
backends, so the gate is zero-tolerance (within the backend parity bound).

Since schema 4 the report also carries the **batched multi-solve** run:
``batch_wall_s`` / ``batch_wall_speedup`` (per-drop wall over batched
wall), ``batch_fill`` (how densely the lockstep batches were packed) and
``batch_parity_max_rel_dev`` — the batched path is *bit-identical* to the
per-drop one by construction, so its parity gate is exactly zero.

Since schema 5 the report also carries a **result-store suite**: the cold
sweep's real outcomes are written to and read back from both
:mod:`repro.store` backends (``store_write_{json,columnar}_s``,
``store_read_{json,columnar}_s``), where a read pass is one fresh store
instance serving every digest — the cache-hit pattern of a repeated sweep.
``store_read_speedup`` (JSON wall over columnar wall) carries a floor: the
columnar backend's whole reason to exist is that one segment load beats
O(tasks) file opens.  ``store_parity_max_rel_dev`` is the zero-tolerance
gate that both backends return bit-identical entries (metrics *and*
solution state).

Since schema 6 the report also carries a **dynamic-fleet FL suite**: the
closed-loop run re-done with Poisson churn and battery drain enabled
(vector / scalar), reporting the allocation cost of mid-training re-solves
(``fl_churn_resolve_s``) and the same exact backend parity gate as the
frozen-fleet loop (``fl_dynamic_backend_parity_max_rel_dev``) — churn and
drain are seeded, so dynamic runs must stay bit-identical too.  A third
run flips on online profile estimation (:mod:`repro.fl.estimation`) and
reports the estimated-versus-oracle accuracy gap plus the estimator's
final relative errors (``fl_estimated_vs_oracle_accuracy_gap``,
``fl_estimation_cycles_rel_err``, ``fl_estimation_gain_rel_err``).

Schema 7 dropped the warm-started modes: every solve is cold, so the
report no longer carries ``warm_*`` metrics or warm parities.

:func:`compare_reports` gates a report against a committed baseline: a
tracked metric that regresses beyond the tolerance (default 20%), a floor
that is no longer met (backend SP2 speedup >= 2x, batched multi-solve
wall speedup >= 2x, columnar store reads beating JSON), or a parity breach
(scalar/vector above 1e-8, batched/per-drop above 0.0, store backends
above 0.0, FL round loops above the backend bound) fails the comparison —
that is the CI perf gate.
"""

from __future__ import annotations

import json
import platform
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Mapping

from ..experiments.base import SweepConfig
from ..experiments.fig2 import Fig2Config
from ..experiments.runner import SweepRunner, TaskOutcome, task_hash
from ..fl.roundloop import FLRoundLoop, RoundLoopConfig
from ..store import open_store

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_TOLERANCE",
    "DEFAULT_BACKEND_PARITY_TOL",
    "bench_config",
    "fl_bench_config",
    "fl_dynamic_bench_config",
    "run_bench",
    "write_report",
    "load_report",
    "compare_reports",
]

BENCH_SCHEMA_VERSION = 7
#: Relative regression a tracked metric may show before the compare fails.
DEFAULT_TOLERANCE = 0.20
#: Maximum relative deviation allowed between the scalar and vector backend
#: sweeps: both backends polish the bandwidth multiplier onto the exact
#: root, so their trajectories agree to round-off.
DEFAULT_BACKEND_PARITY_TOL = 1e-8

#: Absolute gates every report must keep meeting, whatever the baseline.
#: ``batch_wall_speedup`` gates the batched multi-solve path against the
#: per-drop cold sweep.  ``store_read_speedup`` gates the columnar result
#: store against the JSON oracle on cache-hit reads: one segment load must
#: beat O(tasks) file opens even at the quick suite's 8 entries (~2.7x
#: measured there, ~8.8x at standard scale — the floor is deliberately far
#: below both).
_FLOORS: dict[str, float] = {
    "backend_sp2_speedup": 2.0,
    "batch_wall_speedup": 2.0,
    "store_read_speedup": 1.2,
}

#: Wall-clock speedup floors get a per-metric slack factor in the
#: comparison: the ratio of two measured wall-clocks carries scheduler
#: noise that the deterministic iteration-count gates do not, and a hard
#: floor would flap on a busy CI box.  ``batch_wall_speedup`` has some
#: headroom above its floor (2.17-2.61x over five quick runs on a shared
#: 2-vCPU VM, median 2.26x, vs the 2.0 floor), so it keeps a tight slack.
#: ``store_read_speedup`` is measured on sub-millisecond walls at quick
#: scale, so it gets a generous slack; the measured headroom (2x+ above
#: the floor) does the real guarding.
_WALL_SPEEDUP_FLOOR_SLACK: dict[str, float] = {
    "batch_wall_speedup": 0.95,
    "store_read_speedup": 0.85,
}

#: Metrics compared against the baseline, with their improvement direction.
_TRACKED: dict[str, str] = {
    "cold_outer_iterations": "lower",
    "cold_inner_iterations": "lower",
    "backend_sp2_speedup": "higher",
    "fl_outer_iterations": "lower",
    "fl_dynamic_outer_iterations": "lower",
}

_PARITY_COLUMNS = ("energy_j", "time_s", "objective")


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
    mid-training, and ``fl_churn_resolve_s`` tracks the cost of re-solving
    around them.  The capacity is generous enough that
    no device retires inside the benchmark horizon — retirement coverage
    lives in the test suite; here the batteries exist to price the drain
    bookkeeping, not to shrink the fleet nondeterministically across
    suite scales.
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


def _run_fl_mode(config: RoundLoopConfig, *, backend: str):
    """One closed-loop run; returns (flat metrics, report, wall seconds)."""
    started = time.monotonic()
    report = FLRoundLoop(replace(config, backend=backend)).run()
    wall = time.monotonic() - started
    return report.flat_metrics(), report, wall


def _flat_parity(left: Mapping[str, float], right: Mapping[str, float]) -> float:
    """Max relative deviation between two flat-metric trajectories.

    ``inf`` on a structural mismatch (different key sets or a NaN on one
    side only), so a broken mode can never pass the gate.
    """
    if set(left) != set(right):
        return float("inf")
    deviation = 0.0
    for key, left_value in left.items():
        right_value = float(right[key])
        left_value = float(left_value)
        left_nan, right_nan = left_value != left_value, right_value != right_value
        if left_nan and right_nan:
            continue
        if left_nan or right_nan:
            return float("inf")
        scale = max(abs(left_value), 1e-30)
        deviation = max(deviation, abs(left_value - right_value) / scale)
    return deviation


#: Timed repetitions per sweep mode.  The quick suite finishes in well
#: under a second, where a single-shot wall ratio is dominated by
#: scheduler noise — the suite therefore runs every mode once per round
#: and gates on ratios of summed walls (see :func:`run_bench`).  Tables
#: and iteration counts are deterministic (cache off, fixed seeds), so
#: repeats change timing only.
_BENCH_REPEATS = 5


def _run_mode(
    config: Fig2Config,
    backend: str | None = None,
    batch_size: int | None = None,
):
    from ..experiments.fig2 import run_fig2

    if backend is not None:
        config = replace(config, sweep=config.sweep.with_backend(backend))
    outcomes: list[TaskOutcome] = []
    runner = SweepRunner(
        jobs=1,
        use_cache=False,
        progress=lambda done, total, outcome: outcomes.append(outcome),
        batch_size=batch_size,
    )
    table = run_fig2(config, runner=runner)
    return table, outcomes, runner.last_stats


def _sum_metric(outcomes: list[TaskOutcome], key: str) -> float:
    return float(sum(o.metrics.get(key, 0.0) for o in outcomes if o.ok))


def _sum_stages(outcomes: list[TaskOutcome]) -> dict[str, float]:
    stages: dict[str, float] = {}
    for outcome in outcomes:
        for name, seconds in (outcome.timings or {}).items():
            stages[name] = stages.get(name, 0.0) + float(seconds)
    return {name: round(seconds, 6) for name, seconds in sorted(stages.items())}


def _parity(reference_table, other_table) -> float:
    """Max relative deviation between two sweep tables; ``inf`` when they
    disagree structurally (different row counts, or a value present in one
    mode and NaN in the other) so a broken mode can never pass the gate."""
    if len(reference_table.rows) != len(other_table.rows):
        return float("inf")
    deviation = 0.0
    for ref_row, other_row in zip(reference_table.rows, other_table.rows):
        for column in _PARITY_COLUMNS:
            if column not in ref_row:
                continue
            ref_value, other_value = float(ref_row[column]), float(other_row[column])
            ref_nan, other_nan = ref_value != ref_value, other_value != other_value
            if ref_nan and other_nan:
                continue  # the grid point failed in both modes
            if ref_nan or other_nan:
                return float("inf")
            scale = max(abs(ref_value), 1e-30)
            deviation = max(deviation, abs(ref_value - other_value) / scale)
    return deviation


#: Batch size of the benchmark's batched multi-solve mode.  Divides both
#: the quick (8) and standard (48) task counts, so every batch is full and
#: ``batch_fill`` is 1.0 when the grouping works as designed.
_BENCH_BATCH_SIZE = 8

#: Timed read passes per store backend (best-of is reported): one pass is
#: a fresh store instance serving every digest once — the cache-hit
#: pattern of a repeated sweep.
_STORE_READ_REPEATS = 5


def _bench_store(outcomes: list[TaskOutcome]) -> dict[str, float]:
    """Time both result-store backends on the cold sweep's real outcomes.

    Write = put every entry, flush and (for columnar) compact.  Read =
    best-of-``_STORE_READ_REPEATS`` passes, each on a *fresh* store
    instance so the JSON backend pays its per-entry file opens and the
    columnar backend its one segment load — the honest cache-hit model.
    The parity deviation is exact-equality strict: entries that float-match
    but differ structurally (an int came back a float, a solution state
    changed) read as ``inf``.
    """
    entries = [
        (task_hash(o.task), o.task.payload(), o.metrics, o.state)
        for o in outcomes
        if o.ok
    ]
    timings: dict[str, float] = {}
    read_back: dict[str, dict[str, Any]] = {}
    for backend in ("json", "columnar"):
        with tempfile.TemporaryDirectory(prefix=f"repro-bench-store-{backend}-") as root:
            started = time.perf_counter()
            store = open_store(root, backend)
            for digest, task, metrics, state in entries:
                store.put(digest, task, metrics, state)
            store.flush()
            compact = getattr(store, "compact", None)
            if callable(compact):
                compact()
            timings[f"store_write_{backend}_s"] = time.perf_counter() - started
            best_read = float("inf")
            for _ in range(_STORE_READ_REPEATS):
                reader = open_store(root, backend)
                started = time.perf_counter()
                for digest, _task, _metrics, _state in entries:
                    reader.get_entry(digest)
                best_read = min(best_read, time.perf_counter() - started)
            timings[f"store_read_{backend}_s"] = best_read
            reader = open_store(root, backend)
            read_back[backend] = {
                digest: reader.get_entry(digest)
                for digest, _task, _metrics, _state in entries
            }
    deviation = 0.0
    for digest, _task, metrics, state in entries:
        json_entry = read_back["json"].get(digest)
        columnar_entry = read_back["columnar"].get(digest)
        if json_entry is None or columnar_entry is None:
            deviation = float("inf")
            break
        parity = _flat_parity(json_entry[0], columnar_entry[0])
        if parity == 0.0 and json_entry != columnar_entry:
            # Float-identical but structurally different (int/float type
            # drift or a solution-state mismatch): still a parity breach.
            parity = float("inf")
        deviation = max(deviation, parity)
    return {
        "store_entries": float(len(entries)),
        "store_write_json_s": round(timings["store_write_json_s"], 6),
        "store_write_columnar_s": round(timings["store_write_columnar_s"], 6),
        "store_read_json_s": round(timings["store_read_json_s"], 6),
        "store_read_columnar_s": round(timings["store_read_columnar_s"], 6),
        "store_read_speedup": round(
            timings["store_read_json_s"]
            / max(timings["store_read_columnar_s"], 1e-12),
            4,
        ),
        "store_parity_max_rel_dev": deviation,
    }


def run_bench(*, quick: bool = False, label: str = "PR8") -> dict[str, Any]:
    """Run the suite and return the report (see the module docstring)."""
    config = bench_config(quick)
    # The runner batches by default; the per-drop modes pin ``batch_size=1``
    # so ``batch_wall_speedup`` and the per-stage timings keep comparing
    # per-drop solves with the batched path.
    modes: dict[str, dict[str, Any]] = {
        "cold": {"batch_size": 1},
        "scalar": {"backend": "scalar", "batch_size": 1},
        "batch": {"batch_size": _BENCH_BATCH_SIZE},
    }
    # Repeats are interleaved across modes rather than run per mode in a
    # block, so a load shift on the host biases every mode of a round
    # alike, and the mode order rotates each round so no mode always runs
    # in the same slot.  The gated speedups are ratios of *summed* walls
    # across rounds: a single ~tens-of-ms scheduler spike dilutes into
    # the multi-second totals instead of poisoning one short sample.
    # Per-mode wall seconds report the fastest round.
    best: dict[str, Any] = {}
    totals: dict[str, float] = {name: 0.0 for name in modes}
    items = list(modes.items())
    for index in range(_BENCH_REPEATS):
        shift = index % len(items)
        for name, kwargs in items[shift:] + items[:shift]:
            run = _run_mode(config, **kwargs)
            totals[name] += run[2].elapsed_s
            if name not in best or run[2].elapsed_s < best[name][2].elapsed_s:
                best[name] = run

    def _summed_speedup(denominator: str) -> float:
        return totals["cold"] / max(totals[denominator], 1e-12)

    cold_table, cold_outcomes, cold_stats = best["cold"]
    scalar_table, scalar_outcomes, scalar_stats = best["scalar"]
    batch_table, _batch_outcomes, batch_stats = best["batch"]

    fl_config = fl_bench_config(quick)
    fl_cold, fl_cold_report, fl_cold_wall = _run_fl_mode(fl_config, backend="vector")
    fl_scalar, _fl_scalar_report, fl_scalar_wall = _run_fl_mode(
        fl_config, backend="scalar"
    )

    dyn_config = fl_dynamic_bench_config(quick)
    fl_dyn_cold, fl_dyn_cold_report, fl_dyn_cold_wall = _run_fl_mode(
        dyn_config, backend="vector"
    )
    fl_dyn_scalar, _fl_dyn_scalar_report, _fl_dyn_scalar_wall = _run_fl_mode(
        dyn_config, backend="scalar"
    )
    est_config = replace(dyn_config, estimate_profiles=True)
    _fl_est, fl_est_report, _fl_est_wall = _run_fl_mode(est_config, backend="vector")

    cold_stages = _sum_stages(cold_outcomes)
    scalar_stages = _sum_stages(scalar_outcomes)
    cold_task_s = cold_stages.get("scenario_build", 0.0) + cold_stages.get("solve", 0.0)
    scalar_sp2 = scalar_stages.get("sp2", 0.0)
    vector_sp2 = cold_stages.get("sp2", 0.0)
    batch_wall = batch_stats.elapsed_s
    batch_capacity = batch_stats.batches * _BENCH_BATCH_SIZE
    metrics: dict[str, float] = {
        "cold_wall_s": round(cold_stats.elapsed_s, 4),
        "scalar_wall_s": round(scalar_stats.elapsed_s, 4),
        "batch_wall_s": round(batch_wall, 4),
        "batch_wall_speedup": round(_summed_speedup("batch"), 4),
        "batch_fill": round(batch_stats.batched_tasks / batch_capacity, 4)
        if batch_capacity
        else 0.0,
        "batched_tasks": float(batch_stats.batched_tasks),
        "batch_parity_max_rel_dev": _parity(cold_table, batch_table),
        "backend_sp2_speedup": round(scalar_sp2 / max(vector_sp2, 1e-12), 4),
        "cold_outer_iterations": _sum_metric(cold_outcomes, "iterations"),
        "scalar_outer_iterations": _sum_metric(scalar_outcomes, "iterations"),
        "cold_inner_iterations": _sum_metric(cold_outcomes, "inner_iterations"),
        "scalar_inner_iterations": _sum_metric(scalar_outcomes, "inner_iterations"),
        "tasks": float(cold_stats.total),
        "failed_tasks": float(
            cold_stats.failed + scalar_stats.failed + batch_stats.failed
        ),
        "dispatch_overhead_s": round(max(cold_stats.elapsed_s - cold_task_s, 0.0), 4),
        "cache_io_s": round(cold_stats.cache_io_s, 6),
        "backend_parity_max_rel_dev": _parity(scalar_table, cold_table),
        "fl_wall_s": round(fl_cold_wall, 4),
        "fl_scalar_wall_s": round(fl_scalar_wall, 4),
        "fl_rounds_per_s": round(fl_config.rounds / max(fl_cold_wall, 1e-12), 4),
        "fl_allocate_s": round(fl_cold_report.stage_seconds("fl_allocate"), 6),
        "fl_train_s": round(fl_cold_report.stage_seconds("fl_train"), 6),
        "fl_outer_iterations": float(fl_cold_report.total_allocator_iterations),
        "fl_final_accuracy": round(fl_cold_report.final_accuracy, 6),
        "fl_backend_parity_max_rel_dev": _flat_parity(fl_cold, fl_scalar),
        "fl_dynamic_wall_s": round(fl_dyn_cold_wall, 4),
        "fl_churn_resolve_s": round(
            fl_dyn_cold_report.stage_seconds("fl_allocate"), 6
        ),
        "fl_dynamic_outer_iterations": float(
            fl_dyn_cold_report.total_allocator_iterations
        ),
        "fl_dynamic_final_accuracy": round(fl_dyn_cold_report.final_accuracy, 6),
        "fl_dynamic_backend_parity_max_rel_dev": _flat_parity(
            fl_dyn_cold, fl_dyn_scalar
        ),
        "fl_estimated_vs_oracle_accuracy_gap": round(
            abs(fl_dyn_cold_report.final_accuracy - fl_est_report.final_accuracy),
            6,
        ),
        "fl_estimation_cycles_rel_err": round(
            fl_est_report.records[-1].estimation_cycles_rel_err or 0.0, 6
        ),
        "fl_estimation_gain_rel_err": round(
            fl_est_report.records[-1].estimation_gain_rel_err or 0.0, 6
        ),
    }
    metrics.update(_bench_store(cold_outcomes))
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "label": label,
        "mode": "quick" if quick else "standard",
        "suite": "fig2 sweep: vector vs scalar backend vs batched "
        "multi-solve (jobs=1, cache off) + closed-loop FL round loop "
        "(vector/scalar, frozen and dynamic fleets, estimated profiles) + "
        "result-store read/write (json vs columnar)",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "metrics": metrics,
        "stages": {"cold": cold_stages, "scalar": scalar_stages},
        "tracked": dict(_TRACKED),
        "floors": dict(_FLOORS),
        "backend_parity_tol": DEFAULT_BACKEND_PARITY_TOL,
    }


def write_report(report: Mapping[str, Any], path: str | Path) -> Path:
    """Write ``report`` as indented JSON; returns the path."""
    target = Path(path)
    target.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    return target


def load_report(path: str | Path) -> dict[str, Any]:
    """Load a report written by :func:`write_report`."""
    return json.loads(Path(path).read_text())


def compare_reports(
    current: Mapping[str, Any],
    baseline: Mapping[str, Any],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[str]:
    """Regression messages of ``current`` against ``baseline`` (empty = pass).

    Three kinds of failure:

    * a **floor** (absolute gate recorded in the baseline) is not met;
    * a **parity** gate breaks: scalar/vector above the baseline's
      ``backend_parity_tol``, or batched/per-drop and the store backends
      above exact equality;
    * modes match and a **tracked metric** regressed more than ``tolerance``
      relative to the baseline value (iteration counts are deterministic
      per suite, so cross-machine comparison is sound; wall-clock enters
      only through the dimensionless speedup ratio).
    """
    problems: list[str] = []
    current_metrics = current.get("metrics", {})
    baseline_metrics = baseline.get("metrics", {})

    for name, floor in {**_FLOORS, **baseline.get("floors", {})}.items():
        value = current_metrics.get(name)
        limit = floor * _WALL_SPEEDUP_FLOOR_SLACK.get(name, 1.0)
        if value is None:
            problems.append(f"floor metric {name!r} missing from the current report")
        elif value < limit:
            problems.append(f"{name} = {value:.4g} fell below its floor {floor:.4g}")

    backend_tol = float(
        baseline.get("backend_parity_tol", DEFAULT_BACKEND_PARITY_TOL)
    )
    backend_parity = current_metrics.get("backend_parity_max_rel_dev")
    if backend_parity is None:
        problems.append(
            "backend_parity_max_rel_dev missing from the current report"
        )
    elif not backend_parity <= backend_tol:  # catches NaN as well as breaches
        problems.append(
            f"scalar/vector backend parity broke: max relative deviation "
            f"{backend_parity:.3e} exceeds {backend_tol:.1e}"
        )

    # Batched multi-solve parity: the required sweep-parity gate.  Zero
    # tolerance: the batched path is bit-identical to the per-drop one by
    # construction, so any deviation at all is a lane-isolation bug, not
    # noise.
    batch_parity = current_metrics.get("batch_parity_max_rel_dev")
    if batch_parity is None:
        problems.append("batch_parity_max_rel_dev missing from the current report")
    elif not batch_parity <= 0.0:  # catches NaN too
        problems.append(
            f"batched/per-drop parity broke: max relative deviation "
            f"{batch_parity:.3e} exceeds the exact-equality gate (0.0)"
        )

    # Result-store parity (schema >= 5).  Zero tolerance: both backends
    # serve the same entries through lossless round-trips, so any deviation
    # (including an int coming back a float, or a solution state drifting) is a
    # packing bug, not noise.  Guarded on presence like the batch gate.
    store_parity = current_metrics.get("store_parity_max_rel_dev")
    if store_parity is not None and not store_parity <= 0.0:  # catches NaN too
        problems.append(
            f"result-store parity broke: max relative deviation "
            f"{store_parity:.3e} exceeds the exact-equality gate (0.0)"
        )

    # Closed-loop FL backend parities (schema >= 3, dynamic fleet >= 6).
    # Guarded on presence so an older report can still be compared against;
    # once the current report carries them they must hold — fixed-seed
    # round loops are bit-identical by construction, so these should in
    # fact be 0.0.
    for name in (
        "fl_backend_parity_max_rel_dev",
        "fl_dynamic_backend_parity_max_rel_dev",
    ):
        fl_parity = current_metrics.get(name)
        if fl_parity is not None and not fl_parity <= backend_tol:
            problems.append(
                f"FL round-loop parity broke: {name} = {fl_parity:.3e} "
                f"exceeds {backend_tol:.1e}"
            )

    failed = current_metrics.get("failed_tasks", 0.0)
    if failed:
        problems.append(f"{failed:.0f} benchmark task(s) failed to solve")

    if current.get("mode") != baseline.get("mode"):
        # Iteration counts depend on the suite scale; only the floors and
        # parity are comparable across modes.
        return problems

    for name, direction in baseline.get("tracked", _TRACKED).items():
        base = baseline_metrics.get(name)
        value = current_metrics.get(name)
        if base is None or value is None or base <= 0.0:
            continue
        if direction == "lower" and value > base * (1.0 + tolerance):
            problems.append(
                f"{name} regressed: {value:.4g} vs baseline {base:.4g} "
                f"(> +{tolerance:.0%})"
            )
        elif direction == "higher" and value < base * (1.0 - tolerance):
            problems.append(
                f"{name} regressed: {value:.4g} vs baseline {base:.4g} "
                f"(< -{tolerance:.0%})"
            )
    return problems
