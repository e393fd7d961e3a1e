"""Tests for the perf subsystem: stage timers, solver instrumentation and
the ``repro bench`` report/compare machinery."""

from __future__ import annotations

import pytest

from repro.core.allocator import AllocatorConfig, ResourceAllocator
from repro.core.problem import JointProblem, ProblemWeights
from repro.perf import bench
from repro.perf.timers import StageTimings, active_collector, collect_timings, stage


# -- StageTimings / stage / collect_timings ----------------------------------

def test_stage_timings_accumulates_seconds_and_counts():
    timings = StageTimings()
    timings.add("sp1", 0.5)
    timings.add("sp1", 0.25)
    timings.add("sp2", 1.0, count=3)
    assert timings.total("sp1") == pytest.approx(0.75)
    assert timings.counts["sp1"] == 2
    assert timings.counts["sp2"] == 3
    assert timings.total("missing") == 0.0
    assert timings.as_dict() == pytest.approx({"sp1": 0.75, "sp2": 1.0})


def test_stage_records_into_explicit_collector():
    timings = StageTimings()
    with stage("work", timings):
        pass
    assert timings.total("work") >= 0.0
    assert timings.counts["work"] == 1


def test_stage_records_into_ambient_collector():
    with collect_timings() as ambient:
        with stage("inner"):
            pass
    assert "inner" in ambient.seconds
    assert active_collector() is None


def test_stage_records_into_both_collectors_without_double_count():
    local = StageTimings()
    with collect_timings() as ambient:
        with stage("dual", local):
            pass
        # The same collector as explicit target must not be charged twice.
        with collect_timings(local):
            with stage("self", local):
                pass
    assert ambient.counts["dual"] == 1
    assert local.counts["dual"] == 1
    assert local.counts["self"] == 1


def test_stage_without_any_collector_is_a_noop():
    with stage("untracked"):
        pass  # nothing to assert beyond "does not raise"


def test_collect_timings_nesting_restores_previous_collector():
    with collect_timings() as outer:
        with collect_timings() as inner:
            with stage("x"):
                pass
        with stage("y"):
            pass
    assert "x" in inner.seconds and "x" not in outer.seconds
    assert "y" in outer.seconds


def test_merge_folds_collectors_and_mappings():
    a = StageTimings()
    a.add("s", 1.0)
    b = StageTimings()
    b.add("s", 2.0)
    a.merge(b)
    a.merge({"t": 3.0})
    assert a.total("s") == pytest.approx(3.0)
    assert a.total("t") == pytest.approx(3.0)


# -- solver instrumentation ---------------------------------------------------

def test_allocation_result_carries_stage_timings_and_inner_iterations(tiny_system):
    problem = JointProblem(tiny_system, ProblemWeights(energy=0.5, time=0.5))
    with collect_timings() as timings:
        result = ResourceAllocator(AllocatorConfig(max_iterations=5)).solve(problem)
    for name in ("algorithm2", "sp1", "sp2", "sp2_inner"):
        assert timings.total(name) > 0.0
    assert result.inner_iterations > 0
    summary = result.summary()
    assert summary["inner_iterations"] == float(result.inner_iterations)


def test_delay_only_solve_still_reports_timings(tiny_system):
    problem = JointProblem(tiny_system, ProblemWeights(energy=0.0, time=1.0))
    with collect_timings() as timings:
        result = ResourceAllocator().solve(problem)
    assert timings.total("algorithm2") > 0.0
    assert timings.total("sp2") > 0.0
    assert result.inner_iterations == 0


# -- bench report & compare ---------------------------------------------------

def _report(**metric_overrides):
    metrics = {
        "cold_wall_s": 2.0,
        "scalar_wall_s": 5.0,
        "batch_wall_s": 0.8,
        "batch_wall_speedup": 2.5,
        "batch_fill": 1.0,
        "batch_parity_max_rel_dev": 0.0,
        "backend_sp2_speedup": 3.0,
        "cold_outer_iterations": 100.0,
        "cold_inner_iterations": 700.0,
        "backend_parity_max_rel_dev": 1e-12,
        "store_read_speedup": 2.5,
        "store_parity_max_rel_dev": 0.0,
    }
    metrics.update(metric_overrides)
    return {
        "schema": bench.BENCH_SCHEMA_VERSION,
        "label": "TEST",
        "mode": "quick",
        "metrics": metrics,
        "tracked": {
            "cold_inner_iterations": "lower",
            "backend_sp2_speedup": "higher",
        },
        "floors": {"backend_sp2_speedup": 2.0},
        "backend_parity_tol": 1e-8,
    }


def test_compare_reports_passes_on_identical_reports():
    base = _report()
    assert bench.compare_reports(_report(), base) == []


def test_compare_reports_flags_tracked_regression():
    base = _report()
    worse = _report(cold_inner_iterations=900.0)
    problems = bench.compare_reports(worse, base)
    assert any("cold_inner_iterations" in p for p in problems)


def test_compare_reports_allows_regressions_within_tolerance():
    base = _report()
    slightly_worse = _report(cold_inner_iterations=750.0)
    assert bench.compare_reports(slightly_worse, base, tolerance=0.2) == []


def test_compare_reports_enforces_speedup_floor_and_parity():
    base = _report()
    slow = _report(backend_sp2_speedup=1.1)
    assert any("floor" in p for p in bench.compare_reports(slow, base))
    broken = _report(batch_parity_max_rel_dev=1e-3)
    assert any("parity" in p for p in bench.compare_reports(broken, base))


def test_compare_reports_requires_the_batch_parity_gate():
    # The batched/per-drop parity is the compare's required sweep-parity
    # gate: a report without it fails instead of passing silently.
    missing = _report()
    del missing["metrics"]["batch_parity_max_rel_dev"]
    assert any(
        "batch_parity_max_rel_dev" in p and "missing" in p
        for p in bench.compare_reports(missing, _report())
    )


def test_compare_reports_enforces_backend_floor_and_parity():
    base = _report()
    slow = _report(backend_sp2_speedup=1.5)
    assert any(
        "backend_sp2_speedup" in p and "floor" in p
        for p in bench.compare_reports(slow, base)
    )
    # A deviation above the 1e-8 backend gate fails it...
    broken = _report(backend_parity_max_rel_dev=1e-7)
    assert any("backend parity" in p for p in bench.compare_reports(broken, base))
    # ...and a NaN (structurally different tables) must fail, not pass.
    nan = _report(backend_parity_max_rel_dev=float("nan"))
    assert any("backend parity" in p for p in bench.compare_reports(nan, base))


def test_compare_reports_enforces_batch_floor_and_exact_parity():
    base = _report()
    # The floor is 2.0 with the wall-speedup slack (0.95): 1.85 must fail...
    slow = _report(batch_wall_speedup=1.85)
    assert any(
        "batch_wall_speedup" in p and "floor" in p
        for p in bench.compare_reports(slow, base)
    )
    # ...while 1.95 sits inside the slack and passes.
    within_slack = _report(batch_wall_speedup=1.95)
    assert not any(
        "batch_wall_speedup" in p for p in bench.compare_reports(within_slack, base)
    )
    # The batched path is bit-identical by construction: any deviation at
    # all (or a NaN from structurally different tables) fails the gate.
    broken = _report(batch_parity_max_rel_dev=1e-15)
    assert any("batched" in p for p in bench.compare_reports(broken, base))
    nan = _report(batch_parity_max_rel_dev=float("nan"))
    assert any("batched" in p for p in bench.compare_reports(nan, base))


def test_compare_reports_enforces_store_floor_and_exact_parity():
    base = _report()
    # The floor is 1.2 with the wall-speedup slack (0.85): 1.0 must fail...
    slow = _report(store_read_speedup=1.0)
    assert any(
        "store_read_speedup" in p and "floor" in p
        for p in bench.compare_reports(slow, base)
    )
    # ...while 1.1 sits inside the slack and passes.
    within_slack = _report(store_read_speedup=1.1)
    assert not any(
        "store_read_speedup" in p
        for p in bench.compare_reports(within_slack, base)
    )
    # Both backends round-trip losslessly, so the parity gate is exact:
    # any deviation at all (or a NaN from a structural mismatch) fails.
    broken = _report(store_parity_max_rel_dev=1e-15)
    assert any("result-store" in p for p in bench.compare_reports(broken, base))
    nan = _report(store_parity_max_rel_dev=float("nan"))
    assert any("result-store" in p for p in bench.compare_reports(nan, base))
    # A schema-4 baseline (no store metrics) can still be compared against,
    # but the current report must carry the floor metric.
    missing = _report()
    del missing["metrics"]["store_read_speedup"]
    assert any(
        "store_read_speedup" in p and "missing" in p
        for p in bench.compare_reports(missing, base)
    )


def test_compare_reports_cross_mode_checks_floors_only():
    base = _report()
    other_mode = _report(cold_inner_iterations=10_000.0)
    other_mode["mode"] = "standard"
    # Iteration counts are suite-scale dependent: not compared across modes.
    assert bench.compare_reports(other_mode, base) == []


def test_bench_config_scales_with_quick_flag():
    quick = bench.bench_config(quick=True)
    standard = bench.bench_config(quick=False)
    assert len(quick.tasks()) < len(standard.tasks())
    assert not quick.include_benchmark and not standard.include_benchmark


def test_write_and_load_report_round_trip(tmp_path):
    report = _report()
    path = bench.write_report(report, tmp_path / "BENCH_TEST.json")
    assert bench.load_report(path) == report


# -- closed-loop FL bench additions (schema 3) -------------------------------

def test_flat_parity_on_matching_and_broken_trajectories():
    left = {"r001_accuracy": 0.5, "r001_elapsed_s": 1.0}
    assert bench._flat_parity(left, dict(left)) == 0.0
    shifted = {"r001_accuracy": 0.5, "r001_elapsed_s": 1.1}
    assert bench._flat_parity(left, shifted) == pytest.approx(0.1)
    assert bench._flat_parity(left, {"r001_accuracy": 0.5}) == float("inf")
    assert (
        bench._flat_parity(left, {"r001_accuracy": 0.5, "r001_elapsed_s": float("nan")})
        == float("inf")
    )
    both_nan = {"a": float("nan")}
    assert bench._flat_parity(both_nan, dict(both_nan)) == 0.0


def test_fl_bench_config_scales_with_quick_flag():
    quick = bench.fl_bench_config(quick=True)
    standard = bench.fl_bench_config(quick=False)
    assert quick.rounds < standard.rounds
    assert quick.scenario["num_devices"] < standard.scenario["num_devices"]
    # The benchmarked loop must exercise the allocation-aware selection.
    assert quick.selection == "deadline-k"


def test_compare_reports_flags_fl_parity_breach():
    baseline = _report()
    current = _report(
        fl_backend_parity_max_rel_dev=1e-3, fl_dynamic_backend_parity_max_rel_dev=0.0
    )
    problems = bench.compare_reports(current, baseline)
    assert any("fl_backend_parity_max_rel_dev" in p for p in problems)

    current = _report(
        fl_backend_parity_max_rel_dev=0.0, fl_dynamic_backend_parity_max_rel_dev=1e-3
    )
    problems = bench.compare_reports(current, baseline)
    assert any("fl_dynamic_backend_parity_max_rel_dev" in p for p in problems)


def test_compare_reports_tolerates_reports_without_fl_metrics():
    # A schema-2 report (no FL suite) must still compare cleanly.
    assert bench.compare_reports(_report(), _report()) == []


# -- deterministic work counters ---------------------------------------------


def _mu_search_work(monkeypatch, batch_size):
    """Work of the SP2 multiplier search over the fig2 bench sweep, solved
    per drop (``batch_size=1``) or batched (the default): calls of each
    Lambert kernel, searches (one per lane), and the Newton iterations run
    inside those kernel calls (the polish's own solves not counted)."""
    from repro.core import subproblem2
    from repro.experiments.fig2 import run_fig2
    from repro.experiments.runner import SweepRunner
    from repro.solvers import lambert

    work = {"vector": 0, "rows": 0, "seeded": 0, "searches": 0, "newton": 0}
    in_kernel = False

    def counting(name, kernel):
        def wrapped(*args, **kwargs):
            nonlocal in_kernel
            work[name] += 1
            in_kernel = True
            try:
                return kernel(*args, **kwargs)
            finally:
                in_kernel = False

        return wrapped

    newton_step = lambert._newton_step

    def counting_step(x, c):
        work["newton"] += in_kernel
        return newton_step(x, c)

    one_lane = subproblem2._MU_SEARCHES["vector"]
    lockstep = subproblem2._mu_search_vector_rows

    def counting_one_lane(*args, **kwargs):
        work["searches"] += 1
        return one_lane(*args, **kwargs)

    def counting_lockstep(j_rows, *args, **kwargs):
        work["searches"] += j_rows.shape[0]
        return lockstep(j_rows, *args, **kwargs)

    with monkeypatch.context() as patch:
        for name, kernel in (
            ("vector", "lambert_solve_vector"),
            ("rows", "lambert_solve_rows"),
            ("seeded", "_lambert_solve_seeded"),
        ):
            patch.setattr(subproblem2, kernel, counting(name, getattr(subproblem2, kernel)))
        patch.setattr(lambert, "_newton_step", counting_step)
        patch.setitem(subproblem2._MU_SEARCHES, "vector", counting_one_lane)
        patch.setattr(subproblem2, "_mu_search_vector_rows", counting_lockstep)
        runner = SweepRunner(jobs=1, use_cache=False, batch_size=batch_size)
        table = run_fig2(bench.bench_config(False), runner=runner)
    assert runner.last_stats.failed == 0
    assert len(table.rows) > 0
    return work


def test_mu_search_lambert_calls_are_deterministic_and_within_budget(monkeypatch):
    """The 48 fig2 bench problems (986 searches) cost a fixed, bounded number
    of Lambert calls and inner Newton iterations in the multiplier search,
    per drop and batched.  Before the bracketing call and the Halley phase:
    7,390 calls per drop (7.49 per search) and 265 batched; 29,051 inner
    Newton iterations per drop (29.5 per search) and 1,124 batched."""
    per_drop = _mu_search_work(monkeypatch, batch_size=1)
    batched = _mu_search_work(monkeypatch, batch_size=None)
    assert per_drop["rows"] == 0 and batched["vector"] == 0
    assert per_drop["searches"] == batched["searches"] == 986
    per_drop_calls = per_drop["vector"] + per_drop["seeded"]
    assert per_drop_calls <= 4500
    assert per_drop_calls / per_drop["searches"] <= 5.0
    assert per_drop["newton"] <= 15000
    assert batched["rows"] + batched["seeded"] <= 145
    assert batched["newton"] <= 405
    assert _mu_search_work(monkeypatch, batch_size=1) == per_drop
    assert _mu_search_work(monkeypatch, batch_size=None) == batched


def _delay_min_rate_evaluations(monkeypatch):
    """Rate-formula evaluations per ``minimize_max_upload_time`` call on the
    80 ten-device paper/hotspot drops (seeds 0-39)."""
    from repro.core import uplink_delay
    from repro.scenarios import build_scenario_spec
    from repro.wireless import rate

    systems = [
        build_scenario_spec({"family": family, "num_devices": 10, "seed": seed})
        for family in ("paper", "hotspot")
        for seed in range(40)
    ]
    original = rate._open_band_rate
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    with monkeypatch.context() as patch:
        patch.setattr(rate, "_open_band_rate", counting)
        patch.setattr(uplink_delay, "_open_band_rate", counting)
        for system in systems:
            uplink_delay.minimize_max_upload_time(system)
    return calls / len(systems)


def test_delay_min_rate_evaluations_are_deterministic_and_within_budget(monkeypatch):
    """The shared bandwidth walk costs a fixed, bounded number of rate
    evaluations per delay-min solve (the nested bisection cost 909.0)."""
    per_call = _delay_min_rate_evaluations(monkeypatch)
    assert per_call <= 166
    assert _delay_min_rate_evaluations(monkeypatch) == per_call


def _fl_round_training_work(monkeypatch, model):
    """Local-SGD work of one closed-loop FL round: the gradient oracles
    prepared, the gradients and the losses computed, per model step."""
    from repro.fl import models
    from repro.fl.roundloop import RoundLoopConfig, run_round_loop

    work = {"oracles": 0, "gradients": 0, "losses": 0}
    model_cls = {"softmax": models.SoftmaxRegression, "mlp": models.MLPClassifier}[model]
    oracle = model_cls.gradient_oracle

    def counting_oracle(self, x, y):
        step = oracle(self, x, y)
        work["oracles"] += 1

        def counting_step(batch_idx, with_loss):
            work["gradients"] += 1
            work["losses"] += with_loss
            return step(batch_idx, with_loss)

        return counting_step

    config = RoundLoopConfig(
        scenario={"num_devices": 6, "seed": 3},
        rounds=1,
        local_iterations=5,
        selection="deadline-k",
        selection_params={"k": 4},
        model=model,
        samples_per_client=40,
        seed=3,
    )
    with monkeypatch.context() as patch:
        patch.setattr(model_cls, "gradient_oracle", counting_oracle)
        report = run_round_loop(config)
    return work, len(report.records[0].selected)


@pytest.mark.parametrize("model", ["softmax", "mlp"])
def test_fl_round_computes_one_loss_per_selected_client(monkeypatch, model):
    """One FL round prepares one gradient oracle and computes one loss per
    selected client, and ``local_iterations`` gradients per selected client
    (the per-step formulation computed the loss on every step)."""
    work, selected = _fl_round_training_work(monkeypatch, model)
    assert 1 <= selected < 6
    assert work == {"oracles": selected, "gradients": 5 * selected, "losses": selected}
    assert _fl_round_training_work(monkeypatch, model) == (work, selected)
