"""Tests for the perf subsystem: stage timers, solver instrumentation, the
benchmarked configurations and the deterministic work counters."""

from __future__ import annotations

import pytest

from repro.core.allocator import AllocatorConfig, ResourceAllocator
from repro.core.problem import JointProblem, ProblemWeights
from repro.perf import bench
from repro.perf.timers import StageTimings, active_collector, collect_timings, stage
from tests.mu_search_scalar_reference import scalar_oracle


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


# -- benchmarked configurations ----------------------------------------------

def test_bench_config_scales_with_quick_flag():
    quick = bench.bench_config(quick=True)
    standard = bench.bench_config(quick=False)
    assert len(quick.tasks()) < len(standard.tasks())
    assert not quick.include_benchmark and not standard.include_benchmark


def test_fl_bench_config_scales_with_quick_flag():
    quick = bench.fl_bench_config(quick=True)
    standard = bench.fl_bench_config(quick=False)
    assert quick.rounds < standard.rounds
    assert quick.scenario["num_devices"] < standard.scenario["num_devices"]
    # The benchmarked loop must exercise the allocation-aware selection.
    assert quick.selection == "deadline-k"


@pytest.mark.parametrize(
    ("make_config", "outer_iterations"),
    [(bench.fl_bench_config, 12), (bench.fl_dynamic_bench_config, 10)],
    ids=["frozen", "dynamic"],
)
def test_quick_fl_bench_runs_are_pinned_and_backend_identical(make_config, outer_iterations):
    """The quick closed-loop bench runs (frozen fleet; churn and battery
    drain) take a fixed number of allocator iterations over their rounds
    and give bit-identical trajectories with the library's multiplier
    search and under the scalar test oracle."""
    from repro.fl.roundloop import FLRoundLoop

    config = make_config(True)
    vector = FLRoundLoop(config).run()
    with scalar_oracle():
        scalar = FLRoundLoop(config).run()
    assert vector.total_allocator_iterations == outer_iterations
    assert scalar.total_allocator_iterations == outer_iterations
    assert vector.flat_metrics() == scalar.flat_metrics()


@pytest.mark.xfail(
    strict=True,
    reason="channel-gain estimation is biased by deadline-k selection "
    "(last-round gain error ~1.42; ~0.18 under selection='all')",
)
def test_estimated_gains_converge_under_deadline_k_selection():
    """The estimator's gate: after 30 rounds of the dynamic bench run on
    estimated profiles, the fitted channel gains are within 20% of the
    truth.  It fails today, because deadline-k only ever observes the
    clients it selects; when the estimator is corrected, this test starts
    passing, the strict xfail turns that into a failure, and the marker
    has to go."""
    from dataclasses import replace

    from repro.fl.roundloop import FLRoundLoop

    config = replace(
        bench.fl_dynamic_bench_config(),
        estimate_profiles=True,
        rounds=30,
        selection="deadline-k",
    )
    report = FLRoundLoop(config).run()
    assert report.records[-1].estimation_gain_rel_err < 0.2


# -- deterministic work counters ---------------------------------------------


def _mu_search_work(monkeypatch, batch_size):
    """Work of the SP2 multiplier search over the fig2 bench sweep, solved
    per drop (``batch_size=1``) or batched (the default): calls of each
    Lambert kernel, searches (one per lane), the searches bracketed by their
    warm start, the Algorithm-1 runs, and the Newton iterations run inside
    those kernel calls (the polish's own solves not counted)."""
    from repro.core import subproblem2, sum_of_ratios
    from repro.experiments.fig2 import run_fig2
    from repro.experiments.runner import SweepRunner
    from repro.solvers import lambert

    work = {
        "vector": 0, "rows": 0, "seeded": 0, "searches": 0, "warm": 0, "runs": 0, "newton": 0
    }
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

    one_lane = subproblem2._mu_search_vector
    lockstep = subproblem2._mu_search_vector_rows

    def counting_one_lane(*args, **kwargs):
        work["searches"] += 1
        return one_lane(*args, **kwargs)

    def counting_lockstep(j_rows, *args, **kwargs):
        work["searches"] += j_rows.shape[0]
        return lockstep(j_rows, *args, **kwargs)

    warm_start = subproblem2._warm_start

    def counting_warm_start(*args):
        warm, low, high = warm_start(*args)
        work["warm"] += int(warm.sum())
        return warm, low, high

    lane_init = sum_of_ratios._BatchLane.__init__

    def counting_lane_init(self, *args):
        work["runs"] += 1
        lane_init(self, *args)

    with monkeypatch.context() as patch:
        for name, kernel in (
            ("vector", "lambert_solve_vector"),
            ("rows", "lambert_solve_rows"),
            ("seeded", "_lambert_solve_seeded"),
        ):
            patch.setattr(subproblem2, kernel, counting(name, getattr(subproblem2, kernel)))
        patch.setattr(lambert, "_newton_step", counting_step)
        patch.setattr(subproblem2, "_mu_search_vector", counting_one_lane)
        patch.setattr(subproblem2, "_mu_search_vector_rows", counting_lockstep)
        patch.setattr(subproblem2, "_warm_start", counting_warm_start)
        patch.setattr(sum_of_ratios._BatchLane, "__init__", counting_lane_init)
        runner = SweepRunner(jobs=1, use_cache=False, batch_size=batch_size)
        table = run_fig2(bench.bench_config(False), runner=runner)
    assert runner.last_stats.failed == 0
    assert len(table.rows) > 0
    return work


def test_mu_search_lambert_calls_are_deterministic_and_within_budget(monkeypatch):
    """The 48 fig2 bench problems (986 searches in 144 Algorithm-1 runs)
    cost a fixed, bounded number of Lambert calls and inner Newton
    iterations in the multiplier search, per drop and batched.

    Only the first search of each run starts cold; the other 842 are
    bracketed by the warm start from the previous multiplier.  Before the
    warm start: 4,499 calls per drop (4.56 per search) and 140 batched;
    14,981 inner Newton iterations per drop and 404 batched.  Before the
    bracketing call and the Halley phase: 7,390 calls per drop (7.49 per
    search) and 265 batched; 29,051 inner Newton iterations per drop (29.5
    per search) and 1,124 batched."""
    per_drop = _mu_search_work(monkeypatch, batch_size=1)
    batched = _mu_search_work(monkeypatch, batch_size=None)
    assert per_drop["rows"] == 0 and batched["vector"] == 0
    assert per_drop["searches"] == batched["searches"] == 986
    for work in (per_drop, batched):
        assert work["runs"] == 144
        assert work["searches"] - work["warm"] == work["runs"]
    # A cold search makes one bracketing call, a warm one makes none.
    assert per_drop["vector"] == 144
    per_drop_calls = per_drop["vector"] + per_drop["seeded"]
    assert per_drop_calls <= 3015
    assert per_drop_calls / per_drop["searches"] <= 3.1
    assert per_drop["newton"] <= 8270
    assert batched["rows"] + batched["seeded"] <= 78
    assert batched["newton"] <= 206
    assert _mu_search_work(monkeypatch, batch_size=1) == per_drop
    assert _mu_search_work(monkeypatch, batch_size=None) == batched


def _algorithm1_tail_work(monkeypatch, batch_size):
    """Work of the Algorithm-1 tail over the fig2 bench sweep, solved per
    drop (``batch_size=1``) or batched: the rounds (closed-form calls) and
    the stacks they solve, the stacked allocation-tail and step calls, the
    rate-formula evaluations inside Algorithm 1, the Algorithm-1 runs, and
    the summed outer (Algorithm 2) and inner (Algorithm 1) iterations."""
    from repro.core import allocator, subproblem2, sum_of_ratios
    from repro.core.allocator import ResourceAllocator
    from repro.experiments.fig2 import run_fig2
    from repro.experiments.runner import SweepRunner
    from repro.wireless import rate

    work = dict.fromkeys(
        ("rounds", "stacks", "finish", "advance", "rates", "starts", "runs", "outer", "inner"),
        0,
    )
    inside = False

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            work[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    algorithm1 = allocator.solve_sum_of_ratios_stacks

    def timed(fn):
        def wrapped(*args):
            nonlocal inside
            inside = True
            try:
                return fn(*args)
            finally:
                inside = False

        return wrapped

    def timed_algorithm1(stacks):
        timed(algorithm1)(stacks)
        work["runs"] += sum(len(stack.runs) for stack in stacks)
        work["inner"] += sum(int(stack.out_iterations.sum()) for stack in stacks)

    start = sum_of_ratios._LaneRows.__init__

    def timed_start(self, *args):
        work["starts"] += 1
        timed(start)(self, *args)

    solve_batch, solve = ResourceAllocator.solve_batch, ResourceAllocator.solve

    def outer_batch(self, *args, **kwargs):
        results = solve_batch(self, *args, **kwargs)
        work["outer"] += sum(r.iterations for r in results)
        return results

    def outer_one(self, *args, **kwargs):
        result = solve(self, *args, **kwargs)
        work["outer"] += result.iterations
        return result

    open_band = rate._open_band_rate

    def counting_rate(*args):
        work["rates"] += inside
        return open_band(*args)

    with monkeypatch.context() as patch:
        patch.setattr(allocator, "solve_sum_of_ratios_stacks", timed_algorithm1)
        patch.setattr(sum_of_ratios._LaneRows, "__init__", timed_start)
        patch.setattr(ResourceAllocator, "solve_batch", outer_batch)
        patch.setattr(ResourceAllocator, "solve", outer_one)
        patch.setattr(rate, "_open_band_rate", counting_rate)
        solve_stacks = sum_of_ratios._solve_sp2_stacks

        def counting_stacks(stacks, *args, **kwargs):
            work["rounds"] += 1
            work["stacks"] += len(stacks)
            return solve_stacks(stacks, *args, **kwargs)

        patch.setattr(sum_of_ratios, "_solve_sp2_stacks", counting_stacks)
        patch.setattr(
            subproblem2, "_sp2_finish_rows", counting("finish", subproblem2._sp2_finish_rows)
        )
        patch.setattr(
            sum_of_ratios._LaneRows, "advance", counting("advance", sum_of_ratios._LaneRows.advance)
        )
        runner = SweepRunner(jobs=1, use_cache=False, batch_size=batch_size)
        table = run_fig2(bench.bench_config(False), runner=runner)
    assert runner.last_stats.failed == 0
    assert len(table.rows) > 0
    return work


def test_algorithm1_tail_runs_once_per_round_per_stack(monkeypatch):
    """The fig2 bench sweep's 48 lanes (144 Algorithm-1 runs of 20 devices,
    986 lane-iterations) build their SP2_v2 allocations and take their
    damped Newton step once per round for the whole stack: 24 stacked tail
    and step calls batched (986 per-lane ``_sp2_finish`` and
    ``_BatchLane.step`` calls before), one per lane-iteration per drop.

    Rate-formula evaluations inside Algorithm 1: one per stack and round
    (the allocation's rates, reused by the feasibility verdict, the SP2
    objective and the step) plus one per stack for the runs' start, which
    is a row pass; Algorithm 2 reads no result energy.  Batched 27, per
    drop 1,130 (with a start and a result energy per run: 312 and 1,274;
    before the stacked tail: 4,232, four per lane-iteration).  Outer and
    inner iterations are the per-drop run's."""
    batched = _algorithm1_tail_work(monkeypatch, batch_size=None)
    per_drop = _algorithm1_tail_work(monkeypatch, batch_size=1)
    for work in (batched, per_drop):
        assert work["runs"] == 144
        assert work["finish"] == work["advance"] == work["stacks"]
        assert work["rates"] == work["stacks"] + work["starts"]
    assert (batched["starts"], per_drop["starts"]) == (3, 144)
    assert batched["rounds"] == batched["stacks"] == 24
    assert per_drop["rounds"] == per_drop["stacks"] == per_drop["inner"] == 986
    assert (batched["outer"], batched["inner"]) == (per_drop["outer"], per_drop["inner"])
    assert _algorithm1_tail_work(monkeypatch, batch_size=None) == batched


def _algorithm2_round_work(monkeypatch, batch_size):
    """Work of Algorithm 2's own outer bookkeeping over the fig2 bench
    sweep, solved per drop (``batch_size=1``) or batched: the stack-rounds,
    the rate-formula evaluations of the rounds outside Subproblem 1 and
    Algorithm 1, the :class:`ResourceAllocation` constructions inside the
    allocator, and the summed outer and inner iterations."""
    from repro.core import allocator
    from repro.core.allocation import ResourceAllocation
    from repro.core.allocator import ResourceAllocator
    from repro.experiments.fig2 import run_fig2
    from repro.experiments.runner import SweepRunner
    from repro.wireless import rate

    work = dict.fromkeys(("stack_rounds", "rates", "allocations", "outer", "inner"), 0)
    depth = {"round": 0, "solve": 0}

    def inside(key, fn):
        def wrapped(*args, **kwargs):
            depth[key] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[key] -= 1

        return wrapped

    open_band = rate._open_band_rate

    def counting_rate(*args):
        work["rates"] += depth["round"] > 0
        return open_band(*args)

    post_init = ResourceAllocation.__post_init__

    def counting_allocation(self):
        work["allocations"] += depth["solve"] > 0
        post_init(self)

    subproblem1 = allocator._Stack.subproblem1

    def counting_round(self, *args):
        work["stack_rounds"] += 1
        return subproblem1(self, *args)

    solve_batch, solve = ResourceAllocator.solve_batch, ResourceAllocator.solve

    def outer_batch(self, *args, **kwargs):
        results = solve_batch(self, *args, **kwargs)
        work["outer"] += sum(r.iterations for r in results)
        work["inner"] += sum(r.inner_iterations for r in results)
        return results

    def outer_one(self, *args, **kwargs):
        result = solve(self, *args, **kwargs)
        work["outer"] += result.iterations
        work["inner"] += result.inner_iterations
        return result

    with monkeypatch.context() as patch:
        patch.setattr(rate, "_open_band_rate", counting_rate)
        patch.setattr(ResourceAllocation, "__post_init__", counting_allocation)
        patch.setattr(allocator._Stack, "subproblem1", inside("round", counting_round))
        for step in ("delay_step", "accept", "finish"):
            patch.setattr(allocator._Stack, step, inside("round", getattr(allocator._Stack, step)))
        patch.setattr(ResourceAllocator, "_solve_lanes", inside("solve", ResourceAllocator._solve_lanes))
        patch.setattr(ResourceAllocator, "solve_batch", outer_batch)
        patch.setattr(ResourceAllocator, "solve", outer_one)
        runner = SweepRunner(jobs=1, use_cache=False, batch_size=batch_size)
        table = run_fig2(bench.bench_config(False), runner=runner)
    assert runner.last_stats.failed == 0
    assert len(table.rows) > 0
    return work


def test_algorithm2_rounds_run_one_pass_per_stack(monkeypatch):
    """The fig2 bench sweep's 48 lanes (one stack of 20 devices, 144
    lane-iterations) run each Algorithm-2 outer round once for the stack:
    3 stack-rounds batched, 144 per drop.

    Rate-formula evaluations of the rounds outside Subproblem 1 and
    Algorithm 1: two per stack and round, the starting ``(p, B)``'s (shared
    by Subproblem 1's upload times, the rate requirements' fallback and the
    current objective) and the step's; 6 batched, 288 per drop.  Before,
    eight per lane-iteration (Subproblem 1's upload times, the
    requirements' fallback, two per ``problem.objective`` for the accept
    test's two and the history's): 1,152 in both modes.  ``ResourceAllocation``
    constructions inside the allocator: the initial point and the final
    report of each lane, 96 (before: 336, with one ``with_frequency`` and
    one ``with_communication`` per lane-iteration).  Outer and inner
    iterations are the per-drop run's."""
    batched = _algorithm2_round_work(monkeypatch, batch_size=None)
    per_drop = _algorithm2_round_work(monkeypatch, batch_size=1)
    assert (batched["stack_rounds"], per_drop["stack_rounds"]) == (3, 144)
    for work in (batched, per_drop):
        assert work["rates"] == 2 * work["stack_rounds"]
        assert work["allocations"] == 2 * 48
    assert (batched["outer"], batched["inner"]) == (per_drop["outer"], per_drop["inner"])
    assert per_drop["outer"] == 144
    assert _algorithm2_round_work(monkeypatch, batch_size=None) == batched


def _fig7_subproblem1_work(monkeypatch):
    """Subproblem-1 work of the default fig7 ``proposed`` batch (6
    hard-deadline lanes, one sweep batch): the stacked calls, the one-lane
    1-D solves run inside them, and the summed outer iterations."""
    from repro.core import allocator, subproblem1
    from repro.experiments.fig7 import Fig7Config
    from repro.experiments.runner import SweepRunner

    work = {"stacks": 0, "one_lane": 0, "outer": 0}
    inside = False

    def counting(fn):
        def wrapped(*args, **kwargs):
            work["one_lane"] += inside
            return fn(*args, **kwargs)

        return wrapped

    stack = allocator.solve_subproblem1_stack

    def timed_stack(*args):
        nonlocal inside
        work["stacks"] += 1
        inside = True
        try:
            return stack(*args)
        finally:
            inside = False

    solve_batch = ResourceAllocator.solve_batch

    def outer_batch(self, *args, **kwargs):
        results = solve_batch(self, *args, **kwargs)
        work["outer"] += sum(r.iterations for r in results)
        return results

    with monkeypatch.context() as patch:
        patch.setattr(allocator, "solve_subproblem1_stack", timed_stack)
        for name in ("solve_subproblem1", "_solve_dual", "golden_section_scalar"):
            patch.setattr(subproblem1, name, counting(getattr(subproblem1, name)))
        patch.setattr(ResourceAllocator, "solve_batch", outer_batch)
        runner = SweepRunner(jobs=1, use_cache=False)
        runner.run(Fig7Config(schemes=("proposed",)).tasks())
    assert runner.last_stats.failed == 0 and runner.last_stats.batches == 1
    return work


def test_fig7_deadline_lanes_run_no_one_lane_subproblem1_solve(monkeypatch):
    """The default fig7 ``proposed`` batch (6 lanes, 14 lane-iterations in
    3 stack-rounds) solves its fixed-deadline rows as row passes inside
    ``solve_subproblem1_stack``: no one-lane ``solve_subproblem1``, dual or
    scalar golden-section call.  Before, the stack handed every
    fixed-deadline row to the 1-D ``solve_subproblem1``: 14 one-lane solves,
    one per deadline lane-iteration."""
    work = _fig7_subproblem1_work(monkeypatch)
    assert work == {"stacks": 3, "one_lane": 0, "outer": 14}


def _delay_min_work(monkeypatch):
    """Work per ``minimize_max_upload_time`` call on the 80 ten-device
    paper/hotspot drops (seeds 0-39): rate-formula evaluations, Newton
    evaluations of the continuous threshold and its certified points, and
    nested ``min_bandwidth_for_rate`` bisections."""
    from repro.core import uplink_delay
    from repro.scenarios import build_scenario_spec
    from repro.wireless import rate

    systems = [
        build_scenario_spec({"family": family, "num_devices": 10, "seed": seed})
        for family in ("paper", "hotspot")
        for seed in range(40)
    ]
    work = {"rate_evaluations": 0, "newton_iterations": 0, "nested_bisections": 0}

    def counting(key, original):
        def counted(*args, **kwargs):
            work[key] += 1
            return original(*args, **kwargs)

        return counted

    rate_evaluation = counting("rate_evaluations", rate._open_band_rate)
    with monkeypatch.context() as patch:
        patch.setattr(rate, "_open_band_rate", rate_evaluation)
        patch.setattr(uplink_delay, "_open_band_rate", rate_evaluation)
        patch.setattr(
            uplink_delay,
            "_newton_step",
            counting("newton_iterations", uplink_delay._newton_step),
        )
        patch.setattr(
            uplink_delay,
            "min_bandwidth_for_rate",
            counting("nested_bisections", uplink_delay.min_bandwidth_for_rate),
        )
        for system in systems:
            uplink_delay.minimize_max_upload_time(system)
    return {key: count / len(systems) for key, count in work.items()}


def test_delay_min_rate_evaluations_are_deterministic_and_within_budget(monkeypatch):
    """A delay-min solve costs a fixed, bounded amount of work: 13.19 rate
    evaluations, 7.5 Newton evaluations of the threshold and 1.04 nested
    ``min_bandwidth_for_rate`` calls per call (the final split, and a step
    between the certified points in 3 of 80 calls).  Bisecting the nested
    calls blind from ``[1e-6, B]`` cost 48.7 rate evaluations per call; the
    nested bisection at every step 909.0, the shared bandwidth walk that
    followed it 165.8."""
    work = _delay_min_work(monkeypatch)
    assert work["rate_evaluations"] <= 13.2
    assert work["newton_iterations"] <= 8
    assert work["nested_bisections"] <= 1.04
    assert _delay_min_work(monkeypatch) == work


def _min_bandwidth_work(monkeypatch):
    """Work inside the ``min_bandwidth_for_rate`` calls of the delay-min
    solves on the 80 ten-device paper/hotspot drops (seeds 0-39): the calls,
    the devices with a positive target, the rate evaluations over all of a
    call's devices and those of one device inside its certified bracket,
    the per-device Newton evaluations and the blind bisections."""
    from repro.core import uplink_delay
    from repro.scenarios import build_scenario_spec
    from repro.wireless import rate

    work = dict.fromkeys(("calls", "devices", "vector", "in_bracket", "newton", "bisections"), 0)
    depth = [0]
    open_band, min_bandwidth = rate._open_band_rate, rate.min_bandwidth_for_rate

    def counting_rate(gp, band, noise):
        if depth[0]:
            work["in_bracket" if band.shape == (1,) else "vector"] += 1
        return open_band(gp, band, noise)

    def counting_call(rate_bps, *args, **kwargs):
        work["calls"] += 1
        work["devices"] += int((rate_bps > 0.0).sum())
        depth[0] += 1
        try:
            return min_bandwidth(rate_bps, *args, **kwargs)
        finally:
            depth[0] -= 1

    def counting(key, original):
        def counted(*args, **kwargs):
            work[key] += 1
            return original(*args, **kwargs)

        return counted

    with monkeypatch.context() as patch:
        patch.setattr(rate, "_open_band_rate", counting_rate)
        patch.setattr(rate, "_newton_step", counting("newton", rate._newton_step))
        patch.setattr(rate, "bisect_vector", counting("bisections", rate.bisect_vector))
        patch.setattr(uplink_delay, "min_bandwidth_for_rate", counting_call)
        for family in ("paper", "hotspot"):
            for seed in range(40):
                system = build_scenario_spec({"family": family, "num_devices": 10, "seed": seed})
                uplink_delay.minimize_max_upload_time(system)
    return work


def test_min_bandwidth_rate_evaluations_per_device_are_pinned(monkeypatch):
    """``min_bandwidth_for_rate`` replays its bisection from certified
    brackets: over the 83 calls (830 devices) of the 80 delay-min solves it
    evaluates the rate over all of a call's devices 4 times per call (at
    the cap, at the 1e-6 Hz floor and at both bracket ends), inside a
    bracket 3 times in all (0.0036 per device), and takes 5.9 Newton steps
    per call; no call bisects blind.  The blind bisection evaluated the
    rate 39 times per call, 3.9 per device on 10 devices."""
    work = _min_bandwidth_work(monkeypatch)
    assert (work["calls"], work["devices"]) == (83, 830)
    assert work["vector"] == 4 * work["calls"]
    assert work["in_bracket"] <= 0.004 * work["devices"]
    assert work["newton"] <= 6 * work["calls"]
    assert work["bisections"] == 0
    assert _min_bandwidth_work(monkeypatch) == work


def _polish_work(monkeypatch, batch_size):
    """Canonical root solves of the multiplier polishes over the fig2 bench
    sweep, solved per drop (``batch_size=1``, the one-lane ``_polish_mu``) or
    batched (``_polish_mu_rows``), for the library's polishes and the frozen
    ones that re-solve a 2-cycle's roots (``tests/polish_reference.py``).
    Every polish runs both on the same inputs and must return the same bits."""
    import numpy as np

    from repro.core import subproblem2
    from repro.experiments.fig2 import run_fig2
    from repro.experiments.runner import SweepRunner
    from tests import polish_reference

    work = dict.fromkeys(
        ("polishes", "calls", "rows", "reference_calls", "reference_rows"), 0
    )

    def counting_solve(prefix, solve):
        def counted(rhs):
            work[prefix + "calls"] += 1
            work[prefix + "rows"] += rhs.shape[0] if rhs.ndim == 2 else 1
            return solve(rhs)

        return counted

    def checked(polish, reference):
        def both(*args):
            work["polishes"] += 1
            got = polish(*args)
            want = reference(*(np.copy(arg) for arg in args))
            for mine, theirs in zip(got, want):
                assert np.asarray(mine).tobytes() == np.asarray(theirs).tobytes()
            return got

        return both

    with monkeypatch.context() as patch:
        for module, prefix in ((subproblem2, ""), (polish_reference, "reference_")):
            for name in ("solve_x_log_x", "solve_x_log_x_rows"):
                patch.setattr(module, name, counting_solve(prefix, getattr(module, name)))
        patch.setattr(
            subproblem2,
            "_polish_mu",
            checked(subproblem2._polish_mu, polish_reference.polish_mu_reference),
        )
        patch.setattr(
            subproblem2,
            "_polish_mu_rows",
            checked(subproblem2._polish_mu_rows, polish_reference.polish_mu_rows_reference),
        )
        runner = SweepRunner(jobs=1, use_cache=False, batch_size=batch_size)
        table = run_fig2(bench.bench_config(False), runner=runner)
    assert runner.last_stats.failed == 0
    assert len(table.rows) > 0
    return work


def test_polish_reuses_the_roots_of_a_two_cycle(monkeypatch):
    """A polish that ends on a 2-cycle's smaller multiplier takes back the
    roots it solved there instead of solving them again.  On the fig2 bench
    sweep the polishes return the frozen polishes' bits; per drop 80 of the
    986 one-lane polishes end on a 2-cycle's smaller multiplier, so their
    canonical root solves fall from 2,745 to 2,665, and the 24 batched
    polishes make 124 row solves (2,665 rows) instead of 130 (2,745)."""
    per_drop = _polish_work(monkeypatch, batch_size=1)
    assert per_drop == {
        "polishes": 986, "calls": 2665, "rows": 2665,
        "reference_calls": 2745, "reference_rows": 2745,
    }
    batched = _polish_work(monkeypatch, batch_size=None)
    assert batched == {
        "polishes": 24, "calls": 124, "rows": 2665,
        "reference_calls": 130, "reference_rows": 2745,
    }


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


def _flcurve_allocator_work(monkeypatch, batch_size):
    """Allocator calls of a 3-round ``FLCurveConfig`` (2 ``proposed`` runs
    beside 4 baseline runs): the lanes of each ``solve_batch`` call, the
    ``solve`` calls, and the summed outer and inner Algorithm-2 iterations."""
    from repro.core.allocator import ResourceAllocator
    from repro.experiments.flcurve import FLCurveConfig, run_flcurve
    from repro.experiments.runner import SweepRunner

    work = {"batch_lanes": [], "solve_calls": 0, "outer": 0, "inner": 0}
    solve_batch = ResourceAllocator.solve_batch
    solve = ResourceAllocator.solve

    def counting_batch(self, problems, **kwargs):
        results = solve_batch(self, problems, **kwargs)
        work["batch_lanes"].append(len(problems))
        for result in results:
            work["outer"] += result.iterations
            work["inner"] += result.inner_iterations
        return results

    def counting_solve(self, *args, **kwargs):
        work["solve_calls"] += 1
        return solve(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(ResourceAllocator, "solve_batch", counting_batch)
        patch.setattr(ResourceAllocator, "solve", counting_solve)
        runner = SweepRunner(jobs=1, use_cache=False, batch_size=batch_size)
        table = run_flcurve(FLCurveConfig(rounds=3), runner=runner)
    assert runner.last_stats.failed == 0
    assert len(table.rows) == 2 * 3 * 3
    return work


def test_lockstep_flcurve_solves_each_round_in_one_batch(monkeypatch):
    """On the default runner, round ``r`` of both ``proposed`` runs is one
    two-lane ``solve_batch`` call, with no ``solve`` call, and the
    allocator does exactly the per-run path's work (``batch_size=1``: one
    one-lane call per run and round)."""
    lockstep = _flcurve_allocator_work(monkeypatch, batch_size=None)
    per_run = _flcurve_allocator_work(monkeypatch, batch_size=1)
    assert lockstep["batch_lanes"] == [2, 2, 2]
    assert lockstep["solve_calls"] == 0
    assert per_run["batch_lanes"] == [1] * 6
    assert (lockstep["outer"], lockstep["inner"]) == (per_run["outer"], per_run["inner"])
    assert lockstep["outer"] >= 6
