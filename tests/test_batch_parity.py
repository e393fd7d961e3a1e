"""Differential tests: the batched multi-solve path against per-drop solves.

The batched allocator core is only shippable because its contract is
*exact*: a lane solved inside a ``(batch, num_devices)`` lockstep pass must
be bit-identical to the stand-alone per-drop solve — no tolerance at all.
Three levels enforce it:

* **end-to-end** — ``ResourceAllocator.solve_batch`` on every registered
  scenario family, every field (allocations, objective, iteration counts,
  convergence history, final bandwidth multiplier) compared with ``==``,
  never ``approx``;
* **runner-level** — batched ``SweepRunner`` outcomes, solution states and
  cache entries against the per-drop runner (``batch_size=1``), plus the scheduling
  semantics (grouping, error-lane isolation, non-proposed exclusion);
* **kernel-level (Hypothesis)** — masked-lane isolation of the row-stopping
  Newton/golden-section kernels: lane ``k``'s iterates may never depend on
  what its neighbour lanes are doing, which is the property the end-to-end
  bit-parity rests on.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import JointProblem, ProblemWeights
from repro.core import subproblem1, subproblem2
from repro.core.allocator import ResourceAllocator
from repro.core.subproblem1 import FrequencyRows, solve_subproblem1, solve_subproblem1_stack
from repro.core.subproblem2 import SystemRows, solve_sp2_v2
from repro.experiments.base import SweepConfig, proposed_tasks
from repro.experiments.fig2 import Fig2Config, run_fig2
from repro.experiments.fig7 import Fig7Config
from repro.experiments.runner import SweepRunner, SweepTask, task_hash
from repro.scenarios import ScenarioSpec, scenario_families
from repro.solvers.lambert import (
    _lambert_solve_seeded,
    lambert_solve_rows,
    lambert_solve_vector,
    solve_x_log_x,
    solve_x_log_x_rows,
)
from repro.solvers.scalar import golden_section_rows, golden_section_scalar
from tests import subproblem1_reference as sp1_reference
from tests.mu_search_reference import mu_search_rows_reference, rooted_problem
from tests.mu_search_scalar_reference import scalar_oracle


def _build(family: str, *, num_devices: int = 8, seed: int = 0):
    return ScenarioSpec.from_mapping(
        {"family": family, "num_devices": num_devices, "seed": seed}
    ).build()


def _assert_results_identical(batched, reference):
    """Every field of an AllocationResult, compared exactly."""
    assert not isinstance(batched, Exception), batched
    assert np.array_equal(batched.allocation.power_w, reference.allocation.power_w)
    assert np.array_equal(
        batched.allocation.bandwidth_hz, reference.allocation.bandwidth_hz
    )
    assert np.array_equal(
        batched.allocation.frequency_hz, reference.allocation.frequency_hz
    )
    assert batched.objective == reference.objective
    assert batched.round_deadline_s == reference.round_deadline_s
    assert batched.energy_j == reference.energy_j
    assert batched.completion_time_s == reference.completion_time_s
    assert batched.transmission_energy_j == reference.transmission_energy_j
    assert batched.computation_energy_j == reference.computation_energy_j
    assert batched.iterations == reference.iterations
    assert batched.inner_iterations == reference.inner_iterations
    assert batched.converged == reference.converged
    assert batched.feasible == reference.feasible
    assert batched.mu == reference.mu
    assert len(batched.history) == len(reference.history)
    for left, right in zip(batched.history, reference.history):
        assert left.objective == right.objective
        # NaN-safe exact equality (delay-only records carry no step change).
        np.testing.assert_array_equal(left.step_change, right.step_change)


# -- end-to-end: Algorithm 2 ---------------------------------------------------


@pytest.mark.parametrize("family", scenario_families())
def test_solve_batch_bit_identical_per_family(family):
    system = _build(family, num_devices=8, seed=3)
    problems = [
        JointProblem(system, ProblemWeights(w1, 1.0 - w1))
        for w1 in (0.9, 0.5, 0.1)
    ]
    allocator = ResourceAllocator()
    batched = allocator.solve_batch(problems)
    for problem, result in zip(problems, batched):
        _assert_results_identical(result, allocator.solve(problem))


def test_solve_batch_mixes_families_and_fleet_sizes():
    problems = []
    for i, family in enumerate(scenario_families()):
        system = _build(family, num_devices=6 + 2 * (i % 2), seed=i)
        problems.append(JointProblem(system, ProblemWeights(0.7, 0.3)))
    allocator = ResourceAllocator()
    batched = allocator.solve_batch(problems)
    for problem, result in zip(problems, batched):
        _assert_results_identical(result, allocator.solve(problem))


def test_solve_batch_handles_corner_lanes():
    system = _build("paper", num_devices=6, seed=0)
    problems = [
        JointProblem(system, ProblemWeights(0.5, 0.5)),
        # w1 = 0: the closed-form delay-only regime.
        JointProblem(system, ProblemWeights(0.0, 1.0)),
        # Hard completion-time budget: the deadline regime.
        JointProblem(system, ProblemWeights(0.5, 0.5), deadline_s=1e4),
        # w1 = 0 under a deadline: min-max upload as the SP2 step.
        JointProblem(system, ProblemWeights(0.0, 1.0), deadline_s=1e4),
    ]
    allocator = ResourceAllocator()
    batched = allocator.solve_batch(problems)
    for problem, result in zip(problems, batched):
        _assert_results_identical(result, allocator.solve(problem))
    # The deadline lane with w1 = 0 really runs the alternation.
    assert batched[3].history[0].note == "outer-1"

    # Lanes batch under the scalar multiplier-search oracle too (the w1 > 0
    # deadline lane is left out only because the oracle takes seconds on it).
    lanes = [problems[0], problems[1], problems[3]]
    with scalar_oracle():
        for problem, result in zip(lanes, allocator.solve_batch(lanes)):
            _assert_results_identical(result, allocator.solve(problem))

    # A lane started from an explicit allocation, batched beside a lane on
    # the configured start: each matches its own ``solve``.
    start = problems[0].initial_allocation(bandwidth_fraction=0.9)
    neighbour = JointProblem(system, ProblemWeights(0.9, 0.1))
    together = allocator._solve_lanes(
        [problems[0], neighbour], [start, None], return_exceptions=False
    )
    explicit = allocator.solve(problems[0], initial_allocation=start)
    _assert_results_identical(together[0], explicit)
    _assert_results_identical(together[1], allocator.solve(neighbour))
    assert explicit.objective != allocator.solve(problems[0]).objective


def test_solve_batch_exception_lanes_isolate():
    good = JointProblem(_build("paper", num_devices=6, seed=1), ProblemWeights(0.5, 0.5))
    # An impossible completion-time budget makes the initial point infeasible.
    bad = JointProblem(
        _build("paper", num_devices=6, seed=1),
        ProblemWeights(0.5, 0.5),
        deadline_s=1e-6,
    )
    allocator = ResourceAllocator()
    results = allocator.solve_batch([good, bad, good], return_exceptions=True)
    assert isinstance(results[1], Exception)
    _assert_results_identical(results[0], allocator.solve(good))
    _assert_results_identical(results[2], allocator.solve(good))
    # Without the gather idiom the failure propagates.
    with pytest.raises(Exception):
        allocator.solve_batch([good, bad, good])


# -- batched subproblem entry points ------------------------------------------


@pytest.mark.parametrize("family", scenario_families())
def test_solve_subproblem1_rows_bit_identical(family):
    system = _build(family, num_devices=10, seed=2)
    rng = np.random.default_rng(42)
    lanes = [
        (0.8, 0.2, rng.uniform(0.05, 0.4, size=10)),
        (0.5, 0.5, rng.uniform(0.05, 0.4, size=10)),
        (0.2, 0.8, rng.uniform(0.05, 0.4, size=10)),
    ]
    systems = [system] * len(lanes)
    frequency, deadline, status = solve_subproblem1_stack(
        systems,
        FrequencyRows.of(systems),
        np.array([w1 for w1, _, _ in lanes]),
        np.array([w2 for _, w2, _ in lanes]),
        np.array([upload for _, _, upload in lanes]),
        [None] * len(lanes),
    )
    # The three rows share one rows golden section; each one-row call runs
    # the scalar search, and the frozen 1-D solver is the reference.
    for k, (w1, w2, upload) in enumerate(lanes):
        for reference in (
            solve_subproblem1(system, w1, w2, upload),
            sp1_reference.solve_subproblem1(system, w1, w2, upload),
        ):
            assert status[k] is None
            assert np.array_equal(frequency[k], reference.frequency_hz)
            assert float(deadline[k]) == reference.round_deadline_s
            objective = subproblem1._objective(system, w1, w2, frequency[k], float(deadline[k]))
            assert objective == reference.objective
            assert reference.method == "primal"


@pytest.mark.parametrize("family", scenario_families())
def test_solve_sp2_v2_rows_bit_identical(family):
    system = _build(family, num_devices=10, seed=5)
    rng = np.random.default_rng(7)
    power = 0.5 * system.max_power_w
    bandwidth = np.full(10, system.total_bandwidth_hz / 20.0)
    rates = system.rates_bps(power, bandwidth)
    lanes = []
    for scale in (0.5, 0.7, 0.9):
        nu = 0.5 * system.global_rounds / rates
        beta = power * system.upload_bits / rates
        min_rate = scale * rates * rng.uniform(0.9, 1.0, size=10)
        lanes.append((nu, beta, min_rate))
    (out,) = subproblem2._solve_sp2_stacks(
        [SystemRows.of([system] * len(lanes))],
        *([np.array([lane[i] for lane in lanes])] for i in range(3)),
    )
    for k, (nu, beta, min_rate) in enumerate(lanes):
        result = out.result(k)
        reference = solve_sp2_v2(system, nu, beta, min_rate)
        assert not isinstance(result, Exception)
        assert np.array_equal(result.power_w, reference.power_w)
        assert np.array_equal(result.bandwidth_hz, reference.bandwidth_hz)
        assert result.objective == reference.objective
        assert result.bandwidth_multiplier == reference.bandwidth_multiplier
        assert np.array_equal(result.rate_multipliers, reference.rate_multipliers)


# -- runner-level --------------------------------------------------------------


def _fig2_tasks(**sweep_kwargs):
    config = Fig2Config(
        sweep=SweepConfig(num_devices=8, num_trials=1, **sweep_kwargs),
        max_power_dbm_grid=(5.0, 9.0),
        weight_pairs=((0.9, 0.1), (0.5, 0.5)),
        include_benchmark=True,
    )
    return config.tasks()


def test_runner_batch_outcomes_match_serial_exactly():
    tasks = _fig2_tasks()
    serial = SweepRunner(batch_size=1).run(tasks)
    runner = SweepRunner(batch_size=3)
    batched = runner.run(tasks)
    assert runner.last_stats.batches >= 1
    assert runner.last_stats.batched_tasks > 0
    assert len(serial) == len(batched)
    for left, right in zip(serial, batched):
        assert task_hash(left.task) == task_hash(right.task)
        assert left.error == right.error
        assert left.metrics == right.metrics
        assert left.state == right.state


def test_runner_batch_cache_keys_interoperate(tmp_path):
    tasks = _fig2_tasks()
    batched_runner = SweepRunner(batch_size=4, cache_dir=tmp_path, use_cache=True)
    batched_runner.run(tasks)
    serial_runner = SweepRunner(batch_size=1, cache_dir=tmp_path, use_cache=True)
    outcomes = serial_runner.run(tasks)
    # Every batched entry is a hit for the serial run: identical cache keys
    # *and* identical stored results.
    assert serial_runner.last_stats.cache_hits == len(tasks)
    reference = SweepRunner(batch_size=1).run(tasks)
    for cached, fresh in zip(outcomes, reference):
        assert cached.metrics == fresh.metrics
        assert cached.state == fresh.state


def test_runner_batch_error_lane_isolation():
    tasks = _fig2_tasks()
    proposed = [t for t in tasks if t.solver_kind == "proposed"]
    broken = SweepTask(
        key=("broken",),
        scenario=dict(proposed[0].scenario),
        solver_kind="proposed",
        solver_params={},  # no energy_weight -> KeyError inside the batch
    )
    mixed = [proposed[0], broken, proposed[1]]
    outcomes = SweepRunner(batch_size=4).run(mixed)
    reference = SweepRunner(batch_size=1).run(mixed)
    assert outcomes[1].error == reference[1].error  # same "Type: message" string
    assert outcomes[1].metrics is None
    for index in (0, 2):
        assert outcomes[index].error is None
        assert outcomes[index].metrics == reference[index].metrics


def test_runner_batch_excludes_non_proposed():
    tasks = _fig2_tasks()
    runner = SweepRunner(batch_size=4)
    outcomes = runner.run(tasks)
    # Baseline tasks stay off the batched path: only proposed tasks batch.
    proposed = [t for t in tasks if t.solver_kind == "proposed"]
    assert len(proposed) < len(tasks)
    assert runner.last_stats.batched_tasks == len(proposed)
    assert all(outcome.ok for outcome in outcomes)


def test_runner_batches_across_process_pool_chunks(tmp_path):
    # Batching composes with --jobs: each same-shape group is cut into up
    # to ``jobs`` chunks, one pool call each, and every chunk's lanes stay
    # bit-identical to the per-drop solves — outcomes and the CSV alike.
    config = Fig2Config(
        sweep=SweepConfig(num_devices=8, num_trials=2),
        max_power_dbm_grid=(5.0, 9.0),
        weight_pairs=((0.9, 0.1), (0.5, 0.5)),
        include_benchmark=True,
    )
    tasks = config.tasks()
    per_drop = SweepRunner(batch_size=1).run(tasks)
    runner = SweepRunner(jobs=2)
    pooled = runner.run(tasks)
    assert runner.last_stats.batches == 2
    assert runner.last_stats.batched_tasks == sum(
        t.solver_kind == "proposed" for t in tasks
    )
    for left, right in zip(per_drop, pooled):
        assert task_hash(left.task) == task_hash(right.task)
        assert left.error == right.error
        assert left.metrics == right.metrics
        assert left.state == right.state

    run_fig2(config, runner=SweepRunner(batch_size=1)).to_csv(tmp_path / "per_drop.csv")
    run_fig2(config, runner=SweepRunner(jobs=2)).to_csv(tmp_path / "pooled.csv")
    assert (tmp_path / "per_drop.csv").read_bytes() == (
        tmp_path / "pooled.csv"
    ).read_bytes()


def test_runner_batch_size_one_disables_batching():
    runner = SweepRunner(batch_size=1)
    assert runner.batch is None
    runner.run(_fig2_tasks())
    assert runner.last_stats.batches == 0
    # The default batches each whole same-shape group in one pass.
    runner = SweepRunner(batch_size=None)
    assert runner.batch is not None and runner.batch.size is None
    tasks = _fig2_tasks()
    runner.run(tasks)
    assert runner.last_stats.batches == 1
    assert runner.last_stats.batched_tasks == sum(
        t.solver_kind == "proposed" for t in tasks
    )


def test_runner_one_lane_group_runs_as_a_batch_of_one(monkeypatch):
    # A batch of one costs what a per-drop solve costs, so a lone task of
    # its shape runs through ``execute_batch`` like any other group.
    from repro.experiments import runner as runner_module

    batches = []
    execute_batch = runner_module.execute_batch

    def spy(tasks):
        batches.append(len(tasks))
        return execute_batch(tasks)

    monkeypatch.setattr(runner_module, "execute_batch", spy)
    [task] = [t for t in _fig2_tasks() if t.solver_kind == "proposed"][:1]
    runner = SweepRunner()
    [outcome] = runner.run([task])
    assert batches == [1]
    assert runner.last_stats.batches == 1
    assert runner.last_stats.batched_tasks == 1
    assert outcome.ok
    # A one-lane pass still reports its lane's stage timings.
    assert outcome.timings is not None
    for name in ("scenario_build", "solve", "algorithm2"):
        assert outcome.timings.get(name, 0.0) > 0.0
    [reference] = SweepRunner(batch_size=1).run([task])
    assert outcome.metrics == reference.metrics
    assert outcome.state == reference.state


def test_runner_batches_deadline_delay_only_and_scalar_tasks():
    # ``solve_batch`` runs every lane kind, so hard-deadline (Figure 7) and
    # ``energy_weight = 0`` groups each run as one lockstep batch, with
    # outcomes equal to the per-drop ones; so does a group run under the
    # scalar multiplier-search oracle.
    sweep = SweepConfig(num_devices=8, num_trials=2, max_power_dbm=10.0)
    groups = {
        "deadline": Fig7Config(
            sweep=sweep, deadline_s_grid=(100.0, 150.0), schemes=("proposed",)
        ).tasks(),
        "delay-only": proposed_tasks(("w1=0",), sweep, 0.0)
        + proposed_tasks(("w1=0", 150.0), sweep, 0.0, deadline_s=150.0),
        "scalar": Fig2Config(
            sweep=SweepConfig(num_devices=8, num_trials=1),
            max_power_dbm_grid=(5.0, 9.0),
            weight_pairs=((0.5, 0.5),),
            include_benchmark=False,
        ).tasks(),
    }
    for name, tasks in groups.items():
        with scalar_oracle() if name == "scalar" else contextlib.nullcontext():
            runner = SweepRunner()
            batched = runner.run(tasks)
            assert runner.last_stats.batches == 1, name
            assert runner.last_stats.batched_tasks == len(tasks), name
            per_drop = SweepRunner(batch_size=1).run(tasks)
        for left, right in zip(per_drop, batched):
            assert left.error is None and right.error is None, name
            assert left.metrics == right.metrics, name
            assert left.state == right.state, name


def test_runner_batch_group_key_separates_shapes():
    tasks = _fig2_tasks()
    proposed = [t for t in tasks if t.solver_kind == "proposed"]
    other = SweepTask(
        key=proposed[0].key,
        scenario={**dict(proposed[0].scenario), "num_devices": 4},
        solver_kind="proposed",
        solver_params=dict(proposed[0].solver_params),
    )
    assert SweepRunner.batch_group_key(proposed[0]) == SweepRunner.batch_group_key(
        proposed[1]
    )
    assert SweepRunner.batch_group_key(proposed[0]) != SweepRunner.batch_group_key(
        other
    )


def test_runner_group_key_from_the_payload_is_byte_identical():
    """The runner builds each task's group key from the payload it already
    made for the cache; the key is the one the task alone gives (the serve
    coalescer's call) for every fig2, fig7 and flcurve task."""
    from repro.experiments.flcurve import FLCurveConfig
    from repro.experiments.runner import _task_key

    tasks = Fig2Config().tasks() + Fig7Config().tasks() + FLCurveConfig().tasks()
    assert {t.solver_kind for t in tasks} >= {"proposed", "baseline", "fl_roundloop"}
    for task in tasks:
        assert SweepRunner.batch_group_key(task, _task_key(task)[1]) == (
            SweepRunner.batch_group_key(task)
        )


# -- kernel-level masked-lane isolation (Hypothesis) ---------------------------


@pytest.mark.hypothesis
class TestMaskedLaneIsolation:
    """A lane's iterates may never depend on its neighbour lanes.

    The row kernels freeze converged rows and keep iterating the rest; the
    property tested here is the strong form the bit-parity contract needs:
    row ``k`` of a rows solve equals the stand-alone 1-D solve of row ``k``
    *whatever* the other rows are — including rows that converge much
    faster, much slower, or not at all in the same round count.
    """

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_solve_x_log_x_rows_matches_per_row(self, data):
        num_rows = data.draw(st.integers(min_value=1, max_value=5))
        width = data.draw(st.integers(min_value=1, max_value=6))
        rhs = np.array(
            [
                [
                    data.draw(
                        st.floats(
                            min_value=0.0,
                            max_value=1e6,
                            allow_nan=False,
                            allow_infinity=False,
                        )
                    )
                    for _ in range(width)
                ]
                for _ in range(num_rows)
            ]
        )
        rows = solve_x_log_x_rows(rhs)
        for k in range(num_rows):
            alone = solve_x_log_x(rhs[k])
            np.testing.assert_array_equal(rows[k], alone)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_lambert_solve_rows_matches_per_row(self, data):
        num_rows = data.draw(st.integers(min_value=1, max_value=5))
        width = data.draw(st.integers(min_value=1, max_value=6))
        rhs = np.array(
            [
                [
                    data.draw(
                        st.floats(
                            min_value=0.0,
                            max_value=1e8,
                            allow_nan=False,
                            allow_infinity=False,
                        )
                    )
                    for _ in range(width)
                ]
                for _ in range(num_rows)
            ]
        )
        rows = lambert_solve_rows(rhs)
        for k in range(num_rows):
            alone = lambert_solve_vector(rhs[k])
            np.testing.assert_array_equal(rows[k], alone)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_lambert_solve_seeded_rows_match_per_row(self, data):
        """A 2-D seeded solve stops each row on its own test: row ``k`` equals
        the 1-D seeded solve of row ``k``, whatever the other rows hold."""
        num_rows = data.draw(st.integers(min_value=1, max_value=5))
        width = data.draw(st.integers(min_value=1, max_value=6))
        values = st.floats(min_value=0.0, max_value=1e8)
        rhs = np.array([[data.draw(values) for _ in range(width)] for _ in range(num_rows)])
        jitter = st.floats(min_value=0.5, max_value=2.0)
        seeds = lambert_solve_rows(rhs) * np.array(
            [[data.draw(jitter) for _ in range(width)] for _ in range(num_rows)]
        )
        rows = _lambert_solve_seeded(rhs, seeds)
        for k in range(num_rows):
            np.testing.assert_array_equal(rows[k], _lambert_solve_seeded(rhs[k], seeds[k]))

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_neighbour_lane_cannot_perturb_a_row(self, data):
        """Replacing every *other* lane leaves lane k's bits untouched."""
        width = data.draw(st.integers(min_value=1, max_value=5))
        row = np.array(
            [
                data.draw(
                    st.floats(
                        min_value=0.0,
                        max_value=1e6,
                        allow_nan=False,
                        allow_infinity=False,
                    )
                )
                for _ in range(width)
            ]
        )
        neighbour_a = np.full(width, 1e-9)  # converges immediately
        neighbour_b = np.full(width, 9.9e5)  # needs many more rounds
        with_a = solve_x_log_x_rows(np.stack([neighbour_a, row]))
        with_b = solve_x_log_x_rows(np.stack([neighbour_b, row, neighbour_b]))
        np.testing.assert_array_equal(with_a[1], with_b[1])

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5).flatmap(
            lambda num_lanes: st.tuples(
                st.lists(
                    st.floats(
                        min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False
                    ),
                    min_size=num_lanes,
                    max_size=num_lanes,
                ),
                st.lists(
                    st.floats(
                        min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False
                    ),
                    min_size=num_lanes,
                    max_size=num_lanes,
                ),
            )
        )
    )
    # ``(x - c) ** 2`` on a Python float goes through libm ``pow``, which is
    # 1 ulp off the exactly rounded ``d * d`` NumPy uses for arrays here.
    @example(lanes=([-0.0007174852385240576], [9.0]))
    # Interval widths 1e-3 and 1e2: the narrow lane freezes ~24 iterations
    # before the wide one, which keeps moving around it.
    @example(lanes=([0.5, -1.5], [5e-4, 50.0]))
    @example(lanes=([-1.5, 0.5, 2.0], [50.0, 5e-4, 5e-2]))
    # A degenerate ``lo == hi`` lane beside live ones.
    @example(lanes=([1.0, -2.0, 3.0], [2.0, 0.0, 1e-2]))
    @example(lanes=([0.0, 4.0], [0.0, 0.0]))
    def test_golden_section_rows_matches_scalar_per_lane(self, lanes):
        centers, widths = lanes
        num_lanes = len(centers)
        lo = np.array([c - w for c, w in zip(centers, widths)])
        hi = np.array([c + w for c, w in zip(centers, widths)])

        def func(x):
            d = x - np.asarray(centers)
            return d * d

        def scalar_func(x, c):
            d = x - c
            return d * d

        xs, fs = golden_section_rows(func, lo, hi)
        for k in range(num_lanes):
            x_ref, f_ref = golden_section_scalar(
                lambda x, c=centers[k]: scalar_func(x, c), float(lo[k]), float(hi[k])
            )
            assert xs[k] == x_ref
            assert fs[k] == f_ref


@pytest.mark.hypothesis
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rows_mu_search_matches_the_lane_loop_reference(data):
    """The masked-array rows search makes the lane-at-a-time loop's decisions.

    Compared *before* the polish (patched to hand its entry point straight
    back), so every pre-polish bit counts, and with capped scans and Halley
    phases, so the error strings count too.
    """
    num_lanes = data.draw(st.integers(min_value=1, max_value=6))
    n_c = data.draw(st.integers(min_value=1, max_value=6))
    exponents = st.floats(min_value=-14.0, max_value=-8.0)
    j_rows = 10.0 ** np.array(
        [[data.draw(exponents) for _ in range(n_c)] for _ in range(num_lanes)]
    )
    rmin_rows = np.array(
        [
            [data.draw(st.floats(min_value=1e3, max_value=1e6)) for _ in range(n_c)]
            for _ in range(num_lanes)
        ]
    )
    budgets = np.array(
        [data.draw(st.floats(min_value=1e4, max_value=3e7)) for _ in range(num_lanes)]
    )
    cap = data.draw(
        st.sampled_from(
            [
                None,
                "MU_BRACKET_MAX_EXPANSIONS",
                "MU_BRACKET_MAX_CONTRACTIONS",
                "MU_SEARCH_MAX_ITERATIONS",
            ]
        )
    )
    # 0-9 covers caps below, at and above the bracketing call's 8 candidates.
    caps = {} if cap is None else {cap: data.draw(st.integers(min_value=0, max_value=9))}
    # Some lanes carry a hint 1e-9 to 3x off their (uncapped) root, so warm
    # lanes, failed warm starts and cold lanes share one call.
    roots, _, _ = subproblem2._mu_search_vector_rows(j_rows, rmin_rows, budgets, mu_tol=1e-13)
    hints = [
        _drawn_hint(data, j_rows[k], roots[k]) if roots[k] > 0.0 and data.draw(st.booleans())
        else None
        for k in range(num_lanes)
    ]

    def unpolished(mu, j_rows, rmin_rows, budgets, steps=8):
        return mu.copy(), np.zeros_like(j_rows)

    with mock.patch.multiple(subproblem2, _polish_mu_rows=unpolished, **caps):
        got = subproblem2._mu_search_vector_rows(
            j_rows, rmin_rows, budgets, mu_tol=1e-13, hints=hints
        )
        want = mu_search_rows_reference(j_rows, rmin_rows, budgets, mu_tol=1e-13, hints=hints)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert got[2] == want[2]


def _drawn_hint(data, j, root):
    """A hint 1e-9 to 3x off ``root`` on a drawn side, its roots solved for
    ``j`` perturbed by up to 10% per device."""
    rel = 10.0 ** data.draw(st.floats(min_value=-9.0, max_value=np.log10(2.0)))
    mu = root * (1.0 + rel) if data.draw(st.booleans()) else root / (1.0 + rel)
    jitter = np.array(
        [data.draw(st.floats(min_value=-0.1, max_value=0.1)) for _ in range(j.shape[0])]
    )
    return mu, solve_x_log_x(mu / (j * (1.0 + jitter)))


def _rooted_lanes(offsets, j=(2e-12, 7e-12, 1.1e-11, 4e-11), rmin=(3e5, 8e4, 5e5, 2e5)):
    lanes = [rooted_problem(list(j), list(rmin), offset) for offset in offsets]
    j_rows = np.array([lane[0] for lane in lanes])
    rmin_rows = np.array([lane[1] for lane in lanes])
    budgets = np.array([lane[2] for lane in lanes])
    roots = np.median(j_rows, axis=1) * 4.0 ** np.asarray(offsets)
    return j_rows, rmin_rows, budgets, roots


@pytest.mark.hypothesis
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rows_mu_search_with_mixed_hints_matches_the_1d_search(data):
    """Lanes with and without hints in one rows call return, polished, the
    bits of their one-lane 1-D searches (roots kept at ``mu / j >= 1e-3``)."""
    offsets = [
        data.draw(st.floats(min_value=-1.0, max_value=12.0))
        for _ in range(data.draw(st.integers(min_value=2, max_value=6)))
    ]
    j_rows, rmin_rows, budgets, roots = _rooted_lanes(offsets)
    hints = [
        _drawn_hint(data, j_rows[k], roots[k]) if data.draw(st.booleans()) else None
        for k in range(len(offsets))
    ]
    mu, x_rows, errors = subproblem2._mu_search_vector_rows(
        j_rows, rmin_rows, budgets, mu_tol=1e-13, hints=hints
    )
    assert errors == [None] * len(offsets)
    for k, hint in enumerate(hints):
        mu_k, x_k = subproblem2._mu_search_vector(
            j_rows[k], rmin_rows[k], budgets[k], mu_tol=1e-13, hint=hint
        )
        assert mu[k] == mu_k
        assert x_rows[k].tobytes() == x_k.tobytes()


@pytest.mark.parametrize("replacement", [None, 1.3, 1e-6, np.nan])
def test_perturbing_one_lanes_hint_moves_no_other_lane(replacement):
    """Every pre-polish bit of the other lanes, warm or cold, is unchanged."""
    j_rows, rmin_rows, budgets, roots = _rooted_lanes([-2.3, 0.6, 3.4, 8.5, 11.2])
    hints = [
        (roots[k] * (1.0 + 1e-4), solve_x_log_x(roots[k] * (1.0 + 1e-4) / j_rows[k]))
        for k in range(4)
    ] + [None]
    perturbed = list(hints)
    perturbed[2] = None if replacement is None else (
        roots[2] * (1.0 + replacement), hints[2][1]
    )

    def unpolished(mu, j_rows, rmin_rows, budgets, steps=8):
        return mu.copy(), np.zeros_like(j_rows)

    with mock.patch.object(subproblem2, "_polish_mu_rows", unpolished):
        base = subproblem2._mu_search_vector_rows(
            j_rows, rmin_rows, budgets, mu_tol=1e-13, hints=hints
        )
        moved = subproblem2._mu_search_vector_rows(
            j_rows, rmin_rows, budgets, mu_tol=1e-13, hints=perturbed
        )
    others = [0, 1, 3, 4]
    assert base[0][others].tobytes() == moved[0][others].tobytes()
    assert base[2] == moved[2]


@pytest.mark.parametrize(
    "caps",
    [
        {},
        {"MU_BRACKET_MAX_EXPANSIONS": 3},
        {"MU_BRACKET_MAX_EXPANSIONS": 8},
        {"MU_BRACKET_MAX_EXPANSIONS": 9},
        {"MU_BRACKET_MAX_CONTRACTIONS": 1},
        {"MU_SEARCH_MAX_ITERATIONS": 0},
        {"MU_SEARCH_MAX_ITERATIONS": 2},
    ],
)
def test_rows_mu_search_matches_the_lane_loop_reference_on_pinned_roots(caps):
    """Lanes whose roots sit below ``mu_0``, inside the bracketing call, just
    past its eight candidates and far beyond them, under each cap."""
    offsets = [-2.3, 0.6, 3.4, 8.5, 11.2]
    lanes = [
        rooted_problem([2e-12, 7e-12, 1.1e-11, 4e-11], [3e5, 8e4, 5e5, 2e5], offset)
        for offset in offsets
    ]
    j_rows = np.array([lane[0] for lane in lanes])
    rmin_rows = np.array([lane[1] for lane in lanes])
    budgets = np.array([lane[2] for lane in lanes])

    def unpolished(mu, j_rows, rmin_rows, budgets, steps=8):
        return mu.copy(), np.zeros_like(j_rows)

    roots = np.median(j_rows, axis=1) * 4.0 ** np.array(offsets)
    # Warm lanes 1e-3 off, 1e-9 off and far off (cold), then two cold lanes.
    hints = [
        (root * factor, solve_x_log_x(root * factor / j_rows[k]))
        for k, (root, factor) in enumerate(zip(roots[:3], [1.001, 1.0 - 1e-9, 50.0]))
    ] + [None, None]
    for lane_hints in (None, hints):
        with mock.patch.multiple(subproblem2, _polish_mu_rows=unpolished, **caps):
            got = subproblem2._mu_search_vector_rows(
                j_rows, rmin_rows, budgets, mu_tol=1e-13, hints=lane_hints
            )
            want = mu_search_rows_reference(
                j_rows, rmin_rows, budgets, mu_tol=1e-13, hints=lane_hints
            )
        assert got[0].tobytes() == want[0].tobytes()
        assert got[2] == want[2]
