"""Tests for the parallel sweep engine (SweepRunner, cache, error rows)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.allocator import AllocatorConfig
from repro.experiments import (
    Fig2Config,
    Fig8Config,
    SweepConfig,
    SweepRunner,
    SweepTask,
    run_experiment,
    run_fig8,
    task_hash,
    use_runner,
)
from repro.experiments.base import add_grid_row, proposed_tasks, run_sweep
from repro.experiments.results import ResultTable
from repro.experiments.runner import (
    allocation_from_state,
    execute_batch,
    execute_task,
    get_active_runner,
    plan_units,
    register_solver_kind,
    set_default_runner,
)

TINY_SWEEP = SweepConfig(num_devices=6, num_trials=2, allocator=AllocatorConfig(max_iterations=5))

TINY_FIG8 = Fig8Config(
    sweep=TINY_SWEEP,
    max_power_dbm_grid=(10.0,),
    deadline_s_grid=(90.0, 150.0),
)


@register_solver_kind("explode_if_seed_one")
def _explode_if_seed_one(system, params):
    """Test-only solver kind: fails on the drop whose RNG seed was 1."""
    if params["seed"] == 1:
        raise RuntimeError("boom on seed 1")
    return {"value": float(params["seed"]) * 2.0}


def _explode_tasks(num_trials: int = 3) -> list[SweepTask]:
    sweep = SweepConfig(num_devices=4, num_trials=num_trials)
    return [
        SweepTask(
            key=("point",),
            scenario=sweep.scenario_params(seed=seed),
            solver_kind="explode_if_seed_one",
            solver_params={"seed": seed},
        )
        for seed in sweep.trial_seeds()
    ]


# -- determinism: serial vs parallel ----------------------------------------

def test_fig8_identical_tables_for_jobs_1_and_4():
    serial = run_fig8(TINY_FIG8, runner=SweepRunner(jobs=1))
    parallel = run_fig8(TINY_FIG8, runner=SweepRunner(jobs=4))
    assert serial.rows == parallel.rows
    assert serial.columns == parallel.columns


def test_runner_preserves_task_order_under_parallelism():
    sweep = SweepConfig(num_devices=4, num_trials=4)
    tasks = [
        SweepTask(
            key=(seed,),
            scenario=sweep.scenario_params(seed=seed),
            solver_kind="proposed",
            solver_params={"energy_weight": 0.5, "allocator": AllocatorConfig(max_iterations=3)},
        )
        for seed in sweep.trial_seeds()
    ]
    outcomes = SweepRunner(jobs=4).run(tasks)
    assert [o.task.key for o in outcomes] == [t.key for t in tasks]
    assert all(o.ok for o in outcomes)


# -- caching -----------------------------------------------------------------

def test_cache_hit_on_repeat_and_invalidation_on_config_change(tmp_path):
    tasks = proposed_tasks(("p",), TINY_SWEEP, 0.5)
    runner = SweepRunner(jobs=1, cache_dir=tmp_path, use_cache=True)

    first = runner.run(tasks)
    assert runner.last_stats.executed == len(tasks)
    assert runner.last_stats.cache_hits == 0

    second = runner.run(tasks)
    assert runner.last_stats.cache_hits == len(tasks)
    assert runner.last_stats.executed == 0
    assert all(o.cached for o in second)
    assert [o.metrics for o in first] == [o.metrics for o in second]

    # Changing any knob (here the energy weight) misses the cache.
    changed = proposed_tasks(("p",), TINY_SWEEP, 0.7)
    runner.run(changed)
    assert runner.last_stats.cache_hits == 0
    assert runner.last_stats.executed == len(changed)


@pytest.mark.parametrize("shard", [None, "0/1"])
def test_executed_task_builds_its_payload_once(monkeypatch, tmp_path, shard):
    """One payload per task serves the shard filter, the lookup and the put,
    and the stored entries keep their keys and task payloads."""
    tasks = proposed_tasks(("p",), TINY_SWEEP, 0.5)
    built = []
    payload = SweepTask.payload

    def counting(self):
        built.append(self.key)
        return payload(self)

    monkeypatch.setattr(SweepTask, "payload", counting)
    runner = SweepRunner(jobs=1, cache_dir=tmp_path, use_cache=True, shard=shard)
    runner.run(tasks)
    assert runner.last_stats.executed == len(tasks)
    assert sorted(built) == sorted(task.key for task in tasks)
    monkeypatch.setattr(SweepTask, "payload", payload)
    stored = {entry.digest: entry.task for entry in runner.store.entries()}
    assert stored == {task_hash(task): task.payload() for task in tasks}


def test_cache_disabled_runner_never_touches_disk(tmp_path):
    tasks = proposed_tasks(("p",), TINY_SWEEP, 0.5)
    runner = SweepRunner(jobs=1, cache_dir=tmp_path, use_cache=False)
    runner.run(tasks)
    runner.run(tasks)
    assert runner.last_stats.cache_hits == 0
    assert not any(tmp_path.iterdir())


def test_unwritable_cache_degrades_instead_of_crashing(tmp_path):
    target = tmp_path / "notadir"
    target.write_text("occupied")
    tasks = proposed_tasks(("p",), TINY_SWEEP, 0.5)
    runner = SweepRunner(jobs=1, cache_dir=target, use_cache=True)
    with pytest.warns(RuntimeWarning, match="result cache disabled"):
        outcomes = runner.run(tasks)
    assert all(o.ok for o in outcomes)
    assert runner.use_cache is False


def test_task_hash_is_stable_and_sensitive():
    [task] = proposed_tasks(("p",), SweepConfig(num_devices=6, num_trials=1), 0.5)
    [same] = proposed_tasks(("renamed",), SweepConfig(num_devices=6, num_trials=1), 0.5)
    [other] = proposed_tasks(("p",), SweepConfig(num_devices=7, num_trials=1), 0.5)
    assert task_hash(task) == task_hash(same)  # the key is a label, not an input
    assert task_hash(task) != task_hash(other)


# -- crash isolation ---------------------------------------------------------

def test_failed_trial_is_isolated_and_excluded_from_average():
    points = run_sweep(_explode_tasks(3), runner=SweepRunner(jobs=1))
    point = points[("point",)]
    assert point.trials == 3
    assert point.failures == 1
    assert "boom on seed 1" in point.errors[0]
    # Seeds 0 and 2 survive: mean(0*2, 2*2) == 2.0.
    assert point.metrics == {"value": 2.0}


def test_all_trials_failing_yields_nan_error_row():
    sweep = SweepConfig(num_devices=4, num_trials=1, base_seed=1)
    tasks = [
        SweepTask(
            key=("dead",),
            scenario=sweep.scenario_params(seed=1),
            solver_kind="explode_if_seed_one",
            solver_params={"seed": 1},
        )
    ]
    points = run_sweep(tasks, runner=SweepRunner(jobs=1))
    table = ResultTable(name="t", columns=["label", "value"])
    add_grid_row(table, points[("dead",)], {"value": "value"}, label="dead")
    assert len(table) == 1
    assert math.isnan(table.rows[0]["value"])
    assert table.errors and table.errors[0]["key"] == ["dead"]


def test_dotted_path_solver_kind_resolves_by_import():
    # "module:function" kinds import on demand, so they work in spawned
    # workers that never saw the parent's register_solver_kind calls.
    task = SweepTask(
        key=("x",),
        scenario=SweepConfig(num_devices=4).scenario_params(seed=0),
        solver_kind="repro.experiments.ablation:_sp2_solver_agreement",
        solver_params={"energy_weight": 0.5},
    )
    [outcome] = SweepRunner(jobs=1).run([task])
    assert outcome.ok
    assert "relative_gap" in outcome.metrics


def test_unknown_solver_kind_becomes_error_outcome():
    task = SweepTask(
        key=("x",),
        scenario=SweepConfig(num_devices=4).scenario_params(seed=0),
        solver_kind="no_such_kind",
    )
    [outcome] = SweepRunner(jobs=1).run([task])
    assert not outcome.ok
    assert "no_such_kind" in outcome.error


# -- the unit planner and executor ------------------------------------------

def _mixed_tasks() -> list[SweepTask]:
    """Two proposed shapes, a baseline, a custom plain kind and a proposed
    and a static closed FL run, interleaved."""
    from repro.experiments.flcurve import FLCurveConfig

    four = proposed_tasks(("p4",), SweepConfig(num_devices=4, num_trials=3), 0.5)
    six = proposed_tasks(("p6",), SweepConfig(num_devices=6, num_trials=2), 0.5)
    baseline = SweepTask(
        key=("b",),
        scenario=SweepConfig(num_devices=4).scenario_params(seed=0),
        solver_kind="baseline",
        solver_params={"name": "static", "energy_weight": 0.5, "deadline_s": None},
    )
    fl = FLCurveConfig(rounds=1, sweep=SweepConfig(num_devices=4, num_trials=1)).tasks()
    fl_proposed, fl_static = (
        next(t for t in fl if t.key[2] == scheme and t.key[1] == "paper")
        for scheme in ("proposed", "static")
    )
    return [
        four[0], baseline, six[0], four[1], _explode_tasks(1)[0],
        fl_proposed, four[2], fl_static, six[1],
    ]


@pytest.mark.parametrize(
    ("batch_size", "jobs", "expected"),
    [
        (None, 1, [[0, 3, 6], [2, 8], [5], [1], [4], [7]]),
        (2, 1, [[0, 3], [6], [2, 8], [5], [1], [4], [7]]),
        (None, 3, [[0], [3], [6], [2], [8], [5], [1], [4], [7]]),
        (2, 3, [[0], [3], [6], [2], [8], [5], [1], [4], [7]]),
        (1, 1, [[i] for i in range(9)]),
        (1, 3, [[i] for i in range(9)]),
    ],
)
def test_plan_units_batches_each_shape_evenly_and_runs_the_rest_alone(
    batch_size, jobs, expected
):
    tasks = _mixed_tasks()
    assert plan_units(tasks, range(len(tasks)), batch_size, jobs) == expected
    payloads = {index: task.payload() for index, task in enumerate(tasks)}
    assert plan_units(tasks, range(len(tasks)), batch_size, jobs, payloads) == expected


def test_plan_units_plans_only_the_given_indices_in_their_order():
    tasks = _mixed_tasks()
    assert plan_units(tasks, [7, 6, 1, 0], None) == [[6, 0], [7], [1]]
    assert plan_units(tasks, [], None) == []


def test_execute_batch_runs_any_unit_and_isolates_each_lane():
    tasks = _explode_tasks(3)
    unknown = SweepTask(key=("x",), scenario=tasks[0].scenario, solver_kind="no_such_kind")
    broken = SweepTask(
        key=("y",),
        scenario={**dict(tasks[0].scenario), "radius_km": -1.0},
        solver_kind="explode_if_seed_one",
        solver_params={"seed": 0},
    )
    results = execute_batch([*tasks, unknown, broken])
    assert [error is None for _metrics, _state, error in results] == [True, False, True, False, False]
    assert results[1][2] == "RuntimeError: boom on seed 1"
    assert results[3][2].startswith("KeyError: \"unknown solver kind 'no_such_kind'")
    assert results[4][2] == "ConfigurationError: radius_km must be positive, got -1.0"
    for task, (metrics, state, _error) in zip(tasks[::2], results[::2]):
        assert (metrics, state) == (execute_task(task), None)


# -- progress and ambient runner --------------------------------------------

def test_progress_callback_sees_every_task():
    seen = []
    runner = SweepRunner(jobs=1, progress=lambda done, total, outcome: seen.append((done, total)))
    runner.run(_explode_tasks(2))
    assert seen == [(1, 2), (2, 2)]


def test_task_timings_travel_with_outcomes():
    sweep = SweepConfig(num_devices=6, num_trials=1, allocator=AllocatorConfig(max_iterations=4))
    [outcome] = SweepRunner(jobs=1, use_cache=False).run(proposed_tasks(("p",), sweep, 0.5))
    assert outcome.timings is not None
    for name in ("scenario_build", "solve", "algorithm2", "sp2"):
        assert outcome.timings.get(name, 0.0) > 0.0


def test_keyboard_interrupt_flushes_store_and_reraises(tmp_path):
    # satellite: graceful interrupt.  Ctrl-C mid-sweep (injected through the
    # progress callback after the first executed task) must re-raise, but
    # only after flushing the store — the finished work has to survive for
    # the next run — and after recording the partial stats.
    tasks = proposed_tasks(("p",), TINY_SWEEP, 0.5)
    assert len(tasks) >= 2

    def interrupt_after_first(done, total, outcome):
        if done == 1:
            raise KeyboardInterrupt

    runner = SweepRunner(
        jobs=1,
        cache_dir=tmp_path,
        use_cache=True,
        store_backend="columnar",
        progress=interrupt_after_first,
    )
    with pytest.raises(KeyboardInterrupt):
        runner.run(tasks)

    assert runner.last_stats is not None
    assert runner.last_stats.executed == 1
    assert runner.last_stats.elapsed_s > 0

    # The flushed entry is durable: a *fresh* store handle serves it, and a
    # rerun gets it as a cache hit instead of recomputing.
    from repro.store import open_store

    assert len(open_store(tmp_path, "columnar")) == 1
    rerun = SweepRunner(
        jobs=1, cache_dir=tmp_path, use_cache=True, store_backend="columnar"
    )
    outcomes = rerun.run(tasks)
    assert rerun.last_stats.cache_hits == 1
    assert rerun.last_stats.executed == len(tasks) - 1
    assert len(outcomes) == len(tasks)


def test_keyboard_interrupt_in_parallel_run_cancels_pending(tmp_path):
    # The same injection with a process pool: the executor shutdown cancels
    # the queued futures and the exception still propagates promptly.
    tasks = proposed_tasks(
        ("p",),
        SweepConfig(
            num_devices=4, num_trials=4, allocator=AllocatorConfig(max_iterations=4)
        ),
        0.5,
    )

    def interrupt_after_first(done, total, outcome):
        if done == 1:
            raise KeyboardInterrupt

    runner = SweepRunner(
        jobs=2,
        cache_dir=tmp_path,
        use_cache=True,
        progress=interrupt_after_first,
    )
    with pytest.raises(KeyboardInterrupt):
        runner.run(tasks)
    assert runner.last_stats.executed >= 1
    # What did finish before the interrupt is durable.
    from repro.store import open_store

    assert len(open_store(tmp_path)) == runner.last_stats.executed - runner.last_stats.failed


def test_use_runner_installs_and_restores_default():
    configured = SweepRunner(jobs=2)
    assert get_active_runner() is not configured
    with use_runner(configured):
        assert get_active_runner() is configured
    assert get_active_runner() is not configured


def test_set_default_runner_roundtrip():
    configured = SweepRunner(jobs=3)
    set_default_runner(configured)
    try:
        assert get_active_runner() is configured
    finally:
        set_default_runner(None)


def test_run_experiment_forwards_runner():
    runner = SweepRunner(jobs=1)
    table = run_experiment("fig8", TINY_FIG8, runner=runner)
    assert runner.last_stats.total == len(TINY_FIG8.tasks())
    assert len(table) == 4


# -- stored solution state ----------------------------------------------------

def test_proposed_state_has_the_same_keys_per_drop_and_batched():
    """A proposed task stores exactly (p, B, f, mu), whether solved per drop
    or in a lockstep batch, and the two snapshots are equal."""
    tasks = [t for t in Fig2Config().tasks() if t.solver_kind == "proposed"]
    per_drop = SweepRunner(jobs=1, batch_size=1).run(tasks)
    batched_runner = SweepRunner(jobs=1)
    batched = batched_runner.run(tasks)
    assert batched_runner.last_stats.batched_tasks == len(tasks)
    keys = {"power_w", "bandwidth_hz", "frequency_hz", "mu"}
    for single, lane in zip(per_drop, batched):
        assert single.ok and lane.ok
        assert set(single.state) == keys
        assert set(lane.state) == keys
        assert single.state == lane.state
    # At least one drop binds the bandwidth budget, so its multiplier is
    # positive rather than the slack-budget default of 0.
    assert any(outcome.state["mu"] > 0.0 for outcome in per_drop)


def _state_for(system, scale=1.0):
    n = system.num_devices
    return {
        "power_w": (system.max_power_w * 0.9).tolist(),
        "bandwidth_hz": np.full(n, scale * system.total_bandwidth_hz / n).tolist(),
        "frequency_hz": system.max_frequency_hz.tolist(),
        "mu": 1e-9,
    }


def test_allocation_from_state_round_trips(tiny_system):
    allocation = allocation_from_state(tiny_system, _state_for(tiny_system, scale=0.5))
    assert allocation is not None
    assert allocation.bandwidth_hz.sum() <= tiny_system.total_bandwidth_hz * (1 + 1e-9)


def test_allocation_from_state_rescales_an_over_budget_split(tiny_system):
    allocation = allocation_from_state(tiny_system, _state_for(tiny_system, scale=2.0))
    assert allocation is not None
    assert allocation.bandwidth_hz.sum() == pytest.approx(
        tiny_system.total_bandwidth_hz, rel=1e-9
    )


def test_allocation_from_state_rejects_wrong_fleet_size(tiny_system):
    state = _state_for(tiny_system)
    state["power_w"] = state["power_w"][:-1]
    assert allocation_from_state(tiny_system, state) is None


def test_allocation_from_state_rejects_unusable_values(tiny_system):
    state = _state_for(tiny_system)
    state["bandwidth_hz"] = [0.0] * tiny_system.num_devices
    assert allocation_from_state(tiny_system, state) is None
    state = _state_for(tiny_system)
    state["frequency_hz"][0] = float("nan")
    assert allocation_from_state(tiny_system, state) is None
    assert allocation_from_state(tiny_system, {"power_w": "garbage"}) is None
