"""Lockstep FL runs: round ``r`` of every ``proposed`` run in one solve.

The sweep engine batches a flcurve's ``proposed`` runs into one unit that
:func:`repro.fl.roundloop.run_lockstep` advances a round at a time.  These
tests hold it to the per-run path: the same rows under every runner mode,
and a run that fails mid-way fails only its own task, with the per-run
error string.
"""

import pytest

from repro.core.allocator import ResourceAllocator
from repro.experiments.flcurve import FLCurveConfig, run_flcurve
from repro.experiments.runner import SweepRunner
from repro.fl.roundloop import FLRoundLoop, RoundLoopConfig, _RunState, run_lockstep
from repro.perf.bench import fl_dynamic_bench_config

#: The perfbench ``fl`` workload's inputs (churn, battery, deadline-k,
#: oracle and estimated profiles) at three rounds.
_DYNAMIC = fl_dynamic_bench_config(False)
CONFIG = FLCurveConfig(
    rounds=3,
    selection="deadline-k",
    profile_modes=("oracle", "estimated"),
    churn=_DYNAMIC.churn,
    battery=_DYNAMIC.battery,
)

#: The run the isolation tests break: the first estimated proposed run.
VICTIM = ("fl", "paper", "proposed", "estimated")


@pytest.fixture(scope="module")
def per_run():
    return run_flcurve(CONFIG, runner=SweepRunner(batch_size=1))


def test_lockstep_rows_match_the_per_run_path(per_run):
    runner = SweepRunner()
    lockstep = run_flcurve(CONFIG, runner=runner)
    assert runner.last_stats.batches == 1
    assert runner.last_stats.batched_tasks == 4
    assert not per_run.errors and not lockstep.errors
    assert lockstep.rows == per_run.rows


def test_parallel_lockstep_rows_match_the_per_run_path(per_run):
    assert run_flcurve(CONFIG, runner=SweepRunner(jobs=2)).rows == per_run.rows


def _break_victim(monkeypatch, where):
    """Make the victim run raise at round 2 in ``prepare_round``, in its
    solve lane, or in ``finish_round``."""
    # Strong references, so a later object cannot inherit a victim's id.
    victims: list[_RunState] = []
    doomed: list[object] = []
    init = _RunState.__init__
    prepare_round = _RunState.prepare_round
    finish_round = _RunState.finish_round
    solve_batch = ResourceAllocator.solve_batch

    def marking_init(self, config, *args, **kwargs):
        init(self, config, *args, **kwargs)
        # Tasks run in task order in both modes, so the first estimated
        # proposed run built is the paper family's.
        if config.scheme == "proposed" and config.estimate_profiles and not victims:
            victims.append(self)

    def breaking_prepare(self, round_index):
        if where == "prepare" and round_index == 2 and self in victims:
            raise RuntimeError("synthetic prepare failure")
        problem = prepare_round(self, round_index)
        if where == "solve" and round_index == 2 and self in victims:
            doomed.append(problem)
        return problem

    def breaking_solve_batch(self, problems, **kwargs):
        results = solve_batch(self, problems, **kwargs)
        return [
            RuntimeError("synthetic solve failure")
            if any(problem is d for d in doomed)
            else result
            for problem, result in zip(problems, results)
        ]

    def breaking_finish(self, round_index, *args, **kwargs):
        if where == "finish" and round_index == 2 and self in victims:
            raise RuntimeError("synthetic finish failure")
        return finish_round(self, round_index, *args, **kwargs)

    monkeypatch.setattr(_RunState, "__init__", marking_init)
    monkeypatch.setattr(_RunState, "prepare_round", breaking_prepare)
    monkeypatch.setattr(_RunState, "finish_round", breaking_finish)
    monkeypatch.setattr(ResourceAllocator, "solve_batch", breaking_solve_batch)
    return victims


@pytest.mark.parametrize("where", ["prepare", "solve", "finish"])
@pytest.mark.parametrize("batch_size", [None, 1], ids=["lockstep", "per-run"])
def test_a_failing_run_fails_only_its_own_task(monkeypatch, per_run, where, batch_size):
    victims = _break_victim(monkeypatch, where)
    table = run_flcurve(CONFIG, runner=SweepRunner(batch_size=batch_size))
    assert len(victims) == 1
    assert [(tuple(e["key"]), e["messages"]) for e in table.errors] == [
        (VICTIM, [f"RuntimeError: synthetic {where} failure"])
    ]
    for row, reference in zip(table.rows, per_run.rows):
        if ("fl", row["family"], row["scheme"], row["profiles"]) == VICTIM:
            assert row["accuracy"] != row["accuracy"]  # NaN
        else:
            assert row == reference


def test_runs_with_different_round_counts_advance_together():
    def config(rounds, scheme="proposed"):
        return RoundLoopConfig(
            scenario={"family": "paper", "num_devices": 5, "seed": 2},
            rounds=rounds,
            local_iterations=2,
            samples_per_client=16,
            scheme=scheme,
            seed=2,
        )

    configs = [config(1), config(3), config(2, "static"), config(2)]
    reports = run_lockstep([FLRoundLoop(c) for c in configs])
    for report, single in zip(reports, configs):
        assert report.flat_metrics() == FLRoundLoop(single).run().flat_metrics()
    assert [len(report) for report in reports] == [1, 3, 2, 2]


def test_a_run_that_cannot_start_fails_only_its_own_slot(monkeypatch):
    config = RoundLoopConfig(
        scenario={"family": "paper", "num_devices": 4, "seed": 1},
        rounds=2,
        local_iterations=2,
        samples_per_client=16,
    )
    broken = FLRoundLoop(config)

    def no_server():
        raise ValueError("no server")

    monkeypatch.setattr(broken, "_build_server", no_server)
    first, second = run_lockstep([broken, FLRoundLoop(config)])
    assert isinstance(first, ValueError)
    assert second.flat_metrics() == FLRoundLoop(config).run().flat_metrics()
    with pytest.raises(ValueError, match="no server"):
        broken.run()
