"""Tests for the closed-loop round-by-round FL training subsystem.

The determinism tests here are the subsystem's acceptance gate: a fixed
seed must give bit-identical per-round metrics under the scalar multiplier
search oracle and across sweep execution order.
"""

import pytest

from repro.exceptions import ConfigurationError
from repro.fl.roundloop import FLRoundLoop, RoundLoopConfig, run_round_loop
from tests.mu_search_scalar_reference import scalar_oracle

SCENARIO = {"family": "paper", "num_devices": 6, "seed": 11}


def tiny_config(**overrides) -> RoundLoopConfig:
    defaults = dict(
        scenario=SCENARIO,
        rounds=3,
        local_iterations=4,
        samples_per_client=24,
        seed=11,
    )
    defaults.update(overrides)
    return RoundLoopConfig(**defaults)


@pytest.fixture(scope="module")
def baseline_report():
    return run_round_loop(tiny_config())


# -- configuration validation -------------------------------------------------

def test_config_rejects_bad_values():
    with pytest.raises(ConfigurationError, match="rounds"):
        tiny_config(rounds=0)
    with pytest.raises(ConfigurationError, match="scheme"):
        tiny_config(scheme="nope")
    with pytest.raises(ConfigurationError, match="selection"):
        tiny_config(selection="nope")
    with pytest.raises(ConfigurationError, match="fading"):
        tiny_config(fading="nope")
    with pytest.raises(ConfigurationError, match="partition"):
        tiny_config(partition="nope")
    with pytest.raises(ConfigurationError, match="model"):
        tiny_config(model="nope")
    with pytest.raises(ConfigurationError, match="energy_weight"):
        tiny_config(energy_weight=1.5)


def test_config_accepts_every_baseline_scheme():
    from repro.baselines.registry import BASELINES

    for name in BASELINES:
        tiny_config(scheme=name)


# -- the loop itself ----------------------------------------------------------

def test_loop_produces_one_record_per_round(baseline_report):
    assert len(baseline_report) == 3
    rounds = [r.round_index for r in baseline_report.records]
    assert rounds == [1, 2, 3]
    for record in baseline_report.records:
        assert record.selected == tuple(range(6))
        assert record.round_time_s > 0.0
        assert record.round_energy_j > 0.0
        assert 0.0 <= record.test_accuracy <= 1.0
        assert record.allocator_iterations >= 1
        assert record.timings.get("fl_allocate", 0.0) > 0.0
        assert record.timings.get("fl_train", 0.0) > 0.0


def test_cumulative_time_and_energy_are_monotone(baseline_report):
    elapsed = [r.elapsed_time_s for r in baseline_report.records]
    energy = [r.consumed_energy_j for r in baseline_report.records]
    assert all(b > a for a, b in zip(elapsed, elapsed[1:]))
    assert all(b > a for a, b in zip(energy, energy[1:]))
    assert baseline_report.total_time_s == pytest.approx(
        sum(r.round_time_s for r in baseline_report.records)
    )


def test_fading_redraw_changes_the_allocation_between_rounds(baseline_report):
    # With per-round Rayleigh fading the channel (and hence the re-solved
    # allocation's round prices) differs round to round.
    times = [r.round_time_s for r in baseline_report.records]
    assert len(set(times)) == len(times)


def test_static_channel_reprices_rounds_identically():
    report = run_round_loop(tiny_config(fading=None))
    times = {round(r.round_time_s, 12) for r in report.records}
    assert len(times) == 1


def test_baseline_scheme_runs_the_same_training_schedule(baseline_report):
    static = run_round_loop(tiny_config(scheme="static"))
    # Same seed + full participation => identical FedAvg trajectory ...
    assert [r.test_accuracy for r in static.records] == [
        r.test_accuracy for r in baseline_report.records
    ]
    # ... but a different (more expensive) energy bill.
    assert static.total_energy_j > baseline_report.total_energy_j


def test_selection_strategy_feeds_aggregation():
    report = run_round_loop(
        tiny_config(selection="fastest-k", selection_params={"k": 2})
    )
    for record in report.records:
        assert len(record.selected) == 2
    full = run_round_loop(tiny_config())
    assert [r.test_accuracy for r in report.records] != [
        r.test_accuracy for r in full.records
    ]


def test_report_rows_and_table_round_trip(baseline_report):
    rows = baseline_report.as_rows()
    assert [row["round"] for row in rows] == [1, 2, 3]
    table = baseline_report.to_table()
    assert len(table) == 3
    assert table.column("accuracy") == [r.test_accuracy for r in baseline_report.records]


def test_flat_metrics_cover_every_round(baseline_report):
    metrics = baseline_report.flat_metrics()
    assert metrics["rounds"] == 3.0
    assert metrics["final_accuracy"] == baseline_report.final_accuracy
    for round_index in (1, 2, 3):
        assert f"r{round_index:03d}_accuracy" in metrics
        assert f"r{round_index:03d}_elapsed_s" in metrics


def test_time_to_accuracy_helpers(baseline_report):
    first = baseline_report.records[0]
    assert baseline_report.time_to_accuracy(first.test_accuracy) == pytest.approx(
        first.elapsed_time_s
    )
    assert baseline_report.time_to_accuracy(2.0) is None
    assert baseline_report.rounds_to_accuracy(2.0) is None


def test_prebuilt_system_overrides_the_scenario():
    from repro import build_paper_scenario

    system = build_paper_scenario(num_devices=5, seed=3)
    config = tiny_config(scenario={})  # no scenario needed with a system
    report = FLRoundLoop(config, system=system).run()
    assert report.records[0].selected == tuple(range(5))


# -- determinism: the acceptance gate ----------------------------------------

def _flat(config: RoundLoopConfig) -> dict[str, float]:
    return run_round_loop(config).flat_metrics()


def test_fixed_seed_runs_are_bit_identical_across_backends(baseline_report):
    with scalar_oracle():
        scalar = _flat(tiny_config())
    vector = _flat(tiny_config())
    assert scalar == vector
    assert vector == baseline_report.flat_metrics()


def test_repeated_runs_are_bit_identical(baseline_report):
    assert _flat(tiny_config()) == baseline_report.flat_metrics()


def test_different_seeds_differ():
    assert _flat(tiny_config(seed=12)) != _flat(tiny_config())


def test_local_iterations_override_reprices_compute():
    """Regression: an overridden R_l must enter the pricing models, not just
    the SGD loop — halving the local iterations must (roughly) halve the
    compute side of the round price."""
    few = run_round_loop(tiny_config(local_iterations=2, fading=None, rounds=1))
    many = run_round_loop(tiny_config(local_iterations=8, fading=None, rounds=1))
    # More local work => strictly more energy per round for the same drop.
    assert many.records[0].round_energy_j > few.records[0].round_energy_j


def test_finish_round_evaluates_the_rate_formula_once(monkeypatch, baseline_report):
    """Pricing reuses the round's upload times for the transmission energy:
    one ``shannon_rate`` evaluation per ``finish_round`` (it was two), and
    the trajectory is unchanged."""
    import repro.system as system_module
    from repro.fl.roundloop import _RunState

    rate = system_module.shannon_rate
    finish_round = _RunState.finish_round
    calls: list[int] = []
    inside = False

    def counting_rate(*args, **kwargs):
        if inside:
            calls[-1] += 1
        return rate(*args, **kwargs)

    def counting_finish(self, *args, **kwargs):
        nonlocal inside
        calls.append(0)
        inside = True
        try:
            return finish_round(self, *args, **kwargs)
        finally:
            inside = False

    monkeypatch.setattr(system_module, "shannon_rate", counting_rate)
    monkeypatch.setattr(_RunState, "finish_round", counting_finish)
    report = run_round_loop(tiny_config())
    assert calls == [1, 1, 1]
    assert report.flat_metrics() == baseline_report.flat_metrics()
