"""Determinism blitz for the dynamic-fleet round loop.

The acceptance gates of the dynamic layer, all at **zero tolerance**:

* the frozen-fleet loop (churn/battery/estimation all off) is bit-identical
  to the committed PR-9 golden record — adding the layer changed nothing
  for existing users;
* fixed-seed churn + drain runs are bit-identical under the scalar
  multiplier search oracle, across repeated invocations, and serial versus
  parallel sweep execution;
* the active fleet follows the resolved churn schedule round by round;
* drained devices retire and are never selected again (``graceful``) or
  fail the run loudly (``loud``);
* the online profile estimator converges toward the oracle parameters and
  its runs stay deterministic too.
"""

import contextlib
import json
from pathlib import Path

import pytest

from repro.devices.battery import BatteryDrainedError
from repro.exceptions import ConfigurationError
from repro.fl.churn import resolve_churn
from repro.fl.estimation import ProfileEstimator
from repro.fl.roundloop import RoundLoopConfig, run_round_loop
from tests.mu_search_scalar_reference import scalar_oracle

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_fl_pr9.json"
DYNAMIC_GOLDEN_PATH = Path(__file__).parent / "data" / "golden_fl_dynamic.json"

SCENARIO = {"family": "paper", "num_devices": 6, "seed": 11}

CHURN_EVENTS = {
    "mode": "events",
    "initial_absent": [5],
    "events": {2: {"arrive": [5], "depart": [0]}, 3: {"depart": [2]}},
}

CHURN_POISSON = {
    "mode": "poisson",
    "arrive_rate": 0.4,
    "depart_rate": 0.3,
    "initial_absent_fraction": 0.25,
}


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


# -- golden frozen-fleet regression -----------------------------------------
class TestGoldenFrozenFleet:
    """The disabled path must match the committed pre-dynamic record."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())

    def test_default_trajectory_matches_golden_exactly(self, golden):
        metrics = run_round_loop(tiny_config()).flat_metrics()
        assert metrics == golden["all"]

    def test_deadline_selection_trajectory_matches_golden_exactly(self, golden):
        metrics = run_round_loop(tiny_config(selection="deadline-k")).flat_metrics()
        assert metrics == golden["deadline-k"]

    def test_static_scheme_trajectory_matches_golden_exactly(self, golden):
        metrics = run_round_loop(
            tiny_config(scheme="static", fading=None)
        ).flat_metrics()
        assert metrics == golden["static-scheme"]

    def test_frozen_fleet_emits_no_dynamic_keys(self, golden):
        metrics = run_round_loop(tiny_config()).flat_metrics()
        dynamic_fragments = (
            "fleet_size", "arrived", "departed", "retired",
            "battery", "punctured", "_est_",
        )
        assert not [
            key
            for key in metrics
            if any(fragment in key for fragment in dynamic_fragments)
        ]


# -- golden dynamic-fleet regression ------------------------------------------
#: Churned, drained and estimated runs pinned to a committed record, so a
#: refactor of the loop cannot move them even where the library's multiplier
#: search and the scalar oracle would move together.  A name ending in
#: ``-scalar`` runs under the oracle.
DYNAMIC_GOLDEN_CONFIGS = {
    # The tiny capacity retires a device in round 3 (``r003_retired``).
    "events-battery": dict(churn=CHURN_EVENTS, battery={"capacity_j": 0.02}),
    "poisson-estimated-deadline-k-vector": dict(
        churn=CHURN_POISSON,
        battery={"capacity_j": 50.0},
        estimate_profiles=True,
        selection="deadline-k",
    ),
    "poisson-estimated-deadline-k-scalar": dict(
        churn=CHURN_POISSON,
        battery={"capacity_j": 50.0},
        estimate_profiles=True,
        selection="deadline-k",
    ),
    "charge-k-battery": dict(
        selection="charge-k",
        selection_params={"k": 3},
        battery={"capacity_j": 50.0},
    ),
    "delay-min-mlp-estimated": dict(
        scheme="delay_min", model="mlp", estimate_profiles=True
    ),
}


@pytest.fixture(scope="module")
def dynamic_golden():
    return json.loads(DYNAMIC_GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(DYNAMIC_GOLDEN_CONFIGS))
def test_dynamic_trajectory_matches_golden_exactly(name, dynamic_golden):
    config = tiny_config(**DYNAMIC_GOLDEN_CONFIGS[name])
    with scalar_oracle() if name.endswith("-scalar") else contextlib.nullcontext():
        metrics = run_round_loop(config).flat_metrics()
    assert metrics == dynamic_golden[name]


# -- the churn x multiplier-search determinism matrix ------------------------
class TestDynamicDeterminismMatrix:
    @pytest.fixture(scope="class", params=["events", "poisson"])
    def churn_spec(self, request):
        return CHURN_EVENTS if request.param == "events" else CHURN_POISSON

    @pytest.fixture(scope="class")
    def reference(self, churn_spec):
        return run_round_loop(
            tiny_config(churn=churn_spec, battery={"capacity_j": 50.0})
        ).flat_metrics()

    def test_repeat_run_is_bit_identical(self, churn_spec, reference):
        again = run_round_loop(
            tiny_config(churn=churn_spec, battery={"capacity_j": 50.0})
        ).flat_metrics()
        assert again == reference

    def test_scalar_backend_is_bit_identical(self, churn_spec, reference):
        with scalar_oracle():
            scalar = run_round_loop(
                tiny_config(churn=churn_spec, battery={"capacity_j": 50.0})
            ).flat_metrics()
        assert scalar == reference


def test_fleet_size_follows_the_churn_schedule():
    report = run_round_loop(tiny_config(rounds=4, churn=CHURN_EVENTS))
    # Every round solves cold, so no round reports a punctured chain.
    assert [r.resolve_punctured for r in report.records] == [None] * 4
    fleet_sizes = [r.fleet_size for r in report.records]
    expected = [
        len(p)
        for p in resolve_churn(
            CHURN_EVENTS, num_devices=6, rounds=4, seed=11
        ).present_through()
    ]
    assert fleet_sizes == expected


def test_dynamic_run_is_deterministic_across_sweep_execution_order():
    from repro.experiments.base import run_sweep
    from repro.experiments.runner import SweepRunner, SweepTask

    tasks = [
        SweepTask(
            key=("dyn", seed),
            scenario={**SCENARIO, "seed": seed},
            solver_kind="fl_roundloop",
            solver_params={
                "roundloop": tiny_config(
                    churn=CHURN_POISSON, battery={"capacity_j": 50.0}, seed=seed
                )
            },
        )
        for seed in (11, 12, 13)
    ]
    serial = run_sweep(tasks, runner=SweepRunner(jobs=1, use_cache=False))
    parallel = run_sweep(tasks, runner=SweepRunner(jobs=2, use_cache=False))
    assert set(serial) == set(parallel)
    for key, point in serial.items():
        assert point.metrics is not None and parallel[key].metrics is not None
        assert point.metrics == parallel[key].metrics


# -- battery retirement ------------------------------------------------------
def test_graceful_policy_retires_dead_devices_and_never_selects_them_again():
    # A capacity small enough that devices die within the horizon.
    report = run_round_loop(
        tiny_config(rounds=4, battery={"capacity_j": 0.02, "policy": "graceful"})
    )
    retired: set[int] = set()
    for record in report.records:
        assert not retired & set(record.selected), (
            "a retired device trained again"
        )
        retired |= set(record.retired)
    assert retired, "the tiny capacity must retire at least one device"
    sizes = [r.fleet_size for r in report.records]
    assert sizes == sorted(sizes, reverse=True)


def test_loud_policy_raises_on_the_first_over_budget_draw():
    with pytest.raises(BatteryDrainedError, match="loud"):
        run_round_loop(
            tiny_config(rounds=4, battery={"capacity_j": 0.02, "policy": "loud"})
        )


def test_everyone_dead_is_a_loud_error_even_under_graceful_policy():
    with pytest.raises(BatteryDrainedError, match="no device can train"):
        run_round_loop(
            tiny_config(
                rounds=6, battery={"capacity_j": 0.005, "policy": "graceful"}
            )
        )


def test_charge_k_selection_prefers_the_fullest_batteries():
    report = run_round_loop(
        tiny_config(
            rounds=3,
            selection="charge-k",
            selection_params={"k": 3},
            battery={"capacity_j": 50.0},
        )
    )
    assert all(len(r.selected) == 3 for r in report.records)


def test_charge_k_without_batteries_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="battery"):
        run_round_loop(tiny_config(selection="charge-k"))


# -- estimation ---------------------------------------------------------------
def test_estimator_errors_shrink_as_observations_accumulate():
    report = run_round_loop(
        tiny_config(rounds=5, estimate_profiles=True, fading=None)
    )
    cycles = [r.estimation_cycles_rel_err for r in report.records]
    gains = [r.estimation_gain_rel_err for r in report.records]
    # Compute cycles invert exactly from one noiseless observation.
    assert cycles[-1] == pytest.approx(0.0, abs=1e-9)
    # With no fading the gains invert exactly too once observed.
    assert gains[-1] == pytest.approx(0.0, abs=1e-9)


def test_estimator_converges_toward_oracle_gains_under_fading():
    report = run_round_loop(tiny_config(rounds=6, estimate_profiles=True))
    gains = [r.estimation_gain_rel_err for r in report.records]
    # Fading draws have unit mean power, so averaging over rounds walks
    # the estimate toward the large-scale gain: the tail error must be
    # well below the first observation's.
    assert gains[-1] < gains[0]


def test_estimated_runs_are_deterministic():
    config = tiny_config(
        rounds=3, estimate_profiles=True, churn=CHURN_POISSON
    )
    first = run_round_loop(config).flat_metrics()
    second = run_round_loop(config).flat_metrics()
    assert first == second


def test_estimator_observe_then_estimated_system_round_trips():
    import numpy as np

    from repro.scenarios import ScenarioSpec

    system = ScenarioSpec.from_mapping(SCENARIO).build()
    estimator = ProfileEstimator(system.num_devices)
    frequency = system.max_frequency_hz * 0.5
    power = system.max_power_w * 0.5
    bandwidth = np.full(
        system.num_devices, system.total_bandwidth_hz / system.num_devices
    )
    estimator.observe_round(
        system,
        np.arange(system.num_devices),
        frequency_hz=frequency,
        power_w=power,
        bandwidth_hz=bandwidth,
        compute_time_s=system.computation_time_s(frequency),
        upload_time_s=system.upload_time_s(power, bandwidth),
    )
    errors = estimator.error_report(system)
    assert errors["observed_devices"] == system.num_devices
    assert errors["cycles_rel_err"] == pytest.approx(0.0, abs=1e-9)
    assert errors["gain_rel_err"] == pytest.approx(0.0, abs=1e-9)
    estimated = estimator.estimated_system(system, np.arange(system.num_devices))
    assert np.allclose(estimated.gains, system.gains)


def test_estimation_params_validate():
    with pytest.raises(ConfigurationError):
        tiny_config(estimation_params={"forgetting": 0.0})
    with pytest.raises(ConfigurationError):
        tiny_config(estimation_params={"unknown_knob": 1.0})


# -- config validation --------------------------------------------------------
def test_churn_spec_validation_is_strict():
    with pytest.raises(ConfigurationError, match="unknown churn"):
        tiny_config(churn={"mode": "poisson", "typo_rate": 0.5})
    with pytest.raises(ConfigurationError, match="round 2"):
        tiny_config(churn={"mode": "events", "events": {1: {"depart": [0]}}})
    with pytest.raises(ConfigurationError, match="empty"):
        run_round_loop(
            tiny_config(
                churn={"mode": "events", "initial_absent": [0, 1, 2, 3, 4, 5]}
            )
        )
    with pytest.raises(ConfigurationError, match="universe"):
        run_round_loop(
            tiny_config(churn={"mode": "events", "initial_absent": [99]})
        )


def test_battery_spec_validation_is_strict():
    with pytest.raises(ConfigurationError, match="capacity_j"):
        tiny_config(battery={})
    with pytest.raises(ConfigurationError, match="positive"):
        tiny_config(battery={"capacity_j": -1.0})
    with pytest.raises(ConfigurationError, match="initial_soc"):
        tiny_config(battery={"capacity_j": 1.0, "initial_soc": 0.0})
    with pytest.raises(ConfigurationError, match="policy"):
        tiny_config(battery={"capacity_j": 1.0, "policy": "quiet"})
    with pytest.raises(ConfigurationError, match="unknown battery"):
        tiny_config(battery={"capacity_j": 1.0, "volts": 12})


def test_dynamic_fields_change_the_sweep_cache_key():
    from repro.experiments.runner import SweepTask, task_hash

    def digest(**overrides):
        return task_hash(
            SweepTask(
                key=("t",),
                scenario=SCENARIO,
                solver_kind="fl_roundloop",
                solver_params={"roundloop": tiny_config(**overrides)},
            )
        )

    base = digest()
    assert digest(churn=CHURN_POISSON) != base
    assert digest(battery={"capacity_j": 50.0}) != base
    assert digest(estimate_profiles=True) != base
