"""Tests for the baseline schemes of Section VII."""

import numpy as np
import pytest

from repro import JointProblem, ProblemWeights, ResourceAllocator
from repro.baselines import (
    BASELINES,
    communication_only,
    computation_only,
    delay_minimization,
    evaluate_allocation,
    get_baseline,
    random_benchmark,
    scheme1,
    static_equal_allocation,
)
from repro.baselines.scheme1 import Scheme1Config
from repro.exceptions import ConfigurationError, InfeasibleProblemError
from tests.mu_search_scalar_reference import scalar_oracle


@pytest.fixture(scope="module")
def deadline_problem(small_system):
    fast = ResourceAllocator().solve(
        JointProblem(small_system, ProblemWeights(energy=0.0, time=1.0))
    )
    return JointProblem(
        small_system,
        ProblemWeights(energy=1.0, time=0.0),
        deadline_s=fast.completion_time_s * 2.5,
    )


def test_registry_contains_all_schemes():
    for name in ("benchmark", "static", "communication_only", "computation_only", "delay_min", "scheme1"):
        assert name in BASELINES
        assert callable(get_baseline(name))
    with pytest.raises(ConfigurationError):
        get_baseline("nope")


def test_evaluate_allocation_wraps_metrics(balanced_problem):
    allocation = balanced_problem.initial_allocation()
    result = evaluate_allocation(balanced_problem, allocation, note="test")
    assert result.energy_j == pytest.approx(allocation.total_energy_j(balanced_problem.system))
    assert result.completion_time_s == pytest.approx(
        allocation.total_time_s(balanced_problem.system)
    )
    assert result.feasible


def test_random_benchmark_frequency_mode(balanced_problem, rng):
    result = random_benchmark(balanced_problem, randomize="frequency", rng=rng)
    system = balanced_problem.system
    assert np.allclose(result.allocation.power_w, system.max_power_w)
    assert np.allclose(
        result.allocation.bandwidth_hz, system.total_bandwidth_hz / system.num_devices
    )
    assert np.all(result.allocation.frequency_hz <= system.max_frequency_hz)
    assert result.feasible


def test_random_benchmark_power_mode(balanced_problem, rng):
    result = random_benchmark(balanced_problem, randomize="power", rng=rng)
    system = balanced_problem.system
    assert np.allclose(result.allocation.frequency_hz, system.max_frequency_hz)
    assert np.all(result.allocation.power_w <= system.max_power_w * (1 + 1e-9))
    assert np.all(result.allocation.power_w >= system.min_power_w * (1 - 1e-9))


def test_random_benchmark_rejects_unknown_mode(balanced_problem):
    with pytest.raises(ConfigurationError):
        random_benchmark(balanced_problem, randomize="bandwidth")


def test_proposed_beats_benchmark_on_objective(balanced_problem):
    proposed = ResourceAllocator().solve(balanced_problem)
    benchmark = random_benchmark(balanced_problem, rng=0)
    assert proposed.objective < benchmark.objective


def test_static_equal_allocation_is_feasible(balanced_problem):
    result = static_equal_allocation(balanced_problem)
    assert result.feasible
    system = balanced_problem.system
    assert np.allclose(result.allocation.frequency_hz, system.max_frequency_hz)


def test_delay_minimization_is_fastest(balanced_problem):
    system = balanced_problem.system
    fastest = delay_minimization(balanced_problem)
    # It beats the random benchmark outright (the benchmark computes slower).
    benchmark = random_benchmark(balanced_problem, rng=1)
    assert fastest.completion_time_s <= benchmark.completion_time_s * (1 + 1e-9)
    # Against the static equal split it wins on what it optimises: the
    # slowest upload (the compute side is identical, both run at f_max).
    static = static_equal_allocation(balanced_problem)

    def max_upload(result):
        return float(
            np.max(
                system.upload_time_s(
                    result.allocation.power_w, result.allocation.bandwidth_hz
                )
            )
        )

    assert max_upload(fastest) <= max_upload(static) * (1 + 1e-9)


def test_deadline_baselines_respect_the_budget(deadline_problem):
    for scheme in (scheme1, communication_only, computation_only):
        result = scheme(deadline_problem)
        assert result.feasible, scheme.__name__
        assert result.completion_time_s <= deadline_problem.deadline_s * (1 + 1e-6)


def test_proposed_beats_single_resource_baselines(deadline_problem):
    proposed = ResourceAllocator().solve(deadline_problem)
    comm = communication_only(deadline_problem)
    comp = computation_only(deadline_problem)
    assert proposed.energy_j <= comm.energy_j * (1 + 1e-6)
    assert proposed.energy_j <= comp.energy_j * (1 + 1e-6)


def test_proposed_beats_scheme1(deadline_problem):
    proposed = ResourceAllocator().solve(deadline_problem)
    baseline = scheme1(deadline_problem)
    assert proposed.energy_j <= baseline.energy_j * (1 + 1e-6)


def test_scheme1_optimized_split_variant_is_not_worse(deadline_problem):
    fixed = scheme1(deadline_problem)
    optimized = scheme1(deadline_problem, config=Scheme1Config(optimize_split=True))
    assert optimized.energy_j <= fixed.energy_j * (1 + 1e-6)


def test_deadline_schemes_require_a_deadline(balanced_problem):
    for scheme in (scheme1, communication_only, computation_only):
        with pytest.raises(ConfigurationError):
            scheme(balanced_problem)


def test_scheme1_detects_impossible_deadline(small_system):
    problem = JointProblem(
        small_system, ProblemWeights(energy=1.0, time=0.0), deadline_s=1.0
    )
    with pytest.raises(InfeasibleProblemError):
        scheme1(problem)


# -- the scalar multiplier-search oracle -------------------------------------
#
# Baselines must be search-transparent: the schemes that never touch the
# SP2 solver stack are bit-identical under the scalar test oracle, and the
# one scheme that does (communication_only runs Algorithm 1) must stay
# within the 1e-8 parity gate on the paper scenario.

def _solve(name, problem, rng_seed=7):
    kwargs = {"rng": rng_seed} if name == "benchmark" else {}
    return get_baseline(name)(problem, **kwargs)


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_every_baseline_is_backend_transparent(name, balanced_problem, deadline_problem):
    problem = (
        deadline_problem
        if name in ("scheme1", "communication_only", "computation_only")
        else balanced_problem
    )
    with scalar_oracle():
        scalar = _solve(name, problem)
    vector = _solve(name, problem)
    if name == "communication_only":
        # Algorithm 1 runs inside: both searches agree within the parity gate.
        np.testing.assert_allclose(
            vector.allocation.power_w, scalar.allocation.power_w, rtol=1e-8
        )
        np.testing.assert_allclose(
            vector.allocation.bandwidth_hz, scalar.allocation.bandwidth_hz, rtol=1e-8
        )
        assert vector.energy_j == pytest.approx(scalar.energy_j, rel=1e-8)
        assert vector.completion_time_s == pytest.approx(
            scalar.completion_time_s, rel=1e-8
        )
    else:
        # No SP2 involvement: the oracle must not leak in at all.
        np.testing.assert_array_equal(
            vector.allocation.power_w, scalar.allocation.power_w
        )
        np.testing.assert_array_equal(
            vector.allocation.bandwidth_hz, scalar.allocation.bandwidth_hz
        )
        np.testing.assert_array_equal(
            vector.allocation.frequency_hz, scalar.allocation.frequency_hz
        )
        assert vector.energy_j == scalar.energy_j
        assert vector.completion_time_s == scalar.completion_time_s
