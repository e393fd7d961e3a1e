"""The stacked Algorithm-2 rounds against the frozen per-lane driver.

:meth:`repro.core.allocator.ResourceAllocator._solve_lanes` runs each outer
round once per stack of same-size lanes; ``tests/allocator_reference.py``
keeps the per-lane driver it replaced.  A Hypothesis differential draws
mixed batches (device counts 1-24 mixed in one batch, ``w1`` including 0,
with and without a completion-time budget, under the scalar multiplier
search oracle too, the dual
Subproblem-1 method, explicit initial points, ``max_iterations`` of 0, 1
and the default, failing lanes) and holds every :class:`AllocationResult`
field and every history record ``==``-equal to the frozen driver and to a
one-lane call.  The isolation tests break one lane inside the round's
bookkeeping and check that it alone fails, with the per-lane code's
exception type and message.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import JointProblem, ProblemWeights
from repro.core import allocator as allocator_module
from repro.core import subproblem1, sum_of_ratios
from repro.core.allocator import AllocatorConfig, ResourceAllocator
from repro.exceptions import ConfigurationError
from repro.scenarios import ScenarioSpec
from tests import allocator_reference as ref
from tests.mu_search_scalar_reference import scalar_oracle

_FIELDS = (
    "round_deadline_s",
    "objective",
    "energy_j",
    "completion_time_s",
    "transmission_energy_j",
    "computation_energy_j",
    "converged",
    "iterations",
    "feasible",
    "inner_iterations",
    "mu",
)


def _same_float(a, b) -> bool:
    return type(a) is type(b) and (a == b or (math.isnan(a) and math.isnan(b)))


def _same_result(got, want) -> None:
    """Every field and history record of two outcomes, exactly."""
    if isinstance(want, Exception):
        assert type(got) is type(want), (got, want)
        assert str(got) == str(want)
        return
    assert not isinstance(got, Exception), got
    for name in ("power_w", "bandwidth_hz", "frequency_hz"):
        g, w = getattr(got.allocation, name), getattr(want.allocation, name)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name
    for name in _FIELDS:
        g, w = getattr(got, name), getattr(want, name)
        assert type(g) is type(w) and g == w, (name, g, w)
    assert len(got.history) == len(want.history)
    for g, w in zip(got.history, want.history):
        assert g.iteration == w.iteration and g.note == w.note
        for name in ("objective", "residual", "step_change"):
            assert _same_float(getattr(g, name), getattr(w, name)), name


def _system(family, n, seed):
    return ScenarioSpec.from_mapping({"family": family, "num_devices": n, "seed": seed}).build()


def _problem(family, n, seed, w1, budget):
    """A lane; ``budget`` scales the max-power equal-split completion time
    into a hard deadline (``None``: no deadline; small: infeasible)."""
    system = _system(family, n, seed)
    weights = ProblemWeights.from_energy_weight(w1)
    if budget is None:
        return JointProblem(system, weights)
    start = JointProblem(system, weights).initial_allocation(bandwidth_fraction=0.5)
    return JointProblem(system, weights, deadline_s=budget * start.total_time_s(system))


_lane = st.tuples(
    st.sampled_from(["paper", "hotspot", "cell-edge", "hetero-fleet", "indoor"]),
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=0, max_value=50),
    st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
    st.sampled_from([None, None, 0.2, 1.2, 3.0]),
    st.sampled_from([None, None, 0.3, 0.9, "wrong-size"]),
)


def _batch(lanes):
    problems, starts = [], []
    for family, n, seed, w1, budget, start in lanes:
        if budget is not None:
            # Deadline lanes reach the numeric SP2 fallback, whose cost
            # grows with the fleet: keep them small.
            n = 1 + n % 5
        problem = _problem(family, n, seed, w1, budget)
        if start == "wrong-size":
            # An explicit start for another fleet fails its own lane at setup.
            other = _system(family, n + 1, seed)
            start = JointProblem(other).initial_allocation()
        elif start is not None:
            start = JointProblem(problem.system).initial_allocation(bandwidth_fraction=start)
        problems.append(problem)
        starts.append(start)
    return problems, starts


def _check(allocator, problems, starts):
    got = allocator._solve_lanes(problems, starts, return_exceptions=True)
    want = ref.solve_lanes_reference(allocator, problems, starts, return_exceptions=True)
    for g, w in zip(got, want):
        _same_result(g, w)
    for i, g in enumerate(got):
        (alone,) = allocator._solve_lanes([problems[i]], [starts[i]], return_exceptions=True)
        _same_result(alone, g)
    if any(isinstance(w, Exception) for w in want):
        # Without the gather idiom both drivers raise the same first failure.
        with pytest.raises(Exception) as ours:
            allocator._solve_lanes(problems, starts, return_exceptions=False)
        with pytest.raises(Exception) as theirs:
            ref.solve_lanes_reference(allocator, problems, starts, return_exceptions=False)
        _same_result(ours.value, theirs.value)


_CONFIGS = {
    "default": AllocatorConfig(),
    "dual": AllocatorConfig(subproblem1_method="dual"),
    "one": AllocatorConfig(max_iterations=1),
    "none": AllocatorConfig(max_iterations=0),
}


@pytest.mark.hypothesis
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    lanes=st.lists(_lane, min_size=1, max_size=5),
    config=st.sampled_from(sorted(_CONFIGS)),
)
@example(
    lanes=[
        ("paper", 20, 1, 0.5, None, None),
        ("paper", 20, 2, 0.9, None, 0.9),
        ("hotspot", 7, 3, 0.0, None, None),
        ("cell-edge", 4, 4, 1.0, 1.2, None),
        ("paper", 4, 5, 0.0, 3.0, None),
        ("indoor", 0, 6, 0.5, 0.2, None),
        ("paper", 12, 7, 0.1, None, "wrong-size"),
    ],
    config="default",
)
def test_stacked_rounds_match_the_per_lane_driver(lanes, config):
    _check(ResourceAllocator(_CONFIGS[config]), *_batch(lanes))


@pytest.mark.hypothesis
@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    lanes=st.lists(
        st.tuples(
            st.sampled_from(["paper", "hotspot"]),
            st.integers(min_value=1, max_value=8),
            st.integers(min_value=0, max_value=50),
            st.sampled_from([0.0, 0.5, 0.9]),
            st.just(None),
            st.sampled_from([None, 0.9]),
        ),
        min_size=1,
        max_size=4,
    ),
    config=st.sampled_from(["default", "one"]),
)
def test_stacked_rounds_match_on_the_scalar_backend(lanes, config):
    with scalar_oracle():
        _check(ResourceAllocator(_CONFIGS[config]), *_batch(lanes))


# -- lane isolation inside the round's bookkeeping ---------------------------------


def _three_lanes():
    problems = [
        JointProblem(_system("paper", 10, seed), ProblemWeights(0.5, 0.5)) for seed in (1, 2, 3)
    ]
    return problems, problems[1].system


def _assert_isolated(problems, exc_type, message):
    allocator = ResourceAllocator()
    results = allocator.solve_batch(problems, return_exceptions=True)
    assert type(results[1]) is exc_type and str(results[1]) == message
    for k in (0, 2):
        _same_result(results[k], allocator.solve(problems[k]))
    with pytest.raises(exc_type, match=message):
        allocator.solve_batch(problems)
    # The per-lane driver let the same failure abort the whole batch.
    with pytest.raises(exc_type, match=message):
        ref.solve_lanes_reference(allocator, problems, [None] * 3, return_exceptions=True)


def _breaking_algorithm1(monkeypatch, bad, column):
    """Algorithm 1 hands lane ``bad`` a step with one negative ``column`` entry."""
    stacks = allocator_module.solve_sum_of_ratios_stacks

    def breaking(rows):
        stacks(rows)
        for stack in rows:
            for k, run in enumerate(stack.runs):
                if run.system is bad:
                    getattr(stack, column)[k, 0] = -1.0

    monkeypatch.setattr(allocator_module, "solve_sum_of_ratios_stacks", breaking)
    monkeypatch.setattr(sum_of_ratios, "solve_sum_of_ratios_stacks", breaking)


def test_a_negative_algorithm1_power_fails_only_its_lane(monkeypatch):
    problems, bad = _three_lanes()
    _breaking_algorithm1(monkeypatch, bad, "out_power")
    _assert_isolated(problems, ConfigurationError, "transmit powers must be non-negative")


def test_a_negative_algorithm1_bandwidth_keeps_the_previous_point(monkeypatch):
    """A negative band has a zero rate, so Algorithm 1's result check turns
    the step down before ``ResourceAllocation``'s check could see it."""
    problems, bad = _three_lanes()
    _breaking_algorithm1(monkeypatch, bad, "out_bandwidth")
    allocator = ResourceAllocator()
    results = allocator.solve_batch(problems, return_exceptions=True)
    want = ref.solve_lanes_reference(allocator, problems, [None] * 3, return_exceptions=True)
    for g, w in zip(results, want):
        _same_result(g, w)
    assert results[1].inner_iterations == 0 and not results[1].feasible


def test_a_non_positive_frequency_fails_only_its_lane(monkeypatch):
    problems, bad = _three_lanes()
    solve_stack = allocator_module.solve_subproblem1_stack

    def breaking(systems, *args):
        frequency, deadline, status = solve_stack(systems, *args)
        for k, system in enumerate(systems):
            if system is bad:
                frequency[k, 0] = 0.0
        return frequency, deadline, status

    monkeypatch.setattr(allocator_module, "solve_subproblem1_stack", breaking)
    monkeypatch.setattr(subproblem1, "solve_subproblem1_stack", breaking)
    _assert_isolated(problems, ConfigurationError, "CPU frequencies must be strictly positive")


def test_a_failing_delay_step_fails_only_its_lane(monkeypatch):
    """A ``w1 = 0`` deadline lane whose min-max upload step raises."""
    systems = [_system("paper", 6, seed) for seed in (1, 2, 3)]
    problems = [JointProblem(s, ProblemWeights(0.0, 1.0), deadline_s=1e4) for s in systems]
    step = allocator_module.minimize_max_upload_time

    def breaking(system):
        if system is systems[1]:
            raise ConfigurationError("broken uplink")
        return step(system)

    monkeypatch.setattr(allocator_module, "minimize_max_upload_time", breaking)
    monkeypatch.setattr(ref, "minimize_max_upload_time", breaking)
    allocator = ResourceAllocator()
    results = allocator.solve_batch(problems, return_exceptions=True)
    want = ref.solve_lanes_reference(allocator, problems, [None] * 3, return_exceptions=True)
    for g, w in zip(results, want):
        _same_result(g, w)
    assert str(results[1]) == "broken uplink"
    assert np.isfinite(results[0].objective)
