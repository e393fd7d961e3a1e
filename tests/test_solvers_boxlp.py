"""Tests for the box-constrained budget LP (problem (A.6)), one row at a time."""

import numpy as np
import pytest

from repro.solvers import solve_box_budget_lp_rows


def _lp(costs, lower, upper, budget):
    """One LP as a one-row stack: its ``x`` and its infeasibility message."""
    x, errors = solve_box_budget_lp_rows(
        np.asarray(costs, dtype=float)[None],
        np.asarray(lower, dtype=float)[None],
        np.asarray(upper, dtype=float)[None],
        np.array([budget]),
    )
    return x[0], errors[0]


def test_negative_costs_consume_budget_greedily():
    costs = np.array([-3.0, -1.0, 2.0])
    lower = np.zeros(3)
    upper = np.array([4.0, 4.0, 4.0])
    x, error = _lp(costs, lower, upper, budget=5.0)
    assert error is None
    # Cheapest (most negative) variable is filled first.
    assert np.allclose(x, [4.0, 1.0, 0.0])
    assert float(costs @ x) == pytest.approx(-13.0)
    assert x.sum() == pytest.approx(5.0)


def test_positive_costs_stay_at_lower_bounds():
    costs = np.array([1.0, 2.0])
    lower = np.array([0.5, 1.0])
    upper = np.array([3.0, 3.0])
    x, error = _lp(costs, lower, upper, budget=10.0)
    assert error is None
    assert np.allclose(x, lower)
    assert 10.0 - x.sum() == pytest.approx(10.0 - 1.5)


def test_budget_slack_left_when_all_uppers_reached():
    costs = np.array([-1.0, -1.0])
    x, error = _lp(costs, np.zeros(2), np.ones(2), budget=5.0)
    assert error is None
    assert np.allclose(x, 1.0)
    assert 5.0 - x.sum() == pytest.approx(3.0)


def test_lower_bounds_exceeding_budget_is_infeasible():
    _, error = _lp(np.zeros(2), np.array([3.0, 3.0]), np.array([4.0, 4.0]), budget=5.0)
    assert error == "box LP lower bounds sum to 6 > budget 5"


def test_lower_above_upper_is_infeasible():
    _, error = _lp(np.zeros(2), np.array([2.0, 0.0]), np.array([1.0, 1.0]), budget=5.0)
    assert error == "box LP has lower > upper for some variable"


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        _lp(np.zeros(2), np.zeros(3), np.zeros(3), budget=1.0)


def test_solution_is_optimal_against_random_feasible_points():
    rng = np.random.default_rng(7)
    costs = rng.normal(size=6)
    lower = rng.uniform(0.0, 0.5, size=6)
    upper = lower + rng.uniform(0.5, 2.0, size=6)
    budget = float(lower.sum() + 2.0)
    x, error = _lp(costs, lower, upper, budget)
    assert error is None
    objective = float(costs @ x)
    for _ in range(200):
        candidate = rng.uniform(lower, upper)
        if candidate.sum() > budget:
            excess = candidate.sum() - budget
            candidate = lower + (candidate - lower) * max(
                0.0, 1.0 - excess / max((candidate - lower).sum(), 1e-12)
            )
        if candidate.sum() <= budget + 1e-9:
            assert costs @ candidate >= objective - 1e-9
