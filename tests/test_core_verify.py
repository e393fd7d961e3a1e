"""Tests for the constraint-violation helpers behind the KKT certificates."""

import numpy as np

from repro.core.verify import _box_constraint_violation, _budget_violation


def test_box_violation_zero_inside_box():
    x = np.array([0.5, 1.0, 0.0])
    assert _box_constraint_violation(x, 0.0, 1.0) == 0.0


def test_box_violation_measures_worst_relative_breach():
    x = np.array([-1.0, 3.0])
    violation = _box_constraint_violation(x, 0.0, 2.0)
    assert violation > 0.0
    # The worst breach is 1.0 above the upper bound of 2 -> 0.5 relative.
    assert np.isclose(violation, 0.5)


def test_budget_violation_zero_when_under_budget():
    assert _budget_violation(np.array([1.0, 2.0]), budget=5.0) == 0.0


def test_budget_violation_relative_overshoot():
    assert np.isclose(_budget_violation(np.array([3.0, 4.0]), budget=5.0), 2.0 / 5.0)
