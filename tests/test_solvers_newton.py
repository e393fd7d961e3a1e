"""Tests for the damped Newton-like step (Algorithm 1's update rule), one row at a time."""

import numpy as np
import pytest

from repro.solvers import damped_newton_step_rows, row_norms


def _step(alpha, residual, direction, *, xi=0.5, eps=0.01, max_backtracks=30):
    """One update of a single ``alpha`` as a one-row stack; fields read at row 0."""

    def residual_rows(candidates, rows):
        return np.asarray(residual(candidates[0]), dtype=float)[None]

    alpha = np.asarray(alpha, dtype=float)[None]
    return damped_newton_step_rows(
        alpha,
        residual_rows,
        np.asarray(direction, dtype=float)[None],
        base_norm=row_norms(residual_rows(alpha, slice(None))),
        xi=np.array([xi]),
        eps=np.array([eps]),
        max_backtracks=max_backtracks,
    )


def test_full_newton_step_zeroes_linear_residual():
    # phi(alpha) = G * alpha - target with diagonal Jacobian G.
    gains = np.array([2.0, 5.0, 1.0])
    target = np.array([4.0, 10.0, 3.0])
    alpha = np.zeros(3)

    def residual(a):
        return gains * a - target

    direction = (target / gains) - alpha
    result = _step(alpha, residual, direction)
    assert result.accepted[0]
    assert result.step_exponent[0] == 0
    assert result.residual_norm[0] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(result.alpha[0], target / gains)


def test_zero_residual_returns_immediately():
    alpha = np.array([1.0, 2.0])
    result = _step(alpha, lambda a: np.zeros(2), np.array([5.0, 5.0]))
    assert result.accepted[0]
    assert np.allclose(result.alpha[0], alpha)
    assert result.residual_norm[0] == 0.0


def test_backtracking_reduces_step_for_overshooting_direction():
    # Direction deliberately 10x the Newton step: the full step increases the
    # residual, so the line search must damp it.
    def residual(a):
        return a - 1.0

    alpha = np.zeros(1)
    direction = np.array([10.0])
    result = _step(alpha, residual, direction, xi=0.5, eps=0.01)
    assert result.step_exponent[0] >= 1
    assert result.residual_norm[0] < 1.0  # still a strict improvement


def test_step_size_is_xi_to_the_exponent():
    def residual(a):
        return a - 1.0

    result = _step(np.zeros(1), residual, np.array([10.0]), xi=0.5)
    assert result.step_size[0] == pytest.approx(0.5 ** result.step_exponent[0])


def test_invalid_hyperparameters_rejected():
    with pytest.raises(ValueError):
        _step(np.zeros(1), lambda a: a, np.ones(1), xi=1.5)
    with pytest.raises(ValueError):
        _step(np.zeros(1), lambda a: a, np.ones(1), eps=0.0)


def test_unacceptable_direction_still_returns_smallest_step():
    # A direction that always increases the residual: the helper must not
    # loop forever and must flag the step as not accepted.
    def residual(a):
        return a + 1.0

    result = _step(np.zeros(1), residual, np.array([100.0]), max_backtracks=5)
    assert not result.accepted[0]
    assert result.step_size[0] == pytest.approx(0.5**5)
