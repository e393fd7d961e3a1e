"""The Lambert Newton loops' stop test against its frozen original form.

``_newton_all`` and ``_newton_rows`` stop on ``|x_new - x| <= tol * x_new``.
The original test scaled by ``max(1, |x_new|)``, which every iterate
``>= 1`` makes a no-op.  The frozen loops below keep that original test;
the library's loops must return the same roots bit for bit after the same
number of Newton steps, NaN and infinite right-hand sides included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConvergenceError
from repro.solvers import lambert


def _newton_all_reference(x, rhs, tol, max_iter, name):
    for _ in range(max_iter):
        x_new = lambert._newton_step(x, rhs)
        if np.all(np.abs(x_new - x) <= tol * np.maximum(1.0, np.abs(x_new))):
            x = x_new
            break
        x = x_new
    else:
        lambert._check_lambert_residual(x, rhs, max_iter, name)
    return np.where(rhs == 0.0, 1.0, x)


def _newton_rows_reference(x, rhs, tol, max_iter, name):
    x = x.copy()
    live = np.arange(x.shape[0])
    for _ in range(max_iter):
        if live.size == 0:
            break
        x_new = lambert._newton_step(x[live], rhs[live])
        done = (np.abs(x_new - x[live]) <= tol * np.maximum(1.0, np.abs(x_new))).all(axis=1)
        x[live] = x_new
        live = live[~done]
    else:
        if live.size:
            lambert._check_lambert_residual(x[live], rhs[live], max_iter, name)
    return np.where(rhs == 0.0, 1.0, x)


def _counted(monkeypatch, loop, x, rhs, tol, max_iter):
    """``loop``'s result (or its error message) and the Newton steps it ran,
    as ``(result, steps)``; a step on ``k`` rows counts ``k``."""
    steps = 0
    newton_step = lambert._newton_step

    def counting(x_, c_):
        nonlocal steps
        steps += x_.shape[0] if x_.ndim == 2 else 1
        return newton_step(x_, c_)

    with monkeypatch.context() as patch:
        patch.setattr(lambert, "_newton_step", counting)
        try:
            result = loop(x.copy(), rhs, tol, max_iter, "stop-test").tobytes()
        except ConvergenceError as error:
            result = str(error)
    return result, steps


def _rhs_1d() -> list[np.ndarray]:
    return [
        np.array([0.0]),
        np.array([0.0, 0.0, 0.0]),
        np.array([1e-12, 3e-7, 0.5, np.e, 40.0, 1e6, 1e300]),
        np.array([0.0, 2.5, np.nan]),
        np.array([np.inf, 1.0]),
        np.array([0.0, np.nan, np.inf, 7.0]),
        np.logspace(-16, 16, 33),
    ]


def _rhs_rows() -> np.ndarray:
    # Rows that converge at different depths, rows that never do (NaN and
    # +inf), an all-zero row, and a row mixing all of them.
    return np.array(
        [
            [1e-12, 2e-12, 5e-12, 1e-11],
            [0.5, 1.0, 2.0, 3.0],
            [1e6, 3e8, 1e12, 1e300],
            [0.0, 0.0, 0.0, 0.0],
            [np.nan, 1.0, 2.0, 3.0],
            [np.inf, 1.0, 2.0, 3.0],
            [0.0, np.nan, np.inf, 7.0],
            [1e-300, 1e-30, 1e-3, 1e3],
        ]
    )


_SEEDS = {"oracle": lambert._oracle_start, "cold": lambert._cold_start}


@pytest.mark.parametrize("seed", sorted(_SEEDS))
@pytest.mark.parametrize("case", range(len(_rhs_1d())))
def test_newton_all_matches_the_original_stop_test(monkeypatch, seed, case):
    c, x = _SEEDS[seed](_rhs_1d()[case])
    new = _counted(monkeypatch, lambert._newton_all, x, c, 1e-14, 100)
    old = _counted(monkeypatch, _newton_all_reference, x, c, 1e-14, 100)
    assert new == old
    assert new[1] >= 1


@pytest.mark.parametrize("seed", sorted(_SEEDS))
def test_newton_rows_matches_the_original_stop_test(monkeypatch, seed):
    c, x = _SEEDS[seed](_rhs_rows())
    new = _counted(monkeypatch, lambert._newton_rows, x, c, 1e-14, 60)
    old = _counted(monkeypatch, _newton_rows_reference, x, c, 1e-14, 60)
    assert new == old
    # The finite rows stop at different depths, the all-zero row after one
    # step, and the three rows holding a NaN or +inf run to the cap.
    depths = [
        _counted(monkeypatch, lambert._newton_all, x[i], c[i], 1e-14, 60)[1]
        for i in (0, 1, 2, 7)
    ]
    assert len(set(depths)) > 1
    assert new[1] == sum(depths) + 1 + 3 * 60


@pytest.mark.parametrize("seed", sorted(_SEEDS))
def test_both_stop_tests_raise_the_same_exhaustion_error(monkeypatch, seed):
    c, x = _SEEDS[seed](_rhs_rows()[[1, 2, 7]])
    new = _counted(monkeypatch, lambert._newton_rows, x, c, 1e-14, 2)
    assert new == _counted(monkeypatch, _newton_rows_reference, x, c, 1e-14, 2)
    assert "did not converge in 2 Newton iterations" in new[0]
    flat_c, flat_x = c[2], x[2]
    new = _counted(monkeypatch, lambert._newton_all, flat_x, flat_c, 1e-14, 2)
    assert new == _counted(monkeypatch, _newton_all_reference, flat_x, flat_c, 1e-14, 2)
    assert "did not converge" in new[0]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_infinite_and_nan_iterates_decide_as_before(monkeypatch):
    # Seeds outside the kernels' contract: +inf and NaN iterates directly.
    x = np.array([np.inf, np.nan, 2.0])
    c = np.array([1.0, 1.0, np.inf])
    new = _counted(monkeypatch, lambert._newton_all, x, c, 1e-14, 5)
    assert new == _counted(monkeypatch, _newton_all_reference, x, c, 1e-14, 5)
    rows = np.array([[np.inf, 2.0], [2.0, 2.0], [np.nan, 2.0]])
    rows_c = np.array([[1.0, 1.0], [1.0, np.inf], [1.0, 1.0]])
    new = _counted(monkeypatch, lambert._newton_rows, rows, rows_c, 1e-14, 5)
    assert new == _counted(monkeypatch, _newton_rows_reference, rows, rows_c, 1e-14, 5)
