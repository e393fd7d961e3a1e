"""Tests for the vectorised bisection solver and its frozen scalar oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import ConvergenceError, SolverError
from repro.solvers import bisect_vector
from tests.bisection_reference import bisect_scalar, bisect_vector_reference


def test_bisect_scalar_finds_root_of_linear_function():
    root = bisect_scalar(lambda x: 2.0 * x - 3.0, 0.0, 10.0)
    assert root == pytest.approx(1.5, rel=1e-9)


def test_bisect_scalar_finds_root_of_decreasing_function():
    root = bisect_scalar(lambda x: 10.0 - x**2, 0.0, 10.0)
    assert root == pytest.approx(np.sqrt(10.0), rel=1e-9)


def test_bisect_scalar_accepts_root_at_endpoint():
    assert bisect_scalar(lambda x: x, 0.0, 1.0) == 0.0
    assert bisect_scalar(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def test_bisect_scalar_requires_sign_change():
    with pytest.raises(SolverError):
        bisect_scalar(lambda x: x + 1.0, 0.0, 1.0)


def test_bisect_vector_solves_independent_equations():
    targets = np.array([1.0, 4.0, 9.0, 0.25])
    roots = bisect_vector(lambda x: x**2 - targets, np.zeros(4), np.full(4, 10.0))
    assert np.allclose(roots, np.sqrt(targets), rtol=1e-9)


def test_bisect_vector_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        bisect_vector(lambda x: x, np.zeros(3), np.ones(2))


def test_bisect_vector_requires_sign_change_everywhere():
    with pytest.raises(SolverError):
        bisect_vector(lambda x: x + 1.0, np.zeros(2), np.ones(2))


def test_bisect_scalar_raises_on_exhausted_iteration_budget():
    from repro.exceptions import ConvergenceError

    with pytest.raises(ConvergenceError, match="did not converge"):
        bisect_scalar(lambda x: x - np.pi, 0.0, 10.0, tol=1e-12, max_iter=3)


def test_bisect_scalar_converges_within_budget_when_tolerance_is_loose():
    root = bisect_scalar(lambda x: x - np.pi, 0.0, 10.0, tol=1e-2, max_iter=15)
    assert abs(root - np.pi) < 0.1


def test_bisect_vector_raises_on_exhausted_iteration_budget():
    from repro.exceptions import ConvergenceError

    targets = np.array([2.0, 7.0])
    with pytest.raises(ConvergenceError, match="did not converge"):
        bisect_vector(
            lambda x: x - targets, np.zeros(2), np.full(2, 10.0), tol=1e-12, max_iter=3
        )


def test_convergence_error_is_a_solver_error():
    # Callers catching SolverError (the established failure surface) also
    # see the new non-convergence reports.
    from repro.exceptions import ConvergenceError, SolverError

    assert issubclass(ConvergenceError, SolverError)


@st.composite
def _bisection_cases(draw):
    """Linear lanes ``slope * (x - root)`` on ``[lo, hi]`` plus a budget.

    Roots sit anywhere inside, on a midpoint the bisection will probe (an
    exact ``f(mid) == 0``), on an endpoint, or outside the bracket (no sign
    change); widths include zero and sub-tolerance brackets (lanes converged
    at entry), and small ``max_iter`` values exhaust the budget.
    """
    num_lanes = draw(st.integers(min_value=1, max_value=6))
    finite = {"allow_nan": False, "allow_infinity": False}
    los, his, roots, slopes = [], [], [], []
    for _ in range(num_lanes):
        lo = draw(
            st.integers(min_value=-64, max_value=64).map(float)
            | st.floats(min_value=-1e3, max_value=1e3, **finite)
        )
        width = draw(
            st.sampled_from([0.0, 1e-13, 1.0, 8.0])
            | st.floats(min_value=0.0, max_value=1e3, **finite)
        )
        hi = lo + width
        kind = draw(st.sampled_from(["inside", "dyadic", "lo", "hi", "outside"]))
        if kind == "inside":
            root = draw(st.floats(min_value=lo, max_value=hi, **finite))
        elif kind == "dyadic":
            root = lo + width * draw(st.sampled_from([0.5, 0.25, 0.75, 0.375, 0.8125]))
        elif kind == "lo":
            root = lo
        elif kind == "hi":
            root = hi
        else:
            root = hi + 1.0
        los.append(lo)
        his.append(hi)
        roots.append(root)
        slopes.append(draw(st.sampled_from([1.0, -1.0, 3.5, -0.25])))
    tol = draw(st.sampled_from([1e-12, 1e-9, 1e-3]))
    max_iter = draw(st.integers(min_value=0, max_value=60))
    return los, his, roots, slopes, tol, max_iter


def _outcome(solver, los, his, roots, slopes, tol, max_iter):
    root = np.array(roots)
    slope = np.array(slopes)
    try:
        return solver(
            lambda x: slope * (x - root),
            np.array(los),
            np.array(his),
            tol=tol,
            max_iter=max_iter,
        )
    except SolverError as exc:
        return type(exc), str(exc)


@pytest.mark.hypothesis
@settings(max_examples=300, deadline=None)
@given(_bisection_cases())
# A lane converged at entry next to one that is not; a bracket exactly at
# its tolerance is converged too, at entry or after a halving.
@example(([0.0, 1.0], [0.0, 9.0], [0.0, 4.2], [1.0, -1.0], 1e-12, 200))
@example(([0.0, 0.0, 0.0], [1e-3, 2e-3, 1.0], [2e-4, 3e-4, 0.3], [1.0, 1.0, 1.0], 1e-3, 200))
# An exact zero at the first midpoint, then at a later one.
@example(([0.0, 0.0], [8.0, 8.0], [4.0, 3.0], [1.0, 3.5], 1e-12, 200))
# Zeros at either endpoint.
@example(([0.0, -2.0], [5.0, 7.0], [0.0, 7.0], [1.0, -1.0], 1e-9, 200))
# An exhausted iteration budget.
@example(([0.0, 0.0], [10.0, 10.0], [2.0, 7.0], [1.0, 1.0], 1e-12, 3))
# No sign change in one lane.
@example(([0.0, 0.0], [1.0, 1.0], [0.5, 2.0], [1.0, 1.0], 1e-12, 200))
def test_bisect_vector_is_bit_identical_to_the_reference(case):
    """The lean bisection returns the reference's bits and raises its errors."""
    got = _outcome(bisect_vector, *case)
    want = _outcome(bisect_vector_reference, *case)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray)
        assert got.shape == want.shape
        assert np.all(got == want)
        assert got.tobytes() == want.tobytes()


def test_bisect_vector_reference_examples_cover_every_exit():
    """The pinned examples above reach each case they are there for."""
    converged = _outcome(
        bisect_vector_reference, [0.0, 1.0], [0.0, 9.0], [0.0, 4.2], [1.0, -1.0], 1e-12, 200
    )
    assert converged[0] == 0.0 and converged[1] == pytest.approx(4.2)

    residuals = []
    root = np.array([4.0, 3.0])

    def recording(x):
        residuals.append(np.array([1.0, 3.5]) * (x - root))
        return residuals[-1]

    bisect_vector_reference(recording, np.zeros(2), np.full(2, 8.0))
    assert residuals[2][0] == 0.0  # the first midpoint, after f(lo) and f(hi)
    assert any(r[1] == 0.0 for r in residuals[3:])

    exhausted = _outcome(
        bisect_vector_reference, [0.0, 0.0], [10.0, 10.0], [2.0, 7.0], [1.0, 1.0], 1e-12, 3
    )
    assert exhausted[0] is ConvergenceError
    unbracketed = _outcome(
        bisect_vector_reference, [0.0, 0.0], [1.0, 1.0], [0.5, 2.0], [1.0, 1.0], 1e-12, 200
    )
    assert unbracketed[0] is SolverError and "sign change" in unbracketed[1]
