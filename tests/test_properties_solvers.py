"""Property-based suite for the root-finding primitives (Hypothesis).

Three families of invariants, one per solver primitive:

* ``bisect_vector`` and its frozen scalar oracle ``bisect_scalar`` — the
  returned point stays inside the initial bracket, the residual there is
  root-small, lanes converge independently, and pathological inputs fail
  loudly
  (:class:`SolverError` for unbracketable intervals,
  :class:`ConvergenceError` for exhausted iteration budgets) instead of
  silently returning midpoints;
* the Lambert helpers — ``W0`` satisfies its defining equation,
  ``solve_x_log_x`` / ``lambert_solve_vector`` return the unique root of
  ``x ln x - x + 1 = rhs`` (agreeing with each other — the vector variant
  is differential-tested against the scalar one), monotone in ``rhs``,
  and the multiplier search's seeded kernel lands on that root from any
  seed;
* ``power_waterfilling`` — the allocation lands exactly on the simplex,
  stays positive, satisfies the water-filling stationarity, and rejects
  invalid coefficients.

Run locally with ``pytest -m hypothesis``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.exceptions import ConvergenceError, SolverError
from repro.solvers import bisect_vector, lambert_solve_vector, solve_x_log_x
from repro.solvers.lambert import _lambert_solve_seeded
from repro.solvers.waterfilling import power_waterfilling
from tests.bisection_reference import bisect_scalar
from tests.lambert_reference import lambert_w_principal

pytestmark = pytest.mark.hypothesis

finite = dict(allow_nan=False, allow_infinity=False)


# -- bisect_scalar (the frozen oracle) -----------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    root=st.floats(min_value=-50.0, max_value=50.0, **finite),
    width=st.floats(min_value=1e-3, max_value=100.0, **finite),
    offset=st.floats(min_value=0.0, max_value=1.0, **finite),
    slope=st.floats(min_value=1e-3, max_value=10.0, **finite),
)
def test_bisect_scalar_root_residual_and_bracket_invariant(root, width, offset, slope):
    lo = root - width * (offset + 1e-6)
    hi = root + width * (1.0 + 1e-6 - offset)
    func = lambda x: slope * (x - root) ** 3  # noqa: E731 — monotone, root known
    found = bisect_scalar(func, lo, hi, tol=1e-12)
    assert lo <= found <= hi
    assert found == pytest.approx(root, rel=1e-9, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    lo=st.floats(min_value=-10.0, max_value=10.0, **finite),
    width=st.floats(min_value=0.1, max_value=10.0, **finite),
    shift=st.floats(min_value=0.5, max_value=100.0, **finite),
)
def test_bisect_scalar_rejects_unbracketable_interval(lo, width, shift):
    hi = lo + width
    # Strictly positive on the whole interval: no root to bracket.
    func = lambda x: (x - lo) + shift  # noqa: E731
    with pytest.raises(SolverError, match="sign change"):
        bisect_scalar(func, lo, hi)


@settings(max_examples=20, deadline=None)
@given(root=st.floats(min_value=-5.0, max_value=5.0, **finite))
def test_bisect_scalar_raises_convergence_error_on_exhaustion(root):
    func = lambda x: x - root  # noqa: E731
    with pytest.raises(ConvergenceError, match="did not converge"):
        bisect_scalar(func, root - 10.0, root + 11.0, tol=1e-12, max_iter=3)


# -- bisect_vector ------------------------------------------------------------

roots_arrays = hnp.arrays(
    dtype=float,
    shape=st.integers(min_value=1, max_value=12),
    elements=st.floats(min_value=-20.0, max_value=20.0, **finite),
)


@settings(max_examples=60, deadline=None)
@given(roots=roots_arrays, spread=st.floats(min_value=0.1, max_value=50.0, **finite))
def test_bisect_vector_matches_per_lane_scalar_solution(roots, spread):
    lo = roots - spread
    hi = roots + spread * 1.7  # asymmetric on purpose
    func = lambda x: (x - roots) ** 3  # noqa: E731
    found = bisect_vector(func, lo, hi, tol=1e-12)
    assert found.shape == roots.shape
    assert np.all((lo <= found) & (found <= hi))
    np.testing.assert_allclose(found, roots, rtol=1e-9, atol=1e-9)
    # Differential check against the scalar solver, lane by lane.
    for lane in range(roots.shape[0]):
        scalar = bisect_scalar(
            lambda x: (x - roots[lane]) ** 3, lo[lane], hi[lane], tol=1e-12
        )
        assert found[lane] == pytest.approx(scalar, rel=1e-9, abs=1e-8)


@settings(max_examples=40, deadline=None)
@given(
    roots=roots_arrays,
    scales=st.floats(min_value=1e-3, max_value=1e3, **finite),
)
def test_bisect_vector_lanes_converge_independently(roots, scales):
    """Wildly different lane scales must not stop the narrow lanes early."""
    lo = roots - scales
    hi = roots + scales
    # One extra lane with a far wider bracket than the rest.
    lo = np.append(lo, roots[0] - 1e6)
    hi = np.append(hi, roots[0] + 1e6)
    all_roots = np.append(roots, roots[0])
    found = bisect_vector(lambda x: x - all_roots, lo, hi, tol=1e-10)
    np.testing.assert_allclose(found, all_roots, rtol=1e-7, atol=1e-6)


def test_bisect_vector_rejects_lane_without_sign_change():
    func = lambda x: np.where(np.arange(3) == 1, x**2 + 1.0, x)  # noqa: E731
    with pytest.raises(SolverError, match="index 1"):
        bisect_vector(func, np.full(3, -1.0), np.full(3, 1.0))


@settings(max_examples=20, deadline=None)
@given(roots=roots_arrays)
def test_bisect_vector_raises_convergence_error_on_exhaustion(roots):
    func = lambda x: x - roots  # noqa: E731
    with pytest.raises(ConvergenceError, match="did not converge"):
        bisect_vector(func, roots - 50.0, roots + 51.0, tol=1e-12, max_iter=2)


# -- Lambert helpers ----------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(z=st.floats(min_value=-1.0 / np.e, max_value=1e6, **finite))
def test_lambert_w_principal_satisfies_defining_equation(z):
    w = float(lambert_w_principal(z))
    assert w >= -1.0
    assert w * np.exp(w) == pytest.approx(z, rel=1e-8, abs=1e-10)


rhs_floats = st.floats(min_value=0.0, max_value=1e8, **finite)
# Below rhs ~ 1e-12 the root satisfies (x - 1)^2 / 2 = rhs with x - 1 under
# the ulp of 1.0: the residual is then pure round-off noise and the root is
# only defined up to its seed.  Cross-implementation agreement is asserted
# on the conditioned range; the residual bound covers the full range.
rhs_floats_conditioned = st.floats(min_value=1e-6, max_value=1e8, **finite)


@settings(max_examples=80, deadline=None)
@given(rhs=rhs_floats)
def test_solve_x_log_x_root_residual_bound(rhs):
    x = float(solve_x_log_x(rhs))
    assert x >= 1.0
    residual = x * np.log(x) - x + 1.0 - rhs
    assert abs(residual) <= 1e-8 * max(1.0, rhs)


@settings(max_examples=60, deadline=None)
@given(
    rhs=hnp.arrays(
        dtype=float,
        shape=st.tuples(
            st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=8)
        ),
        elements=rhs_floats,
    )
)
def test_lambert_solve_vector_residual_bound_on_batches(rhs):
    batched = lambert_solve_vector(rhs)
    assert batched.shape == rhs.shape
    assert np.all(batched >= 1.0)
    residual = batched * np.log(batched) - batched + 1.0 - rhs
    assert np.all(np.abs(residual) <= 1e-8 * np.maximum(1.0, rhs))


@settings(max_examples=60, deadline=None)
@given(
    rhs=hnp.arrays(
        dtype=float,
        shape=st.integers(min_value=1, max_value=16),
        elements=rhs_floats_conditioned,
    )
)
def test_lambert_solve_vector_matches_scalar_reference(rhs):
    batched = lambert_solve_vector(rhs)
    reference = solve_x_log_x(rhs)
    np.testing.assert_allclose(batched, reference, rtol=1e-10, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    rhs=rhs_floats_conditioned,
    factor=st.floats(min_value=1.01, max_value=100.0, **finite),
)
def test_lambert_solutions_are_monotone_in_rhs(rhs, factor):
    assert float(lambert_solve_vector(rhs * factor)) > float(
        lambert_solve_vector(rhs)
    ) * (1.0 - 1e-12)


@settings(max_examples=40, deadline=None)
@given(
    rhs=hnp.arrays(
        dtype=float,
        shape=st.integers(min_value=1, max_value=8),
        elements=rhs_floats_conditioned,
    ),
    jitter=st.floats(min_value=0.5, max_value=2.0, **finite),
)
def test_lambert_solve_seeded_seed_changes_work_not_answer(rhs, jitter):
    cold = lambert_solve_vector(rhs)
    seeded = _lambert_solve_seeded(rhs, np.maximum(cold * jitter, 1.0))
    np.testing.assert_allclose(seeded, cold, rtol=1e-9, atol=1e-12)


def test_lambert_rejects_negative_rhs():
    with pytest.raises(ValueError, match="non-negative"):
        solve_x_log_x(-0.5)
    with pytest.raises(ValueError, match="non-negative"):
        lambert_solve_vector(np.array([0.5, -0.5]))


# -- water-filling ------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    a=hnp.arrays(
        dtype=float,
        shape=st.integers(min_value=1, max_value=10),
        elements=st.floats(min_value=1e-3, max_value=1e3, **finite),
    ),
    b_scale=st.floats(min_value=0.0, max_value=10.0, **finite),
    total=st.floats(min_value=1e-2, max_value=1e3, **finite),
    exponent=st.floats(min_value=0.2, max_value=0.8, **finite),
)
def test_power_waterfilling_simplex_and_stationarity(a, b_scale, total, exponent):
    rng = np.random.default_rng(0)
    b = b_scale * rng.random(a.shape[0])
    x, eta = power_waterfilling(a, b, total, exponent)
    assert np.all(x > 0.0)
    assert float(x.sum()) == pytest.approx(total, rel=1e-9)
    # KKT stationarity: q a x^(q-1) + b = eta on every component.
    gradient = exponent * a * x ** (exponent - 1.0) + b
    np.testing.assert_allclose(gradient, eta, rtol=1e-5)


def test_power_waterfilling_rejects_invalid_inputs():
    with pytest.raises(SolverError, match="positive"):
        power_waterfilling(np.array([1.0, -1.0]), np.zeros(2), 1.0, 0.5)
    with pytest.raises(ValueError, match="exponent"):
        power_waterfilling(np.ones(2), np.zeros(2), 1.0, 1.5)
    with pytest.raises(ValueError, match="total"):
        power_waterfilling(np.ones(2), np.zeros(2), -1.0, 0.5)
