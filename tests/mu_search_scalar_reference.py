"""The scalar multiplier search: the oracle every multiplier search answers to.

:func:`repro.core.subproblem2._mu_search_vector` (one lane) and
:func:`~repro.core.subproblem2._mu_search_vector_rows` (a lockstep group)
find the bandwidth multiplier of SP2_v2 in a few batched array passes.  This
module keeps the search they replaced — one probe at a time: ×4 / ×0.25
bracketing from ``median(j)``, then plain bisection to the ``mu_tol``
bracket, always cold — and :func:`scalar_oracle` routes every search of the
library through it, so a test can run any solve, sweep or FL run on both
and compare the bits.  Both hand their bracket to the same entry-independent
polish, so they agree exactly.

The function body is kept float-for-float as it ran inside
:mod:`repro.core.subproblem2`, and it still reads the search caps, the
polish and the Lambert solve from that module's namespace at call time: a
test that patches ``subproblem2.MU_SEARCH_MAX_ITERATIONS`` patches the
oracle too.
"""

from __future__ import annotations

import contextlib
import types
from typing import Iterator, Sequence

import numpy as np

from repro.core import subproblem2
# The body's free names, imported so it reads as it did in the library; the
# bound copy that runs (``mu_search_scalar``) looks them up there instead.
from repro.core.subproblem2 import (
    _LN2,
    MU_BRACKET_MAX_CONTRACTIONS,
    MU_BRACKET_MAX_EXPANSIONS,
    MU_SEARCH_MAX_ITERATIONS,
    MuHint,
    _polish_mu,
)
from repro.exceptions import ConvergenceError
from repro.solvers.lambert import solve_x_log_x

__all__ = ["SEARCHES", "mu_search_scalar", "mu_search_scalar_rows", "scalar_oracle"]


def _mu_search_scalar(
    j_c: np.ndarray,
    rmin_c: np.ndarray,
    budget: float,
    *,
    mu_tol: float,
    hint: MuHint | None = None,
) -> tuple[float, np.ndarray | None]:
    """Reference bandwidth-multiplier search: one probe at a time.

    Returns ``(mu, x)`` with ``x`` the per-device SNR factors at ``mu`` (or
    ``None`` when ``mu == 0``, i.e. the budget constraint is slack for the
    rate-active set).  This is the original probe-sequential implementation,
    kept float-for-float identical as the oracle the vector backend is
    differential-tested against; it always starts cold, so ``hint`` (taken
    for the searches' common signature) is ignored.
    """
    def bandwidth_at(mu_value: float) -> np.ndarray:
        x = solve_x_log_x(mu_value / j_c)
        return rmin_c * _LN2 / np.maximum(np.log(x), 1e-300)

    def excess(mu_value: float) -> float:
        return float(bandwidth_at(mu_value).sum()) - budget

    # Bracket the multiplier: bandwidth demand explodes as mu -> 0 and
    # vanishes as mu -> infinity.
    mu_hi = float(np.median(j_c))
    f_hi = excess(mu_hi)
    expansions = 0
    while f_hi > 0.0:
        if expansions >= MU_BRACKET_MAX_EXPANSIONS:
            raise ConvergenceError(
                "bandwidth multiplier could not be bracketed from above in "
                f"{MU_BRACKET_MAX_EXPANSIONS} expansions (excess {f_hi:.3g} "
                f"at mu {mu_hi:.3g})"
            )
        mu_hi *= 4.0
        f_hi = excess(mu_hi)
        expansions += 1
    mu_lo, f_lo = mu_hi, f_hi
    contractions = 0
    while f_lo < 0.0:
        if contractions >= MU_BRACKET_MAX_CONTRACTIONS:
            raise ConvergenceError(
                "bandwidth multiplier could not be bracketed from below in "
                f"{MU_BRACKET_MAX_CONTRACTIONS} contractions (excess "
                f"{f_lo:.3g} at mu {mu_lo:.3g})"
            )
        mu_lo *= 0.25
        f_lo = excess(mu_lo)
        contractions += 1
    if mu_lo > 0.0:
        # The multiplier lives at the scale of j_n (often ~1e-11), so the
        # stopping rule must be relative to mu itself, and the returned
        # value is taken from the feasible side of the bracket so the
        # active-set bandwidth can never exceed the budget.
        converged = False
        for _ in range(MU_SEARCH_MAX_ITERATIONS):
            mu_mid = 0.5 * (mu_lo + mu_hi)
            if excess(mu_mid) > 0.0:
                mu_lo = mu_mid
            else:
                mu_hi = mu_mid
            if mu_hi - mu_lo <= mu_tol * mu_hi:
                converged = True
                break
        if not converged:
            raise ConvergenceError(
                "bandwidth-multiplier search did not converge in "
                f"{MU_SEARCH_MAX_ITERATIONS} iterations: the bracket "
                f"[{mu_lo:.6g}, {mu_hi:.6g}] is still wider than "
                f"tol={mu_tol:.3g}"
            )
        return _polish_mu(mu_hi, j_c, rmin_c, budget)
    return 0.0, None


def _in_library_namespace(function: types.FunctionType) -> types.FunctionType:
    """``function`` with its free names looked up in :mod:`repro.core.subproblem2`."""
    bound = types.FunctionType(function.__code__, vars(subproblem2), function.__name__)
    bound.__kwdefaults__ = function.__kwdefaults__
    bound.__doc__ = function.__doc__
    return bound


#: The oracle as it ran in the library (see the module docstring).
mu_search_scalar = _in_library_namespace(_mu_search_scalar)


def mu_search_scalar_rows(
    j_rows: np.ndarray,
    rmin_rows: np.ndarray,
    budgets: np.ndarray,
    *,
    mu_tol: float,
    hints: Sequence[MuHint | None] | None = None,
) -> tuple[np.ndarray, np.ndarray, list[str | None]]:
    """The oracle lane by lane, with the rows search's signature and returns.

    ``(mu, x_rows, errors)`` as :func:`~repro.core.subproblem2._mu_search_vector_rows`
    returns them: a lane's :class:`ConvergenceError` becomes its message, and
    a lane with ``mu == 0`` keeps a row of ones.  Hints are ignored.
    """
    num_lanes, n_c = j_rows.shape
    mus, x_rows = np.zeros(num_lanes), np.ones((num_lanes, n_c))
    errors: list[str | None] = [None] * num_lanes
    for k in range(num_lanes):
        try:
            mu, x = mu_search_scalar(j_rows[k], rmin_rows[k], float(budgets[k]), mu_tol=mu_tol)
        except ConvergenceError as exc:
            errors[k] = str(exc)
            continue
        mus[k] = mu
        if x is not None:
            x_rows[k] = x
    return mus, x_rows, errors


@contextlib.contextmanager
def scalar_oracle() -> Iterator[None]:
    """Route every multiplier search of the library through the oracle.

    Inside the block, one-lane searches run :func:`mu_search_scalar` and
    lockstep groups :func:`mu_search_scalar_rows`, wherever they are reached
    from (``solve_sp2_v2``, Algorithm 1 and 2, sweeps, FL runs).  A context
    manager rather than a fixture, so a Hypothesis ``@given`` body can use it.
    """
    saved = subproblem2._mu_search_vector, subproblem2._mu_search_vector_rows
    subproblem2._mu_search_vector = mu_search_scalar
    subproblem2._mu_search_vector_rows = mu_search_scalar_rows
    try:
        yield
    finally:
        subproblem2._mu_search_vector, subproblem2._mu_search_vector_rows = saved


#: The two multiplier searches a test can run a solve under, by name: the
#: library's own, and every search routed through the oracle.
SEARCHES = {"vector": contextlib.nullcontext, "scalar": scalar_oracle}
