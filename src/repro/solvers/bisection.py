"""Bisection root finding, scalar and vectorised.

The solvers in :mod:`repro.core` repeatedly need the root of a monotone
scalar function (e.g. the bandwidth dual variable ``mu`` in Appendix B, or
the simplex dual variable ``eta`` in Subproblem 1's water-filling).  The
vectorised variant finds one root per device simultaneously, which keeps
Algorithm 2 fast for the paper's 50-80 device sweeps.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..exceptions import ConvergenceError, SolverError

__all__ = ["bisect_scalar", "bisect_vector"]


def bisect_scalar(
    func: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Find a root of a monotone scalar function on ``[lo, hi]`` by bisection.

    The function values at the endpoints must have opposite signs (a zero at
    an endpoint is also accepted).  The returned point ``x`` satisfies
    ``hi - lo <= tol * max(1, |x|)`` or ``func(x) == 0``; exhausting
    ``max_iter`` without meeting the tolerance raises
    :class:`~repro.exceptions.ConvergenceError` instead of silently returning
    the midpoint of a still-too-wide interval.
    """
    f_lo = func(lo)
    f_hi = func(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if np.sign(f_lo) == np.sign(f_hi):
        raise SolverError(
            "bisect_scalar requires a sign change: "
            f"f({lo})={f_lo:.3g}, f({hi})={f_hi:.3g}"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = func(mid)
        if f_mid == 0.0:
            return mid
        if np.sign(f_mid) == np.sign(f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
        if hi - lo <= tol * max(1.0, abs(mid)):
            return 0.5 * (lo + hi)
    raise ConvergenceError(
        f"bisect_scalar did not converge in {max_iter} iterations: the "
        f"bracket [{lo:.6g}, {hi:.6g}] is still wider than tol={tol:.3g}"
    )


def bisect_vector(
    func: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    *,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> np.ndarray:
    """Element-wise bisection for a vector of independent monotone equations.

    ``func`` maps an array of candidate points (one per equation) to the
    array of residuals.  Each ``[lo[i], hi[i]]`` interval must bracket a sign
    change of residual ``i``.  Lanes converge independently: a lane whose
    bracket meets its tolerance is frozen at its midpoint (active-mask early
    exit), so the iteration count is set by the slowest lane while converged
    lanes stop being refined.  Exhausting ``max_iter`` with any lane still
    wider than its tolerance raises
    :class:`~repro.exceptions.ConvergenceError`.
    """
    lo = np.array(lo, dtype=float, copy=True)
    hi = np.array(hi, dtype=float, copy=True)
    if lo.shape != hi.shape:
        raise ValueError("lo and hi must have the same shape")
    f_lo = np.asarray(func(lo), dtype=float)
    f_hi = np.asarray(func(hi), dtype=float)
    bad = (np.sign(f_lo) == np.sign(f_hi)) & (f_lo != 0.0) & (f_hi != 0.0)
    if np.any(bad):
        idx = int(np.flatnonzero(bad)[0])
        raise SolverError(
            "bisect_vector requires a sign change in every interval; "
            f"index {idx} has f(lo)={f_lo[idx]:.3g}, f(hi)={f_hi[idx]:.3g}"
        )
    # Only residual *signs* steer a bisection, and ``sign(f_lo)`` never
    # changes (``lo`` moves only onto a point of the same sign), so it is
    # read once; the bracket is then updated in place.
    sign_lo = np.sign(f_lo)
    mid = 0.5 * (lo + hi)
    active = hi - lo > tol * np.maximum(1.0, np.abs(mid))
    for _ in range(max_iter):
        if not np.any(active):
            return mid
        go_left = np.sign(np.asarray(func(mid), dtype=float)) == sign_lo
        go_left &= active
        np.copyto(lo, mid, where=go_left)
        np.copyto(hi, mid, where=active & ~go_left)
        # Converged lanes keep their last midpoint; only active lanes move.
        np.copyto(mid, 0.5 * (lo + hi), where=active)
        active &= hi - lo > tol * np.maximum(1.0, np.abs(mid))
    if not np.any(active):
        return mid
    idx = int(np.flatnonzero(active)[0])
    raise ConvergenceError(
        f"bisect_vector did not converge in {max_iter} iterations: interval "
        f"{idx} is still [{lo[idx]:.6g}, {hi[idx]:.6g}] against tol={tol:.3g}"
    )
