"""Vectorised bisection root finding.

:func:`bisect_vector` finds the roots of many independent monotone
equations at once, one bracket per equation.  Its caller is
:func:`~repro.wireless.rate.min_bandwidth_for_rate` (the smallest bandwidth
that meets each device's rate at a given power), whose answers are this
bisection's bits: it replays the midpoints per device from certified
brackets and runs the bisection only for a call with a device that has
none (a target at or below the rate at the bracket floor, a budget past the
certified limit, a failed Newton).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..exceptions import ConvergenceError, SolverError

__all__ = ["bisect_vector"]


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
