"""Reference bisections, frozen: the vector one and the scalar oracle.

The library's :func:`repro.solvers.bisection.bisect_vector` reads
``sign(f(lo))`` once and updates its bracket in place.  This copy keeps the
original formulation — ``f_lo`` carried and re-signed every iteration, fresh
``np.where`` arrays for the bracket — so the tests can hold the lean version
to bit-identical outputs and identical errors.

:func:`bisect_scalar` is the probe-at-a-time bisection the library no
longer needs, kept as the per-lane oracle of the vector bisection's
differential tests.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.exceptions import ConvergenceError, SolverError


def bisect_vector_reference(
    func: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    *,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> np.ndarray:
    """Element-wise bisection, one independent monotone equation per lane."""
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
    mid = 0.5 * (lo + hi)
    active = hi - lo > tol * np.maximum(1.0, np.abs(mid))
    for _ in range(max_iter):
        if not np.any(active):
            return mid
        f_mid = np.asarray(func(mid), dtype=float)
        go_left = active & (np.sign(f_mid) == np.sign(f_lo))
        go_right = active & ~go_left
        lo = np.where(go_left, mid, lo)
        f_lo = np.where(go_left, f_mid, f_lo)
        hi = np.where(go_right, mid, hi)
        new_mid = 0.5 * (lo + hi)
        mid = np.where(active, new_mid, mid)
        active &= hi - lo > tol * np.maximum(1.0, np.abs(mid))
    if not np.any(active):
        return mid
    idx = int(np.flatnonzero(active)[0])
    raise ConvergenceError(
        f"bisect_vector did not converge in {max_iter} iterations: interval "
        f"{idx} is still [{lo[idx]:.6g}, {hi[idx]:.6g}] against tol={tol:.3g}"
    )


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
