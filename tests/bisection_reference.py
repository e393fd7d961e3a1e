"""Reference ``bisect_vector``: the straightforward implementation, frozen.

The library's :func:`repro.solvers.bisection.bisect_vector` reads
``sign(f(lo))`` once and updates its bracket in place.  This copy keeps the
original formulation — ``f_lo`` carried and re-signed every iteration, fresh
``np.where`` arrays for the bracket — so the tests can hold the lean version
to bit-identical outputs and identical errors.
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
