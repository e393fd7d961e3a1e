"""Golden-section minimisation of one-dimensional convex functions.

Three flavours are provided:

* :func:`golden_section_scalar` minimises a scalar convex function on an
  interval (Subproblem 1's search over the round deadline ``T`` for a
  lone lane).
* :func:`golden_section_vector` minimises many independent one-dimensional
  convex functions simultaneously, each on its own interval, by evaluating a
  vectorised objective (used by the dual-decomposition fallback solver for
  SP2_v2, one sub-minimisation per device, and by Scheme 1's split search).
* :func:`golden_section_rows` is the lockstep batch twin of
  :func:`golden_section_scalar`: one independent minimisation per lane,
  replicating the scalar variant's bracket updates float-for-float so each
  lane's result is bitwise equal to a stand-alone scalar call (Subproblem
  1's deadline search over a stack of two or more lanes).
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from ..exceptions import ConvergenceError

__all__ = [
    "golden_section_scalar",
    "golden_section_vector",
    "golden_section_rows",
]

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0  # 1 / golden ratio ~ 0.618
_INV_PHI_SQ = (3.0 - np.sqrt(5.0)) / 2.0  # 1 / golden ratio squared ~ 0.382


def golden_section_scalar(
    func: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> Tuple[float, float]:
    """Minimise a unimodal (convex) scalar function on ``[lo, hi]``.

    Returns ``(x_min, f(x_min))``.
    """
    if hi < lo:
        lo, hi = hi, lo
    if hi == lo:
        return lo, func(lo)
    a, b = lo, hi
    h = b - a
    c = a + _INV_PHI_SQ * h
    d = a + _INV_PHI * h
    fc = func(c)
    fd = func(d)
    for _ in range(max_iter):
        if h <= tol * max(1.0, abs(a) + abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INV_PHI_SQ * h
            fc = func(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INV_PHI * h
            fd = func(d)
    else:
        # The interval check sits at the top of the loop, so re-test the
        # final width before declaring exhaustion a failure.
        if h > tol * max(1.0, abs(a) + abs(b)):
            raise ConvergenceError(
                f"golden_section_scalar did not converge in {max_iter} "
                f"iterations: interval width {h:.6g} > tol={tol:.3g}"
            )
    if fc < fd:
        return c, fc
    return d, fd


def golden_section_vector(
    func: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    *,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> Tuple[np.ndarray, np.ndarray]:
    """Minimise independent unimodal functions, one per array element.

    ``func`` maps an array of candidate points to the array of objective
    values (element ``i`` only depends on candidate ``i``).  Returns arrays
    ``(x_min, f(x_min))``.
    """
    a = np.array(lo, dtype=float, copy=True)
    b = np.array(hi, dtype=float, copy=True)
    if a.shape != b.shape:
        raise ValueError("lo and hi must have the same shape")
    swap = b < a
    a[swap], b[swap] = b[swap], a[swap]

    h = b - a
    c = a + _INV_PHI_SQ * h
    d = a + _INV_PHI * h
    fc = np.asarray(func(c), dtype=float)
    fd = np.asarray(func(d), dtype=float)
    for _ in range(max_iter):
        if np.all(h <= tol * np.maximum(1.0, np.abs(a) + np.abs(b))):
            break
        left = fc < fd
        # Shrink towards the left on ``left`` entries, to the right elsewhere.
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        h = b - a
        new_c = a + _INV_PHI_SQ * h
        new_d = a + _INV_PHI * h
        # Where we moved left the old c becomes the new d; where we moved
        # right the old d becomes the new c.  Re-evaluating both probe points
        # keeps the vectorised bookkeeping simple and still converges at the
        # golden-section rate.
        c, d = new_c, new_d
        fc = np.asarray(func(c), dtype=float)
        fd = np.asarray(func(d), dtype=float)
    else:
        # Same top-of-loop check as the scalar variant: re-test on exit.
        if not np.all(h <= tol * np.maximum(1.0, np.abs(a) + np.abs(b))):
            raise ConvergenceError(
                f"golden_section_vector did not converge in {max_iter} "
                f"iterations: max interval width {float(np.max(h)):.6g} > "
                f"tol={tol:.3g}"
            )
    x = np.where(fc < fd, c, d)
    fx = np.where(fc < fd, fc, fd)
    return x, fx


def golden_section_rows(
    func: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    *,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> Tuple[np.ndarray, np.ndarray]:
    """Lockstep batch of independent :func:`golden_section_scalar` solves.

    ``func(x)`` evaluates every lane's objective at that lane's scalar
    candidate ``x[k]`` and returns the values in lane order; each lane's
    value may depend only on that lane's candidate.  ``lo``/``hi`` are 1-D
    arrays of per-lane interval endpoints.  Returns per-lane arrays
    ``(x_min, f(x_min))``.

    Unlike :func:`golden_section_vector` (which re-evaluates both probe
    points every iteration), this variant replicates the scalar algorithm's
    bookkeeping exactly: per lane it keeps the reusable probe and evaluates
    exactly one new candidate per iteration, applies the same top-of-loop
    width test, and freezes converged lanes so a neighbour's extra
    iterations cannot perturb them.  The state stays full-width: masks pick
    which lanes move, and frozen lanes are re-evaluated at a probe they
    already hold and the value is dropped, which is cheaper than compacting
    the lanes every iteration.  Lane ``k``'s result is bitwise equal to
    ``golden_section_scalar(func_k, lo[k], hi[k])`` — the property the
    batched allocator path's per-drop parity guarantee rests on.
    """
    a = np.array(lo, dtype=float, copy=True)
    b = np.array(hi, dtype=float, copy=True)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("lo and hi must be 1-D arrays of the same shape")
    swap = b < a
    a[swap], b[swap] = b[swap], a[swap]

    # Both probes of a degenerate lane sit on its point, so the first
    # evaluation is the scalar variant's ``func(lo)``; the lane is never
    # active and keeps them to the end.
    degenerate = b == a
    h = b - a
    c = np.where(degenerate, a, a + _INV_PHI_SQ * h)
    d = np.where(degenerate, a, a + _INV_PHI * h)
    fc = np.asarray(func(c), dtype=float)
    fd = np.asarray(func(d), dtype=float)
    active = ~degenerate
    for _ in range(max_iter):
        active &= ~(h <= tol * np.maximum(1.0, np.abs(a) + np.abs(b)))
        if not active.any():
            break
        lower = fc < fd
        left = active & lower
        right = active & ~lower
        # Shrink left: the old c becomes the new d and keeps its value.
        # Shrink right: the old d becomes the new c and keeps its value.
        b = np.where(left, d, b)
        a = np.where(right, c, a)
        d, c = np.where(left, c, d), np.where(right, d, c)
        fd, fc = np.where(left, fc, fd), np.where(right, fd, fc)
        h = b - a
        c = np.where(left, a + _INV_PHI_SQ * h, c)
        d = np.where(right, a + _INV_PHI * h, d)
        # One call evaluates every active lane's one fresh probe; a frozen
        # lane's value is dropped.
        values = np.asarray(func(np.where(left, c, d)), dtype=float)
        fc = np.where(left, values, fc)
        fd = np.where(right, values, fd)
    else:
        # Same top-of-loop semantics as the scalar variant: re-test the
        # final widths before declaring exhaustion a failure.
        wide = active & (h > tol * np.maximum(1.0, np.abs(a) + np.abs(b)))
        if wide.any():
            raise ConvergenceError(
                f"golden_section_rows did not converge in {max_iter} "
                f"iterations for {int(np.sum(wide))} lane(s): max interval "
                f"width {float(np.max(h[wide])):.6g} > tol={tol:.3g}"
            )
    pick_c = fc < fd
    return np.where(pick_c, c, d), np.where(pick_c, fc, fd)
