"""Damped Newton-like updates for the sum-of-ratios outer loop (Algorithm 1).

Jong's modified-Newton method updates the auxiliary variables
``alpha = (beta, nu)`` of the parametric subtractive problem by the damped
step (29)-(31) of the paper:

    sigma   = -J(alpha)^-1 phi(alpha)
    alpha'  = alpha + xi^j sigma,

where ``j`` is the smallest non-negative integer with

    |phi(alpha + xi^j sigma)| <= (1 - eps * xi^j) |phi(alpha)|.

Because the Jacobian of ``phi`` is diagonal (``diag(G_n)`` for both halves),
the full Newton step simply resets ``beta_n`` to ``p_n d_n / G_n`` and
``nu_n`` to ``w1 R_g / G_n``; the damping interpolates between the current
value and that target.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "DampedNewtonRows",
    "damped_newton_step_rows",
    "row_norms",
]


@dataclass(frozen=True)
class DampedNewtonRows:
    """Outcome of one damped update per row: the updated ``alpha``, its
    residual norm, the backtrack exponent ``j`` and step ``xi**j`` taken,
    and whether the step met the decrease condition (29)."""

    alpha: np.ndarray
    residual_norm: np.ndarray
    step_exponent: np.ndarray
    step_size: np.ndarray
    accepted: np.ndarray


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of a 2-D stack, bit-identical per row to
    ``np.linalg.norm(row)``: one BLAS dot per row, then ``sqrt``
    (``np.linalg.norm(rows, axis=1)`` sums the squares in another order)."""
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None]).reshape(-1))


def _check_damping(xi: float, eps: float) -> None:
    if not 0.0 < xi < 1.0:
        raise ValueError(f"xi must be in (0, 1), got {xi}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")


@functools.lru_cache(maxsize=None)
def _powers(xi: float, max_backtracks: int) -> tuple[float, ...]:
    """``xi**j`` for ``j = 0..max_backtracks`` by Python's float power."""
    return tuple(xi**j for j in range(max_backtracks + 1))


def damped_newton_step_rows(
    alpha: np.ndarray,
    residual: Callable[[np.ndarray, np.ndarray | slice], np.ndarray],
    newton_direction: np.ndarray,
    *,
    base_norm: np.ndarray,
    xi: np.ndarray,
    eps: np.ndarray,
    max_backtracks: int = 30,
) -> DampedNewtonRows:
    """One damped Newton update (29) for every row of an ``alpha`` stack.

    Each row runs its own line search with its own backtrack exponent.
    ``residual(candidates, rows)`` returns ``phi`` of the candidate rows,
    ``rows`` selecting them (an index array, or ``slice(None)`` for all);
    ``base_norm`` is ``|phi(alpha)|`` per row, which the caller already
    holds; ``xi`` and ``eps`` are per-row damping constants.  Every row gets
    the bits of a one-row call: the step ``xi**j`` is Python's power, norms
    are :func:`row_norms`, and a row whose line search runs out of
    backtracks takes the smallest step with ``accepted`` false.
    """
    alpha = np.asarray(alpha, dtype=float)
    direction = np.asarray(newton_direction, dtype=float)
    xi_list = np.asarray(xi, dtype=float).tolist()
    eps = np.asarray(eps, dtype=float)
    for pair in set(zip(xi_list, eps.tolist())):
        _check_damping(*pair)
    steps = np.array([_powers(x, max_backtracks) for x in xi_list])
    lanes = alpha.shape[0]

    out: DampedNewtonRows | None = None
    rows: np.ndarray | slice = slice(None)
    if not base_norm.all():
        # A zero residual is already a root: the row keeps alpha.
        out = _unmoved(alpha)
        rows = np.flatnonzero(base_norm)
        alpha, direction, base_norm = alpha[rows], direction[rows], base_norm[rows]
        eps, steps = eps[rows], steps[rows]
    # A bounded line search *is* the fallback: exhaustion takes the smallest
    # step and reports it via accepted=False, which the caller's damping
    # logic (condition (29)) handles — not a silent convergence miss.
    for j in range(max_backtracks + 1):  # repro-lint: disable=RL002 -- exhaustion is recorded in DampedNewtonRows.accepted
        if not alpha.shape[0]:
            break
        step = steps[:, j]
        candidate = alpha + step[:, None] * direction
        norm = row_norms(residual(candidate, rows))
        done = accepted = norm <= (1.0 - eps * step) * base_norm
        if j == max_backtracks:
            # No step satisfied the decrease condition; take the smallest
            # step anyway so the outer loop can still make progress.
            done = np.ones_like(accepted)
        if out is None:
            if done.all():
                # Every row settled in the same pass (the common case).
                return DampedNewtonRows(candidate, norm, np.full(lanes, j), step, accepted)
            out = _unmoved(alpha)
            rows = np.arange(lanes)
        taken = rows[done]
        out.alpha[taken], out.residual_norm[taken] = candidate[done], norm[done]
        out.step_exponent[taken], out.step_size[taken] = j, step[done]
        out.accepted[taken] = accepted[done]
        keep = ~done
        rows, alpha, direction = rows[keep], alpha[keep], direction[keep]
        base_norm, eps, steps = base_norm[keep], eps[keep], steps[keep]
    assert out is not None
    return out


def _unmoved(alpha: np.ndarray) -> DampedNewtonRows:
    """Rows that keep ``alpha``: a zero-residual row's update."""
    lanes = alpha.shape[0]
    return DampedNewtonRows(
        alpha.copy(),
        np.zeros(lanes),
        np.zeros(lanes, dtype=int),
        np.ones(lanes),
        np.ones(lanes, dtype=bool),
    )
