"""Linear program with box constraints and a single budget constraint.

Problem (A.6) of the paper — after the Lambert-W step has fixed the SNR of
every device whose rate constraint is inactive — reduces to

    minimize    sum_n  c_n * x_n
    subject to  lo_n <= x_n <= hi_n            (from the power box)
                sum_n x_n <= budget            (remaining bandwidth)

This is solved exactly by a greedy argument: start every variable at its
lower bound, then spend the remaining budget on the variables with the most
negative cost coefficient first.
"""

from __future__ import annotations

import numpy as np

__all__ = ["solve_box_budget_lp_rows"]


def solve_box_budget_lp_rows(
    costs: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    budgets: np.ndarray,
    *,
    atol: float = 1e-9,
) -> tuple[np.ndarray, list[str | None]]:
    """Solve ``min c.x  s.t.  lower <= x <= upper,  sum(x) <= budget`` for
    every row of a stack.

    Row ``i`` of the ``(lanes, m)`` inputs is the LP ``min c_i.x  s.t.
    lower_i <= x <= upper_i,  sum(x) <= budgets[i]``; a single LP is a
    one-row stack.  Each row gets the bits of the sequential greedy: in its
    own ``argsort`` order, each variable with a negative cost takes
    ``min(room, remaining)`` and ``remaining -= grant``, until a cost is
    non-negative or ``remaining <= atol``.  While
    every grant is a whole room, the remaining budget before each rank is
    one left-to-right ``np.subtract.accumulate`` of the rooms — the same
    subtractions in the same order — and the first rank whose room exceeds
    it spends the rest, after which ``0 <= atol`` stops the row.  So the
    whole stack is one pass of array operations, with no loop over ranks.

    Returns ``(x, errors)``: ``errors[i]`` is the infeasibility message of
    row ``i`` (whose ``x`` row is then meaningless) or ``None``.
    """
    c = np.asarray(costs, dtype=float)
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    budgets = np.asarray(budgets, dtype=float)
    if c.ndim != 2 or not (c.shape == lo.shape == hi.shape):
        raise ValueError("costs, lower and upper must be stacks of identical shapes")
    if atol < 0.0:
        raise ValueError(f"atol must be non-negative, got {atol}")
    lanes, m = c.shape
    errors: list[str | None] = [None] * lanes
    crossed = np.any(lo > hi + atol, axis=1)
    hi = np.maximum(hi, lo)
    lo_sum = lo.sum(axis=1)
    over = lo_sum > budgets + atol
    for i in np.flatnonzero(crossed | over).tolist():
        errors[i] = (
            "box LP has lower > upper for some variable"
            if crossed[i]
            else f"box LP lower bounds sum to {lo_sum[i]:.6g} > budget {budgets[i]:.6g}"
        )

    x = np.empty_like(lo)
    remaining = budgets - lo_sum
    # Only variables with negative cost want more than their lower bound.
    order = np.argsort(c, axis=1)
    row = np.arange(lanes)[:, None]
    c_s, lo_s = c[row, order], lo[row, order]
    room = hi[row, order] - lo_s
    left = np.subtract.accumulate(
        np.concatenate([remaining[:, None], room], axis=1), axis=1
    )[:, :m]
    capped = left < room
    after_cap = np.concatenate(
        [np.zeros((lanes, 1), dtype=bool), np.logical_or.accumulate(capped, axis=1)[:, :-1]],
        axis=1,
    )[:, :m]
    granted = np.logical_and.accumulate(
        ~(c_s >= 0.0) & ~(left <= atol) & ~after_cap, axis=1
    )
    x[row, order] = np.where(granted, lo_s + np.where(capped, left, room), lo_s)
    return x, errors
