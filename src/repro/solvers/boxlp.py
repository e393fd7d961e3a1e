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

from dataclasses import dataclass

import numpy as np

from ..exceptions import InfeasibleProblemError

__all__ = ["BoxBudgetLPResult", "solve_box_budget_lp", "solve_box_budget_lp_rows"]


@dataclass(frozen=True)
class BoxBudgetLPResult:
    """Solution of a box-constrained budget LP."""

    x: np.ndarray
    objective: float
    budget_used: float
    budget_slack: float


def solve_box_budget_lp(
    costs: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    budget: float,
    *,
    atol: float = 1e-9,
) -> BoxBudgetLPResult:
    """Solve ``min c.x  s.t.  lower <= x <= upper,  sum(x) <= budget``.

    A one-row :func:`solve_box_budget_lp_rows` call over 1-D inputs.
    Raises :class:`InfeasibleProblemError` when ``sum(lower) > budget`` (the
    lower bounds alone exceed the budget) or any ``lower > upper``.
    """
    c = np.asarray(costs, dtype=float)
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    if not (c.shape == lo.shape == hi.shape):
        raise ValueError("costs, lower and upper must have identical shapes")
    rows, errors = solve_box_budget_lp_rows(
        c[None], lo[None], hi[None], np.array([budget], dtype=float), atol=atol
    )
    if errors[0] is not None:
        raise InfeasibleProblemError(errors[0])
    x = rows[0]
    used = float(x.sum())
    return BoxBudgetLPResult(
        x=x,
        objective=float(c @ x),
        budget_used=used,
        budget_slack=float(budget - used),
    )


def solve_box_budget_lp_rows(
    costs: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    budgets: np.ndarray,
    *,
    atol: float = 1e-9,
) -> tuple[np.ndarray, list[str | None]]:
    """The greedy of :func:`solve_box_budget_lp` for every row of a stack.

    Row ``i`` of the ``(lanes, m)`` inputs is the LP ``min c_i.x  s.t.
    lower_i <= x <= upper_i,  sum(x) <= budgets[i]``, and gets the bits of
    the sequential greedy: in its own ``argsort`` order, each variable with
    a negative cost takes ``min(room, remaining)`` and ``remaining -=
    grant``, until a cost is non-negative or ``remaining <= atol``.  While
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
