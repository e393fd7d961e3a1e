"""Reference lockstep multiplier search: the lane-at-a-time decision loop.

:func:`repro.core.subproblem2._mu_search_vector_rows` updates each phase's
lanes with masked array operations.  This copy makes the same decisions one
lane at a time — one Python pass over the running lanes per round, every
bracket and Halley decision made on that lane's scalars — so the tests can
hold the masked version to the same bits, pre-polish iterates and error
strings included.  A lane with a hint tries the shared warm start
(``_warm_start``) on its own before the cold bracketing call.
"""

from __future__ import annotations

import numpy as np

from repro.core import subproblem2
from repro.core.subproblem2 import (
    _LN2,
    _excess_derivatives,
    _halley_next,
    _halley_start,
    _predict_x,
    _warm_start,
)
from repro.solvers.lambert import _lambert_solve_seeded, lambert_solve_rows, solve_x_log_x


def rooted_problem(j, rmin, offset: float) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Search inputs whose multiplier root sits at ``median(j) * 4**offset``.

    Returns ``(j, rmin, budget, c_min)``: the budget is the bandwidth demand
    at that root, and ``c_min`` the smallest ``mu / j`` there (how far the
    roots ``x`` stay from 1, where the excess loses its conditioning).
    """
    j, rmin = np.asarray(j, dtype=float), np.asarray(rmin, dtype=float)
    root = float(np.median(j)) * 4.0**offset
    x = solve_x_log_x(root / j)
    budget = float((rmin * _LN2 / np.log(x)).sum())
    return j, rmin, budget, float(np.min(root / j))


def mu_search_rows_reference(
    j_rows: np.ndarray,
    rmin_rows: np.ndarray,
    budgets: np.ndarray,
    *,
    mu_tol: float,
    hints=None,
) -> tuple[np.ndarray, np.ndarray, list[str | None]]:
    """Same contract as ``_mu_search_vector_rows``; reads its caps and polish
    from :mod:`repro.core.subproblem2` at call time, so a test can patch them."""
    max_expansions = subproblem2.MU_BRACKET_MAX_EXPANSIONS
    max_contractions = subproblem2.MU_BRACKET_MAX_CONTRACTIONS
    max_iterations = subproblem2.MU_SEARCH_MAX_ITERATIONS
    first = min(subproblem2._FIRST_CALL_EXPANSIONS, max_expansions)
    num_lanes, n_c = j_rows.shape
    lead = rmin_rows * _LN2

    def excess_of(i, x):
        log_x = np.maximum(np.log(x), 1e-300)
        terms = lead[i] / log_x
        return terms.sum(axis=-1) - budgets[i], log_x, terms

    SCAN_UP, SCAN_DOWN, HALLEY, DONE, FAILED = range(5)
    phase = np.full(num_lanes, DONE, dtype=np.int64)
    mu_lo = np.zeros(num_lanes)
    f_lo = np.zeros(num_lanes)
    mu_hi = np.zeros(num_lanes)
    f_hi = np.zeros(num_lanes)
    cand = np.zeros(num_lanes)
    mu_k = np.zeros(num_lanes)
    counts = np.zeros(num_lanes, dtype=np.int64)
    x_open = np.ones((num_lanes, n_c))
    x_seed = np.ones((num_lanes, n_c))
    mu_out = np.zeros(num_lanes)
    slack = np.zeros(num_lanes, dtype=bool)
    errors: list[str | None] = [None] * num_lanes

    def fail_up(i):
        phase[i] = FAILED
        errors[i] = (
            "bandwidth multiplier could not be bracketed from "
            f"above in {max_expansions} expansions "
            f"(excess {f_lo[i]:.3g} at mu {mu_lo[i]:.3g})"
        )

    def enter_halley(i, x_lo, x_hi):
        if mu_hi[i] - mu_lo[i] <= mu_tol * mu_hi[i] or f_lo[i] == 0.0 or f_hi[i] == 0.0:
            phase[i] = DONE
            mu_out[i] = mu_hi[i]
        else:
            phase[i] = HALLEY
            start, seed = _halley_start(
                mu_lo[i], f_lo[i], x_lo, mu_hi[i], f_hi[i], x_hi, budgets[i]
            )
            mu_k[i] = start
            x_seed[i] = seed
            counts[i] = 0

    # The warm start from a lane's hint, else the bracketing call: mu_0 and
    # its first ×4 up-candidates, per lane.
    for i in range(num_lanes):
        if hints is not None:
            (warm,), low, high = _warm_start(
                [hints[i]], j_rows[i : i + 1], lead[i : i + 1], budgets[i : i + 1], mu_tol
            )
            if warm:
                mu_lo[i], f_lo[i] = low[0][0], low[1][0]
                mu_hi[i], f_hi[i] = high[0][0], high[1][0]
                enter_halley(i, low[2][0], high[2][0])
                continue
        mu_0 = np.median(j_rows[i])
        grid = mu_0 * 4.0 ** np.arange(first + 1)
        xs = lambert_solve_rows(grid[:, None] / j_rows[i])
        excesses, _, _ = excess_of(i, xs)
        if excesses[0] > 0.0:
            hits = np.flatnonzero(excesses[1:] <= 0.0)
            if hits.size:
                k = int(hits[0]) + 1
                mu_lo[i], f_lo[i] = grid[k - 1], excesses[k - 1]
                mu_hi[i], f_hi[i] = grid[k], excesses[k]
                enter_halley(i, xs[k - 1], xs[k])
            else:
                phase[i] = SCAN_UP
                mu_lo[i], f_lo[i] = grid[-1], excesses[-1]
                x_open[i] = xs[-1]
                counts[i] = first
                if counts[i] >= max_expansions:
                    fail_up(i)
                else:
                    cand[i] = grid[-1] * 4.0
        elif excesses[0] < 0.0:
            phase[i] = SCAN_DOWN
            mu_hi[i], f_hi[i] = mu_0, excesses[0]
            x_open[i] = xs[0]
            cand[i] = mu_0 * 0.25
        else:
            phase[i] = DONE
            mu_out[i] = mu_0

    while True:
        running = np.flatnonzero(phase <= HALLEY)
        if running.size == 0:
            break
        for lane in running:
            i = int(lane)
            if phase[i] == HALLEY:
                x = _lambert_solve_seeded(
                    mu_k[i : i + 1, None] / j_rows[i : i + 1], x_seed[i : i + 1]
                )
            else:
                x = lambert_solve_rows(cand[i : i + 1, None] / j_rows[i : i + 1])
            excess, log_x, terms = excess_of(i, x[0])
            if phase[i] == SCAN_UP:
                if excess <= 0.0:
                    mu_hi[i], f_hi[i] = cand[i], excess
                    enter_halley(i, x_open[i], x[0])
                else:
                    mu_lo[i], f_lo[i] = cand[i], excess
                    x_open[i] = x[0]
                    counts[i] += 1
                    if counts[i] >= max_expansions:
                        fail_up(i)
                    else:
                        cand[i] = cand[i] * 4.0
            elif phase[i] == SCAN_DOWN:
                if excess >= 0.0:
                    mu_lo[i], f_lo[i] = cand[i], excess
                    if mu_lo[i] == 0.0:
                        phase[i] = DONE
                        slack[i] = True
                    else:
                        enter_halley(i, x[0], x_open[i])
                else:
                    mu_hi[i], f_hi[i] = cand[i], excess
                    x_open[i] = x[0]
                    counts[i] += 1
                    if counts[i] >= max_contractions:
                        phase[i] = FAILED
                        errors[i] = (
                            "bandwidth multiplier could not be bracketed from "
                            f"below in {max_contractions} "
                            f"contractions (excess {f_hi[i]:.3g} at mu "
                            f"{mu_hi[i]:.3g})"
                        )
                    else:
                        cand[i] = cand[i] * 0.25
            else:
                if excess > 0.0:
                    mu_lo[i], f_lo[i] = mu_k[i], excess
                else:
                    mu_hi[i], f_hi[i] = mu_k[i], excess
                if mu_hi[i] - mu_lo[i] <= mu_tol * mu_hi[i] or excess == 0.0:
                    phase[i] = DONE
                    mu_out[i] = mu_hi[i]
                    continue
                counts[i] += 1
                if counts[i] >= max_iterations:
                    phase[i] = FAILED
                    errors[i] = (
                        "bandwidth-multiplier search did not converge in "
                        f"{max_iterations} iterations: the bracket "
                        f"[{mu_lo[i]:.6g}, {mu_hi[i]:.6g}] is still wider "
                        f"than tol={mu_tol:.3g}"
                    )
                    continue
                slope, curvature = _excess_derivatives(x[0], log_x, terms, j_rows[i])
                mu_next = float(
                    _halley_next(mu_k[i], excess, slope, curvature, mu_lo[i], mu_hi[i])
                )
                x_seed[i] = _predict_x(x[0], log_x, j_rows[i], mu_next - mu_k[i])
                mu_k[i] = mu_next

    mu_final = np.zeros(num_lanes)
    x_rows = np.ones((num_lanes, n_c))
    to_polish = np.flatnonzero((phase == DONE) & ~slack)
    if to_polish.size:
        mu_p, x_p = subproblem2._polish_mu_rows(
            mu_out[to_polish],
            j_rows[to_polish],
            rmin_rows[to_polish],
            budgets[to_polish],
        )
        mu_final[to_polish] = mu_p
        x_rows[to_polish] = x_p
    return mu_final, x_rows, errors
