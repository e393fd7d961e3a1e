"""Reference lockstep multiplier search: the lane-at-a-time decision loop.

:func:`repro.core.subproblem2._mu_search_vector_rows` updates each phase's
lanes with masked array operations.  This copy keeps the original form — one
Python pass over the running lanes per round, every bracket and Newton
decision made on that lane's scalars — so the tests can hold the masked
version to the same bits, pre-polish iterates and error strings included.
"""

from __future__ import annotations

import numpy as np

from repro.core import subproblem2
from repro.core.subproblem2 import _LN2, _newton_start
from repro.solvers.lambert import lambert_solve_rows


def mu_search_rows_reference(
    j_rows: np.ndarray,
    rmin_rows: np.ndarray,
    budgets: np.ndarray,
    *,
    mu_tol: float,
) -> tuple[np.ndarray, np.ndarray, list[str | None]]:
    """Same contract as ``_mu_search_vector_rows``; reads its caps and polish
    from :mod:`repro.core.subproblem2` at call time, so a test can patch them."""
    max_expansions = subproblem2.MU_BRACKET_MAX_EXPANSIONS
    max_contractions = subproblem2.MU_BRACKET_MAX_CONTRACTIONS
    max_iterations = subproblem2.MU_SEARCH_MAX_ITERATIONS
    num_lanes, n_c = j_rows.shape
    lead = rmin_rows * _LN2

    def evaluate(lanes, mu_vals, seeds):
        x = lambert_solve_rows(mu_vals[:, None] / j_rows[lanes], x0=seeds)
        log_x = np.maximum(np.log(x), 1e-300)
        excess = (lead[lanes] / log_x).sum(axis=1) - budgets[lanes]
        slope = -(lead[lanes] / (j_rows[lanes] * x * log_x**3)).sum(axis=1)
        return excess, slope, x

    SCAN_UP, SCAN_DOWN, NEWTON, DONE, FAILED = range(5)
    phase = np.full(num_lanes, DONE, dtype=np.int64)
    mu_lo = np.zeros(num_lanes)
    f_lo = np.zeros(num_lanes)
    mu_hi = np.zeros(num_lanes)
    f_hi = np.zeros(num_lanes)
    cand = np.zeros(num_lanes)
    mu_k = np.zeros(num_lanes)
    counts = np.zeros(num_lanes, dtype=np.int64)
    x_seed = np.full((num_lanes, n_c), np.nan)
    mu_out = np.zeros(num_lanes)
    slack = np.zeros(num_lanes, dtype=bool)
    errors: list[str | None] = [None] * num_lanes

    def enter_newton(i):
        if mu_hi[i] - mu_lo[i] <= mu_tol * mu_hi[i] or f_lo[i] == 0.0 or f_hi[i] == 0.0:
            phase[i] = DONE
            mu_out[i] = mu_hi[i]
        else:
            phase[i] = NEWTON
            mu_k[i] = _newton_start(mu_lo[i], f_lo[i], mu_hi[i], f_hi[i])
            counts[i] = 0
            x_seed[i] = np.nan

    mu_0 = np.median(j_rows, axis=1)
    f_0, _, _ = evaluate(np.arange(num_lanes), mu_0, x_seed)
    for i in range(num_lanes):
        if f_0[i] > 0.0:
            phase[i] = SCAN_UP
            mu_lo[i], f_lo[i] = mu_0[i], f_0[i]
            cand[i] = mu_0[i] * 4.0
        elif f_0[i] < 0.0:
            phase[i] = SCAN_DOWN
            mu_hi[i], f_hi[i] = mu_0[i], f_0[i]
            cand[i] = mu_0[i] * 0.25
        else:
            mu_lo[i] = mu_hi[i] = mu_0[i]
            f_lo[i] = f_hi[i] = 0.0
            enter_newton(i)

    while True:
        running = np.flatnonzero(phase <= NEWTON)
        if running.size == 0:
            break
        mu_vals = np.where(phase[running] == NEWTON, mu_k[running], cand[running])
        excess, slope, x = evaluate(running, mu_vals, x_seed[running])
        for k, lane in enumerate(running):
            i = int(lane)
            e = float(excess[k])
            s = float(slope[k])
            if phase[i] == SCAN_UP:
                if e <= 0.0:
                    mu_hi[i], f_hi[i] = cand[i], e
                    enter_newton(i)
                else:
                    mu_lo[i], f_lo[i] = cand[i], e
                    counts[i] += 1
                    if counts[i] >= max_expansions:
                        phase[i] = FAILED
                        errors[i] = (
                            "bandwidth multiplier could not be bracketed from "
                            f"above in {max_expansions} expansions "
                            f"(excess {f_lo[i]:.3g} at mu {mu_lo[i]:.3g})"
                        )
                    else:
                        cand[i] = cand[i] * 4.0
            elif phase[i] == SCAN_DOWN:
                if e >= 0.0:
                    mu_lo[i], f_lo[i] = cand[i], e
                    if mu_lo[i] == 0.0:
                        phase[i] = DONE
                        slack[i] = True
                    else:
                        enter_newton(i)
                else:
                    mu_hi[i], f_hi[i] = cand[i], e
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
                x_seed[i] = x[k]
                if e > 0.0:
                    mu_lo[i], f_lo[i] = mu_k[i], e
                else:
                    mu_hi[i], f_hi[i] = mu_k[i], e
                if mu_hi[i] - mu_lo[i] <= mu_tol * mu_hi[i] or e == 0.0:
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
                mu_next = mu_k[i] - e / s if s < 0.0 else 0.5 * (mu_lo[i] + mu_hi[i])
                if not mu_lo[i] < mu_next < mu_hi[i]:
                    mu_next = 0.5 * (mu_lo[i] + mu_hi[i])
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
