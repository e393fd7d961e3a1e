"""Reference multiplier polishes, frozen: each 2-cycle's root re-solved.

:func:`repro.core.subproblem2._polish_mu` and
:func:`~repro.core.subproblem2._polish_mu_rows` keep the roots of the
previous Newton iterate, and a polish that ends on a 2-cycle's smaller
multiplier (which is that iterate) reuses them.  This copy keeps the
original formulation — the roots re-solved at the tie-broken multiplier —
so the tests can hold the library's polishes to bit-identical multipliers
and roots and count the canonical root solves each makes.
"""

from __future__ import annotations

import numpy as np

from repro.core.subproblem2 import _LN2
from repro.solvers.lambert import solve_x_log_x, solve_x_log_x_rows


def polish_mu_reference(
    mu: float,
    j_c: np.ndarray,
    rmin_c: np.ndarray,
    budget: float,
    steps: int = 8,
) -> tuple[float, np.ndarray]:
    """Same contract as ``_polish_mu``."""
    mantissa, exponent = np.frexp(mu)
    mu = float(np.ldexp(np.round(mantissa * (1 << 26)) / float(1 << 26), exponent))
    lead = rmin_c * _LN2
    x = solve_x_log_x(mu / j_c)
    previous = None
    for _ in range(steps):
        log_x = np.maximum(np.log(x), 1e-300)
        excess = float((lead / log_x).sum()) - budget
        slope = -float((lead / (j_c * x * log_x**3)).sum())
        if not np.isfinite(slope) or slope >= 0.0:
            break
        mu_new = mu - excess / slope
        if not np.isfinite(mu_new) or mu_new <= 0.0 or mu_new == mu:
            break
        if mu_new == previous:
            # 2-cycle between adjacent doubles: the cycle is a property of
            # the map, not of the entry point, so the deterministic
            # tie-break makes the result entry-independent.
            if mu_new < mu:
                mu = mu_new
                x = solve_x_log_x(mu / j_c)
            break
        previous = mu
        mu = mu_new
        x = solve_x_log_x(mu / j_c)
    return mu, x


def polish_mu_rows_reference(
    mu: np.ndarray,
    j_rows: np.ndarray,
    rmin_rows: np.ndarray,
    budgets: np.ndarray,
    steps: int = 8,
) -> tuple[np.ndarray, np.ndarray]:
    """Same contract as ``_polish_mu_rows``."""
    mantissa, exponent = np.frexp(mu)
    mu = np.ldexp(np.round(mantissa * (1 << 26)) / float(1 << 26), exponent)
    lead = rmin_rows * _LN2
    x = solve_x_log_x_rows(mu[:, None] / j_rows)
    previous = np.full_like(mu, np.nan)
    active = np.ones(mu.shape[0], dtype=bool)
    for _ in range(steps):
        if not active.any():
            break
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            log_x = np.maximum(np.log(x), 1e-300)
            excess = (lead / log_x).sum(axis=1) - budgets
            slope = -(lead / (j_rows * x * log_x**3)).sum(axis=1)
            mu_new = mu - excess / slope
        ok = active & np.isfinite(slope) & (slope < 0.0)
        ok &= np.isfinite(mu_new) & (mu_new > 0.0) & (mu_new != mu)
        cycle = ok & (mu_new == previous)
        active = ok & ~cycle
        update = active | (cycle & (mu_new < mu))
        np.copyto(previous, mu, where=active)
        np.copyto(mu, mu_new, where=update)
        if update.any():
            x[update] = solve_x_log_x_rows(mu[update, None] / j_rows[update])
    return mu, x
