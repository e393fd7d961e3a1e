"""Reference 1-D multiplier search: the chunked scan and seeded Newton, frozen.

:func:`repro.core.subproblem2._mu_search_vector` brackets the multiplier in
one batched Lambert call and refines it with Halley steps on predictor-seeded
Lambert solves.  This copy keeps the earlier form — chunked ×4 / ×0.25 scans
(4, 8, then 16 candidates per call), a Newton phase started at the secant
point in ``log mu``, each Lambert solve seeded with the previous iterate's
roots — so the tests can hold the new search to the same polished ``(mu, x)``
bits and the same errors.  The caps and the polish are read from
:mod:`repro.core.subproblem2` at call time, so a test can patch them.
"""

from __future__ import annotations

import numpy as np

from repro.core import subproblem2
from repro.core.subproblem2 import _LN2
from repro.exceptions import ConvergenceError
from repro.solvers.lambert import _check_lambert_residual

_SCAN_CHUNK = 16


def _lambert_solve_vector_seeded(
    rhs: np.ndarray, *, x0: np.ndarray | None = None, tol: float = 1e-14, max_iter: int = 60
) -> np.ndarray:
    """The any-shape Lambert kernel with its optional seed ``x0``."""
    c = np.asarray(rhs, dtype=float)
    if np.any(c < -1e-12):
        raise ValueError("rhs must be non-negative")
    c = np.maximum(c, 0.0)
    small = 1.0 + np.sqrt(2.0 * c) + c / 3.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.log(np.maximum(c, np.e))
        large = c / t * (1.0 + np.log(t) / t)
    x = np.where(c > np.e, np.maximum(large, 1.0 + 1e-12), small)
    if x0 is not None:
        seed = np.asarray(x0, dtype=float)
        if seed.shape == c.shape:
            usable = np.isfinite(seed) & (seed >= 1.0)
            x = np.where(usable, seed, x)
    x = np.maximum(x, 1.0 + 1e-15)
    for _ in range(max_iter):
        log_x = np.log(x)
        f = x * log_x - x + 1.0 - c
        df = np.maximum(log_x, 1e-12)
        x_new = np.maximum(x - f / df, 0.5 * (x + 1.0))
        if np.all(np.abs(x_new - x) <= tol * np.maximum(1.0, np.abs(x_new))):
            x = x_new
            break
        x = x_new
    else:
        _check_lambert_residual(x, c, max_iter, "lambert_solve_vector")
    return np.where(c == 0.0, 1.0, x)


def _newton_start(mu_lo: float, f_lo: float, mu_hi: float, f_hi: float) -> float:
    """Secant point in ``log mu``; ``mu_hi`` when not strictly inside."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        log_lo = np.log(mu_lo)
        mu = np.exp(log_lo + f_lo / (f_lo - f_hi) * (np.log(mu_hi) - log_lo))
    return float(mu) if mu_lo < mu < mu_hi else mu_hi


def mu_search_vector_reference(
    j_c: np.ndarray,
    rmin_c: np.ndarray,
    budget: float,
    *,
    mu_tol: float,
) -> tuple[float, np.ndarray | None]:
    """Same contract as ``_mu_search_vector``."""
    max_expansions = subproblem2.MU_BRACKET_MAX_EXPANSIONS
    max_contractions = subproblem2.MU_BRACKET_MAX_CONTRACTIONS
    max_iterations = subproblem2.MU_SEARCH_MAX_ITERATIONS
    lead = rmin_c * _LN2

    def batch_excess(mu_values: np.ndarray) -> np.ndarray:
        x = _lambert_solve_vector_seeded(mu_values[:, None] / j_c[None, :])
        log_x = np.maximum(np.log(x), 1e-300)
        return (lead / log_x).sum(axis=1) - budget

    def point_excess(mu_value, seed):
        x = _lambert_solve_vector_seeded(np.atleast_1d(mu_value) / j_c, x0=seed)
        log_x = np.maximum(np.log(x), 1e-300)
        excess = float((lead / log_x).sum()) - budget
        slope = -float((lead / (j_c * x * log_x**3)).sum())
        return excess, slope, x

    mu_0 = float(np.median(j_c))
    f_0 = float(batch_excess(np.array([mu_0]))[0])

    if f_0 > 0.0:
        mu_lo, f_lo = mu_0, f_0
        mu_hi = f_hi = None
        scanned = 0
        width = 4
        while mu_hi is None and scanned < max_expansions:
            chunk = min(width, _SCAN_CHUNK, max_expansions - scanned)
            width *= 2
            candidates = mu_lo * 4.0 ** np.arange(1, chunk + 1)
            excesses = batch_excess(candidates)
            hits = np.flatnonzero(excesses <= 0.0)
            if hits.size:
                first = int(hits[0])
                mu_hi, f_hi = float(candidates[first]), float(excesses[first])
                if first > 0:
                    mu_lo, f_lo = float(candidates[first - 1]), float(excesses[first - 1])
            else:
                mu_lo, f_lo = float(candidates[-1]), float(excesses[-1])
                scanned += chunk
        if mu_hi is None:
            raise ConvergenceError(
                "bandwidth multiplier could not be bracketed from above in "
                f"{max_expansions} expansions (excess {f_lo:.3g} "
                f"at mu {mu_lo:.3g})"
            )
    elif f_0 < 0.0:
        mu_hi, f_hi = mu_0, f_0
        mu_lo = f_lo = None
        scanned = 0
        width = 4
        while mu_lo is None and scanned < max_contractions:
            chunk = min(width, _SCAN_CHUNK, max_contractions - scanned)
            width *= 2
            candidates = mu_hi * 0.25 ** np.arange(1, chunk + 1)
            excesses = batch_excess(candidates)
            hits = np.flatnonzero(excesses >= 0.0)
            if hits.size:
                first = int(hits[0])
                mu_lo, f_lo = float(candidates[first]), float(excesses[first])
                if first > 0:
                    mu_hi, f_hi = float(candidates[first - 1]), float(excesses[first - 1])
            else:
                mu_hi, f_hi = float(candidates[-1]), float(excesses[-1])
                scanned += chunk
        if mu_lo is None:
            raise ConvergenceError(
                "bandwidth multiplier could not be bracketed from below in "
                f"{max_contractions} contractions (excess "
                f"{f_hi:.3g} at mu {mu_hi:.3g})"
            )
        if mu_lo == 0.0:
            return 0.0, None
    else:
        mu_lo = mu_hi = mu_0
        f_lo = f_hi = 0.0

    converged = mu_hi - mu_lo <= mu_tol * mu_hi or f_lo == 0.0 or f_hi == 0.0
    mu_k = mu_hi if converged else _newton_start(mu_lo, f_lo, mu_hi, f_hi)
    x_k = None
    for _ in range(max_iterations):
        if converged:
            break
        f_k, slope, x_k = point_excess(mu_k, x_k)
        if f_k > 0.0:
            mu_lo, f_lo = mu_k, f_k
        else:
            mu_hi, f_hi = mu_k, f_k
        if mu_hi - mu_lo <= mu_tol * mu_hi or f_k == 0.0:
            converged = True
            break
        mu_next = mu_k - f_k / slope if slope < 0.0 else 0.5 * (mu_lo + mu_hi)
        if not mu_lo < mu_next < mu_hi:
            mu_next = 0.5 * (mu_lo + mu_hi)
        mu_k = mu_next
    if not converged:
        raise ConvergenceError(
            "bandwidth-multiplier search did not converge in "
            f"{max_iterations} iterations: the bracket "
            f"[{mu_lo:.6g}, {mu_hi:.6g}] is still wider than tol={mu_tol:.3g}"
        )
    return subproblem2._polish_mu(mu_hi, j_c, rmin_c, budget)
