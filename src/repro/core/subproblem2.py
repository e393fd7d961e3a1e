"""The inner convex problem SP2_v2 (Theorem 1) and its solvers.

For fixed auxiliary variables ``(nu, beta)`` the parametric subtractive
problem of Theorem 1 is

    minimize    sum_n nu_n (p_n d_n - beta_n G_n(p_n, B_n))
    subject to  p_min <= p_n <= p_max,
                sum_n B_n <= B,
                G_n(p_n, B_n) >= r_min_n,

with ``G_n`` the Shannon rate of eq. (1).  Two solvers are implemented:

* :func:`solve_sp2_v2` — the paper's closed-form KKT solution (Theorem 2 /
  Appendix B): a bisection on the bandwidth multiplier ``mu`` whose
  per-device solution is expressed through the Lambert-W function, followed
  by the box LP (A.6) for the devices whose rate constraint is slack, and a
  final clipping of the power into its box (eq. (38)).
* :func:`solve_sp2_v2_numeric` — an exact numeric fallback based on dual
  decomposition: for each device the optimal power for a given bandwidth is
  known in closed form, and the remaining bandwidth allocation is a
  separable convex problem solved by bisection on the budget multiplier.
  It is used to cross-check the closed form in the tests and as a fallback
  whenever the closed-form path reports infeasibility.

Algorithm 1 solves SP2_v2 once per iteration, and its multiplier barely
moves between iterations.  A caller may therefore hand the vector searches
a per-lane **hint**: the previous polished multiplier and the roots ``x``
of the rate-constrained devices there (:attr:`SP2Result.constrained_roots`).
A lane with a usable hint starts warm (:func:`_warm_start`): the excess at
the hint, one unbounded Halley step, and one call on a tight pair around
that step, repeated from the nearer pair end while the pair is wider than
``mu_tol``.  If a pair brackets the root, the safeguarded Halley loop
takes over; otherwise, or without a hint, the search starts cold from
``median(j)``.  The polish is entry-independent, so a warm search returns
the same bits as a cold one.  Algorithm 1 keeps a lane's hint for one run
only (:class:`~repro.core.sum_of_ratios._BatchLane`), so each run's first
search is cold.

There is one multiplier search, in two shapes: :func:`_mu_search_vector`
for a single lane and :func:`_mu_search_vector_rows` for a lockstep group.
The probe-at-a-time bisection they replaced lives on in the test suite
(``tests/mu_search_scalar_reference.py``) as the oracle both are held to,
bit for bit, through the entry-independent polish (:func:`_polish_mu`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from ..exceptions import ConvergenceError, InfeasibleProblemError
from ..solvers.boxlp import solve_box_budget_lp_rows
from ..solvers.dual_decomposition import minimize_separable_with_budget
from ..solvers.lambert import (
    _lambert_solve_seeded,
    lambert_solve_rows,
    lambert_solve_vector,
    solve_x_log_x,
    solve_x_log_x_rows,
)
from ..system import SystemModel
from ..wireless.rate import min_bandwidth_for_rate, required_power_for_rate, shannon_rate

__all__ = [
    "MU_BRACKET_MAX_EXPANSIONS",
    "MU_BRACKET_MAX_CONTRACTIONS",
    "MU_SEARCH_MAX_ITERATIONS",
    "SP2Result",
    "sp2_objective",
    "solve_sp2_v2",
    "solve_sp2_v2_numeric",
]

_LN2 = np.log(2.0)

#: Iteration caps of the bandwidth-multiplier search.  Exhausting any of
#: them raises :class:`~repro.exceptions.ConvergenceError` (callers fall
#: back to the numeric solver) instead of silently returning a bad point.
#: Upper-bracket expansions (``mu_hi *= 4`` / batched chunks thereof).
MU_BRACKET_MAX_EXPANSIONS = 400
#: Lower-bracket contractions (``mu_lo *= 0.25`` / batched chunks thereof).
MU_BRACKET_MAX_CONTRACTIONS = 2000
#: Root-refinement iterations (bisection / safeguarded Halley).
MU_SEARCH_MAX_ITERATIONS = 300

#: ×4 up-candidates evaluated together with ``mu_0 = median(j)`` in the
#: first Lambert call of a cold vector search.  The root sits 4^1-4^5
#: above ``mu_0`` in almost every search, so this one call brackets it.
_FIRST_CALL_EXPANSIONS = 8
#: Largest batch of candidate multipliers per later bracket-scan pass of
#: the 1-D vector search: one ``(chunk, num_devices)`` Lambert evaluation
#: replaces up to ``chunk`` sequential scalar probes.
_VECTOR_SCAN_CHUNK = 16


@dataclass(frozen=True)
class SP2Result:
    """Solution of SP2_v2 for one ``(nu, beta)`` pair."""

    power_w: np.ndarray
    bandwidth_hz: np.ndarray
    objective: float
    bandwidth_multiplier: float
    rate_multipliers: np.ndarray
    feasible: bool
    method: str
    #: The roots ``x`` of the rate-constrained devices at the polished
    #: ``bandwidth_multiplier`` (``None`` when it is 0 or the solve is not
    #: the closed form): with the multiplier, the next search's warm hint.
    constrained_roots: np.ndarray | None = None

    @property
    def num_devices(self) -> int:
        return int(self.power_w.shape[0])


def sp2_objective(
    system: SystemModel,
    nu: np.ndarray,
    beta: np.ndarray,
    power_w: np.ndarray,
    bandwidth_hz: np.ndarray,
) -> float:
    """Objective of SP2_v2: ``sum nu_n (p_n d_n - beta_n G_n)``."""
    rates = system.rates_bps(power_w, bandwidth_hz)
    return float(np.sum(nu * (power_w * system.upload_bits - beta * rates)))


def _polish_mu(
    mu: float,
    j_c: np.ndarray,
    rmin_c: np.ndarray,
    budget: float,
    steps: int = 8,
) -> tuple[float, np.ndarray]:
    """Newton-polish ``mu`` onto the exact root of the excess equation.

    The bracketed searches stop at ``mu_tol`` relative width, which leaves
    each search path on its own side of the root; a few analytic Newton
    steps (``d excess / d mu = -sum rmin ln2 / (j x ln(x)^3)``) collapse
    that residual to round-off.

    The polish is deliberately **entry-independent**: the entry multiplier
    is first snapped to a 26-bit-mantissa grid — far coarser than the
    ``mu_tol`` agreement between the searches, far finer than the Newton
    basin — so every search path (1-D or rows, warm or cold, or the scalar
    test oracle) almost surely starts the polish from the *same* double;
    ``x`` is then evaluated through one canonical, unseeded evaluator, and
    the Newton map is iterated into its double-precision attractor (fixed
    point, or 2-cycle tie-broken to the smaller value).  The paths therefore
    return bit-identical multipliers call for call — which is what keeps
    their downstream Algorithm-1/2 trajectories, and therefore the reported
    sweep metrics, in lockstep.
    """
    mantissa, exponent = np.frexp(mu)
    mu = float(np.ldexp(np.round(mantissa * (1 << 26)) / float(1 << 26), exponent))
    lead = rmin_c * _LN2
    x = solve_x_log_x(mu / j_c)
    previous = previous_x = None
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
            # tie-break makes the result entry-independent.  The smaller
            # multiplier is the previous iterate, whose roots are in hand.
            if mu_new < mu:
                mu, x = mu_new, previous_x
            break
        previous, previous_x = mu, x
        mu = mu_new
        x = solve_x_log_x(mu / j_c)
    return mu, x


def _polish_mu_rows(
    mu: np.ndarray,
    j_rows: np.ndarray,
    rmin_rows: np.ndarray,
    budgets: np.ndarray,
    steps: int = 8,
) -> tuple[np.ndarray, np.ndarray]:
    """Lockstep batch of independent :func:`_polish_mu` polishes.

    Lane ``i`` of the result is bitwise equal to
    ``_polish_mu(mu[i], j_rows[i], rmin_rows[i], budgets[i])``: the snap,
    the canonical unseeded root evaluation, and every Newton/tie-break
    decision are the same float-for-float expressions, applied per lane
    with a per-lane stop mask.  Two properties carry that guarantee over
    from the scalar polish:

    * :func:`solve_x_log_x_rows` freezes each row on its own criterion, so
      a row equals a stand-alone 1-D solve bitwise;
    * the excess/slope row sums run over the rectangular ``(lanes, n_c)``
      stack with ``.sum(axis=1)``, which NumPy evaluates with the same
      pairwise tree as the 1-D sums of the scalar polish.

    Together with the entry-independence of the polish itself, this is what
    lets the batched multiplier search return bit-identical results to the
    per-drop path even though its bracket iterates differ in round-off.

    The state stays full width: each step evaluates every lane, masks its
    decisions to the lanes still stepping, and re-solves only the lanes
    still stepping (a lane that ends on a 2-cycle's smaller multiplier gets
    back the roots it had there).
    """
    mantissa, exponent = np.frexp(mu)
    mu = np.ldexp(np.round(mantissa * (1 << 26)) / float(1 << 26), exponent)
    lead = rmin_rows * _LN2
    x = solve_x_log_x_rows(mu[:, None] / j_rows)
    previous = np.full_like(mu, np.nan)
    previous_x = np.empty_like(x)
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
        # A 2-cycle's smaller multiplier is the previous iterate: its roots
        # are reused, not re-solved.
        back = cycle & (mu_new < mu)
        np.copyto(previous, mu, where=active)
        np.copyto(mu, mu_new, where=active | back)
        np.copyto(x, previous_x, where=back[:, None])
        if active.any():
            np.copyto(previous_x, x, where=active[:, None])
            x[active] = solve_x_log_x_rows(mu[active, None] / j_rows[active])
    return mu, x


def _halley_start(
    mu_lo: np.ndarray | float,
    f_lo: np.ndarray | float,
    x_lo: np.ndarray,
    mu_hi: np.ndarray | float,
    f_hi: np.ndarray | float,
    x_hi: np.ndarray,
    budget: np.ndarray | float,
) -> tuple[np.ndarray, np.ndarray]:
    """First Halley iterate of the multiplier search and its Lambert seed.

    Across a scan bracket (one ×4 step) the bandwidth demand
    ``excess + budget`` is close to a power of ``mu``, so the secant point
    in ``(log mu, log demand)`` lands near the root.  The seed interpolates
    the bracket ends' roots ``x`` geometrically at the same fraction.  A
    point that is not strictly inside the bracket (round-off, or an
    overflowing demand) falls back to ``mu_hi`` and its ``x``.  Works per
    lane on ``(lanes,)`` scalars with ``(lanes, n)`` roots, or on scalars
    with ``(n,)`` roots.  Only the pre-polish iterates move:
    :func:`_polish_mu` is entry-independent.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        log_lo = np.log(mu_lo)
        demand_lo = np.log(f_lo + budget)
        t = (demand_lo - np.log(budget)) / (demand_lo - np.log(f_hi + budget))
        mu = np.exp(log_lo + t * (np.log(mu_hi) - log_lo))
        inside = (mu_lo < mu) & (mu < mu_hi)
        t = np.where(inside, t, 1.0)[..., None]
        log_x_lo = np.log(x_lo)
        seed = np.exp(log_x_lo + t * (np.log(x_hi) - log_x_lo))
    return np.where(inside, mu, mu_hi), seed


def _excess_derivatives(
    x: np.ndarray, log_x: np.ndarray, terms: np.ndarray, j: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First and second ``mu``-derivatives of the excess, summed over devices.

    With ``L = ln x``, ``lead = rmin ln2`` and ``terms = lead / L`` (each
    device's bandwidth), ``dx/dmu = 1 / (j L)`` gives
    ``f' = -sum lead / (j x L^3)`` and ``f'' = sum lead (L + 3) / (j^2 x^2 L^5)``.
    """
    jx_l2 = j * x * log_x * log_x
    ratio = terms / jx_l2
    return -ratio.sum(axis=-1), (ratio * (log_x + 3.0) / jx_l2).sum(axis=-1)


def _predict_x(
    x: np.ndarray, log_x: np.ndarray, j: np.ndarray, step: np.ndarray | float
) -> np.ndarray:
    """Tangent predictor ``x + step / (j L)`` of the roots at ``mu + step``.

    ``x`` is concave in ``mu``, so the predictor sits on or above the root,
    where the Lambert Newton iteration descends monotonically.  A
    non-finite prediction (a root at ``x = 1``) keeps ``x``.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        seed = x + np.asarray(step)[..., None] / (j * log_x)
    return np.where(np.isfinite(seed), seed, x)


def _halley_next(
    mu_k: np.ndarray | float,
    f: np.ndarray | float,
    slope: np.ndarray | float,
    curvature: np.ndarray | float,
    mu_lo: np.ndarray | float,
    mu_hi: np.ndarray | float,
) -> np.ndarray:
    """Next iterate of the safeguarded Halley search on ``[mu_lo, mu_hi]``.

    The Halley point ``mu_k - s / (1 - s f'' / (2 f'))``, ``s = f / f'``,
    when the excess falls at ``mu_k`` and that point lies strictly inside
    the bracket; the bisection point otherwise.  ``mu_k`` is the bracket
    end the caller just moved, so ``s`` points into the bracket and a
    non-positive denominator (or a zero one's infinity) sends the point out
    of it: one test covers both.  Works elementwise on scalars or
    ``(lanes,)`` arrays.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        step = f / slope
        halley = mu_k - step / (1.0 - 0.5 * step * curvature / slope)
    inside = (slope < 0.0) & (mu_lo < halley) & (halley < mu_hi)
    return np.where(inside, halley, 0.5 * (mu_lo + mu_hi))


#: A lane's warm-start hint: its previous polished multiplier and the roots
#: ``x`` of its rate-constrained devices there.
MuHint = tuple[float, np.ndarray]
#: Halley-step-and-pair rounds of the warm start (:func:`_warm_start`):
#: the first from the hint, each later one from the nearer end of the last
#: pair while that pair brackets the root but is still wider than
#: ``mu_tol``.  Each round shrinks the bracket cubically: a multiplier that
#: moved by 1% since the hint needs two rounds, by 10% three, by 30% four.
_WARM_ROUNDS = 4
#: ``(-1, +1)``: a warm pair is ``mu_1 (1 + _PAIR_SIGNS d)``.
_PAIR_SIGNS = np.array([-1.0, 1.0])


def _excess(
    x: np.ndarray, lead: np.ndarray, budget: np.ndarray | float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Excess bandwidth demand at the roots ``x``, summed over the last axis.

    Returns ``(excess, log_x, terms)`` with ``terms = lead / ln x`` each
    device's bandwidth (``ln x`` floored at ``1e-300``).
    """
    log_x = np.maximum(np.log(x), 1e-300)
    terms = lead / log_x
    return terms.sum(axis=-1) - budget, log_x, terms


def _warm_start(
    hints: Sequence[MuHint | None],
    j: np.ndarray,
    lead: np.ndarray,
    budget: np.ndarray,
    mu_tol: float,
) -> tuple[np.ndarray, tuple, tuple]:
    """Bracket each hinted lane's root from its hint in a few seeded calls.

    For every lane with a usable hint (a finite positive multiplier, finite
    at every ``mu / j``, and one finite root per constrained device): the
    excess at the hint ``mu_h`` (Lambert seeded by the hint's roots), one
    Halley step with no bracket to keep it in, to ``mu_1``, then the excess
    at the pair ``mu_1 (1 -+ d)``, ``d = max(2 rel**3, 0.45 mu_tol)`` and
    ``rel = |mu_1 - mu_h| / mu_h``, in one call seeded by the tangent
    predictor.  Halley's error is cubic in its step, so the pair straddles
    the root unless the hint was poor; at ``d = 0.45 mu_tol`` the bracket
    is already converged.  A pair that brackets the root but is wider than
    ``mu_tol`` takes another round from its end with the smaller excess, up
    to ``_WARM_ROUNDS`` rounds; a round whose pair misses the root leaves
    the last bracket standing for the Halley loop.

    Lanes are rows of ``(lanes, n)`` ``j``/``lead`` and ``(lanes,)``
    ``budget``; each lane's values depend on that lane alone (the seeded
    kernel stops each row on its own test).  Returns ``(warm, low, high)``:
    ``warm`` marks the lanes with a bracket (``f_lo >= 0 >= f_hi``), and
    ``low``/``high`` are its ``(mu, f, x)`` ends, with ``(lanes,)``,
    ``(lanes,)`` and ``(lanes, n)`` members, meaningful where ``warm``.
    Every other lane must search cold.
    """
    num_lanes, n = j.shape
    warm = np.zeros(num_lanes, dtype=bool)
    mu_pair = np.ones((num_lanes, 2))
    f_pair = np.zeros((num_lanes, 2))
    x_pair = np.ones((num_lanes, 2, n))
    lanes = np.array(
        [k for k, h in enumerate(hints) if h is not None and np.shape(h[1]) == (n,)],
        dtype=np.intp,
    )
    if lanes.size:
        # (mu, x): each stepping lane's evaluated point, first its hint.
        mu = np.array([hints[k][0] for k in lanes], dtype=float)
        x = np.array([hints[k][1] for k in lanes], dtype=float)
        j_k, lead_k, budget_k = j[lanes], lead[lanes], budget[lanes]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            rhs = mu[:, None] / j_k
        usable = (mu > 0.0) & np.isfinite(rhs).all(axis=1) & np.isfinite(x).all(axis=1)
        if not usable.all():
            lanes, mu, x, rhs = lanes[usable], mu[usable], x[usable], rhs[usable]
            j_k, lead_k, budget_k = j_k[usable], lead_k[usable], budget_k[usable]
        if lanes.size:
            x = _lambert_solve_seeded(rhs, x)
    for _ in range(_WARM_ROUNDS):
        if not lanes.size:
            break
        f, log_x, terms = _excess(x, lead_k, budget_k)
        slope, curvature = _excess_derivatives(x, log_x, terms, j_k)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = f / slope
            mu_1 = mu - step / (1.0 - 0.5 * step * curvature / slope)
            d = np.maximum(2.0 * (np.abs(mu_1 - mu) / mu) ** 3, 0.45 * mu_tol)
            pair = mu_1[:, None] * (1.0 + _PAIR_SIGNS * d[:, None])
        ok = (pair[:, 0] > 0.0) & np.isfinite(pair[:, 1])
        if not ok.all():
            lanes, mu, x, log_x, pair = lanes[ok], mu[ok], x[ok], log_x[ok], pair[ok]
            j_k, lead_k, budget_k = j_k[ok], lead_k[ok], budget_k[ok]
            if not lanes.size:
                break
        seeds = _predict_x(x[:, None], log_x[:, None], j_k[:, None], pair - mu[:, None])
        xs = _lambert_solve_seeded(
            (pair[:, :, None] / j_k[:, None]).reshape(-1, n), seeds.reshape(-1, n)
        ).reshape(-1, 2, n)
        fs = _excess(xs, lead_k[:, None], budget_k[:, None])[0]
        bracketed = (fs[:, 0] >= 0.0) & (fs[:, 1] <= 0.0)
        k = lanes[bracketed]
        mu_pair[k], f_pair[k], x_pair[k] = pair[bracketed], fs[bracketed], xs[bracketed]
        warm[k] = True
        # The Halley loop's stopping test; wider brackets step again.
        wide = bracketed & ~(
            (pair[:, 1] - pair[:, 0] <= mu_tol * pair[:, 1])
            | (fs[:, 0] == 0.0)
            | (fs[:, 1] == 0.0)
        )
        if not wide.any():
            break
        rows = np.flatnonzero(wide)
        near = (np.abs(fs[rows, 1]) < np.abs(fs[rows, 0])).astype(np.intp)
        lanes, mu, x = lanes[rows], pair[rows, near], xs[rows, near]
        j_k, lead_k, budget_k = j_k[rows], lead_k[rows], budget_k[rows]
    low = (mu_pair[:, 0], f_pair[:, 0], x_pair[:, 0])
    high = (mu_pair[:, 1], f_pair[:, 1], x_pair[:, 1])
    return warm, low, high


def _mu_search_vector(
    j_c: np.ndarray,
    rmin_c: np.ndarray,
    budget: float,
    *,
    mu_tol: float,
    hint: MuHint | None = None,
) -> tuple[float, np.ndarray | None]:
    """Bandwidth-multiplier search of one lane, in batched array passes.

    The monotone root problem of Theorem 2 (the bandwidth demand of the
    rate-constrained devices equals the budget), solved in a handful of
    array passes instead of dozens of sequential probes:

    * **a warm start** — with a usable ``hint`` (the previous search's
      polished multiplier and roots), :func:`_warm_start` brackets the root
      in two seeded Lambert calls when the multiplier barely moved, one
      more per extra round when it moved more.  When its first pair does
      not bracket the root, or without a hint, the search starts cold, and
      only the cold start raises the bracketing caps' errors;
    * **one bracketing call** (cold) — ``mu_0 = median(j)`` and its first
      ``_FIRST_CALL_EXPANSIONS`` ×4 up-candidates go through one
      :func:`lambert_solve_vector` call, which brackets the root in almost
      every search.  A bracket still open after it continues with chunked
      ×4 scans (×0.25 scans from ``mu_0`` when the excess there is
      negative), the candidates already spent counting against the cap;
    * **safeguarded Halley refinement** — from the secant point in
      ``(log mu, log demand)`` (:func:`_halley_start`), each step uses the
      analytic first and second excess derivatives
      (:func:`_excess_derivatives`), falls back to bisection when it leaves
      the running bracket (:func:`_halley_next`), and solves Lambert from
      the tangent predictor of the previous roots
      (:func:`_lambert_solve_seeded`, :func:`_predict_x`).

    The stopping rule is the relative bracket width ``mu_tol`` on the
    feasible side, so every path into it — warm or cold, this search, the
    rows search or the scalar test oracle — agrees on ``mu`` to
    ``mu_tol``-level round-off, which :func:`_polish_mu` turns into the
    same bits.
    """
    lead = rmin_c * _LN2

    def batch_excess(mu_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Excess bandwidth at each candidate mu: one array pass for all."""
        x = lambert_solve_vector(mu_values[:, None] / j_c)
        return _excess(x, lead, budget)[0], x

    def scan(mu, f, x, factor, cap, scanned, width):
        """Step ``mu *= factor`` in chunks until the excess changes sign.

        Returns the open end ``(mu, f, x)`` and the point that closed the
        bracket, or ``None`` for the latter once ``cap`` candidates are spent.
        """
        while scanned < cap:
            chunk = min(width, _VECTOR_SCAN_CHUNK, cap - scanned)
            width *= 2
            candidates = mu * factor ** np.arange(1, chunk + 1)
            excesses, xs = batch_excess(candidates)
            hits = np.flatnonzero(excesses <= 0.0 if factor > 1.0 else excesses >= 0.0)
            if hits.size:
                k = int(hits[0])
                if k:
                    mu, f, x = candidates[k - 1], excesses[k - 1], xs[k - 1]
                return (mu, f, x), (candidates[k], excesses[k], xs[k])
            mu, f, x = candidates[-1], excesses[-1], xs[-1]
            scanned += chunk
        return (mu, f, x), None

    warm = False
    if hint is not None:
        (warm,), low, high = _warm_start(
            [hint], j_c[None], lead[None], np.array([budget]), mu_tol
        )
        low, high = tuple(end[0] for end in low), tuple(end[0] for end in high)
    if not warm:
        mu_0 = float(np.median(j_c))
        first = min(_FIRST_CALL_EXPANSIONS, MU_BRACKET_MAX_EXPANSIONS)
        grid = mu_0 * 4.0 ** np.arange(first + 1)
        excesses, xs = batch_excess(grid)
        f_0 = float(excesses[0])
        if f_0 > 0.0:
            hits = np.flatnonzero(excesses <= 0.0)
            if hits.size:
                k = int(hits[0])
                low, high = (grid[k - 1], excesses[k - 1], xs[k - 1]), (grid[k], excesses[k], xs[k])
            else:
                low, high = scan(
                    grid[-1], excesses[-1], xs[-1], 4.0, MU_BRACKET_MAX_EXPANSIONS, first,
                    _VECTOR_SCAN_CHUNK,
                )
                if high is None:
                    raise ConvergenceError(
                        "bandwidth multiplier could not be bracketed from above in "
                        f"{MU_BRACKET_MAX_EXPANSIONS} expansions (excess {low[1]:.3g} "
                        f"at mu {low[0]:.3g})"
                    )
        elif f_0 < 0.0:
            # Demand grows without bound as mu -> 0, so a sign change (or
            # exact underflow to mu = 0, where the budget is slack for the
            # active set) must appear before the cap.
            high, low = scan(mu_0, f_0, xs[0], 0.25, MU_BRACKET_MAX_CONTRACTIONS, 0, 4)
            if low is None:
                raise ConvergenceError(
                    "bandwidth multiplier could not be bracketed from below in "
                    f"{MU_BRACKET_MAX_CONTRACTIONS} contractions (excess "
                    f"{high[1]:.3g} at mu {high[0]:.3g})"
                )
            if low[0] == 0.0:
                return 0.0, None
        else:
            return _polish_mu(mu_0, j_c, rmin_c, budget)

    # Safeguarded Halley on the bracket [mu_lo, mu_hi] (f_lo >= 0 >= f_hi).
    (mu_lo, f_lo, x_lo), (mu_hi, f_hi, x_hi) = low, high
    mu_lo, mu_hi = float(mu_lo), float(mu_hi)
    converged = mu_hi - mu_lo <= mu_tol * mu_hi or f_lo == 0.0 or f_hi == 0.0
    if not converged:
        start, seed = _halley_start(mu_lo, f_lo, x_lo, mu_hi, f_hi, x_hi, budget)
        mu_k = float(start)
    for _ in range(MU_SEARCH_MAX_ITERATIONS):
        if converged:
            break
        x = _lambert_solve_seeded(mu_k / j_c, seed)
        f_k, log_x, terms = _excess(x, lead, budget)
        f_k = float(f_k)
        if f_k > 0.0:
            mu_lo = mu_k
        else:
            mu_hi = mu_k
        if mu_hi - mu_lo <= mu_tol * mu_hi or f_k == 0.0:
            converged = True
            break
        slope, curvature = _excess_derivatives(x, log_x, terms, j_c)
        mu_next = float(_halley_next(mu_k, f_k, slope, curvature, mu_lo, mu_hi))
        seed = _predict_x(x, log_x, j_c, mu_next - mu_k)
        mu_k = mu_next
    if not converged:
        raise ConvergenceError(
            "bandwidth-multiplier search did not converge in "
            f"{MU_SEARCH_MAX_ITERATIONS} iterations: the bracket "
            f"[{mu_lo:.6g}, {mu_hi:.6g}] is still wider than tol={mu_tol:.3g}"
        )
    return _polish_mu(mu_hi, j_c, rmin_c, budget)


def _mu_search_vector_rows(
    j_rows: np.ndarray,
    rmin_rows: np.ndarray,
    budgets: np.ndarray,
    *,
    mu_tol: float,
    hints: Sequence[MuHint | None] | None = None,
) -> tuple[np.ndarray, np.ndarray, list[str | None]]:
    """Lockstep bandwidth-multiplier search across independent lanes.

    One row per lane: ``j_rows[i]``/``rmin_rows[i]`` are lane ``i``'s
    constrained-device coefficients and ``budgets[i]`` its bandwidth
    budget, and ``hints[i]`` (optional) its warm-start hint.  Every lane
    runs the state machine of :func:`_mu_search_vector`:

    * lanes with a usable hint try the warm start first
      (:func:`_warm_start`: one seeded call at every hint, one on every
      lane's pair);
    * one bracketing call evaluates every other lane's ``mu_0`` and first
      ``_FIRST_CALL_EXPANSIONS`` ×4 up-candidates in a single
      ``(lanes * 9, n_c)`` :func:`lambert_solve_rows` call;
    * lanes still open then scan one candidate per lane per round (×4 up,
      or ×0.25 down from ``mu_0``), the spent candidates counting against
      the cap;
    * bracketed lanes take safeguarded Halley steps from the log-log secant
      point, their Lambert solves seeded by the tangent predictor
      (:func:`_lambert_solve_seeded`).

    A round makes one kernel call per phase present: seeded for Halley
    lanes, cold for scanning ones.

    Lane isolation is exact: every row kernel freezes each row on its own
    stopping criterion and every warm-start, bracket and Halley decision
    reads only that lane's values, so perturbing one lane's inputs (its
    hint included) cannot move another lane's iterates by even one ulp.
    Bracket iterates may differ from the per-drop search in round-off (its
    bracketing call stops on one test for all nine candidates, the row
    kernel on one per candidate), but both stop at the same ``mu_tol``
    bracket and hand the feasible side to the entry-independent polish,
    which collapses either path onto the same double — the batched-parity
    suite holds the final results to bit-identity.

    Returns ``(mu, x_rows, errors)``: polished multipliers (``0.0`` for
    lanes whose budget is slack for the active set, with that lane's
    ``x_rows`` row meaningless), and per-lane error strings (``None`` on
    success) mirroring the per-drop search's :class:`ConvergenceError`
    messages.
    """
    num_lanes, n_c = j_rows.shape
    SCAN_UP, SCAN_DOWN, HALLEY = range(3)
    mu_out = np.zeros(num_lanes)
    polish = np.zeros(num_lanes, dtype=bool)
    errors: list[str | None] = [None] * num_lanes

    # State of the lanes still searching, one entry per lane, compacted
    # whenever lanes stop: a round's work is elementwise masked updates over
    # these arrays, so each lane sees the same float operations as a
    # lane-at-a-time loop would, and only a round that stops lanes pays for
    # re-indexing.  ``x_seed`` holds a scanning lane's roots at its open
    # bracket end and a Halley lane's seed for its next Lambert solve.
    ids = np.arange(num_lanes)
    j, lead, budget = j_rows, rmin_rows * _LN2, budgets
    warm, (mu_lo, f_lo, x_lo), (mu_hi, f_hi, x_hi) = _warm_start(
        [None] * num_lanes if hints is None else hints, j, lead, budget, mu_tol
    )
    up = np.zeros(num_lanes, dtype=bool)
    down, hit = up.copy(), up.copy()
    first = min(_FIRST_CALL_EXPANSIONS, MU_BRACKET_MAX_EXPANSIONS)
    cold = np.flatnonzero(~warm)
    if cold.size:
        mu_0 = np.median(j_rows[cold], axis=1)
        grid = mu_0[:, None] * 4.0 ** np.arange(first + 1)
        x_grid = lambert_solve_rows(
            (grid[:, :, None] / j[cold, None, :]).reshape(-1, n_c)
        ).reshape(cold.size, first + 1, n_c)
        f_grid = _excess(x_grid, lead[cold, None, :], budget[cold, None])[0]
        up[cold], down[cold] = f_grid[:, 0] > 0.0, f_grid[:, 0] < 0.0
        closes = f_grid[:, 1:] <= 0.0
        hit[cold] = closed = up[cold] & closes.any(axis=1)
        # Grid index of each lane's bracket ends: a closed up-scan's two
        # candidates, an open up-scan's last candidate, a down-scan's mu_0.
        at_lo = np.full(cold.size, first)
        at_hi = np.zeros(cold.size, dtype=np.int64)
        if closed.any():
            at_hi[closed] = np.argmax(closes[closed], axis=1) + 1
            at_lo[closed] = at_hi[closed] - 1
        rows = np.arange(cold.size)
        mu_lo[cold], f_lo[cold], x_lo[cold] = (
            grid[rows, at_lo], f_grid[rows, at_lo], x_grid[rows, at_lo]
        )
        mu_hi[cold], f_hi[cold], x_hi[cold] = (
            grid[rows, at_hi], f_grid[rows, at_hi], x_grid[rows, at_hi]
        )
    phase = np.where(up, SCAN_UP, SCAN_DOWN)
    counts = np.where(up, first, 0)
    cand = np.where(up, mu_lo * 4.0, mu_hi * 0.25)
    x_seed = np.where(up[:, None], x_lo, x_hi)
    mu_k = np.zeros(num_lanes)

    def enter_halley(
        bracketed: np.ndarray, x_lo: np.ndarray, x_hi: np.ndarray
    ) -> np.ndarray:
        """Start Halley in the newly bracketed lanes; returns those that are
        already converged there."""
        converged = bracketed & (
            (mu_hi - mu_lo <= mu_tol * mu_hi) | (f_lo == 0.0) | (f_hi == 0.0)
        )
        start = bracketed & ~converged
        if start.any():
            mu_start, seed = _halley_start(mu_lo, f_lo, x_lo, mu_hi, f_hi, x_hi, budget)
            np.copyto(mu_k, mu_start, where=start)
            np.copyto(x_seed, seed, where=start[:, None])
            phase[start] = HALLEY
            counts[start] = 0
        return converged

    def fail(lanes: np.ndarray) -> None:
        # The phase a lane failed in picks its message.
        for k in np.flatnonzero(lanes):
            if phase[k] == SCAN_UP:
                message = (
                    "bandwidth multiplier could not be bracketed from "
                    f"above in {MU_BRACKET_MAX_EXPANSIONS} expansions "
                    f"(excess {f_lo[k]:.3g} at mu {mu_lo[k]:.3g})"
                )
            elif phase[k] == SCAN_DOWN:
                message = (
                    "bandwidth multiplier could not be bracketed from "
                    f"below in {MU_BRACKET_MAX_CONTRACTIONS} "
                    f"contractions (excess {f_hi[k]:.3g} at mu "
                    f"{mu_hi[k]:.3g})"
                )
            else:
                message = (
                    "bandwidth-multiplier search did not converge in "
                    f"{MU_SEARCH_MAX_ITERATIONS} iterations: the bracket "
                    f"[{mu_lo[k]:.6g}, {mu_hi[k]:.6g}] is still wider "
                    f"than tol={mu_tol:.3g}"
                )
            errors[ids[k]] = message

    failed = up & ~hit & (counts >= MU_BRACKET_MAX_EXPANSIONS)
    done = enter_halley(hit | warm, x_lo, x_hi) | (~warm & ~up & ~down)
    stopped = done | failed

    while True:
        if failed.any():
            fail(failed)
        if stopped.any():
            mu_out[ids[done]] = mu_hi[done]
            polish[ids[done]] = True
            keep = ~stopped
            ids, phase, cand, mu_k, counts = (
                ids[keep], phase[keep], cand[keep], mu_k[keep], counts[keep]
            )
            mu_lo, f_lo, mu_hi, f_hi = mu_lo[keep], f_lo[keep], mu_hi[keep], f_hi[keep]
            j, lead, budget, x_seed = j[keep], lead[keep], budget[keep], x_seed[keep]
        if ids.size == 0:
            break
        halley = phase == HALLEY
        if halley.all():
            x = _lambert_solve_seeded(mu_k[:, None] / j, x_seed)
        elif not halley.any():
            x = lambert_solve_rows(cand[:, None] / j)
        else:
            x = np.empty_like(x_seed)
            x[halley] = _lambert_solve_seeded(mu_k[halley, None] / j[halley], x_seed[halley])
            x[~halley] = lambert_solve_rows(cand[~halley, None] / j[~halley])
        excess, log_x, terms = _excess(x, lead, budget)

        # Safeguarded Halley: shrink the bracket onto the iterate, stop at
        # ``mu_tol``, else step (bisecting when the step leaves the bracket).
        above = halley & (excess > 0.0)
        below = halley & ~(excess > 0.0)
        np.copyto(mu_lo, mu_k, where=above)
        np.copyto(f_lo, excess, where=above)
        np.copyto(mu_hi, mu_k, where=below)
        np.copyto(f_hi, excess, where=below)
        done = halley & ((mu_hi - mu_lo <= mu_tol * mu_hi) | (excess == 0.0))
        stepping = halley & ~done
        counts += stepping
        failed = stepping & (counts >= MU_SEARCH_MAX_ITERATIONS)
        stepping &= ~failed
        if stepping.any():
            slope, curvature = _excess_derivatives(x, log_x, terms, j)
            mu_next = _halley_next(mu_k, excess, slope, curvature, mu_lo, mu_hi)
            np.copyto(x_seed, _predict_x(x, log_x, j, mu_next - mu_k), where=stepping[:, None])
            np.copyto(mu_k, mu_next, where=stepping)
        stopped = done | failed

        if not halley.all():
            # Bracket scans: a step across the root closes the bracket, the
            # open end's roots waiting in ``x_seed`` ...
            up, down = phase == SCAN_UP, phase == SCAN_DOWN
            closed_up, closed_down = up & (excess <= 0.0), down & (excess >= 0.0)
            x_lo = np.where(closed_up[:, None], x_seed, x)
            x_hi = np.where(closed_up[:, None], x, x_seed)
            np.copyto(mu_hi, cand, where=closed_up)
            np.copyto(f_hi, excess, where=closed_up)
            np.copyto(mu_lo, cand, where=closed_down)
            np.copyto(f_lo, excess, where=closed_down)
            slack = closed_down & (mu_lo == 0.0)
            # ... any other step moves the open end on, up to the scan's cap.
            open_up, open_down = up & ~closed_up, down & ~closed_down
            np.copyto(mu_lo, cand, where=open_up)
            np.copyto(f_lo, excess, where=open_up)
            np.copyto(mu_hi, cand, where=open_down)
            np.copyto(f_hi, excess, where=open_down)
            np.copyto(x_seed, x, where=(open_up | open_down)[:, None])
            counts += open_up | open_down
            capped_up = open_up & (counts >= MU_BRACKET_MAX_EXPANSIONS)
            capped_down = open_down & (counts >= MU_BRACKET_MAX_CONTRACTIONS)
            np.multiply(cand, 4.0, out=cand, where=open_up & ~capped_up)
            np.multiply(cand, 0.25, out=cand, where=open_down & ~capped_down)
            failed |= capped_up | capped_down
            done |= enter_halley((closed_up | closed_down) & ~slack, x_lo, x_hi)
            stopped = done | failed | slack

    mu_final = np.zeros(num_lanes)
    x_rows = np.ones((num_lanes, n_c))
    to_polish = np.flatnonzero(polish)
    if to_polish.size:
        mu_p, x_p = _polish_mu_rows(
            mu_out[to_polish],
            j_rows[to_polish],
            rmin_rows[to_polish],
            budgets[to_polish],
        )
        mu_final[to_polish] = mu_p
        x_rows[to_polish] = x_p
    return mu_final, x_rows, errors


@dataclass(frozen=True)
class SystemRows:
    """The SP2_v2 constants of same-size lanes, stacked once.

    ``gains``, ``bits``, ``noise`` (each lane's noise PSD, repeated per
    device), ``p_min`` and ``p_max`` are ``(lanes, n)`` and ``budget`` is a
    ``(lanes,)`` vector, so every elementwise formula of one lane runs over
    the stack unchanged (and without broadcasting).
    """

    gains: np.ndarray
    bits: np.ndarray
    noise: np.ndarray
    p_min: np.ndarray
    p_max: np.ndarray
    budget: np.ndarray

    @classmethod
    def of(cls, systems: Sequence[SystemModel]) -> SystemRows:
        return cls(
            gains=np.array([s.gains for s in systems], dtype=float),
            bits=np.array([s.upload_bits for s in systems], dtype=float),
            noise=np.array([[s.noise_psd_w_per_hz] * s.num_devices for s in systems], dtype=float),
            p_min=np.array([s.min_power_w for s in systems], dtype=float),
            p_max=np.array([s.max_power_w for s in systems], dtype=float),
            budget=np.array([s.total_bandwidth_hz for s in systems], dtype=float),
        )

    def take(self, rows: np.ndarray) -> SystemRows:
        """The stack of the given rows."""
        return SystemRows(*(getattr(self, f.name)[rows] for f in fields(self)))


@dataclass(frozen=True)
class SP2Rows:
    """Closed-form SP2_v2 outcomes of one stack of same-size lanes.

    Row ``k`` is lane ``k``'s allocation, its rates there (the only rate
    evaluation of the allocation, which Algorithm 1's step reuses), its
    rate multipliers ``tau``, bandwidth multiplier, feasibility verdict and
    objective; ``roots[k]`` is its constrained roots at a positive
    multiplier.  ``errors[k]`` is the exception the lane raised instead,
    whose rows are then meaningless.
    """

    power: np.ndarray
    bandwidth: np.ndarray
    rates: np.ndarray
    tau: np.ndarray
    mu: np.ndarray
    feasible: np.ndarray
    objective: np.ndarray
    roots: list[np.ndarray | None]
    errors: list[Exception | None]

    def result(self, k: int) -> SP2Result | Exception:
        """Lane ``k``'s :class:`SP2Result`, or the exception it raised."""
        error = self.errors[k]
        if error is not None:
            return error
        return SP2Result(
            power_w=self.power[k],
            bandwidth_hz=self.bandwidth[k],
            objective=float(self.objective[k]),
            bandwidth_multiplier=float(self.mu[k]),
            rate_multipliers=self.tau[k],
            feasible=bool(self.feasible[k]),
            method="kkt",
            constrained_roots=self.roots[k],
        )


def _subset_row_sums(values: np.ndarray, mask: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``values[k][mask[k]].sum()`` for every row ``k`` in ``rows``, bit for bit.

    The rows are summed as rectangular stacks grouped by subset size: a
    zero-masked or zero-padded full-width sum would change NumPy's pairwise
    summation tree for subsets of 8 or more.
    """
    if rows.size == 1:
        k = int(rows[0])
        return np.array([values[k][mask[k]].sum()])
    counts = mask[rows].sum(axis=1)
    sums = np.zeros(rows.size)
    for size in set(counts.tolist()):
        if size:
            at = counts == size
            sel = rows[at]
            sums[at] = values[sel][mask[sel]].reshape(sel.size, size).sum(axis=1)
    return sums


def _sp2_prepare_rows(
    stack: SystemRows,
    nu: np.ndarray,
    beta: np.ndarray,
    min_rate_bps: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[Exception | None]]:
    """Clamp a stack's SP2_v2 inputs and derive the multiplier-search coefficients.

    Returns ``(nu, beta, rmin, j, constrained, errors)`` with
    ``j_n = nu_n d_n N0 / g_n``, ``constrained`` the rate-constrained device
    mask, and ``errors[k]`` set for a lane with an infinite requirement.
    """
    nu = np.maximum(nu, 1e-300)
    beta = np.maximum(beta, 0.0)
    rmin = np.maximum(min_rate_bps, 0.0)
    errors: list[Exception | None] = [None] * nu.shape[0]
    if not np.isfinite(rmin).all():
        for k in np.flatnonzero(~np.isfinite(rmin).all(axis=1)).tolist():
            errors[k] = InfeasibleProblemError("infinite rate requirement in SP2_v2")
    j = nu * stack.bits * stack.noise / stack.gains
    return nu, beta, rmin, j, rmin > 0.0, errors


def _sp2_certify_rows(
    stack: SystemRows,
    nu: np.ndarray,
    beta: np.ndarray,
    rmin: np.ndarray,
    power: np.ndarray,
    bandwidth: np.ndarray,
    live: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Power repair, rates, feasibility verdict and SP2_v2 objective of a stack.

    Wherever a rate target is missed (clipping power into its box after the
    KKT step can leave a small shortfall), power is raised within its box,
    which never increases bandwidth.  Rates are evaluated once and
    re-evaluated only on the repaired devices.  Rows outside ``live`` are
    not repaired.  Returns ``(power, rates, feasible, objective)``.
    """
    rates = shannon_rate(power, bandwidth, stack.gains, stack.noise)
    short = rates < rmin * (1.0 - 1e-9)
    if live is not None:
        short &= live[:, None]
    if short.any():
        noise = stack.noise[short]
        bandwidth_s, gains_s = bandwidth[short], stack.gains[short]
        needed = required_power_for_rate(rmin[short], bandwidth_s, gains_s, noise)
        power = power.copy()
        power[short] = np.clip(
            np.maximum(power[short], needed), stack.p_min[short], stack.p_max[short]
        )
        rates[short] = shannon_rate(power[short], bandwidth_s, gains_s, noise)
    feasible = np.all(rates >= rmin * (1.0 - 1e-6) - 1e-9, axis=1) & (
        bandwidth.sum(axis=1) <= stack.budget * (1.0 + 1e-6)
    )
    objective = (nu * (power * stack.bits - beta * rates)).sum(axis=1)
    return power, rates, feasible, objective


def _sp2_finish_rows(
    stack: SystemRows,
    nu: np.ndarray,
    beta: np.ndarray,
    rmin: np.ndarray,
    j: np.ndarray,
    constrained: np.ndarray,
    mu: np.ndarray,
    x: np.ndarray,
    errors: list[Exception | None],
) -> tuple[np.ndarray, ...]:
    """Assemble the SP2_v2 allocations of a stack from its solved multipliers.

    The tail of the closed-form path, one pass over the ``(lanes, n)``
    stack: rate-active bandwidths and powers, ``tau``, the box LP (A.6) for
    the slack devices (with the ``p_min`` relax-and-retry), power repair,
    the feasibility verdict and the objective.  ``x`` holds each lane's
    constrained roots at its multiplier ``mu``.  A lane that raises records
    its exception in ``errors`` (lanes already there are skipped); every
    other row is bit-identical to the one-lane tail: elementwise formulas
    are shared, and subset sums and LPs run over stacks grouped by subset
    size.  Returns ``(power, bandwidth, rates, tau, feasible, objective)``.
    """
    gains, noise = stack.gains, stack.noise
    lanes, n = nu.shape
    live = np.array([error is None for error in errors])

    solved = constrained & (mu > 0.0)[:, None]
    if solved.any():
        # Rate-active devices: a_n = nu_n beta_n + tau_n at stationarity.
        tau_c = j * _LN2 * x - nu * beta
        tau = np.maximum(tau_c, 0.0)
        active = solved & (tau_c > 0.0)
        if active.all():
            # Every device rate-active (the common case): no masking.
            bandwidth = rmin * _LN2 / np.log(x)
            power = np.clip((x - 1.0) * noise * bandwidth / gains, stack.p_min, stack.p_max)
            num_active = np.full(lanes, n)
            remaining = stack.budget - bandwidth.sum(axis=1)
        else:
            tau = np.where(solved, tau, 0.0)
            x_active = np.where(active, x, 2.0)
            bw_active = rmin * _LN2 / np.log(x_active)
            pw_active = (x_active - 1.0) * noise * bw_active / gains
            bandwidth = np.where(active, bw_active, 0.0)
            power = np.where(active, np.clip(pw_active, stack.p_min, stack.p_max), 0.0)
            num_active = active.sum(axis=1)
            remaining = stack.budget - _subset_row_sums(bandwidth, active, np.arange(lanes))
        over = live & (remaining < -1e-6 * stack.budget)
        if over.any():
            for k in np.flatnonzero(over).tolist():
                errors[k] = InfeasibleProblemError(
                    "active rate constraints exceed the bandwidth budget"
                )
            live &= ~over
        remaining = np.where(0.0 > remaining, 0.0, remaining)  # max(remaining, 0.0)
    else:
        tau, bandwidth, power = np.zeros((3, lanes, n))
        active = np.zeros((lanes, n), dtype=bool)
        num_active = np.zeros(lanes, dtype=int)
        remaining = stack.budget

    slack = np.flatnonzero(live & (num_active < n))
    if slack.size:
        bits = stack.bits
        inactive = ~active
        # Stationary SNR factor with tau = 0 (eq. (A.1) specialised); the
        # clamp guards the theoretical corner beta -> 0, which cannot occur
        # when beta comes from an actual feasible iterate.
        x0 = np.maximum(beta * gains / (noise * bits * _LN2), 1.0 + 1e-12)
        slope = np.log2(x0)
        # Problem (A.6): linear cost per hertz of bandwidth.
        costs = nu * ((x0 - 1.0) * noise * bits / gains - beta * slope)

        lower_rate = np.where(rmin > 0.0, rmin / slope, 0.0)
        lower_power = stack.p_min * gains / ((x0 - 1.0) * noise)
        upper_power = stack.p_max * gains / ((x0 - 1.0) * noise)
        lower = np.maximum(lower_rate, lower_power)
        upper = np.maximum(upper_power, lower)

        cap = remaining * (1.0 + 1e-9)
        relax = slack[_subset_row_sums(lower, inactive, slack) > cap[slack]]
        if relax.size:
            # Relax the p_min-induced lower bound (the final clip to p_min can
            # only increase the achieved rate) and retry before giving up.
            lower[relax] = lower_rate[relax]
            upper[relax] = np.maximum(upper[relax], lower_rate[relax])
            over = relax[_subset_row_sums(lower, inactive, relax) > cap[relax]]
            for k in over.tolist():
                errors[k] = InfeasibleProblemError(
                    "LP lower bounds exceed the remaining bandwidth budget"
                )
            live[over] = False
            slack = slack[live[slack]]
        # The box LP (A.6) over each stack of lanes with the same number of
        # slack devices (all of them, when no device is rate-active).
        bandwidth = bandwidth.copy()
        sizes = n - num_active[slack]
        for size in set(sizes.tolist()):
            sel = slack[sizes == size]
            if size == n:
                grants, lp_errors = solve_box_budget_lp_rows(
                    costs[sel], lower[sel], upper[sel], remaining[sel]
                )
                bandwidth[sel] = grants
            else:
                sub = inactive[sel]
                shape = (sel.size, size)
                grants, lp_errors = solve_box_budget_lp_rows(
                    costs[sel][sub].reshape(shape),
                    lower[sel][sub].reshape(shape),
                    upper[sel][sub].reshape(shape),
                    remaining[sel],
                )
                block = bandwidth[sel]
                block[sub] = grants.ravel()
                bandwidth[sel] = block
            for k, message in zip(sel.tolist(), lp_errors):
                if message is not None:
                    errors[k] = InfeasibleProblemError(message)
                    live[k] = False
        pw_slack = np.clip((x0 - 1.0) * noise * bandwidth / gains, stack.p_min, stack.p_max)
        power = np.where(inactive, pw_slack, power)

    power, rates, feasible, objective = _sp2_certify_rows(
        stack, nu, beta, rmin, power, bandwidth, live
    )
    return power, bandwidth, rates, tau, feasible, objective


def _solve_sp2_stacks(
    stacks: Sequence[SystemRows],
    nus: Sequence[np.ndarray],
    betas: Sequence[np.ndarray],
    min_rates: Sequence[np.ndarray],
    *,
    mu_tol: float = 1e-13,
    hints: Sequence[Sequence[MuHint | None]] | None = None,
) -> list[SP2Rows]:
    """Closed-form SP2_v2 over stacks of same-size lanes, one :class:`SP2Rows` each.

    The one closed-form solver: Algorithm 1 runs it on its stacks every
    round, and :func:`solve_sp2_v2` on one row.  Every stack is prepared
    and finished in one rows pass (:func:`_sp2_prepare_rows`,
    :func:`_sp2_finish_rows`); every array pass is elementwise, a row
    reduction or a sum over a rectangular stack of equal-size subsets, so
    no lane's bits depend on its neighbours.  The multiplier searches of
    all stacks are grouped by constrained-device count, so lanes of
    different sizes still share a lockstep rows search: a group of two or
    more lanes runs :func:`_mu_search_vector_rows`, a one-lane group the
    1-D :func:`_mu_search_vector`.  Both hand their bracket to the
    entry-independent polish, which collapses them onto the same double.
    A lane's :class:`InfeasibleProblemError` or
    :class:`~repro.exceptions.ConvergenceError` is kept in its row
    (``SP2Rows.errors``) instead of raised.

    ``hints[s][k]`` is the warm-start hint of lane ``k`` of stack ``s``: a
    previous ``(bandwidth_multiplier, constrained_roots)`` of the same
    lane, whose constrained-device set must not have changed.  A missing,
    unusable or unhelpful hint means a cold start, with the same result
    bits.
    """
    prepared = [
        _sp2_prepare_rows(stack, nu, beta, rmin)
        for stack, nu, beta, rmin in zip(stacks, nus, betas, min_rates)
    ]
    mus: list[np.ndarray] = []
    xs: list[np.ndarray] = []
    roots: list[list[np.ndarray | None]] = []
    # (stack, lane) pairs by constrained-device count; lanes with no
    # rate-constrained device skip the search (mu = 0).
    searches: dict[int, list[tuple[int, int]]] = {}
    for s, (_, _, _, j, constrained, errors) in enumerate(prepared):
        mus.append(np.zeros(j.shape[0]))
        xs.append(np.full(j.shape, 2.0))
        roots.append([None] * j.shape[0])
        for k, (n_c, error) in enumerate(zip(constrained.sum(axis=1).tolist(), errors)):
            if n_c and error is None:
                searches.setdefault(n_c, []).append((s, k))

    def hint_of(s: int, k: int) -> MuHint | None:
        return None if hints is None else hints[s][k]

    for n_c, lanes in searches.items():
        if len(lanes) == 1:
            for s, k in lanes:
                _, _, rmin, j, constrained, errors = prepared[s]
                c = constrained[k]
                try:
                    mu, x_c = _mu_search_vector(
                        j[k][c],
                        rmin[k][c],
                        float(stacks[s].budget[k]),
                        mu_tol=mu_tol,
                        hint=hint_of(s, k),
                    )
                except ConvergenceError as exc:
                    errors[k] = exc
                    continue
                mus[s][k] = mu
                if mu > 0.0:
                    xs[s][k, c] = x_c
                    roots[s][k] = x_c
            continue
        pieces: dict[int, list[int]] = {}
        for s, k in lanes:
            pieces.setdefault(s, []).append(k)
        j_rows, rmin_rows = (
            np.concatenate(
                [
                    prepared[s][col][ks][prepared[s][4][ks]].reshape(len(ks), n_c)
                    for s, ks in pieces.items()
                ]
            )
            for col in (3, 2)
        )
        mu_rows, x_rows, search_errors = _mu_search_vector_rows(
            j_rows,
            rmin_rows,
            np.concatenate([stacks[s].budget[ks] for s, ks in pieces.items()]),
            mu_tol=mu_tol,
            hints=[hint_of(s, k) for s, ks in pieces.items() for k in ks],
        )
        at = 0
        for s, ks in pieces.items():
            errors, constrained = prepared[s][5], prepared[s][4]
            for k in ks:
                if search_errors[at] is not None:
                    errors[k] = ConvergenceError(search_errors[at])
                elif mu_rows[at] > 0.0:
                    mus[s][k] = mu_rows[at]
                    xs[s][k, constrained[k]] = x_rows[at]
                    roots[s][k] = x_rows[at]
                at += 1

    out: list[SP2Rows] = []
    for s, stack in enumerate(stacks):
        nu, beta, rmin, j, constrained, errors = prepared[s]
        power, bandwidth, rates, tau, feasible, objective = _sp2_finish_rows(
            stack, nu, beta, rmin, j, constrained, mus[s], xs[s], errors
        )
        out.append(
            SP2Rows(power, bandwidth, rates, tau, mus[s], feasible, objective, roots[s], errors)
        )
    return out


def solve_sp2_v2(
    system: SystemModel,
    nu: np.ndarray,
    beta: np.ndarray,
    min_rate_bps: np.ndarray,
    *,
    mu_tol: float = 1e-13,
) -> SP2Result:
    """Closed-form KKT solution of SP2_v2 (Theorem 2 / Appendix B).

    A one-row :func:`_solve_sp2_stacks` call, so the multiplier search is
    the 1-D :func:`_mu_search_vector`: it brackets the root in one batched
    Lambert call and runs a safeguarded Halley iteration over all devices
    in single array passes, then polishes the root onto its exact double.
    The search starts cold: warm-start hints are Algorithm 1's, per run.

    Raises :class:`InfeasibleProblemError` when the decomposition's lower
    bounds cannot fit into the bandwidth budget, and
    :class:`~repro.exceptions.ConvergenceError` when the multiplier search
    exhausts one of its iteration caps (callers fall back to
    :func:`solve_sp2_v2_numeric` in both cases).
    """
    (out,) = _solve_sp2_stacks(
        [SystemRows.of([system])],
        [np.array([nu], dtype=float)],
        [np.array([beta], dtype=float)],
        [np.array([min_rate_bps], dtype=float)],
        mu_tol=mu_tol,
    )
    result = out.result(0)
    if isinstance(result, Exception):
        raise result
    return result


def solve_sp2_v2_numeric(
    system: SystemModel,
    nu: np.ndarray,
    beta: np.ndarray,
    min_rate_bps: np.ndarray,
    *,
    infeasible_penalty: float = 1e12,
) -> SP2Result:
    """Numeric dual-decomposition solution of SP2_v2 (fallback / cross-check).

    For a fixed bandwidth ``B_n`` the optimal power is

        p_n*(B_n) = clip( (x0_n - 1) N0 B_n / g_n,  max(p_min, p_req(B_n)),  p_max )

    with ``x0_n = beta_n g_n / (N0 d_n ln 2)`` the unconstrained stationary
    SNR factor and ``p_req`` the power needed to meet the rate target.  The
    per-device value function is convex in ``B_n``; the bandwidth budget is
    then handled by :func:`minimize_separable_with_budget`.
    """
    gains = system.gains
    bits = system.upload_bits
    noise = system.noise_psd_w_per_hz
    p_min = system.min_power_w
    p_max = system.max_power_w
    budget = system.total_bandwidth_hz

    nu = np.maximum(np.asarray(nu, dtype=float), 0.0)
    beta = np.maximum(np.asarray(beta, dtype=float), 0.0)
    rmin = np.maximum(np.asarray(min_rate_bps, dtype=float), 0.0)

    lower = min_bandwidth_for_rate(
        rmin, p_max, gains, noise, bandwidth_cap_hz=budget
    )
    if np.any(~np.isfinite(lower)) or lower.sum() > budget * (1.0 + 1e-6):
        raise InfeasibleProblemError(
            "rate requirements cannot be met within the bandwidth budget"
        )
    if lower.sum() > budget:
        # The requirements fill the budget exactly (up to round-off); shrink
        # marginally so the feasible box is non-empty.
        lower *= budget / lower.sum()
    upper = np.maximum(np.full_like(lower, budget), lower)
    x0 = np.maximum(beta * gains / (noise * bits * _LN2), 1.0 + 1e-12)

    def optimal_power(bandwidth: np.ndarray) -> np.ndarray:
        stationary = (x0 - 1.0) * noise * bandwidth / gains
        required = required_power_for_rate(rmin, bandwidth, gains, noise)
        lower_p = np.maximum(p_min, np.minimum(required, infeasible_penalty))
        return np.clip(stationary, lower_p, p_max)

    def per_device_objective(bandwidth: np.ndarray) -> np.ndarray:
        bw = np.maximum(bandwidth, 1e-6)
        power = optimal_power(bw)
        rates = shannon_rate(power, bw, gains, noise)
        value = nu * (power * bits - beta * rates)
        shortfall = np.maximum(rmin - rates, 0.0)
        return value + infeasible_penalty * shortfall / np.maximum(rmin, 1.0)

    result = minimize_separable_with_budget(
        per_device_objective, lower, upper, budget
    )
    bandwidth = result.x
    power, _, feasible, objective = _sp2_certify_rows(
        SystemRows.of([system]),
        nu[None],
        beta[None],
        rmin[None],
        optimal_power(bandwidth)[None],
        bandwidth[None],
    )
    return SP2Result(
        power_w=power[0],
        bandwidth_hz=bandwidth,
        objective=float(objective[0]),
        bandwidth_multiplier=result.multiplier,
        rate_multipliers=np.zeros_like(bandwidth),
        feasible=bool(feasible[0]),
        method="numeric",
    )
