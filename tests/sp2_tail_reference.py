"""Frozen per-lane Algorithm-1 tail: the one-lane-at-a-time reference.

:func:`repro.core.subproblem2._sp2_finish_rows` builds the SP2_v2
allocations, and :class:`repro.core.sum_of_ratios._LaneRows` takes the damped
Newton step, once per round over a stack of same-size lanes.  This module
keeps the per-lane code they replaced, unchanged: the SP2_v2 preparation and
allocation tail (rate-active bandwidths, box LP (A.6), ``p_min``
relax-and-retry, power repair, feasibility verdict), the 1-D greedy box LP,
the 1-D damped Newton step, and the per-lane Algorithm-1 state machine with
its lockstep driver.  The multiplier searches, the numeric fallback and the
system model are read from the library at call time, so the tests hold the
stacked tail to the same bits, exception types and messages included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core import subproblem2
from repro.core.convergence import ConvergenceHistory
from repro.core.subproblem2 import (
    _LN2,
    MuHint,
    SP2Result,
    solve_sp2_v2_numeric,
    sp2_objective,
)
from repro.core.sum_of_ratios import SumOfRatiosResult
from repro.exceptions import ConvergenceError, InfeasibleProblemError, SolverError
from repro.perf.timers import stage
from repro.system import SystemModel
from repro.wireless.rate import required_power_for_rate


@dataclass(frozen=True)
class BoxBudgetLPResult:
    """Solution of a box-constrained budget LP."""

    x: np.ndarray
    objective: float
    budget_used: float
    budget_slack: float


@dataclass(frozen=True)
class DampedNewtonResult:
    """Outcome of one damped Newton-like update."""

    alpha: np.ndarray
    residual_norm: float
    step_exponent: int
    step_size: float
    accepted: bool


def solve_box_budget_lp(
    costs: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    budget: float,
    *,
    atol: float = 1e-9,
) -> BoxBudgetLPResult:
    """Solve ``min c.x  s.t.  lower <= x <= upper,  sum(x) <= budget``.

    Raises :class:`InfeasibleProblemError` when ``sum(lower) > budget`` (the
    lower bounds alone exceed the budget) or any ``lower > upper``.
    """
    c = np.asarray(costs, dtype=float)
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    if not (c.shape == lo.shape == hi.shape):
        raise ValueError("costs, lower and upper must have identical shapes")
    if np.any(lo > hi + atol):
        raise InfeasibleProblemError("box LP has lower > upper for some variable")
    hi = np.maximum(hi, lo)
    if lo.sum() > budget + atol:
        raise InfeasibleProblemError(
            f"box LP lower bounds sum to {lo.sum():.6g} > budget {budget:.6g}"
        )

    x = lo.copy()
    remaining = budget - lo.sum()
    # Only variables with negative cost want more than their lower bound.
    order = np.argsort(c)
    for idx in order:
        if c[idx] >= 0.0 or remaining <= atol:
            break
        room = hi[idx] - x[idx]
        grant = min(room, remaining)
        x[idx] += grant
        remaining -= grant

    used = float(x.sum())
    return BoxBudgetLPResult(
        x=x,
        objective=float(c @ x),
        budget_used=used,
        budget_slack=float(budget - used),
    )


def damped_newton_step(
    alpha: np.ndarray,
    residual: Callable[[np.ndarray], np.ndarray],
    newton_direction: np.ndarray,
    *,
    xi: float = 0.5,
    eps: float = 0.01,
    max_backtracks: int = 30,
) -> DampedNewtonResult:
    """Perform one damped Newton update with the Armijo-like rule (29).

    Parameters
    ----------
    alpha:
        Current iterate of the auxiliary variables.
    residual:
        Function returning ``phi(alpha)`` as an array.
    newton_direction:
        The full Newton step ``sigma = -J^-1 phi(alpha)`` (already computed
        by the caller, who knows the diagonal Jacobian).
    xi, eps:
        Damping base and sufficient-decrease constant, both in ``(0, 1)``.
    max_backtracks:
        Maximum exponent ``j`` tried before accepting the smallest step.
    """
    if not 0.0 < xi < 1.0:
        raise ValueError(f"xi must be in (0, 1), got {xi}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    alpha = np.asarray(alpha, dtype=float)
    direction = np.asarray(newton_direction, dtype=float)
    base_norm = float(np.linalg.norm(residual(alpha)))
    if base_norm == 0.0:
        return DampedNewtonResult(
            alpha=alpha, residual_norm=0.0, step_exponent=0, step_size=1.0, accepted=True
        )
    # A bounded line search *is* the fallback: exhaustion takes the smallest
    # step and reports it via accepted=False, which the caller's damping
    # logic (condition (29)) handles — not a silent convergence miss.
    for j in range(max_backtracks + 1):  # repro-lint: disable=RL002 -- exhaustion is recorded in DampedNewtonResult.accepted
        step = xi**j
        candidate = alpha + step * direction
        norm = float(np.linalg.norm(residual(candidate)))
        if norm <= (1.0 - eps * step) * base_norm:
            return DampedNewtonResult(
                alpha=candidate,
                residual_norm=norm,
                step_exponent=j,
                step_size=step,
                accepted=True,
            )
    # No step satisfied the decrease condition; take the smallest step anyway
    # so the outer loop can still make progress (matches the behaviour of a
    # bounded line search).
    step = xi**max_backtracks
    candidate = alpha + step * direction
    return DampedNewtonResult(
        alpha=candidate,
        residual_norm=float(np.linalg.norm(residual(candidate))),
        step_exponent=max_backtracks,
        step_size=step,
        accepted=False,
    )


def _rate_feasibility(
    system: SystemModel,
    power_w: np.ndarray,
    bandwidth_hz: np.ndarray,
    min_rate_bps: np.ndarray,
    rtol: float = 1e-6,
) -> bool:
    rates = system.rates_bps(power_w, bandwidth_hz)
    return bool(np.all(rates >= min_rate_bps * (1.0 - rtol) - 1e-9))


def _repair_rates(
    system: SystemModel,
    power_w: np.ndarray,
    bandwidth_hz: np.ndarray,
    min_rate_bps: np.ndarray,
) -> np.ndarray:
    """Raise power (within its box) wherever the rate target is missed.

    The closed-form path clips power into ``[p_min, p_max]`` after the KKT
    step, which can leave a small rate shortfall; bumping the power back up
    is always feasible for the power box and never increases bandwidth.
    """
    rates = system.rates_bps(power_w, bandwidth_hz)
    short = rates < min_rate_bps * (1.0 - 1e-9)
    if not np.any(short):
        return power_w
    repaired = power_w.copy()
    needed = required_power_for_rate(
        min_rate_bps[short],
        bandwidth_hz[short],
        system.gains[short],
        system.noise_psd_w_per_hz,
    )
    repaired[short] = np.clip(
        np.maximum(power_w[short], needed),
        system.min_power_w[short],
        system.max_power_w[short],
    )
    return repaired




def _sp2_prepare(
    system: SystemModel,
    nu: np.ndarray,
    beta: np.ndarray,
    min_rate_bps: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Clamp the SP2_v2 inputs and derive the multiplier-search coefficients.

    Returns ``(nu, beta, rmin, j, constrained)`` with
    ``j_n = nu_n d_n N0 / g_n`` and ``constrained`` the rate-constrained
    device mask.  Run per lane by :func:`solve_sp2_v2_rows_reference`.
    """
    nu = np.maximum(np.asarray(nu, dtype=float), 1e-300)
    beta = np.maximum(np.asarray(beta, dtype=float), 0.0)
    rmin = np.maximum(np.asarray(min_rate_bps, dtype=float), 0.0)
    if np.any(~np.isfinite(rmin)):
        raise InfeasibleProblemError("infinite rate requirement in SP2_v2")
    j = nu * system.upload_bits * system.noise_psd_w_per_hz / system.gains
    return nu, beta, rmin, j, rmin > 0.0



def _sp2_finish(
    system: SystemModel,
    nu: np.ndarray,
    beta: np.ndarray,
    rmin: np.ndarray,
    j: np.ndarray,
    constrained: np.ndarray,
    mu: float,
    x_c: np.ndarray | None,
) -> SP2Result:
    """Assemble the SP2_v2 allocation from a solved bandwidth multiplier.

    The tail of the closed-form path — rate-active bandwidths, the box LP
    (A.6) for the slack devices, power repair, and the feasibility verdict —
    run per lane by :func:`solve_sp2_v2_rows_reference`, so every lane is
    bit-identical to a one-lane solve from the multiplier onward.
    """
    gains = system.gains
    bits = system.upload_bits
    noise = system.noise_psd_w_per_hz
    p_min = system.min_power_w
    p_max = system.max_power_w
    budget = system.total_bandwidth_hz
    n = system.num_devices

    power = np.zeros(n)
    bandwidth = np.zeros(n)
    tau = np.zeros(n)

    if np.any(constrained):
        j_c = j[constrained]

        if mu > 0.0:
            a_c = j_c * _LN2 * x_c  # a_n = nu_n beta_n + tau_n at stationarity
            tau_c = a_c - nu[constrained] * beta[constrained]
            tau_full = np.zeros(n)
            tau_full[constrained] = np.maximum(tau_c, 0.0)
            tau = tau_full

            active = constrained.copy()
            active[constrained] = tau_c > 0.0
            if np.any(active):
                x_active = x_c[tau_c > 0.0]
                bw_active = rmin[active] * _LN2 / np.log(x_active)
                pw_active = (x_active - 1.0) * noise * bw_active / gains[active]
                bandwidth[active] = bw_active
                power[active] = np.clip(pw_active, p_min[active], p_max[active])
        else:
            active = np.zeros(n, dtype=bool)
    else:
        active = np.zeros(n, dtype=bool)

    inactive = ~active
    remaining = budget - float(bandwidth[active].sum())
    if remaining < -1e-6 * budget:
        raise InfeasibleProblemError("active rate constraints exceed the bandwidth budget")
    remaining = max(remaining, 0.0)

    if np.any(inactive):
        g_i = gains[inactive]
        d_i = bits[inactive]
        nu_i = nu[inactive]
        beta_i = beta[inactive]
        rmin_i = rmin[inactive]
        p_min_i = p_min[inactive]
        p_max_i = p_max[inactive]

        # Stationary SNR factor with tau = 0 (eq. (A.1) specialised); the
        # clamp guards the theoretical corner beta -> 0, which cannot occur
        # when beta comes from an actual feasible iterate.
        x0 = np.maximum(beta_i * g_i / (noise * d_i * _LN2), 1.0 + 1e-12)
        slope = np.log2(x0)
        # Problem (A.6): linear cost per hertz of bandwidth.
        costs = nu_i * ((x0 - 1.0) * noise * d_i / g_i - beta_i * slope)

        lower_rate = np.where(rmin_i > 0.0, rmin_i / slope, 0.0)
        lower_power = p_min_i * g_i / ((x0 - 1.0) * noise)
        upper_power = p_max_i * g_i / ((x0 - 1.0) * noise)
        lower = np.maximum(lower_rate, lower_power)
        upper = np.maximum(upper_power, lower)

        if lower.sum() > remaining * (1.0 + 1e-9):
            # Relax the p_min-induced lower bound (the final clip to p_min can
            # only increase the achieved rate) and retry before giving up.
            lower = lower_rate
            upper = np.maximum(upper, lower)
            if lower.sum() > remaining * (1.0 + 1e-9):
                raise InfeasibleProblemError(
                    "LP lower bounds exceed the remaining bandwidth budget"
                )
        lp = solve_box_budget_lp(costs, lower, upper, remaining)
        bw_i = lp.x
        pw_i = np.clip((x0 - 1.0) * noise * bw_i / g_i, p_min_i, p_max_i)
        bandwidth[inactive] = bw_i
        power[inactive] = pw_i

    power = _repair_rates(system, power, bandwidth, rmin)
    feasible = (
        _rate_feasibility(system, power, bandwidth, rmin)
        and float(bandwidth.sum()) <= budget * (1.0 + 1e-6)
    )
    return SP2Result(
        power_w=power,
        bandwidth_hz=bandwidth,
        objective=sp2_objective(system, nu, beta, power, bandwidth),
        bandwidth_multiplier=float(mu),
        rate_multipliers=tau,
        feasible=feasible,
        method="kkt",
        constrained_roots=x_c if mu > 0.0 else None,
    )


def solve_sp2_v2_rows_reference(
    systems: Sequence[SystemModel],
    nus: Sequence[np.ndarray],
    betas: Sequence[np.ndarray],
    min_rates: Sequence[np.ndarray],
    *,
    mu_tol: float = 1e-13,
    hints: Sequence[MuHint | None] | None = None,
) -> list[SP2Result | Exception]:
    """Closed-form SP2_v2 across independent lanes.

    Lane ``i`` solves SP2_v2 for ``(systems[i], nus[i], betas[i],
    min_rates[i])``, and its :class:`SP2Result` is bit-identical to the
    one-lane call ``solve_sp2_v2(systems[i], nus[i], betas[i],
    min_rates[i])``: preparation and the allocation tail
    run per lane (:func:`_sp2_prepare` / :func:`_sp2_finish`).  Lanes are
    grouped by constrained-device count so all array passes run over
    rectangular stacks (ragged padding would change NumPy's
    pairwise-summation trees and break bit parity).

    The bandwidth-multiplier search picks its kernel by lane count: a
    group of two or more lanes runs the lockstep rows search
    (:func:`_mu_search_vector_rows`, one bracketing call for the group,
    then one candidate per lane per round), a one-lane group runs the 1-D
    search (:func:`_mu_search_vector`, the same state machine without
    per-lane masks, scanning past the bracketing call in chunks of
    candidates).  Both are read from the library at call time, so under
    :func:`tests.mu_search_scalar_reference.scalar_oracle` both run the
    probe-sequential oracle lane by lane.  Every path hands its bracket to
    the entry-independent polish, which collapses them onto the same double.

    ``hints[i]`` (optional) is lane ``i``'s warm-start hint for the vector
    searches: a previous ``(bandwidth_multiplier, constrained_roots)`` of
    the same lane, whose constrained-device set must not have changed.  A
    missing, unusable or unhelpful hint means a cold start, with the same
    result bits; the scalar oracle ignores hints.

    Exceptions are returned in-place rather than raised so one diverged or
    infeasible lane cannot abort its neighbours: each element is either a
    result or the :class:`InfeasibleProblemError` /
    :class:`~repro.exceptions.ConvergenceError` the per-drop call would
    have raised, letting callers replicate their per-lane fallback logic.
    """
    num_lanes = len(systems)
    results: list[SP2Result | Exception] = [
        InfeasibleProblemError("lane not solved") for _ in range(num_lanes)
    ]
    prepared: dict[int, tuple] = {}
    for i in range(num_lanes):
        try:
            prepared[i] = _sp2_prepare(systems[i], nus[i], betas[i], min_rates[i])
        except InfeasibleProblemError as exc:
            results[i] = exc

    # (mu, x_c) per prepared lane; lanes with no rate-constrained device
    # skip the search entirely, exactly like the per-drop path.
    solved: dict[int, tuple[float, np.ndarray | None]] = {}
    groups: dict[int, list[int]] = {}
    for i, (_, _, rmin, _, constrained) in prepared.items():
        if np.any(constrained):
            groups.setdefault(int(np.sum(constrained)), []).append(i)
        else:
            solved[i] = (0.0, None)
    if hints is None:
        hints = [None] * num_lanes
    for n_c, lanes in groups.items():
        if len(lanes) == 1:
            for i in lanes:
                _, _, rmin, j, constrained = prepared[i]
                try:
                    solved[i] = subproblem2._mu_search_vector(
                        j[constrained],
                        rmin[constrained],
                        systems[i].total_bandwidth_hz,
                        mu_tol=mu_tol,
                        hint=hints[i],
                    )
                except ConvergenceError as exc:
                    results[i] = exc
            continue
        j_rows = np.empty((len(lanes), n_c))
        rmin_rows = np.empty((len(lanes), n_c))
        budgets = np.empty(len(lanes))
        for k, i in enumerate(lanes):
            _, _, rmin, j, constrained = prepared[i]
            j_rows[k] = j[constrained]
            rmin_rows[k] = rmin[constrained]
            budgets[k] = systems[i].total_bandwidth_hz
        mu_arr, x_rows, errors = subproblem2._mu_search_vector_rows(
            j_rows, rmin_rows, budgets, mu_tol=mu_tol, hints=[hints[i] for i in lanes]
        )
        for k, i in enumerate(lanes):
            if errors[k] is not None:
                results[i] = ConvergenceError(errors[k])
            elif mu_arr[k] > 0.0:
                solved[i] = (float(mu_arr[k]), x_rows[k])
            else:
                solved[i] = (0.0, None)

    for i, (mu, x_c) in solved.items():
        nu, beta, rmin, j, constrained = prepared[i]
        try:
            results[i] = _sp2_finish(
                systems[i], nu, beta, rmin, j, constrained, mu, x_c
            )
        except InfeasibleProblemError as exc:
            results[i] = exc
    return results


def _rates(solver, power, bandwidth):
    """``SumOfRatiosSolver._rates`` as it was: the rates, all positive."""
    rates = solver.system.rates_bps(power, bandwidth)
    if np.any(rates <= 0.0):
        raise InfeasibleProblemError(
            "an iterate produced a zero uplink rate; the initial point must "
            "give every device positive power and bandwidth"
        )
    return rates


def _residual(solver, beta, nu, power, rates):
    """``SumOfRatiosSolver._residual`` as it was: ``phi`` stacked ``(phi1, phi2)``."""
    phi1 = -power * solver.system.upload_bits + beta * rates
    phi2 = -solver._scale + nu * rates
    return np.concatenate([phi1, phi2])


class BatchLaneReference:
    """Per-lane Algorithm-1 state of the lockstep solve.

    The one Algorithm-1 state machine: an initialisation (`__init__`), the
    fallback ladder for the lane's closed-form SP2_v2 attempt
    (:meth:`resolve_inner`) and one iteration's bookkeeping (:meth:`step`).
    :func:`solve_sum_of_ratios_rows_reference` drives any number of lanes in
    lockstep, and :meth:`SumOfRatiosSolver.solve` is a batch of one, so a
    lane's trajectory never depends on its neighbours.

    ``hint`` is the warm start for the lane's next multiplier search: the
    last closed-form attempt's polished multiplier and constrained-device
    roots.  It lives only as long as this lane (one Algorithm-1 run), starts
    as ``None`` (the first search is cold), and is dropped whenever the
    attempt raised, fell back to the numeric solver or the incumbent, or
    found the budget slack (``mu = 0``).  The search's polish is
    entry-independent, so the hint changes how fast a search runs, never
    its result.
    """

    def __init__(
        self,
        solver,
        min_rate_bps: np.ndarray,
        initial_power_w: np.ndarray,
        initial_bandwidth_hz: np.ndarray,
    ) -> None:
        self.solver = solver
        self.system = solver.system
        self.config = solver.config
        self.min_rate = np.maximum(np.asarray(min_rate_bps, dtype=float), 0.0)
        self.power = np.asarray(initial_power_w, dtype=float).copy()
        self.bandwidth = np.asarray(initial_bandwidth_hz, dtype=float).copy()
        rates = _rates(solver, self.power, self.bandwidth)
        self.beta = self.power * self.system.upload_bits / rates
        self.nu = solver._scale / rates
        self.history = ConvergenceHistory()
        self.converged = False
        self.feasible = True
        scale = float(
            np.linalg.norm(
                np.concatenate(
                    [
                        self.power * self.system.upload_bits,
                        np.full_like(self.power, solver._scale),
                    ]
                )
            )
        )
        self.residual_scale = max(scale, 1e-12)
        self.last_multiplier = 0.0
        self.iteration = 0
        self.hint: MuHint | None = None

    def resolve_inner(self, attempt: SP2Result | Exception) -> SP2Result:
        """Resolve the lane's closed-form SP2_v2 attempt into a usable step.

        ``attempt`` is this lane's outcome of the closed-form solve: either
        the :class:`SP2Result` or the exception it raised.  An infeasible or
        failed attempt falls back to the numeric solver and, as a last
        resort, to the (feasible) incumbent point; the caller's monotone
        objective guard keeps a bad step from being accepted.  With
        ``use_numeric_fallback`` off the attempt's exception is raised.
        """
        self.hint = None
        if isinstance(attempt, SP2Result):
            if attempt.feasible or not self.config.use_numeric_fallback:
                if attempt.constrained_roots is not None:
                    self.hint = (attempt.bandwidth_multiplier, attempt.constrained_roots)
                return attempt
        elif not self.config.use_numeric_fallback:
            raise attempt
        try:
            return solve_sp2_v2_numeric(
                self.system, self.nu, self.beta, self.min_rate
            )
        except (InfeasibleProblemError, SolverError):
            # SolverError covers the numeric path's own failure modes (e.g.
            # an unbracketable budget multiplier).
            return SP2Result(
                power_w=self.power.copy(),
                bandwidth_hz=self.bandwidth.copy(),
                objective=sp2_objective(
                    self.system, self.nu, self.beta, self.power, self.bandwidth
                ),
                bandwidth_multiplier=0.0,
                rate_multipliers=np.zeros_like(self.power),
                feasible=True,
                method="incumbent",
            )

    def step(self, inner: SP2Result) -> bool:
        """One Algorithm-1 iteration given the resolved inner solve.

        Returns ``True`` while the lane should keep iterating: the
        convergence tests, then (unless the lane converged) the damped
        Newton update of ``(beta, nu)`` — steps 5-6 of Algorithm 1.  A lane
        that exhausts ``max_iterations`` still takes that last update, so
        its final ``(beta, nu)`` track the ratios of its final ``(p, B)``.
        """
        system = self.system
        config = self.config
        solver = self.solver
        self.iteration += 1
        if inner.bandwidth_multiplier > 0.0:
            self.last_multiplier = inner.bandwidth_multiplier
        new_power, new_bandwidth = inner.power_w, inner.bandwidth_hz
        self.feasible = inner.feasible
        new_rates = _rates(solver, new_power, new_bandwidth)

        residual = _residual(solver, self.beta, self.nu, new_power, new_rates)
        residual_norm = float(np.linalg.norm(residual))
        objective = solver.energy_weight * system.global_rounds * float(
            np.sum(new_power * system.upload_bits / new_rates)
        )
        step_change = float(
            np.linalg.norm(new_power - self.power)
            / max(np.linalg.norm(self.power), 1e-30)
            + np.linalg.norm(new_bandwidth - self.bandwidth)
            / max(np.linalg.norm(self.bandwidth), 1e-30)
        )
        self.history.append(
            objective,
            residual=residual_norm,
            step_change=step_change,
            note=inner.method,
        )

        self.power, self.bandwidth = new_power, new_bandwidth
        if residual_norm <= config.residual_tol * self.residual_scale:
            self.converged = True
            return False
        if self.iteration > 1 and step_change <= config.step_tol:
            self.converged = True
            return False

        alpha = np.concatenate([self.beta, self.nu])
        target_beta = self.power * system.upload_bits / new_rates
        target_nu = solver._scale / new_rates
        direction = np.concatenate(
            [target_beta - self.beta, target_nu - self.nu]
        )
        power = self.power

        def residual_of_alpha(a: np.ndarray) -> np.ndarray:
            half = a.shape[0] // 2
            return _residual(solver, a[:half], a[half:], power, new_rates)

        update = damped_newton_step(
            alpha,
            residual_of_alpha,
            direction,
            xi=config.damping_xi,
            eps=config.damping_eps,
        )
        half = update.alpha.shape[0] // 2
        self.beta, self.nu = update.alpha[:half], update.alpha[half:]
        return self.iteration < config.max_iterations

    def result(self) -> SumOfRatiosResult:
        return SumOfRatiosResult(
            power_w=self.power,
            bandwidth_hz=self.bandwidth,
            nu=self.nu,
            beta=self.beta,
            communication_energy_j=self.system.global_rounds * float(
                np.sum(
                    self.power * self.system.upload_bits
                    / _rates(self.solver, self.power, self.bandwidth)
                )
            ),
            converged=self.converged,
            iterations=self.iteration,
            feasible=self.feasible,
            history=self.history,
            bandwidth_multiplier=self.last_multiplier,
        )


def solve_sum_of_ratios_rows_reference(
    solvers,
    min_rates: Sequence[np.ndarray],
    initial_powers: Sequence[np.ndarray],
    initial_bandwidths: Sequence[np.ndarray],
) -> list:
    """Lockstep batch of independent Algorithm-1 solves.

    Lane ``i`` runs Algorithm 1 for ``solvers[i]`` from ``(initial_powers[i],
    initial_bandwidths[i])`` under ``min_rates[i]``.  Each round, every
    active lane's SP2_v2 closed form is solved by one
    :func:`solve_sp2_v2_rows_reference` call
    (the kernel picks its 1-D or rows search by lane count), then the
    per-lane bookkeeping (fallback ladder, residuals, convergence tests,
    damped Newton update) runs lane by lane.  Converged or failed lanes drop
    out of subsequent rounds; stragglers keep iterating.  From its second
    round on, a lane's multiplier search starts warm from its previous
    round's multiplier (:class:`BatchLaneReference`'s ``hint``), falling back to a
    cold start when that fails; either start gives the same bits.

    A lane's result does not depend on its neighbours: a batch of one
    (:meth:`SumOfRatiosSolver.solve`) gives the same bits.  Exceptions (e.g.
    infeasible iterates) are returned in that lane's slot instead of
    raised, so one bad lane cannot abort the batch.
    """
    num_lanes = len(solvers)
    results: list[SumOfRatiosResult | Exception] = [
        SolverError("lane not solved") for _ in range(num_lanes)
    ]
    lanes: dict[int, BatchLaneReference] = {}
    for i in range(num_lanes):
        try:
            lanes[i] = BatchLaneReference(
                solvers[i], min_rates[i], initial_powers[i], initial_bandwidths[i]
            )
        except InfeasibleProblemError as exc:
            results[i] = exc
    active = [i for i in lanes if lanes[i].config.max_iterations >= 1]
    while active:
        inners: dict[int, SP2Result] = {}
        with stage("sp2_inner"):
            attempts = solve_sp2_v2_rows_reference(
                [lanes[i].system for i in active],
                [lanes[i].nu for i in active],
                [lanes[i].beta for i in active],
                [lanes[i].min_rate for i in active],
                hints=[lanes[i].hint for i in active],
            )
            for i, attempt in zip(active, attempts):
                try:
                    inners[i] = lanes[i].resolve_inner(attempt)
                except (InfeasibleProblemError, ConvergenceError) as exc:
                    results[i] = exc
                    lanes.pop(i)
        still: list[int] = []
        for i in active:
            if i not in inners:
                continue
            try:
                if lanes[i].step(inners[i]):
                    still.append(i)
            except (InfeasibleProblemError, ConvergenceError) as exc:
                results[i] = exc
                lanes.pop(i)
        active = still
    for i, lane in lanes.items():
        try:
            results[i] = lane.result()
        except InfeasibleProblemError as exc:
            results[i] = exc
    return results
