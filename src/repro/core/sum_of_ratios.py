"""Algorithm 1: the Newton-like sum-of-ratios solver for Subproblem 2.

Subproblem 2 minimises the total communication energy

    w1 R_g sum_n p_n d_n / G_n(p_n, B_n)

subject to the power box, the bandwidth budget and the per-device rate
requirements — an NP-hard sum-of-ratios problem.  Theorem 1 (after Jong's
parametric transformation) reduces it to finding auxiliary variables
``(beta, nu)`` such that the solution ``(p, B)`` of the subtractive problem
SP2_v2 satisfies

    phi_1,n = -p_n d_n + beta_n G_n = 0     and
    phi_2,n = -w1 R_g  + nu_n  G_n  = 0.

Algorithm 1 alternates (i) solving SP2_v2 for the current ``(beta, nu)`` and
(ii) a damped Newton update of ``(beta, nu)`` towards the exact ratios at
the new point.  Because the Jacobian of ``phi`` is ``diag(G_n)`` for both
blocks, the Newton direction is simply the difference between the exact
ratios and the current auxiliary values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..exceptions import ConvergenceError, InfeasibleProblemError, SolverError
from ..perf.timers import stage
from ..solvers.newton import damped_newton_step
from ..system import SystemModel
from .convergence import ConvergenceHistory
from .subproblem2 import (
    DEFAULT_BACKEND,
    MuHint,
    SP2Result,
    solve_sp2_v2_numeric,
    solve_sp2_v2_rows,
    sp2_objective,
    validate_backend,
)

__all__ = [
    "SumOfRatiosConfig",
    "SumOfRatiosResult",
    "SumOfRatiosSolver",
    "solve_sum_of_ratios_rows",
]


@dataclass(frozen=True)
class SumOfRatiosConfig:
    """Hyper-parameters of Algorithm 1."""

    #: Maximum number of outer iterations (``i_0`` in the paper).
    max_iterations: int = 30
    #: Damping base ``xi`` of the Newton-like update, in (0, 1).
    damping_xi: float = 0.5
    #: Sufficient-decrease constant ``epsilon`` of condition (29), in (0, 1).
    damping_eps: float = 0.01
    #: Relative tolerance on the residual ``|phi(beta, nu)|``.
    residual_tol: float = 1e-6
    #: Relative tolerance on the change of ``(p, B)`` between iterations.
    step_tol: float = 1e-8
    #: Whether to fall back to the numeric SP2_v2 solver when the
    #: closed-form path fails or returns an infeasible point.
    use_numeric_fallback: bool = True
    #: SP2_v2 inner-solve backend: ``"vector"`` (batched array passes, the
    #: default) or ``"scalar"`` (probe-sequential reference oracle).  Both
    #: agree within solver tolerance; the parity tests enforce it.
    backend: str = DEFAULT_BACKEND


@dataclass(frozen=True)
class SumOfRatiosResult:
    """Outcome of Algorithm 1."""

    power_w: np.ndarray
    bandwidth_hz: np.ndarray
    nu: np.ndarray
    beta: np.ndarray
    communication_energy_j: float
    converged: bool
    iterations: int
    feasible: bool
    history: ConvergenceHistory = field(default_factory=ConvergenceHistory)
    #: Final bandwidth multiplier of the inner KKT solve (0 when the budget
    #: constraint was slack).
    bandwidth_multiplier: float = 0.0


class SumOfRatiosSolver:
    """Solver object binding a system, an energy weight and a configuration."""

    def __init__(
        self,
        system: SystemModel,
        energy_weight: float,
        config: SumOfRatiosConfig | None = None,
        *,
        backend: str | None = None,
    ) -> None:
        if energy_weight <= 0.0:
            raise ValueError(
                "Algorithm 1 requires a positive energy weight; with w1 = 0 the "
                "communication energy does not appear in the objective"
            )
        self.system = system
        self.energy_weight = float(energy_weight)
        self.config = config or SumOfRatiosConfig()
        #: SP2 backend actually used: an explicit ``backend`` argument
        #: overrides the configuration's.
        self.backend = validate_backend(backend or self.config.backend)

    # -- helpers -----------------------------------------------------------
    @property
    def _scale(self) -> float:
        """The constant ``w1 R_g`` multiplying every ratio."""
        return self.energy_weight * self.system.global_rounds

    def _rates(self, power: np.ndarray, bandwidth: np.ndarray) -> np.ndarray:
        rates = self.system.rates_bps(power, bandwidth)
        if np.any(rates <= 0.0):
            raise InfeasibleProblemError(
                "an iterate produced a zero uplink rate; the initial point must "
                "give every device positive power and bandwidth"
            )
        return rates

    def _residual(
        self,
        beta: np.ndarray,
        nu: np.ndarray,
        power: np.ndarray,
        rates: np.ndarray,
    ) -> np.ndarray:
        phi1 = -power * self.system.upload_bits + beta * rates
        phi2 = -self._scale + nu * rates
        return np.concatenate([phi1, phi2])

    def communication_energy(self, power: np.ndarray, bandwidth: np.ndarray) -> float:
        """Total transmission energy ``R_g sum p d / r`` of an allocation."""
        rates = self._rates(power, bandwidth)
        return self.system.global_rounds * float(
            np.sum(power * self.system.upload_bits / rates)
        )

    # -- main loop ---------------------------------------------------------
    def solve(
        self,
        min_rate_bps: np.ndarray,
        initial_power_w: np.ndarray,
        initial_bandwidth_hz: np.ndarray,
    ) -> SumOfRatiosResult:
        """Run Algorithm 1 from a feasible ``(p, B)`` starting point.

        The auxiliary variables ``(beta, nu)`` start at the initial point's
        exact ratios, which is the paper's initialisation.  This is a
        one-lane :func:`solve_sum_of_ratios_rows` call; the lane's exception
        is raised.
        """
        (result,) = solve_sum_of_ratios_rows(
            [self], [min_rate_bps], [initial_power_w], [initial_bandwidth_hz]
        )
        if isinstance(result, Exception):
            raise result
        return result


class _BatchLane:
    """Per-lane Algorithm-1 state of the lockstep solve.

    The one Algorithm-1 state machine: an initialisation (`__init__`), the
    fallback ladder for the lane's closed-form SP2_v2 attempt
    (:meth:`resolve_inner`) and one iteration's bookkeeping (:meth:`step`).
    :func:`solve_sum_of_ratios_rows` drives any number of lanes in
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
        solver: SumOfRatiosSolver,
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
        rates = solver._rates(self.power, self.bandwidth)
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
        new_rates = solver._rates(new_power, new_bandwidth)

        residual = solver._residual(self.beta, self.nu, new_power, new_rates)
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
            return solver._residual(a[:half], a[half:], power, new_rates)

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
            communication_energy_j=self.solver.communication_energy(
                self.power, self.bandwidth
            ),
            converged=self.converged,
            iterations=self.iteration,
            feasible=self.feasible,
            history=self.history,
            bandwidth_multiplier=self.last_multiplier,
        )


def solve_sum_of_ratios_rows(
    solvers: Sequence[SumOfRatiosSolver],
    min_rates: Sequence[np.ndarray],
    initial_powers: Sequence[np.ndarray],
    initial_bandwidths: Sequence[np.ndarray],
) -> list[SumOfRatiosResult | Exception]:
    """Lockstep batch of independent Algorithm-1 solves.

    Lane ``i`` runs Algorithm 1 for ``solvers[i]`` from ``(initial_powers[i],
    initial_bandwidths[i])`` under ``min_rates[i]``.  Each round, every
    active lane's SP2_v2 closed form is solved by one
    :func:`~repro.core.subproblem2.solve_sp2_v2_rows` call per SP2 backend
    (the kernel picks its 1-D or rows search by lane count), then the
    per-lane bookkeeping (fallback ladder, residuals, convergence tests,
    damped Newton update) runs lane by lane.  Converged or failed lanes drop
    out of subsequent rounds; stragglers keep iterating.  From its second
    round on, a lane's multiplier search starts warm from its previous
    round's multiplier (:class:`_BatchLane`'s ``hint``), falling back to a
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
    lanes: dict[int, _BatchLane] = {}
    for i in range(num_lanes):
        try:
            lanes[i] = _BatchLane(
                solvers[i], min_rates[i], initial_powers[i], initial_bandwidths[i]
            )
        except InfeasibleProblemError as exc:
            results[i] = exc
    active = [i for i in lanes if lanes[i].config.max_iterations >= 1]
    while active:
        groups: dict[str, list[int]] = {}
        for i in active:
            groups.setdefault(lanes[i].solver.backend, []).append(i)
        inners: dict[int, SP2Result] = {}
        with stage("sp2_inner"):
            for backend, group in groups.items():
                attempts = solve_sp2_v2_rows(
                    [lanes[i].system for i in group],
                    [lanes[i].nu for i in group],
                    [lanes[i].beta for i in group],
                    [lanes[i].min_rate for i in group],
                    backend=backend,
                    hints=[lanes[i].hint for i in group],
                )
                for i, attempt in zip(group, attempts):
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
