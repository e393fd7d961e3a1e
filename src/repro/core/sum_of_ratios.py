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
from ..solvers.newton import damped_newton_step_rows, row_norms
from ..system import SystemModel
from ..wireless.rate import shannon_rate
from .convergence import ConvergenceHistory
from .subproblem2 import (
    MuHint,
    SP2Result,
    SP2Rows,
    SystemRows,
    _solve_sp2_stacks,
    solve_sp2_v2_numeric,
    sp2_objective,
)

__all__ = [
    "SumOfRatiosConfig",
    "SumOfRatiosResult",
    "SumOfRatiosSolver",
    "solve_sum_of_ratios_stacks",
]

_ZERO_RATE = (
    "an iterate produced a zero uplink rate; the initial point must "
    "give every device positive power and bandwidth"
)


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
    ) -> None:
        if energy_weight <= 0.0:
            raise ValueError(
                "Algorithm 1 requires a positive energy weight; with w1 = 0 the "
                "communication energy does not appear in the objective"
            )
        self.system = system
        self.energy_weight = float(energy_weight)
        self.config = config or SumOfRatiosConfig()

    # -- helpers -----------------------------------------------------------
    @property
    def _scale(self) -> float:
        """The constant ``w1 R_g`` multiplying every ratio."""
        return self.energy_weight * self.system.global_rounds

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
        one-run :class:`_LaneRows` stack driven by
        :func:`solve_sum_of_ratios_stacks`; the run's exception is raised.
        """
        stack = _LaneRows(
            SystemRows.of([self.system]),
            [self.system],
            np.array([self._scale]),
            [self.config],
            np.array([min_rate_bps], dtype=float),
            np.array([initial_power_w], dtype=float),
            np.array([initial_bandwidth_hz], dtype=float),
        )
        solve_sum_of_ratios_stacks([stack])
        result = stack.result(0)
        if isinstance(result, Exception):
            raise result
        return result


class _BatchLane:
    """What of one Algorithm-1 lane does not stack.

    Its system and configuration, its convergence history, its warm-start
    hint, and the fallback ladder for a closed-form SP2_v2 attempt that
    failed or came back infeasible (:meth:`resolve_inner`, rare).  The
    lane's start and its iterates live in a :class:`_LaneRows` stack with
    the other lanes of its device count, which writes the lane's iterate
    (``min_rate``, ``power``, ``bandwidth``, ``beta``, ``nu``) here before
    the ladder runs.  :meth:`SumOfRatiosSolver.solve` is a batch of one, so
    a lane's trajectory never depends on its neighbours.

    ``hint`` is the warm start for the lane's next multiplier search: the
    last closed-form attempt's polished multiplier and constrained-device
    roots.  It lives only as long as this lane (one Algorithm-1 run), starts
    as ``None`` (the first search is cold), and is dropped whenever the
    attempt raised, fell back to the numeric solver or the incumbent, or
    found the budget slack (``mu = 0``).  The search's polish is
    entry-independent, so the hint changes how fast a search runs, never
    its result.
    """

    def __init__(self, system: SystemModel, config: SumOfRatiosConfig) -> None:
        self.system = system
        self.config = config
        self.history = ConvergenceHistory()
        self.hint: MuHint | None = None
        self.min_rate = self.power = self.bandwidth = self.beta = self.nu = np.empty(0)

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


class _LaneRows:
    """Algorithm-1 runs of one device count, as row operations.

    The constructor is the runs' start, one row pass for the stack: the
    initial point's rates (a zero rate fails the run), the paper's
    auxiliary-variable initialisation ``beta = p d / r``, ``nu = w1 R_g / r``
    (``scale`` holds ``w1 R_g`` per run) and the residual scale
    (:func:`row_norms`).  The system constants come stacked
    (:class:`SystemRows`); ``systems`` and ``configs`` are per run.  While
    the runs iterate, ``(p, B)`` are ``(runs, n)`` stacks and ``alpha =
    (beta, nu)`` one ``(runs, 2n)`` stack.  Each round, :meth:`resolve`
    takes the stack's closed-form SP2_v2 outcome (running the fallback
    ladder of the few runs that need it) and :meth:`advance` takes one
    Algorithm-1 iteration for every run at once: residuals, norms,
    objective and step change as row operations, then the damped Newton
    update (29)-(31) with a backtrack exponent per run
    (:func:`damped_newton_step_rows`).  Rows are compacted when runs stop
    or fail.

    The outcome is kept by input row: ``out_power``, ``out_bandwidth`` and
    ``out_alpha`` (the final iterate), ``out_converged``,
    ``out_iterations``, ``out_feasible``, ``out_multiplier`` (the last
    positive bandwidth multiplier), ``runs[k].history`` and ``errors[k]``
    (the exception that ended run ``k``, else ``None``); :meth:`result`
    reads run ``k``'s :class:`SumOfRatiosResult` off them.  A run with
    ``max_iterations < 1`` keeps its start.  Every row gets the bits of a
    one-run stack.
    """

    def __init__(
        self,
        system: SystemRows,
        systems: Sequence[SystemModel],
        scale: np.ndarray,
        configs: Sequence[SumOfRatiosConfig],
        min_rate: np.ndarray,
        power: np.ndarray,
        bandwidth: np.ndarray,
    ) -> None:
        runs, n = power.shape
        self.runs = [_BatchLane(model, config) for model, config in zip(systems, configs)]
        self.errors: list[Exception | None] = [None] * runs
        rates = shannon_rate(power, bandwidth, system.gains, system.noise)
        for k in np.flatnonzero((rates <= 0.0).any(axis=1)).tolist():
            self.errors[k] = InfeasibleProblemError(_ZERO_RATE)
        demand = power * system.bits
        self.scale = np.repeat(scale[:, None], n, axis=1)
        residual_scale = np.maximum(
            row_norms(np.concatenate([demand, self.scale], axis=1)), 1e-12
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            self.alpha = np.concatenate([demand / rates, self.scale / rates], axis=1)
        self.out_power, self.out_bandwidth = power.copy(), bandwidth.copy()
        self.out_alpha = self.alpha.copy()
        self.out_converged = np.zeros(runs, dtype=bool)
        self.out_iterations = np.zeros(runs, dtype=int)
        self.out_feasible = np.ones(runs, dtype=bool)
        self.out_multiplier = np.zeros(runs)

        settings = np.array(
            [
                (c.residual_tol, c.step_tol, c.max_iterations, c.damping_xi, c.damping_eps)
                for c in configs
            ]
        ).reshape(runs, 5)
        # Per-lane constants, one column each (see :meth:`advance`).
        self.constants = np.column_stack(
            [scale, settings[:, 0] * residual_scale, settings[:, 1:]]
        )
        self.system, self.min_rate = system, np.maximum(min_rate, 0.0)
        self.power, self.bandwidth = power, bandwidth
        self.slots = np.arange(runs)
        self.lanes = self.runs
        self.last_multiplier = np.zeros(runs)
        self.iteration = 0
        live = (settings[:, 2] >= 1) & np.array([error is None for error in self.errors])
        if not live.all():
            self._keep(np.flatnonzero(live))
        # The round's resolved closed-form outcome and history notes (:meth:`resolve`).
        self.inner: SP2Rows | None = None
        self.notes: list[str] = []

    @property
    def beta(self) -> np.ndarray:
        return self.alpha[:, : self.power.shape[1]]

    @property
    def nu(self) -> np.ndarray:
        return self.alpha[:, self.power.shape[1] :]

    def _write_back(self, k: int) -> None:
        """Hand row ``k``'s iterate to its lane (fallback ladder)."""
        lane, n = self.lanes[k], self.power.shape[1]
        lane.min_rate, lane.power, lane.bandwidth = self.min_rate[k], self.power[k], self.bandwidth[k]
        lane.beta, lane.nu = self.alpha[k, :n], self.alpha[k, n:]

    def _keep(self, rows: np.ndarray) -> None:
        """Compact the stack to the given rows."""
        self.slots = self.slots[rows]
        self.lanes = [self.lanes[k] for k in rows.tolist()]
        self.system = self.system.take(rows)
        for name in (
            "min_rate", "power", "bandwidth", "alpha", "scale", "constants", "last_multiplier"
        ):
            setattr(self, name, getattr(self, name)[rows])

    def resolve(self, out: SP2Rows) -> None:
        """Take the round's closed-form outcome, falling back where needed.

        A feasible closed-form row is kept as is and its roots become the
        lane's next hint; a raised or infeasible one goes through the lane's
        fallback ladder (:meth:`_BatchLane.resolve_inner`), whose result
        replaces the row.  Lanes whose ladder raised fail and leave the stack.
        """
        self.inner = out
        self.notes = ["kkt"] * len(self.lanes)
        failed: list[tuple[int, Exception]] = []
        for k, lane in enumerate(self.lanes):
            if out.errors[k] is None and (
                out.feasible[k] or not lane.config.use_numeric_fallback
            ):
                root = out.roots[k]
                lane.hint = None if root is None else (float(out.mu[k]), root)
                continue
            self._write_back(k)
            attempt = out.result(k)
            try:
                inner = lane.resolve_inner(attempt)
            except (InfeasibleProblemError, ConvergenceError) as exc:
                failed.append((k, exc))
                continue
            if inner is not attempt:
                out.power[k], out.bandwidth[k] = inner.power_w, inner.bandwidth_hz
                out.rates[k] = lane.system.rates_bps(inner.power_w, inner.bandwidth_hz)
                out.feasible[k] = inner.feasible
                out.mu[k] = inner.bandwidth_multiplier
                self.notes[k] = inner.method
        self._drop(failed)

    def result(self, k: int) -> SumOfRatiosResult | Exception:
        """Run ``k``'s :class:`SumOfRatiosResult`, or the exception that ended it.

        The communication energy ``R_g sum p d / r`` is read at the run's
        final ``(p, B)``, whose rates must all be positive.
        """
        if self.errors[k] is not None:
            return self.errors[k]
        system, n = self.runs[k].system, self.out_power.shape[1]
        power, bandwidth = self.out_power[k], self.out_bandwidth[k]
        rates = system.rates_bps(power, bandwidth)
        if (rates <= 0.0).any():
            return InfeasibleProblemError(_ZERO_RATE)
        return SumOfRatiosResult(
            power_w=power,
            bandwidth_hz=bandwidth,
            nu=self.out_alpha[k, n:],
            beta=self.out_alpha[k, :n],
            communication_energy_j=float(
                system.global_rounds * (power * system.upload_bits / rates).sum()
            ),
            converged=bool(self.out_converged[k]),
            iterations=int(self.out_iterations[k]),
            feasible=bool(self.out_feasible[k]),
            history=self.runs[k].history,
            bandwidth_multiplier=float(self.out_multiplier[k]),
        )

    def _drop(self, failed: list[tuple[int, Exception]]) -> None:
        """Fail the given rows: record their exceptions, remove them (stack and round outcome)."""
        if not failed:
            return
        for k, exc in failed:
            self.errors[int(self.slots[k])] = exc
        gone = {k for k, _ in failed}
        rows = np.array([k for k in range(len(self.lanes)) if k not in gone], dtype=int)
        out = self.inner
        self.inner = SP2Rows(
            out.power[rows],
            out.bandwidth[rows],
            out.rates[rows],
            out.tau[rows],
            out.mu[rows],
            out.feasible[rows],
            out.objective[rows],
            [out.roots[k] for k in rows.tolist()],
            [out.errors[k] for k in rows.tolist()],
        )
        self.notes = [self.notes[k] for k in rows.tolist()]
        self._keep(rows)

    def advance(self) -> None:
        """One Algorithm-1 iteration of every lane, given the resolved inner solve.

        The convergence tests, then (for lanes that did not converge) the
        damped Newton update of ``(beta, nu)`` — steps 5-6 of Algorithm 1.
        A lane that exhausts ``max_iterations`` still takes that last
        update, so its final ``(beta, nu)`` track the ratios of its final
        ``(p, B)``.  Stopped runs get their outcome rows written and leave
        the stack; a run whose iterate has a zero rate fails.
        """
        inner = self.inner
        self.iteration += 1
        np.copyto(self.last_multiplier, inner.mu, where=inner.mu > 0.0)
        if not (inner.rates > 0.0).all():
            self._drop(
                [
                    (k, InfeasibleProblemError(_ZERO_RATE))
                    for k in np.flatnonzero(np.any(inner.rates <= 0.0, axis=1)).tolist()
                ]
            )
            inner = self.inner
        power, bandwidth, rates = inner.power, inner.bandwidth, inner.rates
        lanes, n = power.shape
        objective_scale, residual_bound, step_tol, max_iterations, xi, eps = self.constants.T

        # phi(alpha) = -(p d, w1 R_g) + alpha (G, G); its exact root is the target.
        demand = power * self.system.bits
        phi0 = -np.concatenate([demand, self.scale], axis=1)
        rates2 = np.concatenate([rates, rates], axis=1)
        residual_norm = row_norms(phi0 + self.alpha * rates2)
        ratios = demand / rates
        objective = objective_scale * ratios.sum(axis=1)
        norms = row_norms(
            np.concatenate(
                [power - self.power, self.power, bandwidth - self.bandwidth, self.bandwidth]
            )
        ).reshape(4, lanes)
        step_change = norms[0] / np.maximum(norms[1], 1e-30) + norms[2] / np.maximum(
            norms[3], 1e-30
        )
        for lane, value, norm, change, note in zip(
            self.lanes, objective.tolist(), residual_norm.tolist(), step_change.tolist(),
            self.notes,
        ):
            lane.history.append(value, residual=norm, step_change=change, note=note)

        self.power, self.bandwidth = power, bandwidth
        converged = residual_norm <= residual_bound
        if self.iteration > 1:
            converged |= step_change <= step_tol
        settled = converged.tolist()
        if not all(settled):
            moving: np.ndarray | slice = slice(None)
            if any(settled):
                moving = np.flatnonzero(~converged)
            phi0, rates2, alpha = phi0[moving], rates2[moving], self.alpha[moving]
            target = np.concatenate([ratios[moving], self.scale[moving] / rates[moving]], axis=1)

            def residual(candidate: np.ndarray, rows: np.ndarray | slice) -> np.ndarray:
                return phi0[rows] + candidate * rates2[rows]

            update = damped_newton_step_rows(
                alpha,
                residual,
                target - alpha,
                base_norm=residual_norm[moving],
                xi=xi[moving],
                eps=eps[moving],
            )
            if isinstance(moving, slice):
                self.alpha = update.alpha
            else:
                self.alpha = self.alpha.copy()
                self.alpha[moving] = update.alpha

        stop = converged | (self.iteration >= max_iterations)
        if stop.any():
            done = np.flatnonzero(stop)
            slots = self.slots[done]
            self.out_power[slots] = self.power[done]
            self.out_bandwidth[slots] = self.bandwidth[done]
            self.out_alpha[slots] = self.alpha[done]
            self.out_converged[slots] = converged[done]
            self.out_iterations[slots] = self.iteration
            self.out_feasible[slots] = inner.feasible[done]
            self.out_multiplier[slots] = self.last_multiplier[done]
            self._keep(np.flatnonzero(~stop))


def solve_sum_of_ratios_stacks(stacks: Sequence[_LaneRows]) -> None:
    """Run Algorithm 1 to the end on every stack; outcomes land in each stack.

    Each stack holds the runs of one device count, started as one row pass
    (:class:`_LaneRows`).  Each round, every stack's SP2_v2 closed form is
    solved by one :func:`_solve_sp2_stacks` call
    (multiplier searches grouped across stacks by constrained-device count,
    the allocation tail once per stack), then each stack takes one
    Algorithm-1 iteration for all its runs at once (convergence tests and
    damped Newton update); only the rare fallback ladder runs per run.
    Converged or failed runs drop out of subsequent rounds; stragglers keep
    iterating.  From its second round on, a run's multiplier search starts
    warm from its previous round's multiplier (:class:`_BatchLane`'s
    ``hint``), falling back to a cold start when that fails; either start
    gives the same bits.

    This is the one Algorithm-1 driver: Algorithm 2 hands it its stacks
    directly, and :meth:`SumOfRatiosSolver.solve` runs a stack of one.  A
    run's outcome does not depend on its neighbours: a stack of one gives
    the same bits, and a run's exception (e.g. an infeasible iterate) is
    kept in its row instead of raised.
    """
    running = [stack for stack in stacks if stack.lanes]
    while running:
        with stage("sp2_inner"):
            outs = _solve_sp2_stacks(
                [stack.system for stack in running],
                [stack.nu for stack in running],
                [stack.beta for stack in running],
                [stack.min_rate for stack in running],
                hints=[[lane.hint for lane in stack.lanes] for stack in running],
            )
            for stack, out in zip(running, outs):
                stack.resolve(out)
        for stack in running:
            if stack.lanes:
                stack.advance()
        running = [stack for stack in running if stack.lanes]
