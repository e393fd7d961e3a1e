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
from .convergence import ConvergenceHistory
from .subproblem2 import (
    DEFAULT_BACKEND,
    MuHint,
    SP2Result,
    SP2Rows,
    SystemRows,
    _solve_sp2_stacks,
    solve_sp2_v2_numeric,
    sp2_objective,
    validate_backend,
)

__all__ = [
    "SumOfRatiosConfig",
    "SumOfRatiosResult",
    "SumOfRatiosSolver",
    "solve_sum_of_ratios_rows",
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
            raise InfeasibleProblemError(_ZERO_RATE)
        return rates

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
    """What of one Algorithm-1 lane does not stack.

    The lane's start (`__init__`: its initial point, the paper's
    auxiliary-variable initialisation and its residual scale), its
    convergence history, its warm-start hint, and the fallback ladder for
    a closed-form SP2_v2 attempt that failed or came back infeasible
    (:meth:`resolve_inner`, rare).  While the lane runs, its iterates live
    in a :class:`_LaneRows` stack with the other lanes of its device count,
    which takes the Algorithm-1 step for all of them at once; the stack
    writes the lane's final iterate back when the lane stops.
    :meth:`SumOfRatiosSolver.solve` is a batch of one, so a lane's
    trajectory never depends on its neighbours.

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


class _LaneRows:
    """The running Algorithm-1 lanes of one device count and SP2 backend.

    Their iterates ``(p, B)`` are ``(lanes, n)`` stacks and their auxiliary
    variables one ``(lanes, 2n)`` stack ``alpha = (beta, nu)``; the system
    constants are stacked once per :func:`solve_sum_of_ratios_rows` call
    (:class:`SystemRows`).  Each round, :meth:`resolve` takes the stack's
    closed-form SP2_v2 outcome (running the fallback ladder of the few lanes
    that need it) and :meth:`advance` takes one Algorithm-1 iteration for
    every lane at once: residuals, norms, objective and step change as row
    operations, then the damped Newton update (29)-(31) with a backtrack
    exponent per lane (:func:`damped_newton_step_rows`).  Rows are
    compacted when lanes stop or fail.  Every row gets the bits of a
    one-lane run.
    """

    def __init__(self, slots: list[int], lanes: list[_BatchLane]) -> None:
        self.slots = slots
        self.lanes = lanes
        self.backend = lanes[0].solver.backend
        self.system = SystemRows.of([lane.system for lane in lanes])
        self.min_rate = np.array([lane.min_rate for lane in lanes])
        self.power = np.array([lane.power for lane in lanes])
        self.bandwidth = np.array([lane.bandwidth for lane in lanes])
        self.alpha = np.array([np.concatenate([lane.beta, lane.nu]) for lane in lanes])
        self.scale = np.array([[lane.solver._scale] * lane.system.num_devices for lane in lanes])
        # Per-lane constants, one column each (see :meth:`advance`).
        self.constants = np.array(
            [
                (
                    lane.solver.energy_weight * lane.system.global_rounds,
                    lane.config.residual_tol * lane.residual_scale,
                    lane.config.step_tol,
                    lane.config.max_iterations,
                    lane.config.damping_xi,
                    lane.config.damping_eps,
                )
                for lane in lanes
            ]
        )
        self.last_multiplier = np.zeros(len(lanes))
        self.iteration = 0
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
        """Hand row ``k``'s iterate to its lane (fallback ladder, final result)."""
        lane, n = self.lanes[k], self.power.shape[1]
        lane.power, lane.bandwidth = self.power[k], self.bandwidth[k]
        lane.beta, lane.nu = self.alpha[k, :n], self.alpha[k, n:]

    def _keep(self, rows: np.ndarray) -> None:
        """Compact the stack to the given rows."""
        self.slots = [self.slots[k] for k in rows.tolist()]
        self.lanes = [self.lanes[k] for k in rows.tolist()]
        self.system = self.system.take(rows)
        for name in (
            "min_rate", "power", "bandwidth", "alpha", "scale", "constants", "last_multiplier"
        ):
            setattr(self, name, getattr(self, name)[rows])

    def resolve(self, out: SP2Rows) -> list[tuple[int, Exception]]:
        """Take the round's closed-form outcome, falling back where needed.

        A feasible closed-form row is kept as is and its roots become the
        lane's next hint; a raised or infeasible one goes through the lane's
        fallback ladder (:meth:`_BatchLane.resolve_inner`), whose result
        replaces the row.  Returns the ``(slot, exception)`` of every lane
        that failed; they leave the stack.
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
        return self._drop(failed)

    def _drop(self, failed: list[tuple[int, Exception]]) -> list[tuple[int, Exception]]:
        """Remove the failed rows (stack and round outcome); return their slots."""
        if not failed:
            return []
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
        slots = [(self.slots[k], exc) for k, exc in failed]
        self._keep(rows)
        return slots

    def advance(self) -> list[tuple[int, Exception]]:
        """One Algorithm-1 iteration of every lane, given the resolved inner solve.

        The convergence tests, then (for lanes that did not converge) the
        damped Newton update of ``(beta, nu)`` — steps 5-6 of Algorithm 1.
        A lane that exhausts ``max_iterations`` still takes that last
        update, so its final ``(beta, nu)`` track the ratios of its final
        ``(p, B)``.  Stopped lanes get their final iterate written back and
        leave the stack; returns the ``(slot, exception)`` of lanes whose
        iterate has a zero rate.
        """
        inner = self.inner
        self.iteration += 1
        np.copyto(self.last_multiplier, inner.mu, where=inner.mu > 0.0)
        gone: list[tuple[int, Exception]] = []
        if not (inner.rates > 0.0).all():
            gone = self._drop(
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

        stop = (converged | (self.iteration >= max_iterations)).tolist()
        if any(stop):
            for k in [k for k, done in enumerate(stop) if done]:
                self._write_back(k)
                lane = self.lanes[k]
                lane.converged = bool(converged[k])
                lane.feasible = bool(inner.feasible[k])
                lane.last_multiplier = float(self.last_multiplier[k])
                lane.iteration = self.iteration
            if all(stop):
                self.lanes = []
            else:
                self._keep(np.array([k for k, done in enumerate(stop) if not done]))
        return gone


def solve_sum_of_ratios_rows(
    solvers: Sequence[SumOfRatiosSolver],
    min_rates: Sequence[np.ndarray],
    initial_powers: Sequence[np.ndarray],
    initial_bandwidths: Sequence[np.ndarray],
) -> list[SumOfRatiosResult | Exception]:
    """Lockstep batch of independent Algorithm-1 solves.

    Lane ``i`` runs Algorithm 1 for ``solvers[i]`` from ``(initial_powers[i],
    initial_bandwidths[i])`` under ``min_rates[i]``.  Lanes with the same
    device count and SP2 backend form one :class:`_LaneRows` stack, whose
    system constants are stacked once here.  Each round, every stack's
    SP2_v2 closed form is solved by one :func:`_solve_sp2_stacks` call per
    backend (multiplier searches grouped across stacks by constrained-device
    count, the allocation tail once per stack), then each stack takes one
    Algorithm-1 iteration for all its lanes at once (convergence tests and
    damped Newton update); only the rare fallback ladder runs per lane.
    Converged or failed lanes drop out of subsequent rounds; stragglers
    keep iterating.  From its second round on, a lane's multiplier search
    starts warm from its previous round's multiplier (:class:`_BatchLane`'s
    ``hint``), falling back to a cold start when that fails; either start
    gives the same bits.

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
    groups: dict[tuple[int, str], list[int]] = {}
    for i, lane in lanes.items():
        if lane.config.max_iterations >= 1:
            groups.setdefault((lane.system.num_devices, lane.solver.backend), []).append(i)
    stacks = [_LaneRows(slots, [lanes[i] for i in slots]) for slots in groups.values()]

    def fail(failures: list[tuple[int, Exception]]) -> None:
        for i, exc in failures:
            results[i] = exc
            lanes.pop(i)

    while stacks:
        with stage("sp2_inner"):
            for backend in dict.fromkeys(stack.backend for stack in stacks):
                group = [stack for stack in stacks if stack.backend == backend]
                outs = _solve_sp2_stacks(
                    [stack.system for stack in group],
                    [stack.nu for stack in group],
                    [stack.beta for stack in group],
                    [stack.min_rate for stack in group],
                    backend=backend,
                    hints=[[lane.hint for lane in stack.lanes] for stack in group],
                )
                for stack, out in zip(group, outs):
                    fail(stack.resolve(out))
        for stack in stacks:
            if stack.lanes:
                fail(stack.advance())
        stacks = [stack for stack in stacks if stack.lanes]
    for i, lane in lanes.items():
        try:
            results[i] = lane.result()
        except InfeasibleProblemError as exc:
            results[i] = exc
    return results
