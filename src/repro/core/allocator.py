"""Algorithm 2: the alternating resource-allocation algorithm.

This is the paper's headline contribution.  Starting from a feasible
allocation, it alternates:

1. **Subproblem 1** — given the current upload times, choose the CPU
   frequencies and the per-round deadline ``T`` (Section V-A);
2. **Subproblem 2** — given the per-device rate requirements implied by
   ``T``, choose the transmit powers and bandwidths through the
   sum-of-ratios solver (Algorithm 1, Section V-B/V-C);

until the allocation stops changing (tolerance ``epsilon_0``) or the
iteration budget ``K`` is exhausted.

Two special regimes are handled exactly as the paper's experiments use them:

* ``w1 = 0`` (pure delay minimisation): the communication energy vanishes
  from the objective, so the devices transmit at maximum power and the
  bandwidth minimises the slowest upload (see
  :mod:`repro.core.uplink_delay`).
* A hard completion-time budget (``JointProblem.deadline_s``): the per-round
  deadline is fixed instead of optimised, which is how the paper compares
  against Scheme 1 (Section VII-D) and the single-resource baselines
  (Section VII-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..exceptions import InfeasibleProblemError
from ..perf.timers import StageTimings, stage
from ..solvers.dual_decomposition import minimize_separable_with_budget
from ..wireless.rate import min_bandwidth_for_rate
from .allocation import ResourceAllocation
from .convergence import ConvergenceHistory
from .problem import JointProblem
from .subproblem1 import solve_subproblem1, solve_subproblem1_rows
from .subproblem2 import validate_backend
from .sum_of_ratios import (
    SumOfRatiosConfig,
    SumOfRatiosSolver,
    solve_sum_of_ratios_rows,
)
from .uplink_delay import minimize_max_upload_time

__all__ = ["AllocatorConfig", "AllocationResult", "ResourceAllocator"]


@dataclass(frozen=True)
class AllocatorConfig:
    """Hyper-parameters of Algorithm 2."""

    #: Maximum number of outer alternations (``K`` in the paper).
    max_iterations: int = 20
    #: Relative tolerance ``epsilon_0`` on the allocation change.
    tolerance: float = 1e-5
    #: Subproblem-1 solver: ``"primal"`` (exact) or ``"dual"`` (paper's (17)).
    subproblem1_method: str = "primal"
    #: Configuration of the inner sum-of-ratios solver (Algorithm 1).
    sum_of_ratios: SumOfRatiosConfig = field(default_factory=SumOfRatiosConfig)
    #: Bandwidth fraction of the initial equal split.  The paper initialises
    #: with ``B_n = B / (2N)`` (Sections VII-C/VII-D note this gives better
    #: results than ``B/N`` and matches the source code of [7]); starting
    #: with spare bandwidth also keeps the first Subproblem-2 step from being
    #: pinned to the initial point.
    initial_bandwidth_fraction: float = 0.5
    #: Initial-point strategy: ``"equal"`` uses the equal split above,
    #: ``"delay_min"`` starts from the min-max-upload bandwidth split at
    #: maximum power, and ``"auto"`` (default) picks ``delay_min`` whenever a
    #: hard completion-time budget is set (where a channel-aware start keeps
    #: far devices feasible) and ``equal`` otherwise.
    initial_strategy: str = "auto"


@dataclass(frozen=True)
class AllocationResult:
    """Final outcome of Algorithm 2."""

    allocation: ResourceAllocation
    round_deadline_s: float
    objective: float
    energy_j: float
    completion_time_s: float
    transmission_energy_j: float
    computation_energy_j: float
    converged: bool
    iterations: int
    feasible: bool
    history: ConvergenceHistory = field(default_factory=ConvergenceHistory)
    #: Total Algorithm-1 (sum-of-ratios) iterations across every outer step.
    inner_iterations: int = 0
    #: Per-stage wall-clock seconds (``algorithm2``, ``sp1``, ``sp2``, ...).
    timings: dict[str, float] = field(default_factory=dict)
    #: Final bandwidth multiplier ``mu`` of the last inner KKT solve that
    #: bound the budget (0 when it never did).
    mu: float = 0.0

    def summary(self) -> dict[str, float]:
        """Scalar metrics as a plain dictionary (used by the experiment tables)."""
        return {
            "objective": self.objective,
            "energy_j": self.energy_j,
            "completion_time_s": self.completion_time_s,
            "transmission_energy_j": self.transmission_energy_j,
            "computation_energy_j": self.computation_energy_j,
            "iterations": float(self.iterations),
            "inner_iterations": float(self.inner_iterations),
            "converged": float(self.converged),
            "feasible": float(self.feasible),
        }


class ResourceAllocator:
    """Algorithm 2: alternating optimisation of ``(f, T)`` and ``(p, B)``.

    ``backend`` selects the SP2_v2 inner-solve backend (``"vector"`` /
    ``"scalar"``), overriding ``config.sum_of_ratios.backend``; the default
    keeps the configured backend (vector unless configured otherwise).
    """

    def __init__(
        self, config: AllocatorConfig | None = None, *, backend: str | None = None
    ) -> None:
        self.config = config or AllocatorConfig()
        self.backend = validate_backend(
            backend or self.config.sum_of_ratios.backend
        )

    # -- public API --------------------------------------------------------
    def solve(
        self,
        problem: JointProblem,
        initial_allocation: ResourceAllocation | None = None,
    ) -> AllocationResult:
        """Run Algorithm 2 on ``problem`` and return the final allocation.

        ``initial_allocation`` overrides the configured initial-point
        strategy.  Beware that the alternating scheme is a heuristic with
        many fixed points: a different initial point generally converges to
        a (slightly) different solution.
        """
        system = problem.system
        config = self.config
        timings = StageTimings()
        last_mu = 0.0
        delay_only = problem.energy_weight <= 0.0 and problem.deadline_s is None
        with stage("algorithm2", timings):
            allocation = initial_allocation or self._initial_allocation(problem)

            if delay_only:
                allocation, history = self._solve_delay_only(problem, timings)
        if delay_only:
            return self._finalize(
                problem,
                allocation,
                allocation.round_time_s(system),
                history,
                converged=True,
                iterations=1,
                feasible=True,
                timings=timings,
            )
        with stage("algorithm2", timings):
            history = ConvergenceHistory()
            converged = False
            feasible = True
            inner_iterations = 0
            round_deadline = allocation.round_time_s(system)
            iteration = 0

            for iteration in range(1, config.max_iterations + 1):
                previous = allocation

                # Step 1: Subproblem 1 — CPU frequencies and round deadline.
                with stage("sp1", timings):
                    upload_time = system.upload_time_s(
                        allocation.power_w, allocation.bandwidth_hz
                    )
                    sp1 = solve_subproblem1(
                        system,
                        problem.energy_weight,
                        problem.time_weight,
                        upload_time,
                        round_deadline_s=problem.round_deadline_s,
                        method=config.subproblem1_method,
                    )
                allocation = allocation.with_frequency(sp1.frequency_hz)
                round_deadline = sp1.round_deadline_s

                # Step 2: Subproblem 2 — transmit power and bandwidth.
                with stage("sp2", timings):
                    allocation, feasible, inner, mu = self._solve_communication(
                        problem, allocation, round_deadline
                    )
                inner_iterations += inner
                if mu > 0.0:
                    last_mu = mu

                objective = problem.objective(allocation)
                step_change = allocation.distance_to(previous)
                history.append(objective, step_change=step_change, note=f"outer-{iteration}")
                if step_change <= config.tolerance:
                    converged = True
                    break

        return self._finalize(
            problem,
            allocation,
            round_deadline,
            history,
            converged,
            iteration,
            feasible,
            inner_iterations=inner_iterations,
            timings=timings,
            mu=last_mu,
        )

    def solve_batch(
        self,
        problems: Sequence[JointProblem],
        *,
        return_exceptions: bool = False,
    ) -> list[AllocationResult | Exception]:
        """Run Algorithm 2 on many independent problems in lockstep.

        Each lane's trajectory — every SP1/SP2 iterate, the convergence
        history, iteration counts and the final allocation — is bit-identical
        to a stand-alone ``solve(problems[i])`` call.  Only the numeric hot
        spots (the SP2 bandwidth-multiplier search and the SP1 golden-section
        search) actually run batched; everything else executes per lane with
        the exact per-drop code.  Lanes the batched kernels do not cover
        (``energy_weight <= 0``, a hard deadline, or a non-vector backend)
        are transparently routed through :meth:`solve`.

        With ``return_exceptions=True`` a failing lane's exception is
        returned in its slot (the :func:`asyncio.gather` idiom) instead of
        aborting the batch; otherwise the first failure propagates.

        Batched lanes report empty ``timings`` — the lockstep loop
        interleaves all lanes' SP1/SP2 work, so per-lane stage wall-clock
        has no meaning there.
        """
        num_lanes = len(problems)
        results: list[AllocationResult | Exception | None] = [None] * num_lanes

        class _Lane:
            """Mutable per-lane outer-loop state (mirrors ``solve`` locals)."""

            def __init__(self, problem: JointProblem, allocation: ResourceAllocation) -> None:
                self.problem = problem
                self.allocation = allocation
                self.history = ConvergenceHistory()
                self.converged = False
                self.feasible = True
                self.inner_iterations = 0
                self.round_deadline = allocation.round_time_s(problem.system)
                self.iteration = 0
                self.last_mu = 0.0

        lanes: dict[int, _Lane] = {}
        for i, problem in enumerate(problems):
            if (
                self.backend != "vector"
                or problem.energy_weight <= 0.0
                or problem.deadline_s is not None
            ):
                # Corners the batched kernels do not model; the per-drop
                # solver is authoritative there (and trivially bit-identical).
                try:
                    results[i] = self.solve(problem)
                except Exception as exc:  # repro-lint: disable=RL005 -- lane isolation: one bad problem must fail its own slot, not the batch
                    if not return_exceptions:
                        raise
                    results[i] = exc
                continue
            try:
                lanes[i] = _Lane(problem, self._initial_allocation(problem))
            except Exception as exc:  # repro-lint: disable=RL005 -- lane isolation: one bad problem must fail its own slot, not the batch
                if not return_exceptions:
                    raise
                results[i] = exc

        config = self.config
        active = [i for i in sorted(lanes) if config.max_iterations >= 1]
        while active:
            for i in active:
                lanes[i].iteration += 1

            # Step 1 (batched): Subproblem 1 across all active lanes.
            sp1_results = solve_subproblem1_rows(
                [lanes[i].problem.system for i in active],
                [lanes[i].problem.energy_weight for i in active],
                [lanes[i].problem.time_weight for i in active],
                [
                    lanes[i].problem.system.upload_time_s(
                        lanes[i].allocation.power_w, lanes[i].allocation.bandwidth_hz
                    )
                    for i in active
                ],
                method=config.subproblem1_method,
            )
            previous: dict[int, ResourceAllocation] = {}
            survivors: list[int] = []
            for k, i in enumerate(active):
                lane = lanes[i]
                sp1 = sp1_results[k]
                if isinstance(sp1, Exception):
                    # ``solve`` would have raised this out of the outer loop.
                    if not return_exceptions:
                        raise sp1
                    results[i] = sp1
                    lanes.pop(i)
                    continue
                previous[i] = lane.allocation
                lane.allocation = lane.allocation.with_frequency(sp1.frequency_hz)
                lane.round_deadline = sp1.round_deadline_s
                survivors.append(i)
            active = survivors

            # Step 2 (batched): Subproblem 2 across the surviving lanes,
            # replicating ``_solve_communication`` lane by lane around one
            # batched Algorithm-1 call.
            min_rates: dict[int, np.ndarray] = {}
            for i in active:
                lane = lanes[i]
                system = lane.problem.system
                min_rate = lane.problem.min_rate_requirements(
                    lane.allocation.frequency_hz, lane.round_deadline
                )
                min_rates[i] = np.where(
                    np.isfinite(min_rate),
                    min_rate,
                    system.rates_bps(lane.allocation.power_w, lane.allocation.bandwidth_hz),
                )
            inner_results = solve_sum_of_ratios_rows(
                [
                    SumOfRatiosSolver(
                        lanes[i].problem.system,
                        lanes[i].problem.energy_weight,
                        config=config.sum_of_ratios,
                        backend=self.backend,
                    )
                    for i in active
                ],
                [min_rates[i] for i in active],
                [lanes[i].allocation.power_w for i in active],
                [lanes[i].allocation.bandwidth_hz for i in active],
            )
            survivors = []
            for k, i in enumerate(active):
                lane = lanes[i]
                inner = inner_results[k]
                if isinstance(inner, InfeasibleProblemError):
                    # Keep the previous (feasible) communication allocation.
                    lane.feasible = False
                    mu = 0.0
                elif isinstance(inner, Exception):
                    if not return_exceptions:
                        raise inner
                    results[i] = inner
                    lanes.pop(i)
                    continue
                else:
                    candidate = lane.allocation.with_communication(
                        inner.power_w, inner.bandwidth_hz
                    )
                    # Same monotone guard as ``_solve_communication`` (the
                    # deadline clause is vacuous here: deadline lanes never
                    # reach the lockstep loop).
                    if lane.problem.objective(candidate) <= lane.problem.objective(
                        lane.allocation
                    ) * (1 + 1e-12):
                        lane.allocation = candidate
                        lane.feasible = inner.feasible
                    else:
                        lane.feasible = True
                    lane.inner_iterations += inner.iterations
                    mu = inner.bandwidth_multiplier
                if mu > 0.0:
                    lane.last_mu = mu

                objective = lane.problem.objective(lane.allocation)
                step_change = lane.allocation.distance_to(previous[i])
                lane.history.append(
                    objective, step_change=step_change, note=f"outer-{lane.iteration}"
                )
                if step_change <= config.tolerance:
                    lane.converged = True
                elif lane.iteration < config.max_iterations:
                    survivors.append(i)
            active = survivors

        for i, lane in lanes.items():
            try:
                results[i] = self._finalize(
                    lane.problem,
                    lane.allocation,
                    lane.round_deadline,
                    lane.history,
                    lane.converged,
                    lane.iteration,
                    lane.feasible,
                    inner_iterations=lane.inner_iterations,
                    mu=lane.last_mu,
                )
            except Exception as exc:  # repro-lint: disable=RL005 -- lane isolation: one bad problem must fail its own slot, not the batch
                if not return_exceptions:
                    raise
                results[i] = exc
        final: list[AllocationResult | Exception] = []
        for i, item in enumerate(results):
            if item is None:  # pragma: no cover - defensive
                raise RuntimeError(f"batch lane {i} was never solved")
            final.append(item)
        return final

    # -- internals ----------------------------------------------------------
    def _initial_allocation(self, problem: JointProblem) -> ResourceAllocation:
        """Build the initial feasible point according to the configured strategy."""
        strategy = self.config.initial_strategy
        if strategy == "auto":
            strategy = "compute_aware" if problem.deadline_s is not None else "equal"
        if strategy == "equal":
            return problem.initial_allocation(
                bandwidth_fraction=self.config.initial_bandwidth_fraction
            )
        if strategy == "compute_aware":
            return self._compute_aware_initial(problem)
        if strategy == "delay_min":
            system = problem.system
            uplink = minimize_max_upload_time(system)
            allocation = ResourceAllocation(
                power_w=uplink.power_w,
                bandwidth_hz=uplink.bandwidth_hz,
                frequency_hz=system.max_frequency_hz.copy(),
            )
            if problem.deadline_s is not None and not problem.is_feasible(allocation):
                raise InfeasibleProblemError(
                    "no feasible allocation exists: even the delay-minimising "
                    f"schedule misses the {problem.deadline_s:.1f} s deadline"
                )
            return allocation
        raise ValueError(f"unknown initial strategy: {strategy!r}")

    def _compute_aware_initial(self, problem: JointProblem) -> ResourceAllocation:
        """Initial point for deadline-constrained problems.

        The alternating scheme inherits its per-device computation/upload
        time split from the initial point (Subproblem 2 only ever tightens
        the communication side), so the initial bandwidth is chosen — at
        maximum power — to minimise the total *computation* energy the
        per-round deadline will then force:

            minimize_B  sum_n kappa_n C_n (C_n / (T_round - T^up_n(B_n)))^2
            subject to  sum_n B_n <= B,   T^up_n(B_n) + C_n / f_max_n <= T_round,

        with ``C_n = R_l c_n D_n``.  Each term is convex in ``B_n`` (the
        upload time is convex decreasing in the bandwidth), so the problem is
        solved exactly by dual decomposition.  This is still just "a feasible
        initial point" in the sense of Algorithm 2; it simply avoids starting
        in the basin of a poor alternating fixed point.
        """
        system = problem.system
        round_deadline = problem.round_deadline_s
        if round_deadline is None:
            return problem.initial_allocation(
                bandwidth_fraction=self.config.initial_bandwidth_fraction
            )
        power = system.max_power_w.copy()
        cycles = system.cycles_per_round
        compute_floor = cycles / system.max_frequency_hz
        upload_budget = round_deadline - compute_floor
        if np.any(upload_budget <= 0.0):
            raise InfeasibleProblemError(
                "some devices cannot finish their computation inside the deadline "
                "even at maximum frequency"
            )
        min_rate = system.upload_bits / upload_budget
        lower = min_bandwidth_for_rate(
            min_rate,
            power,
            system.gains,
            system.noise_psd_w_per_hz,
            bandwidth_cap_hz=system.total_bandwidth_hz,
        )
        if np.any(~np.isfinite(lower)) or lower.sum() > system.total_bandwidth_hz * (1 + 1e-9):
            raise InfeasibleProblemError(
                "no feasible allocation exists: the bandwidth budget cannot meet "
                f"the {problem.deadline_s:.1f} s deadline even at maximum power"
            )
        lower = np.minimum(lower * (1.0 + 1e-9), system.total_bandwidth_hz)

        kappa = system.effective_capacitance

        def compute_energy(bandwidth: np.ndarray) -> np.ndarray:
            bw = np.maximum(bandwidth, 1e-3)
            rates = system.rates_bps(power, bw)
            upload = system.upload_bits / rates
            slack = np.maximum(round_deadline - upload, 1e-12)
            frequency = np.clip(
                cycles / slack, system.min_frequency_hz, system.max_frequency_hz
            )
            penalty = np.where(cycles / slack > system.max_frequency_hz, 1e9, 0.0)
            return kappa * cycles * frequency**2 + penalty

        allocation = minimize_separable_with_budget(
            compute_energy,
            lower,
            np.full_like(lower, system.total_bandwidth_hz),
            system.total_bandwidth_hz,
        )
        bandwidth = allocation.x
        initial = ResourceAllocation(
            power_w=power,
            bandwidth_hz=bandwidth,
            frequency_hz=system.max_frequency_hz.copy(),
        )
        if not problem.is_feasible(initial, rtol=1e-6):
            raise InfeasibleProblemError(
                "no feasible allocation exists for the requested deadline"
            )
        return initial

    def _solve_communication(
        self,
        problem: JointProblem,
        allocation: ResourceAllocation,
        round_deadline_s: float,
    ) -> tuple[ResourceAllocation, bool, int, float]:
        """Solve Subproblem 2.

        Returns ``(allocation, feasible, inner iterations, final bandwidth
        multiplier)`` — the multiplier is 0 when the inner solver did not
        run or the budget constraint was slack.
        """
        system = problem.system
        config = self.config

        min_rate = problem.min_rate_requirements(
            allocation.frequency_hz, round_deadline_s
        )
        # The frequencies chosen by Subproblem 1 guarantee positive slack, so
        # the requirements are finite; numerical round-off can still produce
        # an infinity when a device sits exactly on the deadline.
        min_rate = np.where(np.isfinite(min_rate), min_rate, system.rates_bps(
            allocation.power_w, allocation.bandwidth_hz
        ))

        if problem.energy_weight <= 0.0:
            uplink = minimize_max_upload_time(system)
            return (
                allocation.with_communication(uplink.power_w, uplink.bandwidth_hz),
                True,
                0,
                0.0,
            )

        solver = SumOfRatiosSolver(
            system,
            problem.energy_weight,
            config=config.sum_of_ratios,
            backend=self.backend,
        )
        try:
            result = solver.solve(min_rate, allocation.power_w, allocation.bandwidth_hz)
        except InfeasibleProblemError:
            # Keep the previous (feasible) communication allocation.
            return allocation, False, 0, 0.0
        candidate = allocation.with_communication(result.power_w, result.bandwidth_hz)
        # Never accept a step that increases the overall weighted objective;
        # the alternating scheme then remains monotone even when the inner
        # solver's heuristic split is slightly off.
        if problem.objective(candidate) <= problem.objective(allocation) * (1 + 1e-12) or (
            problem.deadline_s is not None
            and not problem.is_feasible(allocation, rtol=1e-6)
        ):
            return candidate, result.feasible, result.iterations, result.bandwidth_multiplier
        return allocation, True, result.iterations, result.bandwidth_multiplier

    def _solve_delay_only(
        self, problem: JointProblem, timings: StageTimings
    ) -> tuple[ResourceAllocation, ConvergenceHistory]:
        """Closed-form solution for ``w1 = 0``: max frequency, min-max upload."""
        system = problem.system
        with stage("sp2", timings):
            uplink = minimize_max_upload_time(system)
        allocation = ResourceAllocation(
            power_w=uplink.power_w,
            bandwidth_hz=uplink.bandwidth_hz,
            frequency_hz=system.max_frequency_hz.copy(),
        )
        history = ConvergenceHistory()
        history.append(problem.objective(allocation), note="delay-only")
        return allocation, history

    def _finalize(
        self,
        problem: JointProblem,
        allocation: ResourceAllocation,
        round_deadline_s: float,
        history: ConvergenceHistory,
        converged: bool,
        iterations: int,
        feasible: bool,
        inner_iterations: int = 0,
        timings: StageTimings | None = None,
        mu: float = 0.0,
    ) -> AllocationResult:
        terms = problem.objective_terms(allocation)
        report = problem.feasibility(allocation)
        return AllocationResult(
            allocation=allocation,
            round_deadline_s=float(round_deadline_s),
            objective=terms["objective"],
            energy_j=terms["energy_j"],
            completion_time_s=terms["completion_time_s"],
            transmission_energy_j=terms["transmission_energy_j"],
            computation_energy_j=terms["computation_energy_j"],
            converged=converged,
            iterations=iterations,
            feasible=feasible and report.is_feasible,
            history=history,
            inner_iterations=inner_iterations,
            timings=timings.as_dict() if timings is not None else {},
            mu=mu,
        )
