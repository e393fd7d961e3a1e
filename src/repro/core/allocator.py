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

There is one driver: a lockstep loop over independent problems ("lanes")
that runs each step for every active lane at once.
:meth:`ResourceAllocator.solve` is a batch of one lane and
:meth:`ResourceAllocator.solve_batch` a batch of many; the numeric kernels
underneath pick their 1-D or rows form by lane count, so a lane's result
does not depend on the batch it ran in.

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
from ..perf.timers import stage
from ..solvers.dual_decomposition import minimize_separable_with_budget
from ..wireless.rate import min_bandwidth_for_rate
from .allocation import ResourceAllocation
from .convergence import ConvergenceHistory
from .problem import JointProblem
from .subproblem1 import solve_subproblem1_rows
from .subproblem2 import validate_backend
from .sum_of_ratios import (
    SumOfRatiosConfig,
    SumOfRatiosResult,
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


class _Lane:
    """Mutable Algorithm-2 state of one lane of the lockstep driver."""

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

    def min_rate_requirements(self) -> np.ndarray:
        """Per-device rates the current frequencies and deadline demand."""
        allocation = self.allocation
        min_rate = self.problem.min_rate_requirements(
            allocation.frequency_hz, self.round_deadline
        )
        # The frequencies chosen by Subproblem 1 guarantee positive slack, so
        # the requirements are finite; numerical round-off can still produce
        # an infinity when a device sits exactly on the deadline.
        return np.where(
            np.isfinite(min_rate),
            min_rate,
            self.problem.system.rates_bps(allocation.power_w, allocation.bandwidth_hz),
        )

    def accept(self, inner: SumOfRatiosResult) -> None:
        """Take Algorithm 1's ``(p, B)`` unless it raises the objective."""
        problem = self.problem
        candidate = self.allocation.with_communication(inner.power_w, inner.bandwidth_hz)
        # Never accept a step that increases the overall weighted objective;
        # the alternating scheme then remains monotone even when the inner
        # solver's heuristic split is slightly off.  A deadline lane whose
        # current point misses the deadline takes the step regardless.
        if problem.objective(candidate) <= problem.objective(self.allocation) * (1 + 1e-12) or (
            problem.deadline_s is not None
            and not problem.is_feasible(self.allocation, rtol=1e-6)
        ):
            self.allocation = candidate
            self.feasible = inner.feasible
        else:
            self.feasible = True
        self.inner_iterations += inner.iterations
        if inner.bandwidth_multiplier > 0.0:
            self.last_mu = inner.bandwidth_multiplier


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
        a (slightly) different solution.  This is a one-lane batch of the
        lockstep driver behind :meth:`solve_batch`; the lane's exception is
        raised.
        """
        (result,) = self._solve_lanes([problem], [initial_allocation], return_exceptions=True)
        if isinstance(result, Exception):
            raise result
        return result

    def solve_batch(
        self,
        problems: Sequence[JointProblem],
        *,
        return_exceptions: bool = False,
    ) -> list[AllocationResult | Exception]:
        """Run Algorithm 2 on many independent problems in lockstep.

        Each lane's trajectory — every SP1/SP2 iterate, the convergence
        history, iteration counts and the final allocation — is bit-identical
        to a stand-alone ``solve(problems[i])`` call: both run the same
        driver, and the numeric kernels it calls (the SP1 golden-section
        search, the SP2 bandwidth-multiplier search) return the same bits
        whether they take the rows path for a group of lanes or the 1-D
        path for a single one.  Every lane kind runs in the batch: delay-only
        (``w1 = 0``, no deadline), hard-deadline and scalar-backend lanes
        included.

        With ``return_exceptions=True`` a failing lane's exception is
        returned in its slot (the :func:`asyncio.gather` idiom) instead of
        aborting the batch; otherwise the first failure propagates.
        """
        return self._solve_lanes(
            problems, [None] * len(problems), return_exceptions=return_exceptions
        )

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

    def _solve_lanes(
        self,
        problems: Sequence[JointProblem],
        initial_allocations: Sequence[ResourceAllocation | None],
        *,
        return_exceptions: bool,
    ) -> list[AllocationResult | Exception]:
        """The lockstep Algorithm-2 driver behind ``solve`` and ``solve_batch``.

        Every round runs Subproblem 1 for all active lanes in one
        :func:`solve_subproblem1_rows` call, then Subproblem 2 in one
        :func:`solve_sum_of_ratios_rows` call, then each lane's convergence
        test; converged lanes drop out.  Lane kinds:

        * ``w1 = 0`` with no deadline finishes at setup with the closed
          form (maximum frequency, min-max upload; see
          :mod:`repro.core.uplink_delay`);
        * ``w1 = 0`` with a deadline takes the min-max upload split as its
          Subproblem-2 step, since energy leaves the SP2 objective;
        * a hard deadline fixes the per-round deadline in Subproblem 1.
        """
        config = self.config
        results: list[AllocationResult | Exception | None] = [None] * len(problems)
        lanes: dict[int, _Lane] = {}

        def fail(i: int, exc: Exception) -> None:
            if not return_exceptions:
                raise exc
            results[i] = exc
            lanes.pop(i, None)

        active: list[int] = []
        with stage("algorithm2"):
            for i, problem in enumerate(problems):
                try:
                    if problem.energy_weight <= 0.0 and problem.deadline_s is None:
                        with stage("sp2"):
                            uplink = minimize_max_upload_time(problem.system)
                        lane = _Lane(
                            problem,
                            ResourceAllocation(
                                power_w=uplink.power_w,
                                bandwidth_hz=uplink.bandwidth_hz,
                                frequency_hz=problem.system.max_frequency_hz.copy(),
                            ),
                        )
                        lane.history.append(
                            problem.objective(lane.allocation), note="delay-only"
                        )
                        lane.converged, lane.iteration = True, 1
                    else:
                        lane = _Lane(
                            problem,
                            initial_allocations[i] or self._initial_allocation(problem),
                        )
                        if config.max_iterations >= 1:
                            active.append(i)
                    lanes[i] = lane
                except Exception as exc:  # repro-lint: disable=RL005 -- lane isolation: one bad problem must fail its own slot, not the batch
                    fail(i, exc)

            while active:
                for i in active:
                    lanes[i].iteration += 1

                # Step 1: Subproblem 1 — CPU frequencies and round deadline.
                with stage("sp1"):
                    sp1_results = solve_subproblem1_rows(
                        [lanes[i].problem.system for i in active],
                        [lanes[i].problem.energy_weight for i in active],
                        [lanes[i].problem.time_weight for i in active],
                        [
                            lanes[i].problem.system.upload_time_s(
                                lanes[i].allocation.power_w,
                                lanes[i].allocation.bandwidth_hz,
                            )
                            for i in active
                        ],
                        round_deadlines_s=[lanes[i].problem.round_deadline_s for i in active],
                        method=config.subproblem1_method,
                    )
                previous: dict[int, ResourceAllocation] = {}
                for i, sp1 in zip(active, sp1_results):
                    if isinstance(sp1, Exception):
                        fail(i, sp1)
                        continue
                    lane = lanes[i]
                    previous[i] = lane.allocation
                    lane.allocation = lane.allocation.with_frequency(sp1.frequency_hz)
                    lane.round_deadline = sp1.round_deadline_s
                active = [i for i in active if i in lanes]

                # Step 2: Subproblem 2 — transmit power and bandwidth.
                with stage("sp2"):
                    algorithm1: list[int] = []
                    for i in active:
                        lane = lanes[i]
                        if lane.problem.energy_weight > 0.0:
                            algorithm1.append(i)
                            continue
                        try:
                            uplink = minimize_max_upload_time(lane.problem.system)
                        except Exception as exc:  # repro-lint: disable=RL005 -- lane isolation: one bad problem must fail its own slot, not the batch
                            fail(i, exc)
                            continue
                        lane.allocation = lane.allocation.with_communication(
                            uplink.power_w, uplink.bandwidth_hz
                        )
                        lane.feasible = True
                    inner_results = solve_sum_of_ratios_rows(
                        [
                            SumOfRatiosSolver(
                                lanes[i].problem.system,
                                lanes[i].problem.energy_weight,
                                config=config.sum_of_ratios,
                                backend=self.backend,
                            )
                            for i in algorithm1
                        ],
                        [lanes[i].min_rate_requirements() for i in algorithm1],
                        [lanes[i].allocation.power_w for i in algorithm1],
                        [lanes[i].allocation.bandwidth_hz for i in algorithm1],
                    )
                    for i, inner in zip(algorithm1, inner_results):
                        if isinstance(inner, InfeasibleProblemError):
                            # Keep the previous (feasible) communication allocation.
                            lanes[i].feasible = False
                        elif isinstance(inner, Exception):
                            fail(i, inner)
                        else:
                            lanes[i].accept(inner)

                survivors: list[int] = []
                for i in active:
                    if i not in lanes:
                        continue
                    lane = lanes[i]
                    step_change = lane.allocation.distance_to(previous[i])
                    lane.history.append(
                        lane.problem.objective(lane.allocation),
                        step_change=step_change,
                        note=f"outer-{lane.iteration}",
                    )
                    if step_change <= config.tolerance:
                        lane.converged = True
                    elif lane.iteration < config.max_iterations:
                        survivors.append(i)
                active = survivors

        for i, lane in lanes.items():
            try:
                results[i] = self._finalize(lane)
            except Exception as exc:  # repro-lint: disable=RL005 -- lane isolation: one bad problem must fail its own slot, not the batch
                fail(i, exc)
        final: list[AllocationResult | Exception] = []
        for i, item in enumerate(results):
            if item is None:  # pragma: no cover - defensive
                raise RuntimeError(f"batch lane {i} was never solved")
            final.append(item)
        return final

    def _finalize(self, lane: _Lane) -> AllocationResult:
        problem, allocation = lane.problem, lane.allocation
        terms = problem.objective_terms(allocation)
        report = problem.feasibility(allocation)
        return AllocationResult(
            allocation=allocation,
            round_deadline_s=float(lane.round_deadline),
            objective=terms["objective"],
            energy_j=terms["energy_j"],
            completion_time_s=terms["completion_time_s"],
            transmission_energy_j=terms["transmission_energy_j"],
            computation_energy_j=terms["computation_energy_j"],
            converged=lane.converged,
            iterations=lane.iteration,
            feasible=lane.feasible and report.is_feasible,
            history=lane.history,
            inner_iterations=lane.inner_iterations,
            mu=lane.last_mu,
        )
