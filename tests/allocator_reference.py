"""Frozen per-lane Algorithm-2 driver: the one-lane-at-a-time reference.

:meth:`repro.core.allocator.ResourceAllocator._solve_lanes` runs each outer
round of Algorithm 2 once per stack of same-size lanes: Subproblem 1's
upload-time input, the rate requirements, the accept test, the step change
and the history objective are row operations.  This module keeps the
per-lane driver it replaced, unchanged: a :class:`_Lane` per problem holding
a :class:`ResourceAllocation`, ``problem.objective`` for the accept test and
the history, ``distance_to`` for the convergence test, and ``_finalize``.
The subproblem solvers are the library's per-lane public calls
(:func:`solve_subproblem1`, :meth:`SumOfRatiosSolver.solve`), read at call
time, and the initial point comes from the allocator under test, so the
tests hold the stacked driver to the same bits, exception types and
messages included.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.allocation import ResourceAllocation
from repro.core.allocator import AllocationResult, ResourceAllocator
from repro.core.convergence import ConvergenceHistory
from repro.core.problem import JointProblem
from repro.core.subproblem1 import solve_subproblem1
from repro.core.sum_of_ratios import SumOfRatiosResult, SumOfRatiosSolver
from repro.core.uplink_delay import minimize_max_upload_time
from repro.exceptions import ConfigurationError, ConvergenceError, InfeasibleProblemError
from repro.perf.timers import stage


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


def solve_lanes_reference(
    allocator: ResourceAllocator,
    problems: Sequence[JointProblem],
    initial_allocations: Sequence[ResourceAllocation | None],
    *,
    return_exceptions: bool,
) -> list[AllocationResult | Exception]:
    """The lockstep Algorithm-2 driver as it was, lane by lane."""
    config = allocator.config
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
                        initial_allocations[i] or allocator._initial_allocation(problem),
                    )
                    if config.max_iterations >= 1:
                        active.append(i)
                lanes[i] = lane
            except Exception as exc:  # lane isolation: one bad problem fails its own slot
                fail(i, exc)

        while active:
            for i in active:
                lanes[i].iteration += 1

            # Step 1: Subproblem 1 — CPU frequencies and round deadline.
            with stage("sp1"):
                sp1_results = [
                    _lane_call(
                        solve_subproblem1,
                        lanes[i].problem.system,
                        lanes[i].problem.energy_weight,
                        lanes[i].problem.time_weight,
                        lanes[i].problem.system.upload_time_s(
                            lanes[i].allocation.power_w,
                            lanes[i].allocation.bandwidth_hz,
                        ),
                        round_deadline_s=lanes[i].problem.round_deadline_s,
                        method=config.subproblem1_method,
                    )
                    for i in active
                ]
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
                    except Exception as exc:  # lane isolation
                        fail(i, exc)
                        continue
                    lane.allocation = lane.allocation.with_communication(
                        uplink.power_w, uplink.bandwidth_hz
                    )
                    lane.feasible = True
                inner_results = [
                    _lane_call(
                        SumOfRatiosSolver(
                            lanes[i].problem.system,
                            lanes[i].problem.energy_weight,
                            config=config.sum_of_ratios,
                        ).solve,
                        lanes[i].min_rate_requirements(),
                        lanes[i].allocation.power_w,
                        lanes[i].allocation.bandwidth_hz,
                    )
                    for i in algorithm1
                ]
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
            results[i] = _finalize(lane)
        except Exception as exc:  # lane isolation
            fail(i, exc)
    final: list[AllocationResult | Exception] = []
    for i, item in enumerate(results):
        if item is None:  # pragma: no cover - defensive
            raise RuntimeError(f"batch lane {i} was never solved")
        final.append(item)
    return final


def _lane_call(solve, *args, **kwargs):
    """One lane's solve, its exception returned in its slot."""
    try:
        return solve(*args, **kwargs)
    except (ConfigurationError, InfeasibleProblemError, ConvergenceError) as exc:
        return exc


def _finalize(lane: _Lane) -> AllocationResult:
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
