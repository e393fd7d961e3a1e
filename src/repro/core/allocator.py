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
that runs each outer round once per stack of same-size lanes, as row
operations.  :meth:`ResourceAllocator.solve` is a batch of one lane and
:meth:`ResourceAllocator.solve_batch` a batch of many; every row keeps the
bits of the per-lane formulas and the numeric kernels underneath pick their
1-D or rows form by lane count, so a lane's result does not depend on the
batch it ran in.

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
from typing import NamedTuple, Sequence

import numpy as np

from ..exceptions import ConfigurationError, InfeasibleProblemError
from ..perf.timers import stage
from ..solvers.dual_decomposition import minimize_separable_with_budget
from ..solvers.newton import row_norms
from ..wireless.rate import min_bandwidth_for_rate, shannon_rate
from .allocation import ResourceAllocation
from .convergence import ConvergenceHistory
from .problem import JointProblem
from .subproblem1 import FrequencyRows, solve_subproblem1_stack
from .subproblem2 import SystemRows
from .sum_of_ratios import SumOfRatiosConfig, _LaneRows, solve_sum_of_ratios_stacks
from .uplink_delay import minimize_max_upload_time

__all__ = ["INITIAL_STRATEGIES", "AllocatorConfig", "AllocationResult", "ResourceAllocator"]

#: The values :attr:`AllocatorConfig.initial_strategy` accepts.
INITIAL_STRATEGIES = ("auto", "equal", "delay_min", "compute_aware")


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
    #: Initial-point strategy, one of :data:`INITIAL_STRATEGIES`:
    #: ``"equal"`` uses the equal split above, ``"delay_min"`` starts from
    #: the min-max-upload bandwidth split at maximum power,
    #: ``"compute_aware"`` picks the bandwidth split that minimises the
    #: computation energy a hard completion-time budget forces (the equal
    #: split when there is no budget), and
    #: ``"auto"`` (default) picks ``compute_aware`` whenever such a budget
    #: is set (where a channel-aware start keeps far devices feasible) and
    #: ``equal`` otherwise.
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


class _Final(NamedTuple):
    """A lane's last Algorithm-2 state, reported by :meth:`ResourceAllocator._finalize`."""

    problem: JointProblem
    allocation: ResourceAllocation
    round_deadline: float
    history: ConvergenceHistory
    converged: bool = False
    iterations: int = 0
    feasible: bool = True
    inner_iterations: int = 0
    mu: float = 0.0


def _upload_times(bits: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """:meth:`SystemModel.upload_time_s` per row: ``d / r``, infinite at a zero rate."""
    return np.divide(bits, rates, out=np.full(rates.shape, np.inf), where=rates > 0.0)


class _Stack:
    """The running Algorithm-2 lanes of one device count, as row operations.

    ``(p, B, f)`` are ``(lanes, n)`` stacks and the system constants are
    stacked once per :meth:`ResourceAllocator.solve_batch` call: the radio
    side as :class:`SystemRows`, the CPU side (cycles, ``kappa`` times
    cycles, the frequency bounds, ``R_g``) as :class:`FrequencyRows`, and
    the weights as columns.  One outer round is :meth:`subproblem1`,
    :meth:`delay_step`, :meth:`algorithm1` (the stack's Algorithm-1 runs,
    solved beside the other stacks'), :meth:`accept` and :meth:`finish`.
    The rates of the round's starting ``(p, B)`` are evaluated once and
    serve Subproblem 1's upload times, the rate requirements' fallback and
    the current objective; the step's candidate gets one more evaluation,
    whose objective is also the history's.  Each row keeps the bits of the
    per-lane formulas: the objective sums ``E^trans + E^cmp`` per device
    and then over devices (:meth:`JointProblem.objective`), row sums run
    over C-contiguous stacks (the 1-D pairwise tree), and norms are
    per-row dots (:func:`row_norms`).  Each check of the per-lane
    :class:`ResourceAllocation` runs on the rows it guards and fails only
    its own lane.  Rows are compacted when lanes stop or fail.
    """

    def __init__(
        self,
        slots: list[int],
        problems: list[JointProblem],
        allocations: list[ResourceAllocation],
    ) -> None:
        systems = [problem.system for problem in problems]
        self.slots, self.problems, self.systems = slots, problems, systems
        self.deadlines = [problem.round_deadline_s for problem in problems]
        self.histories = [ConvergenceHistory() for _ in slots]
        self.radio = SystemRows.of(systems)
        self.cpu = FrequencyRows.of(systems)
        self.w1 = np.array([problem.energy_weight for problem in problems], dtype=float)
        self.w2 = np.array([problem.time_weight for problem in problems], dtype=float)
        self.power = np.array([a.power_w for a in allocations])
        self.bandwidth = np.array([a.bandwidth_hz for a in allocations])
        self.frequency = np.array([a.frequency_hz for a in allocations])
        self.round_deadline = np.zeros(len(slots))
        self.feasible = np.ones(len(slots), dtype=bool)
        self.inner_iterations = np.zeros(len(slots), dtype=int)
        self.mu = np.zeros(len(slots))
        self.iteration = 0
        # Round state (set by the round's steps, compacted with the rows).
        self.previous_power = self.previous_bandwidth = self.previous_frequency = None
        self.rates = self.upload = self.next_power = self.next_bandwidth = None
        self.objective = None
        self.a1 = np.zeros(0, dtype=int)

    _ROWS = (
        "w1", "w2", "power", "bandwidth", "frequency", "round_deadline", "feasible",
        "inner_iterations", "mu", "previous_power", "previous_bandwidth",
        "previous_frequency", "rates", "upload", "next_power", "next_bandwidth", "objective",
    )

    def _drop(self, failed: list[tuple[int, Exception]]) -> list[tuple[int, Exception]]:
        """Remove the failed rows; return their ``(slot, exception)``."""
        if not failed:
            return []
        slots = [(self.slots[k], exc) for k, exc in failed]
        gone = {k for k, _ in failed}
        self._keep(np.array([k for k in range(len(self.slots)) if k not in gone], dtype=int))
        return slots

    def _keep(self, rows: np.ndarray) -> None:
        """Compact the stack to the given rows."""
        picked = rows.tolist()
        for name in ("slots", "problems", "systems", "deadlines", "histories"):
            values = getattr(self, name)
            setattr(self, name, [values[k] for k in picked])
        self.radio, self.cpu = self.radio.take(rows), self.cpu.take(rows)
        for name in self._ROWS:
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, value[rows])

    def subproblem1(self, method: str) -> list[tuple[int, Exception]]:
        """Step 1: the frequencies and round deadline for the current upload times."""
        self.iteration += 1
        self.previous_power, self.previous_bandwidth = self.power, self.bandwidth
        self.previous_frequency = self.frequency
        radio = self.radio
        rates = shannon_rate(self.power, self.bandwidth, radio.gains, radio.noise)
        self.rates, self.upload = rates, _upload_times(radio.bits, rates)
        frequency, deadline, status = solve_subproblem1_stack(
            self.systems, self.cpu, self.w1, self.w2, self.upload, self.deadlines, method
        )
        failed = [(k, s) for k, s in enumerate(status) if isinstance(s, Exception)]
        # ``ResourceAllocation``'s check on the new frequencies.
        failed += [
            (k, ConfigurationError("CPU frequencies must be strictly positive"))
            for k in np.flatnonzero((frequency <= 0.0).any(axis=1)).tolist()
            if not isinstance(status[k], Exception)
        ]
        self.frequency, self.round_deadline = frequency, deadline
        return self._drop(sorted(failed, key=lambda item: item[0]))

    def delay_step(self) -> list[tuple[int, Exception]]:
        """Step 2 of the ``w1 = 0`` (deadline) lanes: the min-max upload split."""
        self.next_power, self.next_bandwidth = self.power.copy(), self.bandwidth.copy()
        failed: list[tuple[int, Exception]] = []
        for k in np.flatnonzero(~(self.w1 > 0.0)).tolist():
            try:
                uplink = minimize_max_upload_time(self.systems[k])
            except Exception as exc:  # repro-lint: disable=RL005 -- lane isolation: one bad problem must fail its own slot, not the batch
                failed.append((k, exc))
                continue
            self.next_power[k], self.next_bandwidth[k] = uplink.power_w, uplink.bandwidth_hz
        return self._drop(failed)

    def algorithm1(self, config: SumOfRatiosConfig) -> _LaneRows | None:
        """Step 2 of the ``w1 > 0`` lanes: their Algorithm-1 runs, started.

        The rate requirements ``d / (T - R_l c D / f)``, falling back to the
        current rates where a requirement is not finite (a device exactly
        on the deadline).
        """
        self.a1 = a1 = np.flatnonzero(self.w1 > 0.0)
        if not a1.size:
            return None
        slack = self.round_deadline[a1, None] - self.cpu.cycles[a1] / self.frequency[a1]
        required = np.divide(
            self.radio.bits[a1], slack, out=np.full(slack.shape, np.inf), where=slack > 0.0
        )
        required = np.where(np.isfinite(required), required, self.rates[a1])
        return _LaneRows(
            self.radio.take(a1),
            [self.systems[k] for k in a1.tolist()],
            self.w1[a1] * self.cpu.rounds[a1],
            [config] * a1.size,
            required,
            self.power[a1],
            self.bandwidth[a1],
        )

    def _objectives(self, power: np.ndarray, upload: np.ndarray) -> np.ndarray:
        """:meth:`JointProblem.objective` of every row at the current frequencies."""
        cpu = self.cpu
        with np.errstate(invalid="ignore"):
            transmission = np.where(power == 0.0, 0.0, power * upload)
        energy = cpu.rounds * (transmission + cpu.energy * self.frequency**2).sum(axis=1)
        time = cpu.rounds * (cpu.cycles / self.frequency + upload).max(axis=1)
        return self.w1 * energy + self.w2 * time

    def accept(self, inner: _LaneRows | None) -> list[tuple[int, Exception]]:
        """Take each Algorithm-1 step unless it raises the lane's objective.

        Never accepting a step that increases the overall weighted objective
        keeps the alternating scheme monotone even when the inner solver's
        heuristic split is slightly off.  A deadline lane whose current
        point misses the deadline takes the step regardless.  A run that
        ended infeasible, or whose final iterate has a zero rate, keeps the
        previous (feasible) ``(p, B)``.  One rate evaluation of the
        candidate stack serves the zero-rate test, the candidate objective
        and the history record.
        """
        power, bandwidth = self.next_power, self.next_bandwidth
        failed: list[tuple[int, Exception]] = []
        done: list[int] = []
        if inner is not None:
            for j, error in enumerate(inner.errors):
                if error is None:
                    done.append(j)
                elif isinstance(error, InfeasibleProblemError):
                    self.feasible[self.a1[j]] = False
                else:
                    failed.append((int(self.a1[j]), error))
            ran = self.a1[done]
            power[ran], bandwidth[ran] = inner.out_power[done], inner.out_bandwidth[done]
        radio = self.radio
        with np.errstate(invalid="ignore"):
            rates = shannon_rate(power, bandwidth, radio.gains, radio.noise)
        # Algorithm 1's result check: a final iterate with a zero rate.
        zero = (rates <= 0.0).any(axis=1)
        for k in self.a1[done][zero[self.a1[done]]].tolist():
            self.feasible[k] = False
            power[k], bandwidth[k], rates[k] = self.power[k], self.bandwidth[k], self.rates[k]
        # ``ResourceAllocation``'s checks on the new ``(p, B)``.
        negative_power = (power < 0.0).any(axis=1)
        invalid = negative_power | (bandwidth < 0.0).any(axis=1)
        failed += [
            (
                k,
                ConfigurationError(
                    "transmit powers must be non-negative"
                    if negative_power[k]
                    else "bandwidths must be non-negative"
                ),
            )
            for k in np.flatnonzero(invalid).tolist()
        ]
        judged = [j for j in done if not (zero[self.a1[j]] or invalid[self.a1[j]])]
        with np.errstate(invalid="ignore", divide="ignore"):
            objective = self._objectives(power, _upload_times(radio.bits, rates))
        if judged:
            rows = self.a1[judged]
            current = self._objectives(self.power, self.upload)[rows]
            taken = objective[rows] <= current * (1 + 1e-12)
            for j in np.flatnonzero(~taken).tolist():
                k = int(rows[j])
                problem = self.problems[k]
                if problem.deadline_s is not None and not problem.is_feasible(
                    ResourceAllocation(self.power[k], self.bandwidth[k], self.frequency[k]),
                    rtol=1e-6,
                ):
                    taken[j] = True
            kept = rows[~taken]
            power[kept], bandwidth[kept] = self.power[kept], self.bandwidth[kept]
            objective[kept] = current[~taken]
            self.feasible[rows] = np.where(taken, inner.out_feasible[judged], True)
            self.inner_iterations[rows] += inner.out_iterations[judged]
            multiplier = inner.out_multiplier[judged]
            self.mu[rows] = np.where(multiplier > 0.0, multiplier, self.mu[rows])
        self.feasible[~(self.w1 > 0.0)] = True
        self.power, self.bandwidth, self.objective = power, bandwidth, objective
        return self._drop(sorted(failed, key=lambda item: item[0]))

    def finish(self, tolerance: float, max_iterations: int) -> list[tuple[int, _Final]]:
        """The step change, history record and convergence test of every lane.

        The step change is :meth:`ResourceAllocation.distance_to` per row:
        each block's relative change by per-row dots, the largest of the
        three taken as Python's ``max`` takes it.  Stopped lanes leave the
        stack; returns their ``(slot, final state)``.
        """
        lanes = len(self.slots)
        norms = row_norms(
            np.concatenate(
                [
                    self.power - self.previous_power, self.previous_power,
                    self.bandwidth - self.previous_bandwidth, self.previous_bandwidth,
                    self.frequency - self.previous_frequency, self.previous_frequency,
                ]
            )
        ).reshape(6, lanes)
        blocks = norms[0::2] / np.maximum(norms[1::2], 1e-30)
        step = np.where(blocks[1] > blocks[0], blocks[1], blocks[0])
        step = np.where(blocks[2] > step, blocks[2], step)
        note = f"outer-{self.iteration}"
        for history, value, change in zip(self.histories, self.objective.tolist(), step.tolist()):
            history.append(value, step_change=change, note=note)
        converged = step <= tolerance
        stop = converged | (self.iteration >= max_iterations)
        if not stop.any():
            return []
        done = [
            (
                self.slots[k],
                _Final(
                    self.problems[k],
                    ResourceAllocation(self.power[k], self.bandwidth[k], self.frequency[k]),
                    deadline,
                    self.histories[k],
                    bool(converged[k]),
                    self.iteration,
                    feasible,
                    inner_iterations,
                    mu,
                ),
            )
            for k, deadline, feasible, inner_iterations, mu in zip(
                np.flatnonzero(stop).tolist(),
                self.round_deadline[stop].tolist(),
                self.feasible[stop].tolist(),
                self.inner_iterations[stop].tolist(),
                self.mu[stop].tolist(),
            )
        ]
        self._keep(np.flatnonzero(~stop))
        return done


class ResourceAllocator:
    """Algorithm 2: alternating optimisation of ``(f, T)`` and ``(p, B)``."""

    def __init__(self, config: AllocatorConfig | None = None) -> None:
        self.config = config or AllocatorConfig()

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
        driver, whose outer rounds run once per stack of same-size lanes
        with the bits of the per-lane formulas, and the numeric kernels it
        calls (the SP1 golden-section search, the SP2 bandwidth-multiplier
        search) return the same bits whether they take the rows path for a
        group of lanes or the 1-D path for a single one.  Lanes of
        different device counts mix freely.  Every lane kind runs in the
        batch: delay-only (``w1 = 0``, no deadline) and hard-deadline lanes
        included.

        With ``return_exceptions=True`` a failing lane's exception is
        returned in its slot (the :func:`asyncio.gather` idiom) instead of
        aborting the batch, wherever in the round it is raised; otherwise
        the first failure propagates.
        """
        return self._solve_lanes(
            problems, [None] * len(problems), return_exceptions=return_exceptions
        )

    # -- internals ----------------------------------------------------------
    def _initial_allocation(self, problem: JointProblem) -> ResourceAllocation:
        """Build the initial feasible point according to the configured strategy."""
        strategy = self.config.initial_strategy
        if strategy not in INITIAL_STRATEGIES:
            raise ValueError(f"unknown initial strategy: {strategy!r}")
        if strategy == "auto":
            strategy = "compute_aware" if problem.deadline_s is not None else "equal"
        if strategy == "equal":
            return problem.initial_allocation(
                bandwidth_fraction=self.config.initial_bandwidth_fraction
            )
        if strategy == "compute_aware":
            return self._compute_aware_initial(problem)
        system = problem.system  # "delay_min"
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

        Lanes that iterate are stacked by device count (:class:`_Stack`) and
        every outer round runs once per stack as row operations: Subproblem
        1 (:func:`solve_subproblem1_stack`, from the stack's upload times),
        the Subproblem-2 step (the Algorithm-1 runs of every stack in one
        :func:`solve_sum_of_ratios_stacks` call, which starts them from the
        stacked constants), the accept test, the step change and the
        history record; converged lanes drop out.  Per-lane
        :class:`ResourceAllocation` objects are built only for the initial
        point, the deadline-feasibility guard and the final report
        (:meth:`_finalize`).  Lane kinds:

        * ``w1 = 0`` with no deadline finishes at setup with the closed
          form (maximum frequency, min-max upload; see
          :mod:`repro.core.uplink_delay`);
        * ``w1 = 0`` with a deadline takes the min-max upload split as its
          Subproblem-2 step, since energy leaves the SP2 objective;
        * a hard deadline fixes the per-round deadline in Subproblem 1.
        """
        config = self.config
        results: list[AllocationResult | Exception | None] = [None] * len(problems)
        finals: dict[int, _Final] = {}

        def fail(failures: list[tuple[int, Exception]]) -> None:
            for i, exc in sorted(failures, key=lambda item: item[0]):
                if not return_exceptions:
                    raise exc
                results[i] = exc

        groups: dict[int, list[int]] = {}
        starts: dict[int, ResourceAllocation] = {}
        with stage("algorithm2"):
            for i, problem in enumerate(problems):
                try:
                    if problem.energy_weight <= 0.0 and problem.deadline_s is None:
                        with stage("sp2"):
                            uplink = minimize_max_upload_time(problem.system)
                        allocation = ResourceAllocation(
                            power_w=uplink.power_w,
                            bandwidth_hz=uplink.bandwidth_hz,
                            frequency_hz=problem.system.max_frequency_hz.copy(),
                        )
                        round_deadline = allocation.round_time_s(problem.system)
                        history = ConvergenceHistory()
                        history.append(problem.objective(allocation), note="delay-only")
                        finals[i] = _Final(
                            problem, allocation, round_deadline, history, True, 1
                        )
                        continue
                    allocation = initial_allocations[i] or self._initial_allocation(problem)
                    # Also the shape and frequency checks of an explicit start.
                    round_deadline = allocation.round_time_s(problem.system)
                except Exception as exc:  # repro-lint: disable=RL005 -- lane isolation: one bad problem must fail its own slot, not the batch
                    fail([(i, exc)])
                    continue
                if config.max_iterations >= 1:
                    starts[i] = allocation
                    groups.setdefault(problem.system.num_devices, []).append(i)
                else:
                    finals[i] = _Final(
                        problem, allocation, round_deadline, ConvergenceHistory()
                    )

            stacks = [
                _Stack(slots, [problems[i] for i in slots], [starts[i] for i in slots])
                for slots in groups.values()
            ]
            while stacks:
                with stage("sp1"):
                    fail([f for s in stacks for f in s.subproblem1(config.subproblem1_method)])
                with stage("sp2"):
                    fail([f for s in stacks for f in s.delay_step()])
                    inner = [s.algorithm1(config.sum_of_ratios) for s in stacks]
                    solve_sum_of_ratios_stacks([rows for rows in inner if rows is not None])
                    fail([f for s, rows in zip(stacks, inner) for f in s.accept(rows)])
                for stack in stacks:
                    finals.update(stack.finish(config.tolerance, config.max_iterations))
                stacks = [stack for stack in stacks if stack.slots]

        for i in sorted(finals):
            try:
                results[i] = self._finalize(finals[i])
            except Exception as exc:  # repro-lint: disable=RL005 -- lane isolation: one bad problem must fail its own slot, not the batch
                fail([(i, exc)])
        final: list[AllocationResult | Exception] = []
        for i, item in enumerate(results):
            if item is None:  # pragma: no cover - defensive
                raise RuntimeError(f"batch lane {i} was never solved")
            final.append(item)
        return final

    @staticmethod
    def _finalize(lane: _Final) -> AllocationResult:
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
            iterations=lane.iterations,
            feasible=lane.feasible and report.is_feasible,
            history=lane.history,
            inner_iterations=lane.inner_iterations,
            mu=lane.mu,
        )
