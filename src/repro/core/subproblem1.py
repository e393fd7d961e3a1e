"""Subproblem 1: CPU frequencies and the per-round deadline (problem (10)).

Given the upload times ``T^up_n`` implied by the current ``(p, B)``,
Subproblem 1 chooses the CPU frequencies ``f_n`` and the per-round deadline
``T`` minimising

    w1 R_g sum_n kappa R_l c_n D_n f_n^2  +  w2 R_g T
    s.t.  f_min <= f_n <= f_max,
          R_l c_n D_n / f_n + T^up_n <= T.

Two methods are provided:

* ``method="primal"`` (default, exact): for a fixed ``T`` the optimal
  frequency is ``f_n(T) = clip(R_l c_n D_n / (T - T^up_n), f_min, f_max)``
  (energy is increasing in ``f``, so each device runs as slowly as the
  deadline allows), and the remaining one-dimensional problem in ``T`` is
  convex — solved by golden section, or in closed form when a weight is
  zero.  This handles the frequency box exactly.
* ``method="dual"`` (paper-faithful): the Lagrangian dual (17) is a concave
  maximisation over the scaled simplex ``sum lambda_n = w2 R_g``; its
  water-filling solution gives ``f_n = (lambda_n / (2 w1 R_g kappa))^(1/3)``
  (eq. (16)), clipped into the box as in eq. (18) (the paper's eq. (18) has
  an obvious typo — it clips with ``f_min`` twice — which we fix by clipping
  to ``[f_min, f_max]``).  The derivation divides by both weights, so a
  zero weight's corner takes the primal solution.

A third mode handles the deadline-constrained experiments of Sections
VII-C/VII-D: when ``round_deadline_s`` is given, ``T`` is not a variable and
every device simply runs at the slowest feasible frequency.

All three run in one solver, :func:`solve_subproblem1_stack`, which solves
a stack of same-size lanes as row operations; :func:`solve_subproblem1` is
its one-row call.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from ..exceptions import (
    ConfigurationError,
    ConvergenceError,
    InfeasibleProblemError,
    SolverError,
)
from ..solvers.scalar import golden_section_rows, golden_section_scalar
from ..solvers.waterfilling import maximize_concave_on_simplex
from ..system import SystemModel

__all__ = [
    "SUBPROBLEM1_METHODS",
    "FrequencyRows",
    "Subproblem1Result",
    "solve_subproblem1",
    "solve_subproblem1_stack",
]

#: The free-deadline Subproblem-1 methods ``method`` accepts.
SUBPROBLEM1_METHODS = ("primal", "dual")


@dataclass(frozen=True)
class Subproblem1Result:
    """Solution of Subproblem 1."""

    frequency_hz: np.ndarray
    round_deadline_s: float
    objective: float
    dual_variables: np.ndarray | None = None
    method: str = "primal"

    @property
    def num_devices(self) -> int:
        return int(self.frequency_hz.shape[0])


def _objective(
    system: SystemModel,
    w1: float,
    w2: float,
    frequency_hz: np.ndarray,
    round_deadline_s: float,
) -> float:
    energy_per_round = float(system.computation_energy_j(frequency_hz).sum())
    return system.global_rounds * (w1 * energy_per_round + w2 * round_deadline_s)


def _solve_dual(
    system: SystemModel,
    w1: float,
    w2: float,
    upload_time_s: np.ndarray,
) -> Subproblem1Result:
    """Paper-faithful solution through the dual problem (17), for ``w1, w2 > 0``."""
    cycles_local = system.local_iterations * system.cycles_per_sample * system.num_samples
    rg = system.global_rounds
    kappa = system.effective_capacitance
    # h = R_l (w1 kappa R_g)^(1/3); the dual objective coefficient of
    # lambda^(2/3) is (2^(-2/3) + 2^(1/3)) h c_n D_n.  Using per-device kappa
    # keeps the formula valid for heterogeneous fleets.
    h = system.local_iterations * (w1 * kappa * rg) ** (1.0 / 3.0)
    coeff = (2.0 ** (-2.0 / 3.0) + 2.0 ** (1.0 / 3.0)) * h * (
        system.cycles_per_sample * system.num_samples
    )
    lambdas, _eta = maximize_concave_on_simplex(coeff, upload_time_s, w2 * rg)
    frequency = (lambdas / (2.0 * w1 * rg * kappa)) ** (1.0 / 3.0)
    frequency = np.clip(frequency, system.min_frequency_hz, system.max_frequency_hz)
    deadline = float(np.max(upload_time_s + cycles_local / frequency))
    return Subproblem1Result(
        frequency_hz=frequency,
        round_deadline_s=deadline,
        objective=_objective(system, w1, w2, frequency, deadline),
        dual_variables=lambdas,
        method="dual",
    )


def solve_subproblem1(
    system: SystemModel,
    energy_weight: float,
    time_weight: float,
    upload_time_s: np.ndarray,
    *,
    round_deadline_s: float | None = None,
    method: str = "primal",
) -> Subproblem1Result:
    """Solve Subproblem 1 for fixed upload times.

    A one-row :func:`solve_subproblem1_stack` call; the row's exception is
    raised.

    Parameters
    ----------
    energy_weight, time_weight:
        The weights ``w1`` and ``w2``.
    upload_time_s:
        Upload times ``T^up_n`` implied by the current ``(p, B)``.
    round_deadline_s:
        If given, the per-round deadline is fixed (Sections VII-C/VII-D) and
        only the frequencies are optimised.
    method:
        ``"primal"`` (exact) or ``"dual"`` (paper's problem (17)).
    """
    upload = np.asarray(upload_time_s, dtype=float)
    if upload.shape != (system.num_devices,):
        raise ConfigurationError(
            f"upload_time_s must have shape ({system.num_devices},), got {upload.shape}"
        )
    frequency, deadline, (outcome,) = solve_subproblem1_stack(
        [system],
        FrequencyRows.of([system]),
        np.array([energy_weight], dtype=float),
        np.array([time_weight], dtype=float),
        upload[None],
        [round_deadline_s],
        method,
    )
    if isinstance(outcome, Exception):
        raise outcome
    if outcome is not None:
        return outcome
    realised = float(deadline[0])
    return Subproblem1Result(
        frequency_hz=frequency[0],
        round_deadline_s=realised,
        objective=_objective(system, energy_weight, time_weight, frequency[0], realised),
        method="primal" if round_deadline_s is None else "deadline",
    )


@dataclass(frozen=True)
class FrequencyRows:
    """The Subproblem-1 constants of same-size lanes, stacked once.

    ``cycles`` (``R_l c_n D_n``), ``energy`` (``kappa_n`` times it, the
    factor :meth:`~repro.system.SystemModel.computation_energy_j` forms),
    ``f_min`` and ``f_max`` are ``(lanes, n)``; ``rounds`` is each lane's
    ``R_g`` as a float.
    """

    cycles: np.ndarray
    energy: np.ndarray
    f_min: np.ndarray
    f_max: np.ndarray
    rounds: np.ndarray

    @classmethod
    def of(cls, systems: Sequence[SystemModel]) -> FrequencyRows:
        cycles = np.array([s.cycles_per_round for s in systems], dtype=float)
        return cls(
            cycles=cycles,
            energy=np.array([s.effective_capacitance for s in systems], dtype=float) * cycles,
            f_min=np.array([s.min_frequency_hz for s in systems], dtype=float),
            f_max=np.array([s.max_frequency_hz for s in systems], dtype=float),
            rounds=np.array([float(s.global_rounds) for s in systems]),
        )

    def take(self, rows: np.ndarray | int) -> FrequencyRows:
        """The stack of the given rows (one 1-D row for an ``int``)."""
        return FrequencyRows(*(getattr(self, f.name)[rows] for f in fields(self)))


def _primal_rows(
    cpu: FrequencyRows, upload: np.ndarray, deadlines: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The primal solution at each row's deadline ``T``: the slowest
    frequencies that meet it, and the deadline they realise."""
    slack = np.maximum(deadlines[:, None] - upload, 1e-300)
    frequency = np.clip(cpu.cycles / slack, cpu.f_min, cpu.f_max)
    return frequency, (upload + cpu.cycles / frequency).max(axis=1)


def _deadline_objective(
    cpu: FrequencyRows, upload: np.ndarray, w1: np.ndarray, w2: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """Subproblem 1's objective as a function of the deadline ``T``, each
    device at the slowest frequency meeting it: of a stack (``T`` one per
    row) or of one 1-D row (``T`` a float)."""
    stacked = upload.ndim == 2
    # Bound once: a search evaluates the objective ~60 times.
    cycles, coeff, f_min, f_max, rounds = cpu.cycles, cpu.energy, cpu.f_min, cpu.f_max, cpu.rounds

    def objective(deadline):
        slack = np.maximum((deadline[:, None] if stacked else deadline) - upload, 1e-300)
        frequency = np.clip(cycles / slack, f_min, f_max)
        energy = (coeff * frequency**2).sum(axis=-1)
        return rounds * (w1 * energy + w2 * deadline)

    return objective


def _search_deadlines(
    cpu: FrequencyRows,
    upload: np.ndarray,
    w1: np.ndarray,
    w2: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> tuple[np.ndarray, list[ConvergenceError | None]]:
    """The objective-minimising deadline of every row, by golden section on
    ``[lower, upper]``, and each row's search failure (else ``None``).

    Two or more rows run one :func:`golden_section_rows`, whose rows
    replicate the scalar search exactly; a lone row runs
    :func:`golden_section_scalar`, which is faster for one.
    """
    if lower.size > 1:
        objective = _deadline_objective(cpu, upload, w1, w2)
        try:
            return golden_section_rows(objective, lower, upper, tol=1e-12)[0], [None] * lower.size
        except ConvergenceError:
            # One stuck row aborts the rows search: search row by row, so
            # only the stuck rows fail.
            return _search_each(cpu, upload, w1, w2, lower, upper)
    return _search_each(cpu, upload, w1, w2, lower, upper)


def _search_each(
    cpu: FrequencyRows,
    upload: np.ndarray,
    w1: np.ndarray,
    w2: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> tuple[np.ndarray, list[ConvergenceError | None]]:
    """:func:`_search_deadlines` row by row, each a scalar search."""
    found = np.full_like(lower, np.nan)
    errors: list[ConvergenceError | None] = [None] * lower.size
    for k in range(lower.size):
        objective = _deadline_objective(cpu.take(k), upload[k], w1[k], w2[k])
        try:
            found[k] = golden_section_scalar(objective, lower[k], upper[k], tol=1e-12)[0]
        except ConvergenceError as exc:
            errors[k] = exc
    return found, errors


def solve_subproblem1_stack(
    systems: Sequence[SystemModel],
    cpu: FrequencyRows,
    energy_weights: np.ndarray,
    time_weights: np.ndarray,
    upload: np.ndarray,
    round_deadlines_s: Sequence[float | None],
    method: str = "primal",
) -> tuple[np.ndarray, np.ndarray, list[Subproblem1Result | Exception | None]]:
    """Subproblem 1 for a stack of same-size lanes, as row operations.

    The one Subproblem-1 solver: row ``k`` solves Subproblem 1 for
    ``systems[k]`` (whose constants ``cpu`` stacks) with weights
    ``energy_weights[k]``, ``time_weights[k]`` and upload times
    ``upload[k]``, under the fixed deadline ``round_deadlines_s[k]`` if one
    is given, else by ``method``.  Returns the ``(lanes, n)`` frequencies,
    the ``(lanes,)`` round deadlines and a per-row status: ``None`` for a
    solved row, the exception that ends the row (its row is then
    meaningless), or the :class:`Subproblem1Result` of a dual row.

    Each step is a row pass, in the order of the checks: non-finite or
    negative uploads, then negative weights, fail; a fixed deadline gives
    the slowest frequencies that meet it (failing when it leaves a device
    no time or needs more than ``f_max``) and is kept as given; an unknown
    ``method`` fails the other rows.  The primal solution then takes the
    corners in closed form (``w2 <= 0``: every CPU at ``f_min``;
    ``w1 <= 0`` or a collapsed interval: the smallest feasible deadline)
    and the deadline ``T`` of the others by golden section
    (:func:`_search_deadlines`), and the frequencies and realised deadline
    at ``T`` are one row pass (:func:`_primal_rows`).  With
    ``method="dual"`` the rows whose weights are both positive run the
    dual water-filling (:func:`_solve_dual`) one by one, and a
    :class:`SolverError` there (a multiplier it cannot bracket) ends only
    that row; the corners stay primal.  Every row gets the bits of a one-row stack: stacked row sums
    reduce with the same pairwise tree as 1-D sums.
    """
    lanes = upload.shape[0]
    w1, w2 = energy_weights, time_weights
    frequency = np.full_like(upload, np.nan)
    deadline = np.full(lanes, np.nan)
    status: list[Subproblem1Result | Exception | None] = [None] * lanes
    bad_upload = (~np.isfinite(upload)).any(axis=1) | (upload < 0.0).any(axis=1)
    bad = bad_upload | (w1 < 0.0) | (w2 < 0.0)
    for k in np.flatnonzero(bad).tolist():
        status[k] = ConfigurationError(
            "upload times must be finite and non-negative"
            if bad_upload[k]
            else "weights must be non-negative"
        )
    fixed = ~bad & np.array([d is not None for d in round_deadlines_s], dtype=bool)
    free = ~bad & ~fixed

    rows = np.flatnonzero(fixed)
    if rows.size:
        given = np.array([float(round_deadlines_s[k]) for k in rows.tolist()])
        slack = given[:, None] - upload[rows]
        with np.errstate(divide="ignore"):
            needed = cpu.cycles[rows] / slack
        no_time = (slack <= 0.0).any(axis=1).tolist()
        too_fast = (needed > cpu.f_max[rows] * (1.0 + 1e-9)).any(axis=1).tolist()
        for k, late, fast in zip(rows.tolist(), no_time, too_fast):
            if late:
                status[k] = InfeasibleProblemError(
                    "round deadline leaves no time for computation on some devices"
                )
            elif fast:
                status[k] = InfeasibleProblemError(
                    "round deadline cannot be met even at the maximum CPU frequency"
                )
        frequency[rows] = np.clip(needed, cpu.f_min[rows], cpu.f_max[rows])
        deadline[rows] = given

    if method not in SUBPROBLEM1_METHODS:
        for k in np.flatnonzero(free).tolist():
            status[k] = ConfigurationError(f"unknown Subproblem 1 method: {method!r}")
        return frequency, deadline, status
    dual = free & ~(w1 <= 0.0) & ~(w2 <= 0.0) if method == "dual" else np.zeros(lanes, bool)
    for k in np.flatnonzero(dual).tolist():
        try:
            status[k] = result = _solve_dual(systems[k], float(w1[k]), float(w2[k]), upload[k])
        except _LANE_ERRORS as exc:
            status[k] = exc
            continue
        frequency[k], deadline[k] = result.frequency_hz, result.round_deadline_s

    primal = free & ~dual
    if not primal.any():
        return frequency, deadline, status
    lower = (upload + cpu.cycles / cpu.f_max).max(axis=1)
    upper = (upload + cpu.cycles / cpu.f_min).max(axis=1)
    # Only energy matters and T is free: every CPU at its minimum.
    slowest = primal & (w2 <= 0.0)
    frequency[slowest], deadline[slowest] = cpu.f_min[slowest], upper[slowest]
    # Only time matters, or T is pinned: the smallest feasible deadline.
    fastest = primal & ~slowest & ((w1 <= 0.0) | (upper <= lower * (1.0 + 1e-12)))
    searched = primal & ~slowest & ~fastest
    target = lower.copy()
    if searched.any():
        target[searched], errors = _search_deadlines(
            cpu.take(searched), upload[searched], w1[searched], w2[searched],
            lower[searched], upper[searched],
        )
        for k, error in zip(np.flatnonzero(searched).tolist(), errors):
            status[k] = error
    at = fastest | searched
    frequency[at], deadline[at] = _primal_rows(cpu.take(at), upload[at], target[at])
    return frequency, deadline, status


_LANE_ERRORS = (ConfigurationError, InfeasibleProblemError, SolverError)
