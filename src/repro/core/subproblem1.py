"""Subproblem 1: CPU frequencies and the per-round deadline (problem (10)).

Given the upload times ``T^up_n`` implied by the current ``(p, B)``,
Subproblem 1 chooses the CPU frequencies ``f_n`` and the per-round deadline
``T`` minimising

    w1 R_g sum_n kappa R_l c_n D_n f_n^2  +  w2 R_g T
    s.t.  f_min <= f_n <= f_max,
          R_l c_n D_n / f_n + T^up_n <= T.

Two solvers are provided:

* ``method="primal"`` (default, exact): for a fixed ``T`` the optimal
  frequency is ``f_n(T) = clip(R_l c_n D_n / (T - T^up_n), f_min, f_max)``
  (energy is increasing in ``f``, so each device runs as slowly as the
  deadline allows), and the remaining one-dimensional problem in ``T`` is
  convex — solved by golden section.  This handles the frequency box
  exactly.
* ``method="dual"`` (paper-faithful): the Lagrangian dual (17) is a concave
  maximisation over the scaled simplex ``sum lambda_n = w2 R_g``; its
  water-filling solution gives ``f_n = (lambda_n / (2 w1 R_g kappa))^(1/3)``
  (eq. (16)), clipped into the box as in eq. (18) (the paper's eq. (18) has
  an obvious typo — it clips with ``f_min`` twice — which we fix by clipping
  to ``[f_min, f_max]``).

A third mode handles the deadline-constrained experiments of Sections
VII-C/VII-D: when ``round_deadline_s`` is given, ``T`` is not a variable and
every device simply runs at the slowest feasible frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import ConfigurationError, ConvergenceError, InfeasibleProblemError
from ..solvers.scalar import golden_section_rows, golden_section_scalar
from ..solvers.waterfilling import maximize_concave_on_simplex
from ..system import SystemModel

__all__ = ["Subproblem1Result", "solve_subproblem1", "solve_subproblem1_rows"]


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


def _frequency_for_deadline(
    system: SystemModel, upload_time_s: np.ndarray, round_deadline_s: float
) -> np.ndarray:
    """Slowest feasible frequency per device for a fixed per-round deadline."""
    slack = round_deadline_s - upload_time_s
    if np.any(slack <= 0.0):
        raise InfeasibleProblemError(
            "round deadline leaves no time for computation on some devices"
        )
    needed = system.cycles_per_round / slack
    if np.any(needed > system.max_frequency_hz * (1.0 + 1e-9)):
        raise InfeasibleProblemError(
            "round deadline cannot be met even at the maximum CPU frequency"
        )
    return np.clip(needed, system.min_frequency_hz, system.max_frequency_hz)


def _objective(
    system: SystemModel,
    w1: float,
    w2: float,
    frequency_hz: np.ndarray,
    round_deadline_s: float,
) -> float:
    energy_per_round = float(system.computation_energy_j(frequency_hz).sum())
    return system.global_rounds * (w1 * energy_per_round + w2 * round_deadline_s)


def _primal_result(
    system: SystemModel,
    w1: float,
    w2: float,
    upload_time_s: np.ndarray,
    deadline: float,
) -> Subproblem1Result:
    """The primal solution at a searched deadline ``T``.

    The frequencies are the slowest that meet ``T``; the reported deadline
    is the one those frequencies realise.
    """
    cycles = system.cycles_per_round
    slack = np.maximum(deadline - upload_time_s, 1e-300)
    frequency = np.clip(cycles / slack, system.min_frequency_hz, system.max_frequency_hz)
    realised = float(np.max(upload_time_s + cycles / frequency))
    return Subproblem1Result(
        frequency_hz=frequency,
        round_deadline_s=realised,
        objective=_objective(system, w1, w2, frequency, realised),
        method="primal",
    )


def _solve_primal(
    system: SystemModel,
    w1: float,
    w2: float,
    upload_time_s: np.ndarray,
) -> Subproblem1Result:
    """Exact solution by one-dimensional search over the deadline ``T``."""
    cycles = system.cycles_per_round
    f_min = system.min_frequency_hz
    f_max = system.max_frequency_hz

    t_lower = float(np.max(upload_time_s + cycles / f_max))
    t_upper = float(np.max(upload_time_s + cycles / f_min))

    if w2 <= 0.0:
        # Only energy matters and T is free: run every CPU at its minimum.
        frequency = f_min.copy()
        return Subproblem1Result(
            frequency_hz=frequency,
            round_deadline_s=t_upper,
            objective=_objective(system, w1, w2, frequency, t_upper),
            method="primal",
        )

    if w1 <= 0.0 or t_upper <= t_lower * (1.0 + 1e-12):
        # Only time matters (or T is pinned): the smallest feasible deadline.
        deadline = t_lower
    else:
        # The system's arrays stay hoisted out of the objective:
        # ``cycles_per_round`` is recomputed on every read.  ``energy_coeff``
        # is the ``kappa * cycles`` factor ``computation_energy_j`` forms,
        # so ``energy_coeff * f**2`` is its product, left to right.
        energy_coeff = system.effective_capacitance * cycles
        global_rounds = system.global_rounds

        def objective_at(deadline: float) -> float:
            slack = np.maximum(deadline - upload_time_s, 1e-300)
            frequency = np.clip(cycles / slack, f_min, f_max)
            energy_per_round = float((energy_coeff * frequency**2).sum())
            return global_rounds * (w1 * energy_per_round + w2 * deadline)

        deadline, _ = golden_section_scalar(objective_at, t_lower, t_upper, tol=1e-12)
    return _primal_result(system, w1, w2, upload_time_s, deadline)


def _solve_dual(
    system: SystemModel,
    w1: float,
    w2: float,
    upload_time_s: np.ndarray,
) -> Subproblem1Result:
    """Paper-faithful solution through the dual problem (17)."""
    if w1 <= 0.0 or w2 <= 0.0:
        # The dual derivation divides by both weights; defer to the primal
        # solver for the degenerate corners.
        return _solve_primal(system, w1, w2, upload_time_s)
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


def _checked_upload(
    system: SystemModel, w1: float, w2: float, upload_time_s: np.ndarray
) -> np.ndarray:
    """``upload_time_s`` as a float array, after the Subproblem-1 input checks."""
    upload = np.asarray(upload_time_s, dtype=float)
    if upload.shape != (system.num_devices,):
        raise ConfigurationError(
            f"upload_time_s must have shape ({system.num_devices},), got {upload.shape}"
        )
    if np.any(~np.isfinite(upload)) or np.any(upload < 0.0):
        raise ConfigurationError("upload times must be finite and non-negative")
    if w1 < 0.0 or w2 < 0.0:
        raise ConfigurationError("weights must be non-negative")
    return upload


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
    upload = _checked_upload(system, energy_weight, time_weight, upload_time_s)
    if round_deadline_s is not None:
        frequency = _frequency_for_deadline(system, upload, round_deadline_s)
        return Subproblem1Result(
            frequency_hz=frequency,
            round_deadline_s=float(round_deadline_s),
            objective=_objective(system, energy_weight, time_weight, frequency, round_deadline_s),
            method="deadline",
        )
    if method == "primal":
        return _solve_primal(system, energy_weight, time_weight, upload)
    if method == "dual":
        return _solve_dual(system, energy_weight, time_weight, upload)
    raise ConfigurationError(f"unknown Subproblem 1 method: {method!r}")


def solve_subproblem1_rows(
    systems: Sequence[SystemModel],
    energy_weights: Sequence[float],
    time_weights: Sequence[float],
    upload_times_s: Sequence[np.ndarray],
    *,
    round_deadlines_s: Sequence[float | None] | None = None,
    method: str = "primal",
) -> list[Subproblem1Result | Exception]:
    """Subproblem-1 solve across independent lanes.

    Lane ``i`` solves ``solve_subproblem1(systems[i], energy_weights[i],
    time_weights[i], upload_times_s[i], round_deadline_s=
    round_deadlines_s[i], method=method)`` and the result is bit-identical
    to that 1-D call.  Only the primal golden-section search over the
    deadline ``T`` is genuinely batched (through
    :func:`~repro.solvers.scalar.golden_section_rows`, whose lanes
    replicate the scalar search exactly), and only for a device-count
    group of two or more lanes.  A one-lane group, a fixed-deadline lane
    and the degenerate corners — ``w1 <= 0``, ``w2 <= 0``, an
    already-collapsed interval, or a non-primal ``method`` — run the 1-D
    solver lane by lane.  Exceptions the 1-D call would raise are returned
    in that lane's slot.

    Golden lanes are sub-grouped by device count so the stacked objective
    sums run over rectangular ``(lanes, n)`` arrays, which NumPy reduces
    with the same pairwise trees as the 1-D sums — the keystone of the
    bit-parity guarantee.
    """
    num_lanes = len(systems)
    results: list[Subproblem1Result | Exception] = [
        ConfigurationError("lane not solved") for _ in range(num_lanes)
    ]
    golden: dict[int, list[int]] = {}
    uploads: dict[int, np.ndarray] = {}
    bounds: dict[int, tuple[float, float]] = {}
    deadlines_s = round_deadlines_s or [None] * num_lanes
    lane_errors = (ConfigurationError, InfeasibleProblemError, ConvergenceError)

    for i in range(num_lanes):
        system = systems[i]
        w1 = float(energy_weights[i])
        w2 = float(time_weights[i])
        try:
            if deadlines_s[i] is not None or method != "primal":
                results[i] = solve_subproblem1(
                    system,
                    w1,
                    w2,
                    upload_times_s[i],
                    round_deadline_s=deadlines_s[i],
                    method=method,
                )
                continue
            upload = _checked_upload(system, w1, w2, upload_times_s[i])
            cycles = system.cycles_per_round
            t_lower = float(np.max(upload + cycles / system.max_frequency_hz))
            t_upper = float(np.max(upload + cycles / system.min_frequency_hz))
            if w1 > 0.0 and w2 > 0.0 and t_upper > t_lower * (1.0 + 1e-12):
                golden.setdefault(system.num_devices, []).append(i)
                uploads[i] = upload
                bounds[i] = (t_lower, t_upper)
            else:
                results[i] = _solve_primal(system, w1, w2, upload)
        except lane_errors as exc:
            results[i] = exc

    for n, lanes in golden.items():
        deadlines = None
        if len(lanes) > 1:
            upload_rows = np.stack([uploads[i] for i in lanes])
            cycles_rows = np.stack([systems[i].cycles_per_round for i in lanes])
            fmin_rows = np.stack([systems[i].min_frequency_hz for i in lanes])
            fmax_rows = np.stack([systems[i].max_frequency_hz for i in lanes])
            kappa_rows = np.stack(
                [
                    np.broadcast_to(
                        np.asarray(systems[i].effective_capacitance, dtype=float), (n,)
                    )
                    for i in lanes
                ]
            )
            rg = np.array([float(systems[i].global_rounds) for i in lanes])
            w1_arr = np.array([float(energy_weights[i]) for i in lanes])
            w2_arr = np.array([float(time_weights[i]) for i in lanes])
            t_lo = np.array([bounds[i][0] for i in lanes])
            t_hi = np.array([bounds[i][1] for i in lanes])

            def objective_rows(sel: np.ndarray, deadlines: np.ndarray) -> np.ndarray:
                slack = np.maximum(deadlines[:, None] - upload_rows[sel], 1e-300)
                freq = np.clip(cycles_rows[sel] / slack, fmin_rows[sel], fmax_rows[sel])
                energy = (kappa_rows[sel] * cycles_rows[sel] * freq**2).sum(axis=1)
                return rg[sel] * (w1_arr[sel] * energy + w2_arr[sel] * deadlines)

            try:
                deadlines, _ = golden_section_rows(objective_rows, t_lo, t_hi, tol=1e-12)
            except ConvergenceError:
                # One stuck lane aborts the whole rows search; redo the group
                # lane by lane so only the genuinely failing lanes error out.
                deadlines = None
        for k, i in enumerate(lanes):
            w1 = float(energy_weights[i])
            w2 = float(time_weights[i])
            try:
                if deadlines is None:
                    results[i] = _solve_primal(systems[i], w1, w2, uploads[i])
                else:
                    results[i] = _primal_result(
                        systems[i], w1, w2, uploads[i], float(deadlines[k])
                    )
            except lane_errors as exc:
                results[i] = exc
    return results
