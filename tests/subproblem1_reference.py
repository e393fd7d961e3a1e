"""Frozen one-lane Subproblem 1: the 1-D solver the stacked rows replaced.

:func:`repro.core.subproblem1.solve_subproblem1_stack` is the one
Subproblem-1 solver: input checks, fixed deadlines, corners and the primal
solution are row passes, and the deadline search is a rows golden section
(one scalar search for a lone row).  This module keeps the per-lane code it
replaced, unchanged: the input checks, the fixed-deadline frequencies, the
primal search with its corners and the dual water-filling.  The golden
section and the water-filling kernels are read from the library, so the
tests hold the stack to the same bits, exception types and messages
included.
"""

from __future__ import annotations

import numpy as np

from repro.core.subproblem1 import Subproblem1Result
from repro.exceptions import ConfigurationError, InfeasibleProblemError
from repro.solvers.scalar import golden_section_scalar
from repro.solvers.waterfilling import maximize_concave_on_simplex
from repro.system import SystemModel


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
