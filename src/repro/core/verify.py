"""KKT-residual certificates for the closed-form solver stack.

The solvers in this package are derived from KKT systems (Theorem 2 /
Appendix B for SP2_v2, problem (17) for Subproblem 1), so a candidate
solution can be *certified* without re-solving: evaluate the primal
feasibility residuals, the stationarity equations the closed forms were
derived from, and complementary slackness, and check that every residual is
round-off-small.  The tests use these certificates instead of ad-hoc
per-test tolerances, and the differential harness that holds the
multiplier search to its scalar test oracle uses them to prove both sides
optimal rather than merely mutually consistent.

All residuals are **relative** magnitudes (scaled by the constraint's own
size), so one tolerance applies across scenario families whose powers,
bandwidths and rates span orders of magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..system import SystemModel
from .allocation import ResourceAllocation
from .problem import JointProblem
from .subproblem1 import Subproblem1Result
from .subproblem2 import SP2Result

__all__ = ["KKTCertificate", "check_kkt", "check_primal", "check_sp1"]

_LN2 = np.log(2.0)

#: Default tolerance on every certificate residual.
DEFAULT_TOL = 1e-6


def _box_constraint_violation(
    x: np.ndarray, lower: np.ndarray | float, upper: np.ndarray | float
) -> float:
    """Worst relative violation of ``lower <= x <= upper``."""
    x_arr = np.asarray(x, dtype=float)
    lo = np.broadcast_to(np.asarray(lower, dtype=float), x_arr.shape)
    hi = np.broadcast_to(np.asarray(upper, dtype=float), x_arr.shape)
    scale = np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    below = np.maximum(lo - x_arr, 0.0) / scale
    above = np.maximum(x_arr - hi, 0.0) / scale
    return float(np.max(np.maximum(below, above), initial=0.0))


def _budget_violation(x: np.ndarray, budget: float) -> float:
    """Relative violation of ``sum(x) <= budget``."""
    total = float(np.sum(np.asarray(x, dtype=float)))
    return max(0.0, (total - budget) / max(1.0, abs(budget)))


@dataclass(frozen=True)
class KKTCertificate:
    """Named relative residuals of a candidate solution's KKT system.

    ``residuals`` maps a residual name (``"power_box"``, ``"stationarity"``,
    ...) to its relative magnitude; :meth:`problems` renders every breach of
    a tolerance as a message, which is what the ``assert_kkt`` test fixture
    asserts empty.
    """

    residuals: Mapping[str, float]
    context: str = ""

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values(), default=0.0)

    def problems(
        self, tol: float = DEFAULT_TOL, **overrides: float
    ) -> list[str]:
        """Messages for every residual above its tolerance (empty = pass).

        ``overrides`` loosens (or tightens) individual residuals by name,
        e.g. ``problems(stationarity=1e-4)``.  A non-finite residual always
        fails.
        """
        unknown = set(overrides) - set(self.residuals)
        if unknown:
            raise KeyError(
                f"unknown residual override(s) {sorted(unknown)}; "
                f"known: {sorted(self.residuals)}"
            )
        messages = []
        for name, value in sorted(self.residuals.items()):
            limit = overrides.get(name, tol)
            if not value <= limit:  # catches NaN/inf as well as breaches
                prefix = f"{self.context}: " if self.context else ""
                messages.append(
                    f"{prefix}{name} residual {value:.3e} exceeds {limit:.1e}"
                )
        return messages

    def ok(self, tol: float = DEFAULT_TOL, **overrides: float) -> bool:
        """Whether every residual is within tolerance."""
        return not self.problems(tol, **overrides)


def _relative_rate_violation(
    rates: np.ndarray, min_rate_bps: np.ndarray
) -> float:
    constrained = min_rate_bps > 0.0
    if not np.any(constrained):
        return 0.0
    shortfall = np.maximum(min_rate_bps[constrained] - rates[constrained], 0.0)
    return float(np.max(shortfall / min_rate_bps[constrained], initial=0.0))


def check_kkt(
    system: SystemModel,
    nu: np.ndarray,
    beta: np.ndarray,
    min_rate_bps: np.ndarray,
    result: SP2Result,
) -> KKTCertificate:
    """Certify an SP2_v2 solution against its KKT system (Theorem 2).

    Primal residuals (always checked):

    * ``power_box`` / ``bandwidth_sign`` — the box constraints;
    * ``bandwidth_budget`` — ``sum B_n <= B``;
    * ``min_rate`` — ``G_n(p_n, B_n) >= r_min_n``.

    Dual residuals (checked on the devices where the closed form is exact —
    positive bandwidth, power strictly inside its box, not repaired onto
    the rate boundary):

    * ``stationarity`` — the power stationarity ``x_n = a_n g_n /
      (nu_n d_n N0 ln 2)`` with ``a_n = nu_n beta_n + tau_n``, plus (for
      the closed-form method's rate-active devices) the multiplier
      equation ``j_n (x_n ln x_n - x_n + 1) = mu``;
    * ``complementary_slackness`` — ``tau_n > 0`` forces the rate to its
      bound.

    Clipped or repaired devices trade stationarity for their box/rate
    multipliers, which the result does not expose, so they are excluded
    from the dual residuals — their primal residuals still apply.
    """
    power = np.asarray(result.power_w, dtype=float)
    bandwidth = np.asarray(result.bandwidth_hz, dtype=float)
    nu = np.maximum(np.asarray(nu, dtype=float), 1e-300)
    beta = np.maximum(np.asarray(beta, dtype=float), 0.0)
    rmin = np.maximum(np.asarray(min_rate_bps, dtype=float), 0.0)
    tau = np.asarray(result.rate_multipliers, dtype=float)
    mu = float(result.bandwidth_multiplier)

    gains = system.gains
    bits = system.upload_bits
    noise = system.noise_psd_w_per_hz
    rates = system.rates_bps(power, bandwidth)

    residuals: dict[str, float] = {
        "power_box": _box_constraint_violation(
            power, system.min_power_w, system.max_power_w
        ),
        "bandwidth_sign": float(
            np.max(-bandwidth / system.total_bandwidth_hz, initial=0.0)
        ),
        "bandwidth_budget": _budget_violation(bandwidth, system.total_bandwidth_hz),
        "min_rate": _relative_rate_violation(rates, rmin),
    }

    # Devices where the interior stationarity conditions apply verbatim.
    margin = 1e-9
    interior = (
        (bandwidth > 1e-9 * system.total_bandwidth_hz)
        & (power > system.min_power_w * (1.0 + margin))
        & (power < system.max_power_w * (1.0 - margin))
    )
    # The rate-repair step moves rate-short devices onto the rate boundary,
    # replacing stationarity by the rate multiplier; treat every device
    # within round-off of its rate bound as boundary, not interior.
    rate_bound = (rmin > 0.0) & (rates <= rmin * (1.0 + 1e-6))

    stationarity = 0.0
    slackness = 0.0
    eligible = interior & ~rate_bound
    if np.any(eligible):
        x = 1.0 + power[eligible] * gains[eligible] / (
            noise * np.maximum(bandwidth[eligible], 1e-300)
        )
        a = nu[eligible] * beta[eligible] + np.maximum(tau[eligible], 0.0)
        x_expected = a * gains[eligible] / (nu[eligible] * bits[eligible] * noise * _LN2)
        stationarity = float(np.max(np.abs(x - x_expected) / np.maximum(x, 1.0)))
    if result.method == "kkt" and mu > 0.0:
        active = interior & (tau > 0.0)
        if np.any(active):
            x = 1.0 + power[active] * gains[active] / (
                noise * np.maximum(bandwidth[active], 1e-300)
            )
            j = nu[active] * bits[active] * noise / gains[active]
            lhs = j * (x * np.log(x) - x + 1.0)
            stationarity = max(
                stationarity,
                float(np.max(np.abs(lhs - mu) / max(mu, float(np.max(j))))),
            )
            # tau_n > 0 must pin the rate to its requirement.
            slackness = float(
                np.max(
                    np.abs(rates[active] - rmin[active])
                    / np.maximum(rmin[active], 1e-300)
                )
            )
    residuals["stationarity"] = stationarity
    residuals["complementary_slackness"] = slackness

    return KKTCertificate(
        residuals=residuals, context=f"SP2_v2[{result.method}]"
    )


def check_sp1(
    system: SystemModel,
    upload_time_s: np.ndarray,
    result: Subproblem1Result,
) -> KKTCertificate:
    """Certify a Subproblem-1 schedule against its optimality structure.

    * ``frequency_box`` — every frequency inside ``[f_min, f_max]``;
    * ``deadline_cover`` — every device finishes its round inside the
      reported deadline;
    * ``stationarity`` — for a fixed deadline the computation energy is
      increasing in ``f``, so the optimal frequency is the slowest feasible
      one: ``f_n = clip(C_n / (T - T^up_n), f_min, f_max)``.
    """
    upload = np.asarray(upload_time_s, dtype=float)
    frequency = np.asarray(result.frequency_hz, dtype=float)
    deadline = float(result.round_deadline_s)
    slack = np.maximum(deadline - upload, 1e-300)
    slowest_feasible = np.clip(
        system.cycles_per_round / slack,
        system.min_frequency_hz,
        system.max_frequency_hz,
    )
    round_time = upload + system.cycles_per_round / frequency
    return KKTCertificate(
        residuals={
            "frequency_box": _box_constraint_violation(
                frequency, system.min_frequency_hz, system.max_frequency_hz
            ),
            "deadline_cover": float(
                np.max(np.maximum(round_time - deadline, 0.0) / deadline, initial=0.0)
            ),
            "stationarity": float(
                np.max(np.abs(frequency - slowest_feasible) / slowest_feasible)
            ),
        },
        context=f"SP1[{result.method}]",
    )


def check_primal(
    problem: JointProblem, allocation: ResourceAllocation
) -> KKTCertificate:
    """Certify an allocation's primal feasibility for problem (9).

    Wraps :meth:`JointProblem.feasibility` into the same certificate type
    the SP2 checker produces, so allocator-level tests assert feasibility
    through the one ``assert_kkt`` fixture instead of ad-hoc comparisons.
    """
    report = problem.feasibility(allocation)
    return KKTCertificate(
        residuals={
            "power_box": report.power_violation,
            "frequency_box": report.frequency_violation,
            "bandwidth_budget": report.bandwidth_violation,
            "deadline": report.deadline_violation,
        },
        context="JointProblem",
    )
