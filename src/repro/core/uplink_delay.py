"""Bandwidth allocation minimising the slowest upload.

This is the communication half of the delay-minimisation problem studied in
[14] (the subroutine the paper's Scheme-1 baseline builds on) and the
natural choice for the proposed algorithm when the energy weight is zero:
with ``w1 = 0`` the communication energy does not matter, so every device
transmits at maximum power and the bandwidth is split so that the slowest
upload is as fast as possible.

The minimal achievable value ``t*`` of ``max_n d_n / r_n(p_max, B_n)`` is
found by bisection: for a candidate ``t`` each device needs the bandwidth
``B_n(t)`` that achieves rate ``d_n / t`` at maximum power (the answer of
:func:`repro.wireless.rate.min_bandwidth_for_rate`), and ``t`` is feasible
iff ``sum_n B_n(t) <= B``.

The answer is bit-identical to running ``min_bandwidth_for_rate`` at every
step, but almost every step is answered from two certified points:

* **The test is monotone in ``t``.**  ``min_bandwidth_for_rate`` bisects
  ``[1e-6, B]`` and moves ``lo`` up exactly when the float rate at ``mid``
  is below the target (while the target is above the rate at ``1e-6``), so
  a larger target walks the same midpoints until it branches up, and never
  gets a smaller answer.  ``d_n / t`` falls as ``t`` grows and a float sum
  is monotone in every term: above a feasible ``t`` every ``t`` is
  feasible, below an infeasible one none is.
* **Two points are certified.**  Newton on ``t`` and the bands together
  solves ``B_n log2(1 + g_n p_n / (N0 B_n)) = d_n / t``, ``sum_n B_n = B``
  exactly for its root ``t_c``.  Near ``t_c``, float rates at ``a < b``
  around each device's root prove that every midpoint up to ``a`` moves
  ``lo`` up and every one in ``[b, B]`` moves ``hi`` down, given that a
  float rate is within ``_ROUNDING * (r + B_n)`` of the exact one, which is
  increasing and concave.  The converged bandwidth then lies within twice
  the bisection tolerance of ``[a, b]``, so float sums of those bounds over
  the full-length vector bound the converged sum: one point just above
  ``t_c`` is proven feasible, one just below infeasible.

The rest calls ``min_bandwidth_for_rate``: a step between the points, a
target at or below the rate at ``1e-6`` Hz (where it raises or bisects on
another sign), a budget past the bisection's step cap, a failed Newton, and
the final split.  That function proves the same brackets per device
(:func:`~repro.wireless.rate._certified_brackets`, around each device's own
root) and replays its bisection from them, so these calls too evaluate the
rate only at the rare midpoint inside a bracket.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConvergenceError, InfeasibleProblemError
from ..system import SystemModel
from ..wireless.rate import (
    _BANDWIDTH_FLOOR_HZ,
    _BANDWIDTH_TOL,
    _MARGIN,
    _MAX_CERTIFIED_BUDGET_HZ,
    _NEWTON_STEPS,
    _NEWTON_TOL,
    _certified_brackets,
    _newton_step,
    _open_band_rate,
    min_bandwidth_for_rate,
)

__all__ = ["UploadTimeAllocation", "minimize_max_upload_time"]


@dataclass(frozen=True)
class UploadTimeAllocation:
    """Result of the min-max upload-time allocation."""

    power_w: np.ndarray
    bandwidth_hz: np.ndarray
    max_upload_time_s: float


class _FeasibilityTest:
    """The bisection's test of one solve, from two certified points where they decide."""

    def __init__(self, power, gains, noise, bits, budget, t_start) -> None:
        self.power, self.gains, self.noise = power, gains, noise
        self.all_bits, self.budget = bits, budget
        self.uploads = bits > 0.0
        self.bits = bits[self.uploads]
        self.gp = (gains * power)[self.uploads]
        count = self.bits.shape
        self.cap_rate = _open_band_rate(self.gp, np.full(count, budget), noise)
        self.floor_rate = _open_band_rate(self.gp, np.full(count, _BANDWIDTH_FLOOR_HZ), noise)
        # Every ``t <= t_minus`` needs more than ``lower`` hertz, and every
        # ``t >= t_plus`` whose targets are above the floor rate fits.
        self.t_minus, self.lower, self.t_plus = -np.inf, -np.inf, np.inf
        # Past the certified budget every test runs the nested call, as the
        # uncertified reference does (31 calls against 4 on the tests'
        # pinned 1e53 Hz drop); the answers do not change.  No error is lost
        # either way: where some device's bisection would outlast the 200-step
        # cap, the 60-step Newton does not converge and nothing is certified.
        if budget <= _MAX_CERTIFIED_BUDGET_HZ:
            with np.errstate(all="ignore"):
                self._certify(t_start)

    def needed(self, t: float) -> np.ndarray:
        """``B_n(t)``: ``min_bandwidth_for_rate`` itself."""
        return min_bandwidth_for_rate(
            self.all_bits / t, self.power, self.gains, self.noise, bandwidth_cap_hz=self.budget
        )

    def fits(self, t: float, limit: float) -> bool:
        """Whether ``B_n(t)`` is finite and sums to at most ``limit >= B``."""
        if t >= self.t_plus and (self.floor_rate < self.bits / t).all():
            return True
        if t <= self.t_minus and self.lower > limit:
            return False
        needed = self.needed(t)
        return bool(np.all(np.isfinite(needed)) and needed.sum() <= limit)

    def _threshold(self, t: float) -> tuple[float, np.ndarray, np.ndarray] | None:
        """Root ``t_c`` of the continuous ``sum_n B_n(t) = B``, ``B_n(t_c)`` and
        the rate slopes there, by Newton from ``t`` and an equal split (a step
        out of ``t, B_n > 0`` halves ``t`` or quarters ``B_n``); ``None`` if it fails."""
        snr_hz, bits, budget = self.gp / self.noise, self.bits, self.budget
        band = np.full(bits.shape, budget / bits.size)
        for _ in range(_NEWTON_STEPS):
            residual, slope = _newton_step(snr_hz, bits / t, band)
            drift = -bits / (t * t * slope)  # d B_n / d t along the rate curve
            step = (budget - band.sum() + (residual / slope).sum()) / drift.sum()
            if not np.isfinite(step):
                return None
            new = band - residual / slope + drift * step
            new = np.where(new > 0.0, new, 0.25 * band)
            new_t = t + step if t + step > 0.0 else 0.5 * t
            if abs(new_t - t) <= _NEWTON_TOL * new_t and np.all(
                np.abs(new - band) <= _NEWTON_TOL * new
            ):
                return new_t, new, slope
            t, band = new_t, new
        return None

    def _certify(self, t_start: float) -> None:
        solved = self._threshold(t_start)
        if solved is None:
            return
        t_c, band, slope = solved
        rate = self.bits / t_c
        drift = -rate / (t_c * slope)
        # Brackets of eight times what moves a rate by the margin, at points
        # where the roots' sum has moved by 1.5 times the bounds' slack: at
        # ~1e-9 t from ``t_c`` the tangent's error is far inside a bracket.
        half = 8.0 * np.maximum(_MARGIN * (rate + band) / slope, _NEWTON_TOL * band)
        gap = 1.5 * (half + 2.0 * _BANDWIDTH_TOL * np.maximum(1.0, band)).sum() / -drift.sum()
        above = self._bounds(t_c + gap, band + drift * gap, half)
        if above is not None and above[1] <= self.budget:
            self.t_plus = t_c + gap
        below = self._bounds(t_c - gap, band - drift * gap, half)
        if below is not None and below[0] > self.budget:
            self.t_minus, self.lower = t_c - gap, below[0]

    def _bounds(self, t: float, root: np.ndarray, half: np.ndarray) -> tuple[float, float] | None:
        """Lower and upper bounds on ``B_n(t)``'s sum from the brackets
        ``root -+ half``, or ``None`` where they are not proven."""
        rate = self.bits / t
        if not (self.floor_rate < rate).all():
            return None
        if (self.cap_rate < rate).any():
            return np.inf, np.inf
        a, b, proven = _certified_brackets(
            self.gp, self.noise, rate, self.cap_rate, self.budget, root, half
        )
        if not proven.all():
            return None
        # A converged answer lies within twice the bisection tolerance of them.
        widen = 2.0 * _BANDWIDTH_TOL * np.maximum(1.0, b)
        return self._sum(a - widen), self._sum(b + widen)

    def _sum(self, values: np.ndarray) -> float:
        """``values`` summed in the full-length vector (zero elsewhere)."""
        full = np.zeros(self.all_bits.shape)
        full[self.uploads] = values
        return float(full.sum())


def minimize_max_upload_time(
    system: SystemModel,
    *,
    power_w: np.ndarray | None = None,
    tol: float = 1e-9,
    max_iter: int = 100,
) -> UploadTimeAllocation:
    """Minimise the slowest upload time by splitting the bandwidth budget.

    Parameters
    ----------
    power_w:
        Transmit powers to use (defaults to every device's maximum).
    """
    power = system.max_power_w.copy() if power_w is None else np.asarray(power_w, dtype=float)
    if np.any(power <= 0.0):
        raise InfeasibleProblemError("transmit power must be positive to upload at all")
    gains = system.gains
    noise = system.noise_psd_w_per_hz
    bits = system.upload_bits
    budget = system.total_bandwidth_hz

    if not np.any(bits > 0.0):
        # Degenerate fleet with nothing to upload: every split achieves the
        # optimal (zero) upload time; return the equal split.
        return UploadTimeAllocation(
            power_w=power,
            bandwidth_hz=np.full(system.num_devices, budget / system.num_devices),
            max_upload_time_s=0.0,
        )

    # Upper bound: the equal split is always feasible for its own max time.
    equal = np.full(system.num_devices, budget / system.num_devices)
    t_hi = float(np.max(system.upload_bits / np.maximum(
        system.rates_bps(power, equal), 1e-300
    )))
    test = _FeasibilityTest(power, gains, noise, bits, budget, t_hi)
    if not test.fits(t_hi, budget * (1 + 1e-9)):
        # The equal-split time should always be feasible; guard against
        # numerical corner cases by growing the bound.
        for _ in range(100):
            t_hi *= 2.0
            if test.fits(t_hi, budget):
                break
        else:
            raise InfeasibleProblemError("could not find a feasible upload schedule")

    # Lower bound: even giving the whole band to the slowest single device
    # cannot beat its solo upload time.
    solo_rates = system.rates_bps(power, np.full(system.num_devices, budget))
    t_lo = float(np.max(bits / solo_rates))

    for _ in range(max_iter):
        t_mid = 0.5 * (t_lo + t_hi)
        if test.fits(t_mid, budget):
            t_hi = t_mid
        else:
            t_lo = t_mid
        if t_hi - t_lo <= tol * max(1.0, t_mid):
            break
    else:
        raise ConvergenceError(
            f"min-max upload-time bisection did not converge in {max_iter} "
            f"steps: time bracket [{t_lo:.6g}, {t_hi:.6g}] is still wider "
            f"than tol={tol:.3g}"
        )

    bandwidth = test.needed(t_hi)
    # Hand out any numerically unassigned slack proportionally (it can only
    # reduce upload times further).  Devices with nothing to upload need no
    # bandwidth, so a fleet where only some devices upload keeps the slack
    # with the uploaders; an all-zero demand falls back to an equal split.
    slack = budget - bandwidth.sum()
    if slack > 0:
        total = bandwidth.sum()
        if total > 0.0:
            bandwidth = bandwidth + slack * bandwidth / total
        else:
            bandwidth = bandwidth + slack / system.num_devices
    rates = system.rates_bps(power, bandwidth)
    with np.errstate(divide="ignore", invalid="ignore"):
        upload_times = np.where(bits > 0.0, bits / rates, 0.0)
    return UploadTimeAllocation(
        power_w=power,
        bandwidth_hz=bandwidth,
        max_upload_time_s=float(np.max(upload_times)),
    )
