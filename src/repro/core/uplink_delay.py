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

The answer is bit-identical to rerunning ``min_bandwidth_for_rate`` at every
step, but far cheaper, for two reasons:

* **One shared walk per device.**  ``min_bandwidth_for_rate`` bisects
  ``[1e-6, B]`` and moves ``lo`` up exactly when ``rate(mid) < d_n / t``, so
  every ``t`` walks the same tree of midpoints and only the comparisons
  differ.  Every ``t`` still to be tested lies in the current bracket
  ``[t_lo, t_hi]``, so each device keeps its deepest node on which all rates
  in ``[d_n / t_hi, d_n / t_lo]`` take the same branch, and advances it
  after each outer step as far as that agreement holds.  A test starts from
  there instead of from the root.
* **A test stops once its answer is certain.**  A device's converged
  bandwidth stays inside its current ``[lo, hi]``, and a float sum is
  monotone in every term, so summing the upper ends (the lower ends) over
  the full-length vector, in ``min_bandwidth_for_rate``'s order, bounds the
  converged sum from above (below).  An upper sum within the budget proves
  ``t`` feasible, a lower sum above it proves it infeasible.

Only the final ``B_n(t_hi)`` walks to convergence.  Tests the walk cannot
take — a target at or below the rate at ``1e-6`` Hz, which makes
``min_bandwidth_for_rate`` raise or bisect on a different sign — call
``min_bandwidth_for_rate`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..exceptions import ConvergenceError, InfeasibleProblemError
from ..system import SystemModel
from ..wireless.rate import (
    _BANDWIDTH_FLOOR_HZ,
    _BANDWIDTH_TOL,
    _open_band_rate,
    min_bandwidth_for_rate,
)

__all__ = ["UploadTimeAllocation", "minimize_max_upload_time"]

# A walk from ``[1e-6, B]`` stops within ``log2(B / tol) + 2`` steps; past
# this budget it could outlast ``bisect_vector``'s 200-step cap, whose
# ``ConvergenceError`` only ``min_bandwidth_for_rate`` itself reproduces.
_MAX_WALK_BUDGET_HZ = _BANDWIDTH_TOL * 2.0**190


@dataclass(frozen=True)
class UploadTimeAllocation:
    """Result of the min-max upload-time allocation."""

    power_w: np.ndarray
    bandwidth_hz: np.ndarray
    max_upload_time_s: float


def _descend(
    lo: np.ndarray,
    hi: np.ndarray,
    mid: np.ndarray,
    active: np.ndarray,
    moving: np.ndarray,
    up: np.ndarray,
) -> None:
    """One ``bisect_vector`` step, in place, for the ``moving`` lanes:
    ``lo`` moves to ``mid`` where ``up``, ``hi`` elsewhere.  (Every ``mid``
    is at least ``1e-6``, so ``bisect_vector``'s ``|mid|`` is ``mid``.)"""
    up &= moving
    np.copyto(lo, mid, where=up)
    np.copyto(hi, mid, where=moving & ~up)
    np.copyto(mid, 0.5 * (lo + hi), where=moving)
    active &= hi - lo > _BANDWIDTH_TOL * np.maximum(1.0, mid)


class _BandwidthWalk:
    """Each uploading device's shared node in the bandwidth-bisection tree."""

    def __init__(
        self,
        power: np.ndarray,
        gains: np.ndarray,
        noise: float,
        bits: np.ndarray,
        budget: float,
    ) -> None:
        self.power = power
        self.gains = gains
        self.noise = noise
        self.bits = bits
        self.budget = budget
        self.uploads = bits > 0.0
        self.padded = not np.all(self.uploads)
        self.gp = (gains * power)[self.uploads]
        count = self.gp.shape
        self.cap_rate = _open_band_rate(self.gp, np.full(count, budget), noise)
        self.floor_rate = _open_band_rate(self.gp, np.full(count, _BANDWIDTH_FLOOR_HZ), noise)
        if budget > _MAX_WALK_BUDGET_HZ:
            self.floor_rate[:] = np.inf  # every test takes the nested call
        self.lo = np.full(count, _BANDWIDTH_FLOOR_HZ)
        self.hi = np.full(count, float(budget))
        self.mid = 0.5 * (self.lo + self.hi)
        self.active = self.hi - self.lo > _BANDWIDTH_TOL * np.maximum(1.0, self.mid)
        # The rate at every active lane's shared node (any value elsewhere).
        self.rate = _open_band_rate(self.gp, self.mid, noise)

    def _nested(self, t: float) -> np.ndarray:
        return min_bandwidth_for_rate(
            self.bits / t, self.power, self.gains, self.noise, bandwidth_cap_hz=self.budget
        )

    def _full(self, values: np.ndarray) -> np.ndarray:
        """``values`` in the full-length vector, zero for non-uploaders."""
        if not self.padded:
            return values
        full = np.zeros(self.bits.shape)
        full[self.uploads] = values
        return full

    def _targets(self, t: float) -> np.ndarray | None:
        """Uploaders' target rates at ``t``, or ``None`` unless each is above
        the rate at the bracket floor (only then does ``bisect_vector`` move
        ``lo`` up exactly when ``rate(mid)`` is below the target)."""
        rate = (self.bits / t)[self.uploads]
        return rate if (self.floor_rate < rate).all() else None

    def _walk(self, rate: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
        """``lo, hi, mid, active`` at each node of the endless walk towards
        ``rate`` from the shared nodes (a converged lane stays put).  A
        node's rate is computed only when the caller asks for the next one."""
        lo, hi, mid = self.lo.copy(), self.hi.copy(), self.mid.copy()
        active = self.active.copy()
        at_mid = self.rate
        while True:
            yield lo, hi, mid, active
            if at_mid is None:
                at_mid = _open_band_rate(self.gp, mid, self.noise)
            _descend(lo, hi, mid, active, active, at_mid < rate)
            at_mid = None

    def fits(self, t: float, limit: float) -> bool:
        """Whether ``B_n(t)`` is finite and sums to at most ``limit``."""
        rate = self._targets(t)
        if rate is None:
            needed = self._nested(t)
            return bool(np.all(np.isfinite(needed)) and needed.sum() <= limit)
        if (self.cap_rate < rate).any():
            return False
        walk = self._walk(rate)
        while True:
            lo, hi, mid, active = next(walk)
            if self._full(np.where(active, hi, mid)).sum() <= limit:
                return True
            if self._full(np.where(active, lo, mid)).sum() > limit:
                return False

    def needed(self, t: float) -> np.ndarray:
        """``B_n(t)``, walked to convergence."""
        rate = self._targets(t)
        if rate is None or (self.cap_rate < rate).any():
            return self._nested(t)
        walk = self._walk(rate)
        while True:
            _, _, mid, active = next(walk)
            if not active.any():
                return self._full(mid)

    def share(self, t_lo: float, t_hi: float) -> None:
        """Advance every shared node while all of ``[t_lo, t_hi]`` agrees."""
        # Every t between the two ends asks for a rate between these two.
        bits = self.bits[self.uploads]
        r_a, r_b = bits / t_lo, bits / t_hi
        r_min, r_max = np.minimum(r_a, r_b), np.maximum(r_a, r_b)
        moving = self.active.copy()
        while True:
            up = self.rate < r_min
            moving &= up | (self.rate >= r_max)
            if not moving.any():
                return
            _descend(self.lo, self.hi, self.mid, self.active, moving, up)
            moving &= self.active
            if not moving.any():
                return  # every lane that moved has converged
            self.rate = _open_band_rate(self.gp, self.mid, self.noise)


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

    walk = _BandwidthWalk(power, gains, noise, bits, budget)

    # Upper bound: the equal split is always feasible for its own max time.
    equal = np.full(system.num_devices, budget / system.num_devices)
    t_hi = float(np.max(system.upload_bits / np.maximum(
        system.rates_bps(power, equal), 1e-300
    )))
    if not walk.fits(t_hi, budget * (1 + 1e-9)):
        # The equal-split time should always be feasible; guard against
        # numerical corner cases by growing the bound.
        for _ in range(100):
            t_hi *= 2.0
            if walk.fits(t_hi, budget):
                break
        else:
            raise InfeasibleProblemError("could not find a feasible upload schedule")

    # Lower bound: even giving the whole band to the slowest single device
    # cannot beat its solo upload time.
    solo_rates = system.rates_bps(power, np.full(system.num_devices, budget))
    t_lo = float(np.max(bits / solo_rates))

    for _ in range(max_iter):
        walk.share(t_lo, t_hi)
        t_mid = 0.5 * (t_lo + t_hi)
        if walk.fits(t_mid, budget):
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

    bandwidth = walk.needed(t_hi)
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
