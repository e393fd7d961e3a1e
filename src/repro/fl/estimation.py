"""Estimated device profiles: fitting ``c_n`` and channel gains from timings.

The allocator normally runs on *oracle* profiles — the exact per-sample
CPU requirement ``c_n`` and realised channel gain ``g_n`` of every device.
A deployed server knows neither; it only observes how long each selected
device's round actually took.  This module closes that gap the way
spirit's ``runtime_estimator`` fits performance curves from live metrics:
each round's observed timings are inverted through the paper's own cost
models and folded into per-device recursive-least-squares estimates that
the next round's allocation is solved against.

Two parameters are fitted per device, each from one exactly-invertible
observation:

* **compute** — the observed computation time obeys eq. (7),
  ``T^cmp = R_l c_n D_n / f_n``, and the server knows ``R_l``, ``D_n`` and
  the frequency ``f_n`` it allocated, so every observation yields an
  effective per-sample cycle count ``c_obs = T^cmp f_n / (R_l D_n)`` (this
  is ``c_n`` folded with any unmodelled frequency inefficiency — the
  "``f_i``-effective" view);
* **channel** — the observed upload time gives the realised rate
  ``r = d_n / T^up``, and inverting eq. (1) at the allocated ``(p_n, B_n)``
  yields the realised gain ``g_obs = (2^{r/B} - 1) N_0 B / p``.  Per-round
  fading makes ``g_obs`` a noisy sample around the large-scale gain, which
  is exactly what the RLS filter averages towards (Rayleigh fading factors
  have unit mean power).

Devices that have never been observed are priced at their oracle values —
the bootstrap round a real deployment would spend calibrating — and every
later round replaces oracle parameters with the fitted ones, so the
oracle-vs-estimated gap is measurable and shrinks as observations
accumulate.  Everything here is pure arithmetic on observed values: no RNG,
so estimation can never shift the loop's seed streams.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping

import numpy as np

from ..exceptions import ConfigurationError
from ..system import SystemModel

__all__ = ["ScalarRLS", "ProfileEstimator"]


@dataclass
class ScalarRLS:
    """Recursive least squares for one scalar parameter.

    The model is ``y_k = theta + noise``; with forgetting factor
    ``lam = 1`` the estimate is the exact running mean of the
    observations, and ``lam < 1`` discounts old observations
    exponentially (useful when the underlying parameter drifts).  ``P``
    is the scaled covariance of the estimate; the first observation
    snaps ``theta`` to it exactly (infinite prior variance).
    """

    forgetting: float = 1.0
    theta: float = 0.0
    covariance: float = float("inf")
    observations: int = 0

    def update(self, value: float) -> float:
        """Fold one observation in; returns the updated estimate."""
        self.observations += 1
        if self.covariance == float("inf"):
            self.theta = float(value)
            self.covariance = 1.0
            return self.theta
        gain = self.covariance / (self.forgetting + self.covariance)
        self.theta += gain * (float(value) - self.theta)
        self.covariance = (1.0 - gain) * self.covariance / self.forgetting
        return self.theta


class ProfileEstimator:
    """Per-device RLS estimates of compute and channel parameters.

    One estimator instance lives for the whole training run; each round
    the loop calls :meth:`observe_round` with the *true* (simulated)
    per-device timings of the selected devices and the allocation that
    produced them, then :meth:`estimated_system` to build the system model
    the next allocation solve runs against.
    """

    def __init__(
        self,
        num_devices: int,
        *,
        forgetting: float = 1.0,
        params: Mapping[str, Any] | None = None,
    ) -> None:
        if params:
            unknown = sorted(set(params) - {"forgetting"})
            if unknown:
                raise ConfigurationError(
                    f"unknown estimation parameter(s) "
                    f"{', '.join(map(repr, unknown))}; known: forgetting"
                )
            forgetting = float(params.get("forgetting", forgetting))
        if not 0.0 < forgetting <= 1.0:
            raise ConfigurationError("estimation forgetting must lie in (0, 1]")
        if num_devices <= 0:
            raise ConfigurationError("num_devices must be positive")
        self.num_devices = num_devices
        self.forgetting = forgetting
        self._cycles = [ScalarRLS(forgetting=forgetting) for _ in range(num_devices)]
        self._gains = [ScalarRLS(forgetting=forgetting) for _ in range(num_devices)]

    # -- observations -------------------------------------------------------
    def observe_round(
        self,
        system: SystemModel,
        universe_indices: np.ndarray,
        *,
        frequency_hz: np.ndarray,
        power_w: np.ndarray,
        bandwidth_hz: np.ndarray,
        compute_time_s: np.ndarray,
        upload_time_s: np.ndarray,
    ) -> None:
        """Fold one round's observed timings into the per-device estimates.

        ``system`` is the *universe* system (for ``R_l``, ``D_n``, ``d_n``
        and the noise PSD — all server-known bookkeeping, not oracle
        channel/CPU state); ``universe_indices`` maps each observation row
        to its universe device.  Rows whose timing is non-finite or whose
        allocation is degenerate (zero power/bandwidth) are skipped — a
        dead or unscheduled device contributes nothing.
        """
        local_iterations = float(system.local_iterations)
        for row, device in enumerate(int(i) for i in universe_indices):
            samples = float(system.num_samples[device])
            upload_bits = float(system.upload_bits[device])
            frequency = float(frequency_hz[row])
            compute = float(compute_time_s[row])
            if np.isfinite(compute) and compute > 0.0 and frequency > 0.0:
                self._cycles[device].update(
                    compute * frequency / (local_iterations * samples)
                )
            power = float(power_w[row])
            bandwidth = float(bandwidth_hz[row])
            upload = float(upload_time_s[row])
            if (
                upload_bits > 0.0
                and np.isfinite(upload)
                and upload > 0.0
                and power > 0.0
                and bandwidth > 0.0
            ):
                rate = upload_bits / upload
                snr = np.exp2(rate / bandwidth) - 1.0
                self._gains[device].update(
                    snr * system.noise_psd_w_per_hz * bandwidth / power
                )

    # -- views ---------------------------------------------------------------
    def observed(self, device: int) -> bool:
        """Whether ``device`` has at least one compute *and* one channel fit."""
        return (
            self._cycles[device].observations > 0
            and self._gains[device].observations > 0
        )

    def estimated_system(
        self, system: SystemModel, universe_indices: np.ndarray
    ) -> SystemModel:
        """``system`` (an active-subset model) re-parameterised with the fits.

        Each row of the subset whose universe device has been observed gets
        its fitted ``c_n`` and gain; unobserved rows keep the oracle values
        (the calibration bootstrap).  Hardware limits (frequency/power
        boxes, ``d_n``, ``D_n``) are spec-sheet data the server already
        knows, so they pass through untouched.
        """
        profiles = list(system.fleet.profiles)
        gains = np.array(system.gains, dtype=float)
        for row, device in enumerate(int(i) for i in universe_indices):
            cycles_rls = self._cycles[device]
            if cycles_rls.observations and cycles_rls.theta > 0.0:
                profiles[row] = replace(
                    profiles[row], cycles_per_sample=cycles_rls.theta
                )
            gain_rls = self._gains[device]
            if gain_rls.observations and gain_rls.theta > 0.0:
                gains[row] = gain_rls.theta
        return system.with_fleet(type(system.fleet)(tuple(profiles))).with_gains(gains)

    def error_report(self, system: SystemModel) -> dict[str, float]:
        """Mean relative error of the fits against the oracle universe system.

        Only observed devices enter each mean (an unobserved device has no
        estimate to be wrong); with nothing observed both errors are NaN.
        The gain error is measured against the system's *current* gains —
        with per-round fading the caller should pass the base (large-scale)
        system, which is what the RLS average converges to.
        """
        cycles_true = system.cycles_per_sample
        gains_true = system.gains
        cycles_errors = [
            abs(self._cycles[i].theta - cycles_true[i]) / abs(cycles_true[i])
            for i in range(self.num_devices)
            if self._cycles[i].observations
        ]
        gain_errors = [
            abs(self._gains[i].theta - gains_true[i]) / abs(gains_true[i])
            for i in range(self.num_devices)
            if self._gains[i].observations
        ]
        return {
            "cycles_rel_err": float(np.mean(cycles_errors)) if cycles_errors else float("nan"),
            "gain_rel_err": float(np.mean(gain_errors)) if gain_errors else float("nan"),
            "observed_devices": float(
                sum(1 for i in range(self.num_devices) if self.observed(i))
            ),
        }
