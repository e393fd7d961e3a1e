"""Reference min-max upload-time allocation: the nested bisection, frozen.

:func:`repro.core.uplink_delay.minimize_max_upload_time` answers most
outer steps from two certified points around the continuous threshold and
runs the nested bisection only where they cannot decide.  This copy keeps
the original formulation — every outer step on ``t`` bisects every
device's bandwidth from the full ``[1e-6, B]`` bracket (the frozen
:func:`tests.min_bandwidth_reference.min_bandwidth_for_rate_reference`) and
sums its converged answer — so the tests can hold the certified shortcut to
bit-identical outputs and identical errors.
"""

from __future__ import annotations

import numpy as np

from repro.core.uplink_delay import UploadTimeAllocation
from repro.exceptions import ConvergenceError, InfeasibleProblemError
from repro.system import SystemModel
from tests.min_bandwidth_reference import min_bandwidth_for_rate_reference


def minimize_max_upload_time_reference(
    system: SystemModel,
    *,
    power_w: np.ndarray | None = None,
    tol: float = 1e-9,
    max_iter: int = 100,
) -> UploadTimeAllocation:
    """Same contract as ``minimize_max_upload_time``."""
    power = system.max_power_w.copy() if power_w is None else np.asarray(power_w, dtype=float)
    if np.any(power <= 0.0):
        raise InfeasibleProblemError("transmit power must be positive to upload at all")
    gains = system.gains
    noise = system.noise_psd_w_per_hz
    bits = system.upload_bits
    budget = system.total_bandwidth_hz

    if not np.any(bits > 0.0):
        return UploadTimeAllocation(
            power_w=power,
            bandwidth_hz=np.full(system.num_devices, budget / system.num_devices),
            max_upload_time_s=0.0,
        )

    def bandwidth_needed(t: float) -> np.ndarray:
        return min_bandwidth_for_rate_reference(
            bits / t, power, gains, noise, bandwidth_cap_hz=budget
        )

    equal = np.full(system.num_devices, budget / system.num_devices)
    t_hi = float(np.max(system.upload_bits / np.maximum(
        system.rates_bps(power, equal), 1e-300
    )))
    needed_hi = bandwidth_needed(t_hi)
    if np.any(~np.isfinite(needed_hi)) or needed_hi.sum() > budget * (1 + 1e-9):
        for _ in range(100):
            t_hi *= 2.0
            needed_hi = bandwidth_needed(t_hi)
            if np.all(np.isfinite(needed_hi)) and needed_hi.sum() <= budget:
                break
        else:
            raise InfeasibleProblemError("could not find a feasible upload schedule")

    solo_rates = system.rates_bps(power, np.full(system.num_devices, budget))
    t_lo = float(np.max(bits / solo_rates))

    for _ in range(max_iter):
        t_mid = 0.5 * (t_lo + t_hi)
        needed = bandwidth_needed(t_mid)
        if np.all(np.isfinite(needed)) and needed.sum() <= budget:
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

    bandwidth = bandwidth_needed(t_hi)
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
