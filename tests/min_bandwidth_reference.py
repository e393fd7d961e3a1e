"""Reference minimum bandwidth for a rate: the blind bisection, frozen.

:func:`repro.wireless.rate.min_bandwidth_for_rate` replays the bisection's
midpoints from a certified bracket around each device's root and evaluates
the float rate only at the rare midpoint inside it.  This copy keeps the
original formulation — every device bisected from ``[1e-6, cap]`` with the
rate evaluated at every midpoint, on the frozen
:func:`tests.bisection_reference.bisect_vector_reference` — so the tests can
hold the replay to bit-identical outputs and identical errors.
"""

from __future__ import annotations

import numpy as np

from repro.wireless.rate import _BANDWIDTH_FLOOR_HZ, _BANDWIDTH_TOL, shannon_rate
from tests.bisection_reference import bisect_vector_reference


def min_bandwidth_for_rate_reference(
    rate_bps: np.ndarray,
    power_w: np.ndarray | float,
    gain: np.ndarray | float,
    noise_psd: float,
    *,
    bandwidth_cap_hz: float,
    tol: float = _BANDWIDTH_TOL,
) -> np.ndarray:
    """Same contract as ``min_bandwidth_for_rate``."""
    r = np.asarray(rate_bps, dtype=float)
    p = np.broadcast_to(np.asarray(power_w, dtype=float), r.shape).copy()
    g = np.broadcast_to(np.asarray(gain, dtype=float), r.shape).copy()

    result = np.full(r.shape, np.inf)
    zero = r <= 0.0
    result[zero] = 0.0
    achievable = (
        shannon_rate(p, np.full(r.shape, bandwidth_cap_hz), g, noise_psd) >= r
    ) & ~zero
    if not np.any(achievable):
        return result

    r_a, gp_a = r[achievable], g[achievable] * p[achievable]

    def residual(bw: np.ndarray) -> np.ndarray:
        return bw * np.log2(1.0 + gp_a / (noise_psd * bw)) - r_a

    lo = np.full(r_a.shape, _BANDWIDTH_FLOOR_HZ)
    hi = np.full(r_a.shape, float(bandwidth_cap_hz))
    result[achievable] = bisect_vector_reference(residual, lo, hi, tol=tol)
    return result
