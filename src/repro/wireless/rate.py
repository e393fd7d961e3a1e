"""Shannon-rate helpers (equation (1) of the paper) and their inverses.

The achievable uplink rate of device ``n`` is

    r_n = B_n log2(1 + g_n p_n / (N0 B_n)),

which is jointly concave in ``(p_n, B_n)`` (Lemma 1).  Besides the forward
formula, the optimizers need two inverse maps:

* the power required to reach a target rate in a given band
  (:func:`required_power_for_rate`), and
* the minimum bandwidth that reaches a target rate at a given power
  (:func:`min_bandwidth_for_rate`).  The ``W_-1`` branch of the Lambert W
  function gives it in closed form, but the code keeps a vectorised
  bisection: its bits are the output (tables, cache entries and the golden
  FL record depend on them), and a closed form would move them.
"""

from __future__ import annotations

import numpy as np

from ..solvers.bisection import bisect_vector

__all__ = [
    "shannon_rate",
    "spectral_efficiency",
    "required_power_for_rate",
    "min_bandwidth_for_rate",
    "rate_jacobian",
]


#: ``min_bandwidth_for_rate``'s bisection bracket floor and default tolerance
#: (``core.uplink_delay`` bounds the bisection's answer with both).
_BANDWIDTH_FLOOR_HZ = 1e-6
_BANDWIDTH_TOL = 1e-9


def _open_band_rate(
    gp: np.ndarray, b: np.ndarray, noise_psd: np.ndarray | float
) -> np.ndarray:
    """``B log2(1 + g p / (N0 B))`` for bands ``B > 0``, given ``g p``."""
    return b * np.log2(1.0 + gp / (noise_psd * b))


def shannon_rate(
    power_w: np.ndarray | float,
    bandwidth_hz: np.ndarray | float,
    gain: np.ndarray | float,
    noise_psd: np.ndarray | float,
) -> np.ndarray:
    """Achievable rate ``B log2(1 + g p / (N0 B))`` in bit/s.

    Zero bandwidth yields zero rate (the limit of the formula).  The noise
    PSD may be an array broadcasting against the others (one per lane of a
    stack).
    """
    p = np.asarray(power_w, dtype=float)
    b = np.asarray(bandwidth_hz, dtype=float)
    g = np.asarray(gain, dtype=float)
    if (b > 0.0).all():
        # Every band is open: no masking needed.
        rate = _open_band_rate(g * p, b, noise_psd)
        return rate[()] if rate.ndim == 0 else rate
    p, b, g, n0 = np.broadcast_arrays(p, b, g, np.asarray(noise_psd, dtype=float))
    rate = np.zeros(p.shape, dtype=float)
    positive = b > 0.0
    rate[positive] = _open_band_rate(g[positive] * p[positive], b[positive], n0[positive])
    if rate.ndim == 0:
        return rate[()]
    return rate


def spectral_efficiency(
    power_w: np.ndarray | float,
    bandwidth_hz: np.ndarray | float,
    gain: np.ndarray | float,
    noise_psd: float,
) -> np.ndarray:
    """Rate per hertz, ``log2(1 + g p / (N0 B))``."""
    b = np.asarray(bandwidth_hz, dtype=float)
    rate = shannon_rate(power_w, bandwidth_hz, gain, noise_psd)
    with np.errstate(divide="ignore", invalid="ignore"):
        eff = np.where(b > 0.0, rate / np.maximum(b, 1e-300), 0.0)
    return eff


def required_power_for_rate(
    rate_bps: np.ndarray | float,
    bandwidth_hz: np.ndarray | float,
    gain: np.ndarray | float,
    noise_psd: np.ndarray | float,
) -> np.ndarray:
    """Power needed so that ``shannon_rate`` meets ``rate_bps`` exactly.

    ``p = (2^(r/B) - 1) N0 B / g``.  A zero target rate needs zero power;
    a positive target in a zero band needs infinite power.  The noise PSD
    may be an array broadcasting against the others.
    """
    r = np.asarray(rate_bps, dtype=float)
    b = np.asarray(bandwidth_hz, dtype=float)
    g = np.asarray(gain, dtype=float)
    r, b, g, n0 = np.broadcast_arrays(r, b, g, np.asarray(noise_psd, dtype=float))
    power = np.zeros(r.shape, dtype=float)
    zero_rate = r <= 0.0
    zero_band = (b <= 0.0) & ~zero_rate
    ok = ~zero_rate & ~zero_band
    power[zero_band] = np.inf
    power[ok] = (2.0 ** (r[ok] / b[ok]) - 1.0) * n0[ok] * b[ok] / g[ok]
    if power.ndim == 0:
        return power[()]
    return power


def min_bandwidth_for_rate(
    rate_bps: np.ndarray,
    power_w: np.ndarray | float,
    gain: np.ndarray | float,
    noise_psd: float,
    *,
    bandwidth_cap_hz: float,
    tol: float = _BANDWIDTH_TOL,
) -> np.ndarray:
    """Smallest bandwidth achieving ``rate_bps`` at the given power.

    The rate is strictly increasing in bandwidth (for fixed power), so the
    answer is found by bisection on ``[1e-6, bandwidth_cap_hz]``.  (The
    ``W_-1`` branch of Lambert W would give it in closed form; the bisection
    stays because its bits are the output.)  Entries whose target is
    unreachable even at the cap are returned as ``np.inf``.
    """
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
        # Every bisection point is an open band, so skip ``shannon_rate``'s checks.
        return _open_band_rate(gp_a, bw, noise_psd) - r_a

    lo = np.full(r_a.shape, _BANDWIDTH_FLOOR_HZ)
    hi = np.full(r_a.shape, float(bandwidth_cap_hz))
    # Ensure the lower end is below the root (rate at tiny bandwidth is ~0).
    result[achievable] = bisect_vector(residual, lo, hi, tol=tol)
    return result


def rate_jacobian(
    power_w: np.ndarray,
    bandwidth_hz: np.ndarray,
    gain: np.ndarray,
    noise_psd: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Partial derivatives ``(d r / d p, d r / d B)`` of the Shannon rate.

    Used by tests to verify concavity claims (Lemma 1) numerically and by
    the gradient-based fallback solver.
    """
    p = np.asarray(power_w, dtype=float)
    b = np.asarray(bandwidth_hz, dtype=float)
    g = np.asarray(gain, dtype=float)
    p, b, g = np.broadcast_arrays(p, b, g)
    snr = np.where(b > 0, g * p / (noise_psd * np.maximum(b, 1e-300)), 0.0)
    ln2 = np.log(2.0)
    dr_dp = np.where(b > 0, g / (noise_psd * (1.0 + snr) * ln2), 0.0)
    dr_db = np.where(
        b > 0,
        np.log2(1.0 + snr) - snr / ((1.0 + snr) * ln2),
        0.0,
    )
    return dr_dp, dr_db
