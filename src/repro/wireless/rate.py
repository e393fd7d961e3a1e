"""Shannon-rate helpers (equation (1) of the paper) and their inverses.

The achievable uplink rate of device ``n`` is

    r_n = B_n log2(1 + g_n p_n / (N0 B_n)),

which is jointly concave in ``(p_n, B_n)`` (Lemma 1).  Besides the forward
formula, the optimizers need two inverse maps:

* the power required to reach a target rate in a given band
  (:func:`required_power_for_rate`), and
* the minimum bandwidth that reaches a target rate at a given power
  (:func:`min_bandwidth_for_rate`).  The ``W_-1`` branch of the Lambert W
  function gives it in closed form, but its answers are those of a
  vectorised bisection: their bits are the output (tables, cache entries
  and the golden FL record depend on them), and a closed form would move
  them.  The function replays that bisection per device from a certified
  bracket around the continuous root, which decides almost every step
  without evaluating the rate.
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
# Budgets up to which brackets are certified.  Up to it a bisection from
# ``[1e-6, B]`` at the default tolerance ends within ``log2(B / tol) <= 190``
# steps, so a replay stays inside the 200-step cap; past it every device is
# bisected blind and ``core.uplink_delay`` certifies no feasibility test.
_MAX_CERTIFIED_BUDGET_HZ = _BANDWIDTH_TOL * 2.0**190
# 128 unit roundoffs, where a rate's five operations and ``log2`` take a few.
_ROUNDING = 2.0**-46
# A bracket end's rate margin: rounding there, at a midpoint beyond, and slack.
_MARGIN = 3.0 * _ROUNDING
_NEWTON_STEPS = 60
_NEWTON_TOL = 1e-13
_LN2 = np.log(2.0)
# The bisection's step cap, shared by ``bisect_vector`` and its replay.
_MAX_BISECTION_STEPS = 200


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


def _newton_step(
    snr_hz: np.ndarray, rate: np.ndarray, band: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Residual ``B log2(1 + snr_hz / B) - rate`` at ``band`` and its slope
    in ``B``: one Newton evaluation per lane."""
    ratio = snr_hz / band
    log_term = np.log1p(ratio)
    slope = (log_term - ratio / (1.0 + ratio)) / _LN2
    return band * log_term / _LN2 - rate, slope


def _certified_brackets(
    gp: np.ndarray,
    noise_psd: float,
    rate: np.ndarray,
    cap_rate: np.ndarray,
    budget: float,
    root: np.ndarray,
    half: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Brackets ``[a, b] = root -+ half`` and where they are proven.

    A bracket is proven where every float bisection midpoint in
    ``(0, a]`` has a float rate below ``rate`` (so it moves ``lo`` up) and
    every one in ``[b, budget]`` a float rate of at least ``rate`` (so it
    moves ``hi`` down), given that a float rate is within
    ``_ROUNDING * (r + B)`` of the exact one, which is increasing and
    concave: a concave lower bound on the float rate is least at an end of
    ``[b, budget]``.  The bisection's branches follow these signs only
    while the target is above the rate at ``1e-6`` Hz; callers check that.
    """
    a, b = root - half, root + half
    at_a = _open_band_rate(gp, a, noise_psd)
    at_b = _open_band_rate(gp, b, noise_psd)
    proven = (a > _BANDWIDTH_FLOOR_HZ) & (b <= budget)
    proven &= at_a * (1.0 + _MARGIN) + _MARGIN * a < rate
    proven &= at_b * (1.0 - _MARGIN) - _MARGIN * b >= rate
    proven &= cap_rate * (1.0 - _MARGIN) - _MARGIN * budget >= rate
    return a, b, proven


def _device_brackets(
    gp: np.ndarray, noise_psd: float, rate: np.ndarray, cap_rate: np.ndarray, budget: float
) -> tuple[list[float], list[float]] | None:
    """Certified brackets of every device's bisection, or ``None`` unless
    all of them are proven.

    Newton on ``B log2(1 + snr / B) = rate`` (``snr = g p / N0``) starts
    below every root, at the band of the SNR ``y = (2 / c) ln(2 / c)``,
    ``c = rate ln 2 / snr``, which is at least the root's SNR; on the
    increasing concave rate it then climbs monotonically to the root.
    """
    floor = np.full(rate.shape, _BANDWIDTH_FLOOR_HZ)
    if not (_open_band_rate(gp, floor, noise_psd) < rate).all():
        return None
    snr_hz = gp / noise_psd
    share = 2.0 * snr_hz / (rate * _LN2)
    band = snr_hz / (share * np.log(share))
    for _ in range(_NEWTON_STEPS):
        residual, slope = _newton_step(snr_hz, rate, band)
        root = band - residual / slope
        if np.all(np.abs(root - band) <= _NEWTON_TOL * root):
            break
        band = root
    else:
        return None
    half = 8.0 * np.maximum(_MARGIN * (rate + root) / slope, _NEWTON_TOL * root)
    a, b, proven = _certified_brackets(gp, noise_psd, rate, cap_rate, budget, root, half)
    if not proven.all():
        return None
    return a.tolist(), b.tolist()


def _replay_bisection(
    gp: np.ndarray,
    noise_psd: float,
    rate: np.ndarray,
    brackets: tuple[list[float], list[float]],
    budget: float,
    tol: float,
) -> np.ndarray | None:
    """``bisect_vector``'s answers on ``[1e-6, budget]``, device by device.

    Each device walks the bisection's midpoints in scalar floats with its
    arithmetic and its stopping test (``mid`` is positive, so
    ``max(1, |mid|)`` is ``mid`` above 1).  Its certified bracket decides
    the branch at every midpoint outside ``(a, b)``; inside, the float rate
    is evaluated as a one-element array, whose bits are those of the
    device's entry in the vector call.  ``None`` if a device would outlast
    the bisection's step cap, whose error only the bisection reports.
    """
    answers = np.empty(rate.shape)
    for i, (below, above) in enumerate(zip(*brackets)):
        lo, hi = _BANDWIDTH_FLOOR_HZ, budget
        mid = 0.5 * (lo + hi)
        for _ in range(_MAX_BISECTION_STEPS):
            if not hi - lo > tol * (mid if mid > 1.0 else 1.0):
                break
            if mid <= below or (
                mid < above
                and _open_band_rate(gp[i : i + 1], np.array([mid]), noise_psd)[0] < rate[i]
            ):
                lo = mid
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
        else:
            if hi - lo > tol * (mid if mid > 1.0 else 1.0):
                return None
        answers[i] = mid
    return answers


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
    answer is that of a vectorised bisection on ``[1e-6, bandwidth_cap_hz]``
    (the ``W_-1`` branch of Lambert W would give it in closed form, but the
    bisection's bits are the output).  Entries whose target is unreachable
    even at the cap are returned as ``np.inf``.

    The bisection is replayed per device from certified brackets
    (:func:`_device_brackets`, :func:`_replay_bisection`), bit for bit; a
    call where some device has no proven bracket (a target at or below the
    rate at ``1e-6`` Hz, a budget past ``_MAX_CERTIFIED_BUDGET_HZ``, a
    failed Newton) bisects all of its devices, at the cost of bisecting
    that one, and raises the bisection's errors.
    """
    r = np.asarray(rate_bps, dtype=float)
    p = np.broadcast_to(np.asarray(power_w, dtype=float), r.shape).copy()
    g = np.broadcast_to(np.asarray(gain, dtype=float), r.shape).copy()

    result = np.full(r.shape, np.inf)
    zero = r <= 0.0
    result[zero] = 0.0
    cap_rate = np.asarray(shannon_rate(p, np.full(r.shape, bandwidth_cap_hz), g, noise_psd))
    achievable = (cap_rate >= r) & ~zero
    if not np.any(achievable):
        return result

    r_a, gp_a = r[achievable], g[achievable] * p[achievable]
    cap = float(bandwidth_cap_hz)
    answers = None
    if cap <= _MAX_CERTIFIED_BUDGET_HZ:
        with np.errstate(all="ignore"):
            brackets = _device_brackets(gp_a, noise_psd, r_a, cap_rate[achievable], cap)
        if brackets is not None:
            answers = _replay_bisection(gp_a, noise_psd, r_a, brackets, cap, tol)
    if answers is None:

        def residual(bw: np.ndarray) -> np.ndarray:
            # Every bisection point is an open band, so skip ``shannon_rate``'s checks.
            return _open_band_rate(gp_a, bw, noise_psd) - r_a

        lo = np.full(r_a.shape, _BANDWIDTH_FLOOR_HZ)
        hi = np.full(r_a.shape, cap)
        answers = bisect_vector(residual, lo, hi, tol=tol, max_iter=_MAX_BISECTION_STEPS)
    result[achievable] = answers
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
