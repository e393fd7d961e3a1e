"""Tests for the Shannon-rate helpers (eq. (1)) and their inverses."""

import numpy as np
import pytest

from repro import constants
from repro.wireless.rate import (
    min_bandwidth_for_rate,
    rate_jacobian,
    required_power_for_rate,
    shannon_rate,
    spectral_efficiency,
)

N0 = constants.NOISE_PSD_W_PER_HZ


def test_rate_matches_formula():
    p, b, g = 0.01, 1e6, 1e-10
    expected = b * np.log2(1.0 + g * p / (N0 * b))
    assert shannon_rate(p, b, g, N0) == pytest.approx(expected)


def test_zero_bandwidth_gives_zero_rate():
    assert shannon_rate(0.01, 0.0, 1e-10, N0) == 0.0


def test_rate_is_increasing_in_power_and_bandwidth():
    g = 1e-10
    rates_p = shannon_rate(np.linspace(1e-4, 0.02, 20), 1e6, g, N0)
    rates_b = shannon_rate(0.01, np.linspace(1e5, 2e7, 20), g, N0)
    assert np.all(np.diff(rates_p) > 0)
    assert np.all(np.diff(rates_b) > 0)


def test_rate_is_concave_in_bandwidth():
    g = 1e-10
    bw = np.linspace(1e5, 1e7, 200)
    rates = shannon_rate(0.01, bw, g, N0)
    second_diff = np.diff(rates, 2)
    assert np.all(second_diff <= 1e-6)


def test_spectral_efficiency_is_rate_per_hertz():
    p, b, g = 0.005, 5e5, 2e-11
    assert spectral_efficiency(p, b, g, N0) == pytest.approx(
        shannon_rate(p, b, g, N0) / b
    )


def test_required_power_inverts_the_rate():
    g = 5e-11
    b = 4e5
    target = 1.2e6
    p = required_power_for_rate(target, b, g, N0)
    assert shannon_rate(p, b, g, N0) == pytest.approx(target, rel=1e-10)


def test_required_power_edge_cases():
    assert required_power_for_rate(0.0, 1e6, 1e-10, N0) == 0.0
    assert required_power_for_rate(1e6, 0.0, 1e-10, N0) == np.inf


def test_min_bandwidth_inverts_the_rate():
    g = np.array([1e-10, 5e-11, 2e-12])
    p = 0.01
    target = np.array([1e6, 5e5, 1e5])
    bw = min_bandwidth_for_rate(target, p, g, N0, bandwidth_cap_hz=2e7)
    achieved = shannon_rate(p, bw, g, N0)
    assert np.allclose(achieved, target, rtol=1e-6)


def test_min_bandwidth_unreachable_target_is_infinite():
    # Essentially no channel gain: the target cannot be met within the cap.
    bw = min_bandwidth_for_rate(np.array([1e9]), 0.001, np.array([1e-18]), N0, bandwidth_cap_hz=2e7)
    assert np.isinf(bw[0])


def test_min_bandwidth_zero_target_is_zero():
    bw = min_bandwidth_for_rate(np.array([0.0]), 0.01, np.array([1e-10]), N0, bandwidth_cap_hz=2e7)
    assert bw[0] == 0.0


def test_jacobian_matches_finite_differences():
    p, b, g = 0.008, 7e5, 8e-11
    dr_dp, dr_db = rate_jacobian(np.array([p]), np.array([b]), np.array([g]), N0)
    eps_p, eps_b = 1e-9, 1e-2
    fd_p = (shannon_rate(p + eps_p, b, g, N0) - shannon_rate(p - eps_p, b, g, N0)) / (2 * eps_p)
    fd_b = (shannon_rate(p, b + eps_b, g, N0) - shannon_rate(p, b - eps_b, g, N0)) / (2 * eps_b)
    assert dr_dp[0] == pytest.approx(fd_p, rel=1e-5)
    assert dr_db[0] == pytest.approx(fd_b, rel=1e-4)


def test_lemma1_concavity_via_random_midpoints():
    # Lemma 1: G(p, B) is jointly concave.  Check midpoint concavity on
    # random pairs of points.
    rng = np.random.default_rng(0)
    g = 1e-10
    for _ in range(100):
        p1, p2 = rng.uniform(1e-4, 0.02, size=2)
        b1, b2 = rng.uniform(1e4, 2e7, size=2)
        mid = shannon_rate(0.5 * (p1 + p2), 0.5 * (b1 + b2), g, N0)
        average = 0.5 * (shannon_rate(p1, b1, g, N0) + shannon_rate(p2, b2, g, N0))
        assert mid >= average - 1e-6


def _masked_rate(power_w, bandwidth_hz, gain, noise_psd):
    """The masked formula ``shannon_rate`` uses whenever some band is closed."""
    p, b, g = np.broadcast_arrays(
        np.asarray(power_w, dtype=float),
        np.asarray(bandwidth_hz, dtype=float),
        np.asarray(gain, dtype=float),
    )
    rate = np.zeros(p.shape, dtype=float)
    positive = b > 0.0
    snr = g[positive] * p[positive] / (noise_psd * b[positive])
    rate[positive] = b[positive] * np.log2(1.0 + snr)
    return rate[()] if rate.ndim == 0 else rate


@pytest.mark.parametrize(
    "power, bandwidth, gain",
    [
        # every band open: the unmasked fast path
        (np.linspace(1e-3, 0.02, 7), np.linspace(1e4, 2e6, 7), np.logspace(-12, -8, 7)),
        # some closed (zero) bands
        (np.full(5, 0.01), np.array([0.0, 1e6, 0.0, 3e5, 2e6]), np.full(5, 1e-10)),
        # negative bandwidths rate as closed bands
        (np.full(4, 0.01), np.array([-1e6, 1e6, -0.5, 2e6]), np.logspace(-11, -9, 4)),
        # scalars: a 0-d result, open and closed
        (0.01, 1e6, 1e-10),
        (0.01, 0.0, 1e-10),
        (0.01, -3.0, 1e-10),
        # broadcasting: scalar band against vectors, a column against a row
        (np.linspace(1e-3, 0.02, 6), 1e6, np.logspace(-12, -8, 6)),
        (np.linspace(1e-3, 0.02, 3)[:, None], np.array([[1e5, 1e6, 2e6, 5e6]]), 1e-10),
        (np.linspace(1e-3, 0.02, 3)[:, None], np.array([[1e5, 0.0, 2e6, 5e6]]), 1e-10),
    ],
)
def test_rate_fast_path_matches_the_masked_formula_bit_for_bit(power, bandwidth, gain):
    got = shannon_rate(power, bandwidth, gain, N0)
    want = _masked_rate(power, bandwidth, gain, N0)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.all(got == want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
