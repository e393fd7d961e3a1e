"""Property-based tests (hypothesis) on the core models and solvers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytestmark = pytest.mark.hypothesis

from repro import constants
from repro.solvers import solve_box_budget_lp_rows, solve_x_log_x
from repro.solvers.waterfilling import power_waterfilling
from repro.wireless.rate import required_power_for_rate, shannon_rate

N0 = constants.NOISE_PSD_W_PER_HZ

positive_floats = st.floats(min_value=1e-6, max_value=1e3, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    power=st.floats(min_value=1e-6, max_value=0.1),
    bandwidth=st.floats(min_value=1e3, max_value=2e7),
    gain=st.floats(min_value=1e-14, max_value=1e-7),
)
def test_shannon_rate_is_positive_and_bounded_by_capacity_limit(power, bandwidth, gain):
    rate = float(shannon_rate(power, bandwidth, gain, N0))
    assert rate > 0.0
    # The rate never exceeds the infinite-bandwidth limit g p / (N0 ln 2).
    assert rate <= gain * power / (N0 * np.log(2.0)) * (1 + 1e-9)


@settings(max_examples=60, deadline=None)
@given(
    power=st.floats(min_value=1e-5, max_value=0.1),
    gain=st.floats(min_value=1e-13, max_value=1e-8),
    b1=st.floats(min_value=1e3, max_value=1e7),
    scale=st.floats(min_value=1.01, max_value=10.0),
)
def test_shannon_rate_is_monotone_in_bandwidth(power, gain, b1, scale):
    r1 = float(shannon_rate(power, b1, gain, N0))
    r2 = float(shannon_rate(power, b1 * scale, gain, N0))
    assert r2 >= r1


@settings(max_examples=60, deadline=None)
@given(
    rate=st.floats(min_value=1e3, max_value=5e6),
    bandwidth=st.floats(min_value=1e4, max_value=2e7),
    gain=st.floats(min_value=1e-13, max_value=1e-8),
)
def test_required_power_round_trips_through_the_rate(rate, bandwidth, gain):
    power = float(required_power_for_rate(rate, bandwidth, gain, N0))
    achieved = float(shannon_rate(power, bandwidth, gain, N0))
    assert np.isclose(achieved, rate, rtol=1e-6)


@settings(max_examples=80, deadline=None)
@given(rhs=st.floats(min_value=0.0, max_value=1e6))
def test_solve_x_log_x_inverts_its_equation(rhs):
    x = float(solve_x_log_x(rhs))
    assert x >= 1.0
    assert np.isclose(x * np.log(x) - x + 1.0, rhs, rtol=1e-6, atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=10_000),
    budget_extra=st.floats(min_value=0.0, max_value=10.0),
)
def test_box_budget_lp_feasibility_properties(n, seed, budget_extra):
    rng = np.random.default_rng(seed)
    costs = rng.normal(size=n)
    lower = rng.uniform(0.0, 1.0, size=n)
    upper = lower + rng.uniform(0.0, 2.0, size=n)
    budget = float(lower.sum() + budget_extra)
    rows, errors = solve_box_budget_lp_rows(
        costs[None], lower[None], upper[None], np.array([budget])
    )
    x = rows[0]
    assert errors == [None]
    assert np.all(x >= lower - 1e-9)
    assert np.all(x <= upper + 1e-9)
    assert x.sum() <= budget + 1e-6
    # The objective is never worse than staying at the lower bounds.
    assert float(costs @ x) <= float(costs @ lower) + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
    total=st.floats(min_value=0.5, max_value=50.0),
)
def test_waterfilling_allocation_properties(n, seed, total):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.1, 3.0, size=n)
    b = rng.uniform(0.0, 2.0, size=n)
    x, eta = power_waterfilling(a, b, total=total, exponent=2.0 / 3.0)
    assert np.all(x > 0.0)
    assert np.isclose(x.sum(), total, rtol=1e-6)
    assert eta >= b.max()
