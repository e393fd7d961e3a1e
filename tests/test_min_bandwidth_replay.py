"""``min_bandwidth_for_rate`` against its frozen blind bisection.

The library replays the bisection's midpoints per device from a certified
bracket around the continuous root and evaluates the float rate only inside
it; :mod:`tests.min_bandwidth_reference` keeps the bisection that evaluates
it at every midpoint.  Both must give the same bits and the same errors,
messages included.  The replay's in-bracket evaluations run on one-element
arrays, so the last test pins that such an evaluation has the bits of the
same entry in a vector call.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import constants
from repro.wireless import rate
from repro.wireless.rate import _open_band_rate, min_bandwidth_for_rate, shannon_rate
from tests.min_bandwidth_reference import min_bandwidth_for_rate_reference

N0 = constants.NOISE_PSD_W_PER_HZ


def _outcome(solve, rates, power, gain, budget):
    """Bits of the answer, or the type and message of the error raised."""
    try:
        with np.errstate(all="ignore"):
            return solve(rates, power, gain, N0, bandwidth_cap_hz=budget).tobytes()
    except Exception as error:  # noqa: BLE001 - the error itself is compared
        return type(error).__name__, str(error)


def _compare(monkeypatch, rates, power, gain, budget):
    """Assert both functions agree; returns the outcome and whether the
    library bisected blind (a device without a proven bracket)."""
    bisections = []
    bisect = rate.bisect_vector

    def counted(*args, **kwargs):
        bisections.append(None)
        return bisect(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(rate, "bisect_vector", counted)
        got = _outcome(min_bandwidth_for_rate, rates, power, gain, budget)
    want = _outcome(min_bandwidth_for_rate_reference, rates, power, gain, budget)
    assert got == want
    return got, bool(bisections)


def _cap_rates(power, gain, budget):
    return shannon_rate(power, np.full(np.shape(gain), budget), gain, N0)


def _random_drop(rng):
    """1-90 devices, a budget of 1e3-1e9 Hz and targets from 0 to 1.1 times
    the rate at the budget; a quarter of the drops salt some devices with
    zero, cap-rate and floor-rate targets."""
    n = int(rng.integers(1, 91))
    budget = float(10.0 ** rng.uniform(3.0, 9.0))
    gain = 10.0 ** rng.uniform(-14.0, -8.0, n)
    power = 10.0 ** rng.uniform(-3.0, 0.0, n)
    cap = _cap_rates(power, gain, budget)
    if rng.uniform() < 0.7:
        share = rng.uniform(0.0, 1.1, n)
    else:
        share = 10.0 ** rng.uniform(-9.0, np.log10(1.1), n)
    rates = share * cap
    rates[rng.uniform(size=n) < 0.05] = 0.0
    if rng.uniform() < 0.25:
        salted = rng.uniform(size=n) < rng.choice([0.01, 0.1])
        kind = rng.integers(0, 3, n)
        floor = _open_band_rate(gain * power, np.full(n, 1e-6), N0)
        special = np.choose(kind, [np.zeros(n), cap, floor * rng.uniform(0.5, 2.0, n)])
        rates = np.where(salted, special, rates)
    return rates, power, gain, budget


def test_replay_matches_the_frozen_bisection_on_random_drops(monkeypatch):
    rng = np.random.default_rng(20240601)
    replayed = solver_errors = in_bracket = 0
    open_band = rate._open_band_rate

    def counting_rate(gp, band, noise):
        nonlocal in_bracket
        in_bracket += band.shape == (1,) and several
        return open_band(gp, band, noise)

    monkeypatch.setattr(rate, "_open_band_rate", counting_rate)
    for _ in range(4000):
        drop = _random_drop(rng)
        several = drop[0].size > 1  # a one-element band is then in a bracket
        outcome, bisected = _compare(monkeypatch, *drop)
        replayed += not bisected
        solver_errors += outcome[0] == "SolverError"
    # Most drops are replayed, some evaluate inside a bracket, and the
    # floor-rate targets exercise the bisection's sign-change error.
    assert replayed > 2500
    assert in_bracket > 0
    assert solver_errors > 50


def _paper_devices(rates, budget=1e6):
    """Up to three devices of the paper's scale with the given targets."""
    gain = np.array([1e-10, 3e-12, 5e-11])[: len(rates)]
    power = np.full(len(rates), 0.1)
    return np.asarray(rates, dtype=float), power, gain, budget


def test_a_target_at_the_cap_rate_is_bisected_blind(monkeypatch):
    _, power, gain, budget = _paper_devices([1.0, 1.0, 1.0])
    cap = _cap_rates(power, gain, budget)
    rates = np.array([0.5 * cap[0], cap[1], 0.3 * cap[2]])
    outcome, bisected = _compare(monkeypatch, rates, power, gain, budget)
    assert bisected and isinstance(outcome, bytes)


@pytest.mark.parametrize("scale", [1.0, np.nextafter(1.0, 0.0), 0.5])
def test_targets_at_or_below_the_floor_rate_are_bisected_blind(monkeypatch, scale):
    # At the floor rate the bisection's lower residual is zero and it walks
    # on; below it there is no sign change and it raises.
    _, power, gain, budget = _paper_devices([1.0, 1.0])
    floor = _open_band_rate(gain * power, np.full(2, 1e-6), N0)
    rates = np.array([floor[0] * scale, 0.4 * _cap_rates(power, gain, budget)[1]])
    outcome, bisected = _compare(monkeypatch, rates, power, gain, budget)
    assert bisected
    assert (outcome[0] == "SolverError") == (scale < 1.0)


def test_zero_and_unreachable_targets_keep_their_answers(monkeypatch):
    _, power, gain, budget = _paper_devices([1.0, 1.0, 1.0])
    cap = _cap_rates(power, gain, budget)
    rates = np.array([0.0, 1.05 * cap[1], 0.2 * cap[2]])
    outcome, bisected = _compare(monkeypatch, rates, power, gain, budget)
    assert not bisected
    answer = np.frombuffer(outcome)
    assert answer[0] == 0.0 and np.isinf(answer[1]) and 0.0 < answer[2] < budget
    for rates in (np.zeros(3), 2.0 * cap):
        outcome, bisected = _compare(monkeypatch, rates, power, gain, budget)
        assert not bisected


def test_a_budget_past_the_certified_limit_is_bisected_blind(monkeypatch):
    budget = 2e48
    assert budget > rate._MAX_CERTIFIED_BUDGET_HZ
    power, gain = np.array([1.0, 1.0]), np.array([1e33, 1e31])
    rates = 0.3 * _cap_rates(power, gain, budget)
    outcome, bisected = _compare(monkeypatch, rates, power, gain, budget)
    assert bisected and isinstance(outcome, bytes)


def test_a_budget_past_the_step_cap_raises_like_the_bisection(monkeypatch):
    # Past ``1e-9 * 2**200`` Hz a target that needs well under 1 Hz cannot
    # converge in the bisection's 200 steps.
    power, gain = np.array([1.0, 1.0]), np.array([1e40, 1e25])
    rates = np.array([1e50, 1.0])
    outcome, _ = _compare(monkeypatch, rates, power, gain, 1e53)
    assert outcome[0] == "ConvergenceError"


def test_a_scalar_target_keeps_its_shape(monkeypatch):
    outcome, bisected = _compare(monkeypatch, np.float64(1e6), 0.1, 1e-10, 1e6)
    assert not bisected and len(outcome) == 8


def _log_uniform(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(lambda exponent: 10.0**exponent)


@pytest.mark.hypothesis
@settings(max_examples=300, deadline=None)
@given(
    devices=st.lists(
        st.tuples(
            _log_uniform(-16.0, -6.0),
            _log_uniform(-4.0, 1.0),
            st.one_of(
                st.just(0.0),
                st.just(1.0),
                st.floats(min_value=0.0, max_value=1.1),
                _log_uniform(-12.0, 0.0),
            ),
        ),
        min_size=1,
        max_size=40,
    ),
    budget=_log_uniform(3.0, 9.0),
)
@example(devices=[(1e-10, 0.1, 0.5)] * 4, budget=1e6)
@example(devices=[(1e-12, 0.1, 1.0), (1e-10, 0.1, 0.0)], budget=1e6)
@example(devices=[(1e-6, 1.0, 1e-12), (1e-12, 0.1, 0.5)], budget=1e6)
def test_replay_is_bit_identical_to_the_bisection(devices, budget):
    gain = np.array([g for g, _, _ in devices])
    power = np.array([p for _, p, _ in devices])
    rates = np.array([share for _, _, share in devices]) * _cap_rates(power, gain, budget)
    assert _outcome(min_bandwidth_for_rate, rates, power, gain, budget) == _outcome(
        min_bandwidth_for_rate_reference, rates, power, gain, budget
    )


def test_a_one_element_rate_has_the_bits_of_its_vector_entry():
    # 100k random inputs in vector calls of 1-90 entries, the shapes the
    # bisection evaluates; each entry again alone, as the replay does.
    rng = np.random.default_rng(7)
    total = 100_000
    gp = 10.0 ** rng.uniform(-20.0, 2.0, total)
    band = 10.0 ** rng.uniform(-6.0, 10.0, total)
    start = 0
    while start < total:
        stop = min(total, start + int(rng.integers(1, 91)))
        noise = float(rng.choice([N0, 1e-20, 3.7e-17]))
        vector = _open_band_rate(gp[start:stop], band[start:stop], noise)
        alone = [
            _open_band_rate(gp[i : i + 1], np.array([band[i]]), noise)[0]
            for i in range(start, stop)
        ]
        assert vector.tobytes() == np.array(alone).tobytes()
        start = stop
