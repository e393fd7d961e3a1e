"""Tests for the min-max upload-time bandwidth allocation."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import build_paper_scenario
from repro.core import uplink_delay
from repro.core.uplink_delay import _FeasibilityTest, minimize_max_upload_time
from repro.devices.fleet import DeviceFleet
from repro.devices.profiles import DeviceProfile
from repro.exceptions import ConvergenceError, InfeasibleProblemError, SolverError
from repro.scenarios import build_scenario_spec
from repro.system import SystemModel
from repro.wireless.rate import _BANDWIDTH_TOL, min_bandwidth_for_rate
from tests import uplink_delay_reference
from tests.uplink_delay_reference import minimize_max_upload_time_reference


def test_allocation_respects_budget(tiny_system):
    result = minimize_max_upload_time(tiny_system)
    assert result.bandwidth_hz.sum() == pytest.approx(
        tiny_system.total_bandwidth_hz, rel=1e-6
    )
    assert np.all(result.bandwidth_hz > 0)
    assert np.all(result.power_w == tiny_system.max_power_w)


def test_beats_equal_split(tiny_system):
    result = minimize_max_upload_time(tiny_system)
    n = tiny_system.num_devices
    equal = np.full(n, tiny_system.total_bandwidth_hz / n)
    equal_time = float(
        np.max(tiny_system.upload_bits / tiny_system.rates_bps(tiny_system.max_power_w, equal))
    )
    assert result.max_upload_time_s <= equal_time * (1 + 1e-9)


def test_upload_times_are_nearly_equalised(tiny_system):
    # At the min-max optimum every device's upload takes (almost) the same
    # time — otherwise bandwidth could be shifted from a fast device to the
    # slowest one.
    result = minimize_max_upload_time(tiny_system)
    times = tiny_system.upload_bits / tiny_system.rates_bps(
        result.power_w, result.bandwidth_hz
    )
    assert float(np.std(times) / np.mean(times)) < 0.05


def test_weak_channels_receive_more_bandwidth(tiny_system):
    result = minimize_max_upload_time(tiny_system)
    order = np.argsort(tiny_system.gains)
    # The weakest-channel device gets at least as much bandwidth as the
    # strongest-channel device.
    assert result.bandwidth_hz[order[0]] >= result.bandwidth_hz[order[-1]]


def test_custom_power_vector(tiny_system):
    lower_power = tiny_system.max_power_w * 0.5
    result = minimize_max_upload_time(tiny_system, power_w=lower_power)
    assert result.max_upload_time_s >= minimize_max_upload_time(tiny_system).max_upload_time_s


def test_zero_power_rejected(tiny_system):
    with pytest.raises(InfeasibleProblemError):
        minimize_max_upload_time(
            tiny_system, power_w=np.zeros(tiny_system.num_devices)
        )


def _zero_upload_system(num_uploading: int = 0):
    """A 4-device paper drop where only the first ``num_uploading`` upload."""
    from dataclasses import replace

    from repro import build_paper_scenario
    from repro.devices.fleet import DeviceFleet

    system = build_paper_scenario(num_devices=4, seed=7)
    profiles = tuple(
        profile if index < num_uploading else replace(profile, upload_bits=0.0)
        for index, profile in enumerate(system.fleet.profiles)
    )
    return system.with_fleet(DeviceFleet(profiles))


def test_all_zero_upload_bits_fleet_is_degenerate_but_valid():
    system = _zero_upload_system(num_uploading=0)
    result = minimize_max_upload_time(system)
    assert result.max_upload_time_s == 0.0
    assert np.all(np.isfinite(result.bandwidth_hz))
    assert result.bandwidth_hz.sum() == pytest.approx(system.total_bandwidth_hz)


def test_partially_zero_upload_bits_fleet_keeps_finite_times():
    system = _zero_upload_system(num_uploading=2)
    result = minimize_max_upload_time(system)
    assert np.isfinite(result.max_upload_time_s)
    assert result.max_upload_time_s > 0.0
    assert np.all(np.isfinite(result.bandwidth_hz))
    assert result.bandwidth_hz.sum() <= system.total_bandwidth_hz * (1 + 1e-9)


# -- bit parity with the nested bisection -------------------------------------
#
# ``minimize_max_upload_time`` answers the outer bisection's steps from two
# certified points around the continuous threshold and runs
# ``min_bandwidth_for_rate`` only where they cannot decide;
# ``tests.uplink_delay_reference`` runs it at every step.  Both must give the
# same bits and the same errors.

FAMILIES = ("paper", "cell-edge", "hotspot", "hetero-fleet", "indoor")


def _outcome(solve, system, **kwargs):
    """Bits of the answer, or the type of the error raised."""
    try:
        result = solve(system, **kwargs)
    except Exception as exc:  # the error type is the outcome
        return type(exc)
    return (
        result.power_w.tobytes(),
        result.bandwidth_hz.tobytes(),
        np.float64(result.max_upload_time_s).tobytes(),
    )


def _assert_matches_reference(system, **kwargs):
    with np.errstate(all="ignore"):
        expected = _outcome(minimize_max_upload_time_reference, system, **kwargs)
        actual = _outcome(minimize_max_upload_time, system, **kwargs)
    assert actual == expected


@pytest.mark.parametrize("family", FAMILIES)
def test_matches_nested_bisection_on_the_drop_grid(family):
    for num_devices in (1, 2, 3, 5, 10, 12, 20, 50):
        for seed in range(25):
            system = build_scenario_spec(
                {"family": family, "num_devices": num_devices, "seed": seed}
            )
            _assert_matches_reference(system)


def test_matches_nested_bisection_at_half_power():
    for family in FAMILIES:
        for num_devices in (1, 3, 10, 50):
            for seed in range(3):
                system = build_scenario_spec(
                    {"family": family, "num_devices": num_devices, "seed": seed}
                )
                _assert_matches_reference(system, power_w=system.max_power_w * 0.5)


@pytest.mark.parametrize("num_uploading", [0, 1, 2, 3])
def test_matches_nested_bisection_on_zero_upload_fleets(num_uploading):
    _assert_matches_reference(_zero_upload_system(num_uploading))


def _equal_split_time(system):
    """The equal split's own max upload time: the bisection's upper bound."""
    n = system.num_devices
    rates = system.rates_bps(
        system.max_power_w, np.full(n, system.total_bandwidth_hz / n)
    )
    return float(np.max(system.upload_bits / np.maximum(rates, 1e-300)))


def _needed_at_equal_split_time(system):
    """``min_bandwidth_for_rate`` at the equal split's own max upload time."""
    return min_bandwidth_for_rate(
        system.upload_bits / _equal_split_time(system),
        system.max_power_w,
        system.gains,
        system.noise_psd_w_per_hz,
        bandwidth_cap_hz=system.total_bandwidth_hz,
    )


def test_matches_nested_bisection_when_the_upper_bound_is_doubled():
    # A lone device's equal-split time asks for a rate just above its rate
    # at the full band, so the upper bound must grow.
    system = build_paper_scenario(num_devices=1, seed=12)
    needed = _needed_at_equal_split_time(system)
    budget = system.total_bandwidth_hz
    assert not np.all(np.isfinite(needed)) or needed.sum() > budget * (1 + 1e-9)
    _assert_matches_reference(system)


def test_matches_nested_bisection_inside_the_upper_bound_tolerance():
    # Identical devices split the band evenly; rounding puts the equal-split
    # demand a hair above the budget, within the 1e-9 tolerance that keeps
    # the upper bound as it is.
    base = build_paper_scenario(num_devices=3, seed=0)
    system = replace(base, gains=np.full(3, 1e-13))
    needed = _needed_at_equal_split_time(system)
    budget = system.total_bandwidth_hz
    assert budget < needed.sum() <= budget * (1 + 1e-9)
    _assert_matches_reference(system)


def _uplink_system(devices, budget):
    """Devices given as ``(gain, upload_bits, max_power_w)`` triples."""
    profiles = tuple(
        DeviceProfile(
            cycles_per_sample=1.0, upload_bits=bits, min_power_w=0.0, max_power_w=power
        )
        for _, bits, power in devices
    )
    gains = np.array([gain for gain, _, _ in devices])
    return SystemModel(DeviceFleet(profiles), gains, total_bandwidth_hz=budget)


def test_a_target_below_the_floor_rate_raises_like_the_nested_bisection():
    # A few bits against a strong channel ask for less than the rate at the
    # 1e-6 Hz bracket floor: ``min_bandwidth_for_rate`` finds no sign change.
    system = _uplink_system([(1e-6, 1e-9, 1.0), (1e-12, 1e6, 0.1)], 1e6)
    with pytest.raises(SolverError):
        minimize_max_upload_time_reference(system)
    _assert_matches_reference(system)


def _log_uniform(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(lambda exponent: 10.0**exponent)


@pytest.mark.hypothesis
@settings(max_examples=200, deadline=None)
@given(
    devices=st.lists(
        st.tuples(
            _log_uniform(-16.0, -6.0),
            st.one_of(st.just(0.0), _log_uniform(-9.0, 9.0)),
            _log_uniform(-4.0, 1.0),
        ),
        min_size=1,
        max_size=8,
    ),
    budget=_log_uniform(3.0, 9.0),
)
# Identical devices: the equal split's demand lands on the budget, so the
# upper bound's own test sits between the two certified points.
@example(devices=[(1e-10, 1e6, 0.1)] * 4, budget=1e6)
# A lone device: the equal split's target is the rate at the cap itself.
@example(devices=[(1e-12, 1e6, 0.1)], budget=1e6)
# Targets above the floor rate at the upper certified point fall to it or
# below at the equal split's time, where the nested bisection raises.
@example(
    devices=[(9.68e-14, 12.1, 0.119), (7.24e-16, 5.36e-7, 0.015), (9.9e-12, 6.1e-8, 0.0129)],
    budget=1767.7,
)
# A budget above ``1e-9 * 2**190`` Hz, where nothing is certified.
@example(devices=[(1e40, 1e50, 1.0), (1e12, 1.0, 1.0)], budget=2e48)
# One uploader among devices with nothing to upload.
@example(devices=[(1e-10, 0.0, 0.1), (1e-11, 1e6, 0.1), (1e-9, 0.0, 1.0)], budget=1e6)
def test_shared_walk_is_bit_identical_to_the_nested_bisection(devices, budget):
    # Tiny uploads over strong channels reach below the floor rate, large
    # ones over weak channels miss their target even at the full band, and
    # the examples pin the cases the certificate hands to the nested
    # bisection.
    _assert_matches_reference(_uplink_system(devices, budget))


# -- the certificate's guards --------------------------------------------------
#
# Outside the two certified points every outer step is answered without the
# nested bisection, so each point must hold for the bisection's converged
# bits: at ``t_plus`` the demands fit the budget, at ``t_minus`` their sum
# is at least the proven ``lower`` bound, which exceeds the budget.  The
# parity tests above rarely step close enough to a point to notice a point
# that is wrong; these check the points themselves.


def _certificate(system):
    """The feasibility test ``minimize_max_upload_time`` builds for ``system``."""
    with np.errstate(all="ignore"):
        return _FeasibilityTest(
            system.max_power_w,
            system.gains,
            system.noise_psd_w_per_hz,
            system.upload_bits,
            system.total_bandwidth_hz,
            _equal_split_time(system),
        )


def _assert_certified_points_hold(system):
    """Check each certified point against the nested bisection; returns the test."""
    test = _certificate(system)
    budget = system.total_bandwidth_hz
    with np.errstate(all="ignore"):
        if np.isfinite(test.t_plus):
            needed = test.needed(test.t_plus)
            assert np.all(np.isfinite(needed)) and needed.sum() <= budget
        if np.isfinite(test.t_minus):
            assert budget < test.lower <= test.needed(test.t_minus).sum()
    return test


def test_certified_points_hold_on_the_drop_grid():
    # Many converged sums at ``t_minus`` sit below the sum of the brackets'
    # lower ends: the ``2 tol max(1, b)`` widening is what keeps ``lower``
    # below them.
    certified = 0
    for family in FAMILIES:
        for num_devices in (2, 3, 5, 10, 12, 20):
            for seed in range(6):
                system = build_scenario_spec(
                    {"family": family, "num_devices": num_devices, "seed": seed}
                )
                test = _assert_certified_points_hold(system)
                certified += np.isfinite(test.t_plus) + np.isfinite(test.t_minus)
    assert certified > 100


def test_the_lower_point_holds_within_the_bisection_widening():
    # The converged demand at ``t_minus`` exceeds ``lower`` by less than
    # the widening summed over the bands (more than ``2 tol B``), so it
    # lies below the brackets' lower ends.
    system = build_scenario_spec({"family": "cell-edge", "num_devices": 5, "seed": 1})
    test = _assert_certified_points_hold(system)
    budget = system.total_bandwidth_hz
    assert np.isfinite(test.t_minus)
    assert test.needed(test.t_minus).sum() - test.lower < 2.0 * _BANDWIDTH_TOL * budget


@pytest.mark.parametrize(
    ("devices", "budget"),
    [
        ([(5.57e-13, 2.6e8, 1.0), (1.03e-16, 4.7e4, 1.0)], 3.2e12),
        ([(4.38e-18, 1.5e3, 1.0), (7.96e-17, 5.3e4, 1.0)], 5.4e8),
        ([(6.77e-17, 1.3e4, 1.0), (3.22e-16, 1.1e5, 1.0)], 1.2e9),
        ([(4.38e-14, 1.2e7, 1.0), (4.38e-13, 8.6e7, 1.0)], 3.2e11),
    ],
)
def test_certified_points_hold_where_the_rate_saturates(devices, budget):
    # Bands far wider than ``g p / N0`` flatten the rate curve: the rounding
    # of a float rate moves its root by more than the bisection tolerance,
    # and only the ``_MARGIN`` on each bracket keeps the points on the right
    # side of the bisection's converged bits.
    system = _uplink_system(devices, budget)
    test = _assert_certified_points_hold(system)
    assert np.isfinite(test.t_plus) or np.isfinite(test.t_minus)
    _assert_matches_reference(system)


def _nested_bisections(monkeypatch, module, name, solve, system):
    """Calls that ``solve`` makes on ``system`` to ``module``'s per-device
    bandwidth function ``name``."""
    calls = []
    nested = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return nested(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(module, name, counted)
        with np.errstate(all="ignore"):
            _outcome(solve, system)
    return len(calls)


def test_a_budget_past_the_certified_limit_runs_every_nested_bisection(monkeypatch):
    # Past ``_MAX_CERTIFIED_BUDGET_HZ`` nothing is certified, although the
    # threshold's Newton converges here: every step runs the nested
    # bisection, as in the reference.
    system = _uplink_system([(3.98e32, 1e53, 1.0), (1.194e33, 2e53, 1.0)], 1e53)
    assert system.total_bandwidth_hz > uplink_delay._MAX_CERTIFIED_BUDGET_HZ
    with np.errstate(all="ignore"):
        assert _certificate(system)._threshold(_equal_split_time(system)) is not None
    calls = _nested_bisections(
        monkeypatch, uplink_delay, "min_bandwidth_for_rate", minimize_max_upload_time, system
    )
    expected = _nested_bisections(
        monkeypatch,
        uplink_delay_reference,
        "min_bandwidth_for_rate_reference",
        minimize_max_upload_time_reference,
        system,
    )
    assert calls == expected > 2
    _assert_matches_reference(system)


def test_a_budget_past_the_step_cap_raises_like_the_nested_bisection():
    # Above 1e-9 * 2**200 ~ 1.6e51 Hz a device needing well under 1 Hz
    # cannot converge in the bisection's 200 steps: the equal-split test
    # raises, and so must the solve.
    system = _uplink_system([(3.98e39, 1e54, 1.0), (3.98e24, 100.0, 1.0)], 1e53)
    with pytest.raises(ConvergenceError):
        _needed_at_equal_split_time(system)
    _assert_matches_reference(system)
    with pytest.raises(ConvergenceError):
        minimize_max_upload_time(system)
