"""Tests for fleet generation."""

import numpy as np
import pytest

from repro.devices import DeviceFleet, generate_fleet, generate_mixed_fleet
from repro.exceptions import ConfigurationError


def test_default_fleet_matches_paper_setting():
    fleet = generate_fleet(50, rng=0)
    assert fleet.num_devices == 50
    assert np.all(fleet.num_samples == 500)
    assert np.all(fleet.cycles_per_sample >= 1e4)
    assert np.all(fleet.cycles_per_sample <= 3e4)
    assert np.all(fleet.upload_bits == pytest.approx(28100.0))
    assert fleet.total_samples == 25_000


def test_total_samples_split_equally():
    fleet = generate_fleet(7, rng=1, samples_per_device=None, total_samples=25_000)
    assert fleet.total_samples == 25_000
    sizes = fleet.num_samples
    assert sizes.max() - sizes.min() <= 1


def test_imbalanced_split_varies_sizes():
    fleet = generate_fleet(
        10, rng=2, samples_per_device=None, total_samples=10_000, sample_imbalance=1.0
    )
    sizes = fleet.num_samples
    assert sizes.min() >= 1
    assert sizes.std() > 0.0


def test_sample_fractions_sum_to_one():
    fleet = generate_fleet(20, rng=3)
    assert fleet.sample_fractions().sum() == pytest.approx(1.0)


def test_with_max_power_and_frequency():
    fleet = generate_fleet(5, rng=4)
    capped = fleet.with_max_power_w(0.005).with_max_frequency_hz(1e9)
    assert np.all(capped.max_power_w == 0.005)
    assert np.all(capped.max_frequency_hz == 1e9)
    # The original fleet is unchanged (immutability).
    assert np.all(fleet.max_frequency_hz == 2e9)


def test_with_samples_per_device():
    fleet = generate_fleet(5, rng=5).with_samples_per_device(100)
    assert np.all(fleet.num_samples == 100)


def test_subset_and_iteration():
    fleet = generate_fleet(6, rng=6)
    subset = fleet.subset([0, 2, 4])
    assert subset.num_devices == 3
    assert subset[1].name == fleet[2].name
    assert len(list(iter(fleet))) == 6


def test_reproducible_with_seed():
    a = generate_fleet(10, rng=9)
    b = generate_fleet(10, rng=9)
    assert np.allclose(a.cycles_per_sample, b.cycles_per_sample)


def test_invalid_configurations_rejected():
    with pytest.raises(ConfigurationError):
        generate_fleet(0)
    with pytest.raises(ConfigurationError):
        generate_fleet(5, samples_per_device=None, total_samples=3)
    with pytest.raises(ConfigurationError):
        generate_fleet(5, samples_per_device=0)
    with pytest.raises(ConfigurationError):
        generate_fleet(5, cycles_range=(3e4, 1e4))
    with pytest.raises(ConfigurationError):
        DeviceFleet(())
    with pytest.raises(ConfigurationError):
        generate_fleet(5, sample_imbalance=-1.0)


def test_fleet_array_views_have_consistent_shapes():
    fleet = generate_fleet(8, rng=11)
    for array in (
        fleet.cycles_per_sample,
        fleet.num_samples,
        fleet.upload_bits,
        fleet.min_frequency_hz,
        fleet.max_frequency_hz,
        fleet.min_power_w,
        fleet.max_power_w,
        fleet.effective_capacitance,
    ):
        assert array.shape == (8,)


# -- device-class mixes ------------------------------------------------------

def test_mixed_fleet_draws_from_the_requested_classes():
    from repro.devices import generate_mixed_fleet

    fleet = generate_mixed_fleet(
        80, {"phone": 0.4, "laptop": 0.3, "iot": 0.3}, rng=0
    )
    assert fleet.num_devices == 80
    prefixes = {p.name.split("-")[0] for p in fleet}
    assert prefixes <= {"phone", "laptop", "iot"}
    assert len(prefixes) == 3  # at this size every class appears


def test_mixed_fleet_class_scalings_apply():
    from repro.devices import DEVICE_CLASSES, generate_mixed_fleet

    fleet = generate_mixed_fleet(60, {"laptop": 0.5, "iot": 0.5}, rng=1)
    base_fleet = generate_fleet(1, rng=0)
    base_max_hz = base_fleet[0].max_frequency_hz
    for profile in fleet:
        cls = DEVICE_CLASSES[profile.name.split("-")[0]]
        assert profile.max_frequency_hz == pytest.approx(
            base_max_hz * cls.frequency_scale
        )
        assert profile.num_samples == max(1, round(500 * cls.samples_scale))


def test_mixed_fleet_is_seed_deterministic():
    from repro.devices import generate_mixed_fleet

    a = generate_mixed_fleet(30, rng=5)
    b = generate_mixed_fleet(30, rng=5)
    assert [p.name for p in a] == [p.name for p in b]
    assert np.allclose(a.cycles_per_sample, b.cycles_per_sample)


def test_mixed_fleet_rejects_bad_shares():
    from repro.devices import generate_mixed_fleet

    with pytest.raises(ConfigurationError, match="known"):
        generate_mixed_fleet(10, {"mainframe": 1.0}, rng=0)
    with pytest.raises(ConfigurationError):
        generate_mixed_fleet(10, {}, rng=0)
    with pytest.raises(ConfigurationError):
        generate_mixed_fleet(10, {"phone": 0.0}, rng=0)
    with pytest.raises(ConfigurationError):
        generate_mixed_fleet(10, samples_per_device=None, rng=0)


def test_device_class_validates_scales():
    from repro.devices import DeviceClass

    with pytest.raises(ConfigurationError):
        DeviceClass(name="bad", power_scale=0.0)


_ARRAY_VIEWS = (
    "cycles_per_sample",
    "num_samples",
    "upload_bits",
    "min_frequency_hz",
    "max_frequency_hz",
    "min_power_w",
    "max_power_w",
    "effective_capacitance",
)


@pytest.mark.parametrize("view", _ARRAY_VIEWS)
def test_fleet_array_views_are_built_once_and_read_only(view):
    fleet = generate_mixed_fleet(9, rng=3)
    values = getattr(fleet, view)
    assert getattr(fleet, view) is values
    expected = np.array([getattr(p, view) for p in fleet.profiles], dtype=float)
    np.testing.assert_array_equal(values, expected)
    with pytest.raises(ValueError):
        values[0] = 1.0
    with pytest.raises(ValueError):
        values *= 2.0
    np.testing.assert_array_equal(getattr(fleet, view), expected)


def test_fleet_pickle_round_trip_keeps_views_equality_and_hash():
    import pickle

    fleet = generate_mixed_fleet(9, rng=3)
    before = {view: getattr(fleet, view) for view in _ARRAY_VIEWS}
    restored = pickle.loads(pickle.dumps(fleet))
    rebuilt = DeviceFleet(tuple(fleet.profiles))
    assert restored == fleet == rebuilt
    assert hash(restored) == hash(fleet) == hash(rebuilt)
    for view, values in before.items():
        np.testing.assert_array_equal(getattr(restored, view), values)
        assert not getattr(restored, view).flags.writeable
    # A cached view is no part of the fleet's identity.
    assert DeviceFleet(tuple(fleet.profiles)) == fleet
