"""Fleet generation: a heterogeneous set of device profiles.

Section VII-A draws the per-sample CPU requirement ``c_n`` uniformly from
``[1, 3] * 1e4`` cycles and gives every device 500 samples; Fig. 4 instead
splits a fixed total of 25 000 samples equally.  :func:`generate_fleet`
covers both, plus optional heterogeneity in dataset sizes for the FL
simulator examples.

Beyond the paper's homogeneous table, :func:`generate_mixed_fleet` draws
each device from a :class:`DeviceClass` mix (phone / laptop / IoT by
default), scaling the Section VII-A baseline per class — the substrate of
the ``hetero-fleet`` scenario family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

from .. import constants
from ..exceptions import ConfigurationError
from .profiles import DeviceProfile

__all__ = [
    "DeviceFleet",
    "generate_fleet",
    "DeviceClass",
    "DEVICE_CLASSES",
    "device_classes",
    "generate_mixed_fleet",
]


@dataclass(frozen=True)
class DeviceFleet:
    """An ordered collection of :class:`DeviceProfile` with array views.

    The optimizer consumes numpy arrays; the FL simulator and examples
    prefer per-device objects.  This class provides both views over the same
    data.
    """

    profiles: tuple[DeviceProfile, ...]

    def __post_init__(self) -> None:
        if not self.profiles:
            raise ConfigurationError("a fleet needs at least one device")
        object.__setattr__(self, "profiles", tuple(self.profiles))

    def __getstate__(self) -> dict[str, object]:
        # Pickle (``--jobs`` workers) only the profiles; the unpickled fleet
        # rebuilds its read-only views on first use.
        return {"profiles": self.profiles}

    def __len__(self) -> int:
        return len(self.profiles)

    def __iter__(self) -> Iterator[DeviceProfile]:
        return iter(self.profiles)

    def __getitem__(self, index: int) -> DeviceProfile:
        return self.profiles[index]

    @property
    def num_devices(self) -> int:
        return len(self.profiles)

    # -- array views ------------------------------------------------------
    # Each view is built once per fleet (the solvers read them every
    # iteration) and is read-only, so no caller can corrupt the shared copy.
    def _view(self, attribute: str) -> np.ndarray:
        values = np.array([getattr(p, attribute) for p in self.profiles], dtype=float)
        values.flags.writeable = False
        return values

    @cached_property
    def cycles_per_sample(self) -> np.ndarray:
        return self._view("cycles_per_sample")

    @cached_property
    def num_samples(self) -> np.ndarray:
        return self._view("num_samples")

    @cached_property
    def upload_bits(self) -> np.ndarray:
        return self._view("upload_bits")

    @cached_property
    def min_frequency_hz(self) -> np.ndarray:
        return self._view("min_frequency_hz")

    @cached_property
    def max_frequency_hz(self) -> np.ndarray:
        return self._view("max_frequency_hz")

    @cached_property
    def min_power_w(self) -> np.ndarray:
        return self._view("min_power_w")

    @cached_property
    def max_power_w(self) -> np.ndarray:
        return self._view("max_power_w")

    @cached_property
    def effective_capacitance(self) -> np.ndarray:
        return self._view("effective_capacitance")

    @property
    def total_samples(self) -> int:
        return int(self.num_samples.sum())

    def sample_fractions(self) -> np.ndarray:
        """FedAvg aggregation weights ``D_n / D``."""
        samples = self.num_samples
        return samples / samples.sum()

    # -- transformations --------------------------------------------------
    def with_max_power_w(self, max_power_w: float) -> "DeviceFleet":
        """Fleet copy with every device's maximum transmit power replaced."""
        return DeviceFleet(
            tuple(
                p.with_power_range(min(p.min_power_w, max_power_w), max_power_w)
                for p in self.profiles
            )
        )

    def with_max_frequency_hz(self, max_frequency_hz: float) -> "DeviceFleet":
        """Fleet copy with every device's maximum CPU frequency replaced."""
        return DeviceFleet(
            tuple(
                p.with_frequency_range(
                    min(p.min_frequency_hz, max_frequency_hz), max_frequency_hz
                )
                for p in self.profiles
            )
        )

    def with_samples_per_device(self, num_samples: int) -> "DeviceFleet":
        """Fleet copy with every device's dataset size replaced."""
        return DeviceFleet(tuple(p.with_samples(num_samples) for p in self.profiles))

    def subset(self, indices: Sequence[int]) -> "DeviceFleet":
        """Fleet restricted to the given device indices."""
        return DeviceFleet(tuple(self.profiles[i] for i in indices))


def generate_fleet(
    num_devices: int = constants.DEFAULT_NUM_DEVICES,
    *,
    rng: np.random.Generator | int | None = None,
    samples_per_device: int | None = constants.DEFAULT_SAMPLES_PER_DEVICE,
    total_samples: int | None = None,
    upload_bits: float = constants.DEFAULT_UPLOAD_BITS,
    cycles_range: tuple[float, float] = constants.CPU_CYCLES_PER_SAMPLE_RANGE,
    min_frequency_hz: float = constants.DEFAULT_MIN_FREQUENCY_HZ,
    max_frequency_hz: float = constants.DEFAULT_MAX_FREQUENCY_HZ,
    min_power_w: float = constants.DEFAULT_MIN_POWER_W,
    max_power_w: float = constants.DEFAULT_MAX_POWER_W,
    effective_capacitance: float = constants.EFFECTIVE_CAPACITANCE,
    sample_imbalance: float = 0.0,
) -> DeviceFleet:
    """Generate a heterogeneous fleet matching Section VII-A.

    Parameters
    ----------
    samples_per_device:
        Samples on every device (the default 500).  Ignored when
        ``total_samples`` is given.
    total_samples:
        If given, distribute this many samples across the fleet (equally when
        ``sample_imbalance`` is 0, Dirichlet-skewed otherwise) — the setting
        of Fig. 4.
    sample_imbalance:
        0 gives equal datasets; larger values skew the dataset sizes using a
        Dirichlet distribution with concentration ``1 / sample_imbalance``.
    """
    if num_devices <= 0:
        raise ConfigurationError("num_devices must be positive")
    if cycles_range[0] <= 0.0 or cycles_range[1] < cycles_range[0]:
        raise ConfigurationError("cycles_range must be positive and ordered")
    if sample_imbalance < 0.0:
        raise ConfigurationError("sample_imbalance must be non-negative")
    generator = np.random.default_rng(rng)
    cycles = generator.uniform(cycles_range[0], cycles_range[1], size=num_devices)

    if total_samples is not None:
        if total_samples < num_devices:
            raise ConfigurationError("total_samples must be at least num_devices")
        if sample_imbalance == 0.0:
            samples = np.full(num_devices, total_samples // num_devices, dtype=int)
            samples[: total_samples % num_devices] += 1
        else:
            concentration = 1.0 / sample_imbalance
            shares = generator.dirichlet(np.full(num_devices, concentration))
            samples = np.maximum((shares * total_samples).astype(int), 1)
    else:
        if samples_per_device is None or samples_per_device <= 0:
            raise ConfigurationError("samples_per_device must be positive")
        samples = np.full(num_devices, int(samples_per_device), dtype=int)

    profiles = tuple(
        DeviceProfile(
            cycles_per_sample=float(cycles[i]),
            num_samples=int(samples[i]),
            upload_bits=upload_bits,
            min_frequency_hz=min_frequency_hz,
            max_frequency_hz=max_frequency_hz,
            min_power_w=min_power_w,
            max_power_w=max_power_w,
            effective_capacitance=effective_capacitance,
            name=f"device-{i:03d}",
        )
        for i in range(num_devices)
    )
    return DeviceFleet(profiles)


@dataclass(frozen=True)
class DeviceClass:
    """One hardware class of a mixed fleet, as scalings of the paper table.

    Every factor multiplies the corresponding Section VII-A baseline value,
    so a class mix stays meaningful under the experiments' parameter sweeps
    (sweeping ``p_max`` rescales every class's power budget together).
    """

    name: str
    cycles_scale: float = 1.0
    frequency_scale: float = 1.0
    power_scale: float = 1.0
    samples_scale: float = 1.0
    capacitance_scale: float = 1.0

    def __post_init__(self) -> None:
        for label in ("cycles_scale", "frequency_scale", "power_scale",
                      "samples_scale", "capacitance_scale"):
            if getattr(self, label) <= 0.0:
                raise ConfigurationError(f"{label} must be positive")


#: Built-in device classes for heterogeneous fleets.
DEVICE_CLASSES: dict[str, DeviceClass] = {
    # The paper's device table, unscaled.
    "phone": DeviceClass(name="phone"),
    # Mains-adjacent laptops: faster CPUs, stronger radios, bigger datasets.
    "laptop": DeviceClass(
        name="laptop",
        frequency_scale=2.0,
        power_scale=1.5,
        samples_scale=2.0,
    ),
    # Battery-class IoT sensors: slow CPUs, weak radios, small datasets,
    # but simpler per-sample models.
    "iot": DeviceClass(
        name="iot",
        cycles_scale=0.6,
        frequency_scale=0.25,
        power_scale=0.5,
        samples_scale=0.3,
    ),
}


def device_classes() -> tuple[str, ...]:
    """The built-in device-class names."""
    return tuple(sorted(DEVICE_CLASSES))


def generate_mixed_fleet(
    num_devices: int = constants.DEFAULT_NUM_DEVICES,
    class_shares: Mapping[str, float] | None = None,
    *,
    rng: np.random.Generator | int | None = None,
    samples_per_device: int | None = constants.DEFAULT_SAMPLES_PER_DEVICE,
    upload_bits: float = constants.DEFAULT_UPLOAD_BITS,
    cycles_range: tuple[float, float] = constants.CPU_CYCLES_PER_SAMPLE_RANGE,
    min_frequency_hz: float = constants.DEFAULT_MIN_FREQUENCY_HZ,
    max_frequency_hz: float = constants.DEFAULT_MAX_FREQUENCY_HZ,
    min_power_w: float = constants.DEFAULT_MIN_POWER_W,
    max_power_w: float = constants.DEFAULT_MAX_POWER_W,
    effective_capacitance: float = constants.EFFECTIVE_CAPACITANCE,
) -> DeviceFleet:
    """Generate a fleet whose devices are drawn from a device-class mix.

    ``class_shares`` maps class names (keys of :data:`DEVICE_CLASSES`) to
    non-negative weights; the class of each device is drawn independently
    with those probabilities (weights are normalised).  The remaining
    keyword arguments set the *baseline* the class factors scale — they are
    the same knobs as :func:`generate_fleet`, so experiment sweeps apply
    uniformly across classes.
    """
    if num_devices <= 0:
        raise ConfigurationError("num_devices must be positive")
    if samples_per_device is None or samples_per_device <= 0:
        raise ConfigurationError("samples_per_device must be positive")
    if class_shares is None:
        class_shares = {"phone": 0.5, "laptop": 0.2, "iot": 0.3}
    shares = dict(class_shares)
    if not shares:
        raise ConfigurationError("class_shares must name at least one class")
    unknown = sorted(set(shares) - set(DEVICE_CLASSES))
    if unknown:
        known = ", ".join(device_classes())
        raise ConfigurationError(
            f"unknown device class(es) {', '.join(map(repr, unknown))}; known: {known}"
        )
    names = sorted(shares)
    weights = np.array([float(shares[name]) for name in names])
    if np.any(weights < 0.0) or weights.sum() <= 0.0:
        raise ConfigurationError("class shares must be non-negative and sum > 0")
    weights = weights / weights.sum()

    generator = np.random.default_rng(rng)
    assignments = generator.choice(len(names), size=num_devices, p=weights)
    cycles = generator.uniform(cycles_range[0], cycles_range[1], size=num_devices)

    profiles = []
    for i in range(num_devices):
        cls = DEVICE_CLASSES[names[assignments[i]]]
        profiles.append(
            DeviceProfile(
                cycles_per_sample=float(cycles[i]) * cls.cycles_scale,
                num_samples=max(1, int(round(samples_per_device * cls.samples_scale))),
                upload_bits=upload_bits,
                min_frequency_hz=min_frequency_hz * cls.frequency_scale,
                max_frequency_hz=max_frequency_hz * cls.frequency_scale,
                min_power_w=min_power_w * cls.power_scale,
                max_power_w=max_power_w * cls.power_scale,
                effective_capacitance=effective_capacitance * cls.capacitance_scale,
                name=f"{cls.name}-{i:03d}",
            )
        )
    return DeviceFleet(tuple(profiles))
