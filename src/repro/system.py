"""The wireless federated-learning system model (Section III).

:class:`SystemModel` bundles everything the resource allocator treats as
given: the device fleet (CPU / dataset / radio limits), the realised channel
gains, the shared bandwidth budget, the noise PSD, and the FL schedule
(``R_l`` local iterations per round, ``R_g`` global rounds).  It also
exposes the physical cost models of equations (1)-(7) as vectorised methods
so that the optimizer, the baselines and the FL simulator all price a
candidate allocation identically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import constants
from .devices.fleet import DeviceFleet
from .exceptions import ConfigurationError
from .wireless.channel import ChannelState
from .wireless.rate import shannon_rate

__all__ = ["SystemModel", "transmission_energy_j"]


def transmission_energy_j(power_w: np.ndarray, upload_time_s: np.ndarray) -> np.ndarray:
    """Transmission energies ``E^trans_n = p_n T^up_n`` (eq. (3)) from upload times.

    A silent device (``p_n = 0``) spends nothing, even where its upload
    time is infinite.
    """
    power = np.asarray(power_w, dtype=float)
    with np.errstate(invalid="ignore"):
        return np.where(power == 0.0, 0.0, power * upload_time_s)


@dataclass(frozen=True)
class SystemModel:
    """All fixed parameters of the FL-over-FDMA system."""

    fleet: DeviceFleet
    gains: np.ndarray
    noise_psd_w_per_hz: float = constants.NOISE_PSD_W_PER_HZ
    total_bandwidth_hz: float = constants.DEFAULT_TOTAL_BANDWIDTH_HZ
    local_iterations: int = constants.DEFAULT_LOCAL_ITERATIONS
    global_rounds: int = constants.DEFAULT_GLOBAL_ROUNDS
    channel_state: ChannelState | None = None

    def __post_init__(self) -> None:
        gains = np.asarray(self.gains, dtype=float)
        if gains.shape != (self.fleet.num_devices,):
            raise ConfigurationError(
                f"gains must have shape ({self.fleet.num_devices},), got {gains.shape}"
            )
        if np.any(gains <= 0.0):
            raise ConfigurationError("channel gains must be strictly positive")
        if self.noise_psd_w_per_hz <= 0.0:
            raise ConfigurationError("noise PSD must be positive")
        if self.total_bandwidth_hz <= 0.0:
            raise ConfigurationError("total bandwidth must be positive")
        if self.local_iterations <= 0:
            raise ConfigurationError("local_iterations must be positive")
        if self.global_rounds <= 0:
            raise ConfigurationError("global_rounds must be positive")
        object.__setattr__(self, "gains", gains)

    # -- convenience array views -----------------------------------------
    @property
    def num_devices(self) -> int:
        return self.fleet.num_devices

    @property
    def cycles_per_sample(self) -> np.ndarray:
        return self.fleet.cycles_per_sample

    @property
    def num_samples(self) -> np.ndarray:
        return self.fleet.num_samples

    @property
    def upload_bits(self) -> np.ndarray:
        return self.fleet.upload_bits

    @property
    def min_frequency_hz(self) -> np.ndarray:
        return self.fleet.min_frequency_hz

    @property
    def max_frequency_hz(self) -> np.ndarray:
        return self.fleet.max_frequency_hz

    @property
    def min_power_w(self) -> np.ndarray:
        return self.fleet.min_power_w

    @property
    def max_power_w(self) -> np.ndarray:
        return self.fleet.max_power_w

    @property
    def effective_capacitance(self) -> np.ndarray:
        return self.fleet.effective_capacitance

    @property
    def cycles_per_round(self) -> np.ndarray:
        """CPU cycles of one global round per device: ``R_l * c_n * D_n``."""
        return self.local_iterations * self.cycles_per_sample * self.num_samples

    # -- physical cost models (eqs. (1)-(7)) --------------------------------
    def rates_bps(self, power_w: np.ndarray, bandwidth_hz: np.ndarray) -> np.ndarray:
        """Uplink Shannon rates ``r_n`` (eq. (1))."""
        return shannon_rate(power_w, bandwidth_hz, self.gains, self.noise_psd_w_per_hz)

    def upload_time_s(self, power_w: np.ndarray, bandwidth_hz: np.ndarray) -> np.ndarray:
        """Upload times ``T^up_n = d_n / r_n`` (eq. (2))."""
        rates = self.rates_bps(power_w, bandwidth_hz)
        time = np.full(rates.shape, np.inf)
        ok = rates > 0.0
        time[ok] = self.upload_bits[ok] / rates[ok]
        return time

    def upload_energy_j(self, power_w: np.ndarray, bandwidth_hz: np.ndarray) -> np.ndarray:
        """Per-round transmission energies ``E^trans_n = p_n T^up_n`` (eq. (3))."""
        return transmission_energy_j(power_w, self.upload_time_s(power_w, bandwidth_hz))

    def computation_time_s(self, frequency_hz: np.ndarray) -> np.ndarray:
        """Per-round computation times ``T^cmp_n = R_l c_n D_n / f_n`` (eq. (7))."""
        freq = np.asarray(frequency_hz, dtype=float)
        if np.any(freq <= 0.0):
            raise ValueError("CPU frequencies must be strictly positive")
        return self.cycles_per_round / freq

    def computation_energy_j(self, frequency_hz: np.ndarray) -> np.ndarray:
        """Per-round computation energies ``kappa R_l c_n D_n f_n^2`` (eq. (5))."""
        freq = np.asarray(frequency_hz, dtype=float)
        return self.effective_capacitance * self.cycles_per_round * freq**2

    def round_time_s(
        self,
        power_w: np.ndarray,
        bandwidth_hz: np.ndarray,
        frequency_hz: np.ndarray,
    ) -> float:
        """Duration of one global round: ``max_n (T^cmp_n + T^up_n)``."""
        per_device = self.computation_time_s(frequency_hz) + self.upload_time_s(
            power_w, bandwidth_hz
        )
        return float(np.max(per_device))

    def per_device_round_time_s(
        self,
        power_w: np.ndarray,
        bandwidth_hz: np.ndarray,
        frequency_hz: np.ndarray,
    ) -> np.ndarray:
        """Per-device round duration ``T^cmp_n + T^up_n``."""
        return self.computation_time_s(frequency_hz) + self.upload_time_s(
            power_w, bandwidth_hz
        )

    def total_completion_time_s(
        self,
        power_w: np.ndarray,
        bandwidth_hz: np.ndarray,
        frequency_hz: np.ndarray,
    ) -> float:
        """Total completion time ``T = R_g max_n(T^cmp_n + T^up_n)``."""
        return self.global_rounds * self.round_time_s(power_w, bandwidth_hz, frequency_hz)

    def total_energy_j(
        self,
        power_w: np.ndarray,
        bandwidth_hz: np.ndarray,
        frequency_hz: np.ndarray,
    ) -> float:
        """Total energy ``E = R_g sum_n (E^trans_n + E^cmp_n)`` (eq. (6))."""
        per_round = self.upload_energy_j(power_w, bandwidth_hz) + self.computation_energy_j(
            frequency_hz
        )
        return self.global_rounds * float(per_round.sum())

    def energy_breakdown_j(
        self,
        power_w: np.ndarray,
        bandwidth_hz: np.ndarray,
        frequency_hz: np.ndarray,
    ) -> tuple[float, float]:
        """Total (transmission, computation) energy over all rounds."""
        trans = self.global_rounds * float(self.upload_energy_j(power_w, bandwidth_hz).sum())
        comp = self.global_rounds * float(self.computation_energy_j(frequency_hz).sum())
        return trans, comp

    # -- transformations -----------------------------------------------------
    def with_gains(
        self,
        gains: np.ndarray,
        *,
        channel_state: ChannelState | None = None,
    ) -> "SystemModel":
        """Copy with replaced channel gains (same fleet, bandwidth and schedule).

        This is how the closed-loop FL round loop re-realises the channel
        between global rounds: the large-scale drop stays fixed while a
        fresh small-scale fading draw perturbs the gains.  The stored
        ``channel_state`` is dropped unless a replacement is given — the old
        state's gains would no longer match.
        """
        return replace(
            self,
            gains=np.asarray(gains, dtype=float),
            channel_state=channel_state,
        )

    def with_schedule(self, *, local_iterations: int | None = None, global_rounds: int | None = None) -> "SystemModel":
        """Copy with a different FL schedule (Fig. 6 sweeps)."""
        return replace(
            self,
            local_iterations=self.local_iterations if local_iterations is None else local_iterations,
            global_rounds=self.global_rounds if global_rounds is None else global_rounds,
        )

    def with_devices(self, indices: "np.ndarray | list[int]") -> "SystemModel":
        """Copy restricted to the given device indices (fleet *and* gains).

        This is how the dynamic-fleet round loop re-solves around churned
        or battery-dead devices: the allocation problem shrinks to the
        active subset while the underlying drop (and its seed streams)
        stays defined over the full universe.  The stored ``channel_state``
        is dropped — its arrays would no longer line up with the subset.
        """
        index_array = np.asarray(indices, dtype=int)
        if index_array.ndim != 1 or index_array.size == 0:
            raise ConfigurationError("with_devices needs a non-empty 1-D index list")
        return replace(
            self,
            fleet=self.fleet.subset([int(i) for i in index_array]),
            gains=self.gains[index_array],
            channel_state=None,
        )

    def with_fleet(self, fleet: DeviceFleet) -> "SystemModel":
        """Copy with a different device fleet (same channel)."""
        if fleet.num_devices != self.num_devices:
            raise ConfigurationError("replacement fleet must have the same size")
        return replace(self, fleet=fleet)

    def with_max_power_w(self, max_power_w: float) -> "SystemModel":
        """Copy with every device's maximum transmit power replaced (Fig. 2/8)."""
        return replace(self, fleet=self.fleet.with_max_power_w(max_power_w))

    def with_max_frequency_hz(self, max_frequency_hz: float) -> "SystemModel":
        """Copy with every device's maximum CPU frequency replaced (Fig. 3)."""
        return replace(self, fleet=self.fleet.with_max_frequency_hz(max_frequency_hz))
