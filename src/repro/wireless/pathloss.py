"""Distance-dependent path loss.

The paper models the channel's path loss as ``128.1 + 37.6 log10(d)`` dB
with ``d`` in kilometres — the common 3GPP macro-cell model.  The class here
is parameterised so other deployments (micro cell, free space) can be
expressed with the same code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import constants
from ..exceptions import ConfigurationError

__all__ = ["LogDistancePathLoss"]


@dataclass(frozen=True)
class LogDistancePathLoss:
    """Log-distance path loss ``PL(d) = intercept + slope * log10(d_km)`` in dB."""

    intercept_db: float = constants.PATH_LOSS_CONSTANT_DB
    slope_db_per_decade: float = constants.PATH_LOSS_EXPONENT_DB_PER_DECADE
    min_distance_km: float = 1e-3

    def __post_init__(self) -> None:
        if self.slope_db_per_decade <= 0.0:
            raise ConfigurationError("path-loss slope must be positive")
        if self.min_distance_km <= 0.0:
            raise ConfigurationError("min_distance_km must be positive")

    def loss_db(self, distances_km: np.ndarray | float) -> np.ndarray:
        """Path loss in dB at the given distances (km)."""
        d = np.maximum(np.asarray(distances_km, dtype=float), self.min_distance_km)
        return self.intercept_db + self.slope_db_per_decade * np.log10(d)

    def gain_linear(self, distances_km: np.ndarray | float) -> np.ndarray:
        """Linear channel power gain (no shadowing) at the given distances."""
        return 10.0 ** (-self.loss_db(distances_km) / 10.0)

    @classmethod
    def free_space(cls, frequency_ghz: float = 2.0) -> "LogDistancePathLoss":
        """Free-space path loss at ``frequency_ghz`` expressed in the same form."""
        # FSPL(dB) = 20 log10(d_km) + 20 log10(f_GHz) + 92.45
        intercept = 92.45 + 20.0 * np.log10(frequency_ghz)
        return cls(intercept_db=float(intercept), slope_db_per_decade=20.0)

    def coherence_distance_km(self, loss_budget_db: float) -> float:
        """Distance at which the loss reaches ``loss_budget_db`` (inverse model)."""
        exponent = (loss_budget_db - self.intercept_db) / self.slope_db_per_decade
        return float(max(10.0**exponent, self.min_distance_km))

    def __call__(self, distances_km: np.ndarray | float) -> np.ndarray:
        return self.loss_db(distances_km)

