"""Wireless-network substrate: topology, channel model, fading and rates.

The paper evaluates its resource-allocation algorithm on a single-cell FDMA
uplink: ``N`` devices are dropped uniformly in a disc around one base
station, the channel gain of each device follows a 3GPP-style distance
path loss plus log-normal shadowing, and the achievable uplink rate is the
Shannon capacity of the allocated sub-band.  This package implements that
substrate from scratch.
"""

from .channel import ChannelModel, ChannelState
from .fading import (
    FadingModel,
    NakagamiFading,
    RayleighFading,
    RicianFading,
    fading_models,
    make_fading,
    register_fading_model,
)
from .noise import NoiseModel
from .pathloss import LogDistancePathLoss
from .rate import (
    min_bandwidth_for_rate,
    required_power_for_rate,
    shannon_rate,
    spectral_efficiency,
)
from .shadowing import LogNormalShadowing
from .topology import (
    Topology,
    cell_edge_ring_topology,
    clustered_hotspot_topology,
    indoor_grid_topology,
    uniform_disc_topology,
)

__all__ = [
    "ChannelModel",
    "ChannelState",
    "FadingModel",
    "RayleighFading",
    "RicianFading",
    "NakagamiFading",
    "fading_models",
    "make_fading",
    "register_fading_model",
    "NoiseModel",
    "LogDistancePathLoss",
    "LogNormalShadowing",
    "shannon_rate",
    "spectral_efficiency",
    "required_power_for_rate",
    "min_bandwidth_for_rate",
    "Topology",
    "uniform_disc_topology",
    "cell_edge_ring_topology",
    "clustered_hotspot_topology",
    "indoor_grid_topology",
]
