"""A from-scratch FedAvg simulator (numpy only).

The paper's evaluation treats the number of global rounds ``R_g``, local
iterations ``R_l`` and upload size ``d_n`` as exogenous constants; this
package provides the federated-learning substrate that realises them, so
that examples and extension experiments can connect the resource allocation
to actual training behaviour (accuracy versus wall-clock time and energy):

* :mod:`repro.fl.datasets` — synthetic classification datasets;
* :mod:`repro.fl.partition` — IID / Dirichlet non-IID client partitioning;
* :mod:`repro.fl.models` — numpy softmax-regression and MLP models;
* :mod:`repro.fl.optimizer` — minibatch SGD;
* :mod:`repro.fl.client` / :mod:`repro.fl.server` — FedAvg participants;
* :mod:`repro.fl.simulation` — the system-aware simulation that prices every
  round with the wireless/CPU models and one *static* resource allocation;
* :mod:`repro.fl.selection` — pluggable client-selection strategies (all /
  random-k / fastest-k / allocation-aware deadline-k);
* :mod:`repro.fl.roundloop` — the closed loop: per round, redraw the
  fading, re-solve the allocation (cold, every round), price the
  round, select clients and aggregate.

How the pieces fit: ``datasets`` + ``partition`` produce per-client data;
``models`` + ``optimizer`` give each :class:`Client` a local learner;
the :class:`FedAvgServer` aggregates.  ``simulation`` prices that training
loop with a fixed allocation, while ``roundloop`` closes the loop — the
:class:`~repro.core.allocator.ResourceAllocator` re-solves every round and
its output drives selection, wall-clock and energy accounting
(:class:`~repro.fl.metrics.RoundRecord` per round).
"""

from .client import Client
from .datasets import SyntheticClassificationDataset, make_classification_dataset
from .metrics import RoundLoopReport, RoundRecord, accuracy, cross_entropy
from .models import MLPClassifier, SoftmaxRegression
from .optimizer import SGDConfig
from .partition import dirichlet_partition, iid_partition
from .roundloop import FLRoundLoop, RoundLoopConfig, run_round_loop
from .selection import (
    SelectionContext,
    get_selection_strategy,
    register_selection_strategy,
    select_clients,
    selection_strategies,
)
from .server import FedAvgServer, TrainingHistory
from .simulation import FederatedSimulation, RoundCost, SimulationReport

__all__ = [
    "Client",
    "SyntheticClassificationDataset",
    "make_classification_dataset",
    "accuracy",
    "cross_entropy",
    "MLPClassifier",
    "SoftmaxRegression",
    "SGDConfig",
    "dirichlet_partition",
    "iid_partition",
    "FedAvgServer",
    "TrainingHistory",
    "FederatedSimulation",
    "RoundCost",
    "SimulationReport",
    "RoundRecord",
    "RoundLoopReport",
    "RoundLoopConfig",
    "FLRoundLoop",
    "run_round_loop",
    "SelectionContext",
    "register_selection_strategy",
    "selection_strategies",
    "get_selection_strategy",
    "select_clients",
]
