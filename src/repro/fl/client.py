"""A federated-learning client (one wireless device)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ConfigurationError
from .optimizer import SGDConfig, sgd_steps

__all__ = ["Client"]


@dataclass
class Client:
    """One participating device: a local dataset plus a local optimiser.

    The client implements the FedAvg contract: receive the global weights,
    run ``R_l`` local iterations on its own data, and return the updated
    weights together with its sample count (the aggregation weight
    ``D_n / D``).
    """

    client_id: int
    features: np.ndarray
    labels: np.ndarray
    sgd: SGDConfig = field(default_factory=SGDConfig)

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.features.shape[0] != self.labels.shape[0]:
            raise ConfigurationError("features and labels must have matching lengths")
        if self.features.shape[0] == 0:
            raise ConfigurationError("a client needs at least one sample")

    @property
    def num_samples(self) -> int:
        """The paper's ``D_n``."""
        return int(self.features.shape[0])

    def local_update(
        self,
        model,
        global_weights: np.ndarray,
        num_iterations: int,
        *,
        rng: np.random.Generator | int | None = None,
    ) -> tuple[np.ndarray, float]:
        """Run local training from the global weights.

        Returns ``(new_weights, last_minibatch_loss)``.  The shared ``model``
        object is used as a computation engine: this call loads
        ``global_weights`` into it before training, so the next client's
        ``local_update`` starts from the weights it is given, not from this
        client's result.
        """
        if num_iterations <= 0:
            raise ConfigurationError("num_iterations must be positive")
        model.set_weights(global_weights)
        loss = sgd_steps(
            model, self.features, self.labels, num_iterations, self.sgd, rng=rng
        )
        return model.get_weights(), loss

    def evaluate(self, model, weights: np.ndarray) -> tuple[float, float]:
        """Local loss and accuracy of the given weights on this client's data."""
        model.set_weights(weights)
        probs = model.predict_proba(self.features)
        eps = 1e-12
        picked = probs[np.arange(self.labels.shape[0]), self.labels]
        loss = float(-np.mean(np.log(picked + eps)))
        acc = float(np.mean(np.argmax(probs, axis=1) == self.labels))
        return loss, acc
