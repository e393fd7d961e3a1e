"""Minibatch SGD used for the local training steps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError

__all__ = ["SGDConfig", "sgd_steps"]


@dataclass(frozen=True)
class SGDConfig:
    """Hyper-parameters of the local optimiser."""

    learning_rate: float = 0.1
    batch_size: int = 32
    momentum: float = 0.0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0.0:
            raise ConfigurationError("learning_rate must be positive")
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError("momentum must lie in [0, 1)")


def sgd_steps(
    model,
    features: np.ndarray,
    labels: np.ndarray,
    num_iterations: int,
    config: SGDConfig,
    *,
    rng: np.random.Generator | int | None = None,
) -> float:
    """Run ``num_iterations`` SGD steps in place on ``model``.

    Each iteration draws a minibatch of ``batch_size`` distinct samples, or
    uses the whole dataset when it has at most ``batch_size`` samples.
    Returns the loss of the last minibatch, the only step whose loss is
    computed (NaN when ``num_iterations`` is 0).
    """
    generator = np.random.default_rng(rng)
    num_samples = features.shape[0]
    # BLAS can round a product differently for C- and Fortran-ordered
    # operands; minibatch copies ``features[batch_idx]`` are C-ordered, so
    # the whole dataset is handed over in C order too.
    step = model.gradient_oracle(np.ascontiguousarray(features), labels)
    weights = model.weights
    velocity = np.zeros(model.num_parameters)
    loss = float("nan")
    for iteration in range(num_iterations):
        batch_idx = None
        if num_samples > config.batch_size:
            batch_idx = generator.choice(num_samples, size=config.batch_size, replace=False)
        loss, gradient = step(batch_idx, iteration == num_iterations - 1)
        velocity = config.momentum * velocity - config.learning_rate * gradient
        weights += velocity
    return loss
