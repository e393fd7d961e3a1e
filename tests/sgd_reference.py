"""Reference local SGD: the straightforward implementation, frozen.

The library's :func:`repro.fl.optimizer.sgd_steps` prepares the bias
column and one-hot targets once per local update, computes the loss only
on the last step and moves the models' flat weight vector in place.  This
copy keeps the original formulation — every step builds its minibatch
arrays, computes the loss, and round-trips the weights through
``get_weights()`` / ``set_weights()`` — with both models'
``loss_and_gradient``, so the tests can hold the lean version to the same
bits: weights, returned loss and the generator's next draw.
"""

from __future__ import annotations

import numpy as np


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    encoded = np.zeros((labels.shape[0], num_classes))
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


class SoftmaxReference:
    """``SoftmaxRegression``'s weights and training maths, frozen."""

    def __init__(self, num_features: int, num_classes: int, l2: float, flat: np.ndarray):
        self.num_classes = num_classes
        self.l2 = l2
        self._weights = np.zeros((num_features + 1, num_classes))
        self.set_weights(flat)

    @property
    def num_parameters(self) -> int:
        return self._weights.size

    def get_weights(self) -> np.ndarray:
        return self._weights.ravel().copy()

    def set_weights(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        self._weights = flat.reshape(self._weights.shape).copy()

    def _with_bias(self, x: np.ndarray) -> np.ndarray:
        return np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)

    def loss_and_gradient(self, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        x_b = self._with_bias(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=int)
        probs = _softmax(x_b @ self._weights)
        targets = _one_hot(y, self.num_classes)
        eps = 1e-12
        loss = -np.mean(np.sum(targets * np.log(probs + eps), axis=1))
        loss += 0.5 * self.l2 * float(np.sum(self._weights**2))
        grad = x_b.T @ (probs - targets) / x_b.shape[0] + self.l2 * self._weights
        return float(loss), grad.ravel()


class MLPReference:
    """``MLPClassifier``'s weights and training maths, frozen."""

    def __init__(
        self, num_features: int, num_classes: int, hidden_units: int, l2: float, flat: np.ndarray
    ):
        self.num_classes = num_classes
        self.l2 = l2
        self._w1 = np.zeros((num_features, hidden_units))
        self._b1 = np.zeros(hidden_units)
        self._w2 = np.zeros((hidden_units, num_classes))
        self._b2 = np.zeros(num_classes)
        self.set_weights(flat)

    @property
    def num_parameters(self) -> int:
        return self._w1.size + self._b1.size + self._w2.size + self._b2.size

    def get_weights(self) -> np.ndarray:
        return np.concatenate(
            [self._w1.ravel(), self._b1, self._w2.ravel(), self._b2]
        ).copy()

    def set_weights(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        sizes = [self._w1.size, self._b1.size, self._w2.size, self._b2.size]
        parts = np.split(flat, np.cumsum(sizes)[:-1])
        self._w1 = parts[0].reshape(self._w1.shape).copy()
        self._b1 = parts[1].copy()
        self._w2 = parts[2].reshape(self._w2.shape).copy()
        self._b2 = parts[3].copy()

    def _forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        hidden = np.tanh(x @ self._w1 + self._b1)
        logits = hidden @ self._w2 + self._b2
        return hidden, logits

    def loss_and_gradient(self, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=int)
        hidden, logits = self._forward(x)
        probs = _softmax(logits)
        targets = _one_hot(y, self.num_classes)
        eps = 1e-12
        loss = -np.mean(np.sum(targets * np.log(probs + eps), axis=1))
        loss += 0.5 * self.l2 * float(np.sum(self._w1**2) + np.sum(self._w2**2))

        batch = x.shape[0]
        delta_out = (probs - targets) / batch
        grad_w2 = hidden.T @ delta_out + self.l2 * self._w2
        grad_b2 = delta_out.sum(axis=0)
        delta_hidden = (delta_out @ self._w2.T) * (1.0 - hidden**2)
        grad_w1 = x.T @ delta_hidden + self.l2 * self._w1
        grad_b1 = delta_hidden.sum(axis=0)
        gradient = np.concatenate(
            [grad_w1.ravel(), grad_b1, grad_w2.ravel(), grad_b2]
        )
        return float(loss), gradient


def sgd_steps_reference(
    model,
    features: np.ndarray,
    labels: np.ndarray,
    num_iterations: int,
    config,
    *,
    rng: np.random.Generator | int | None = None,
) -> float:
    """Run ``num_iterations`` SGD steps in place on ``model``; the last loss."""
    generator = np.random.default_rng(rng)
    num_samples = features.shape[0]
    velocity = np.zeros(model.num_parameters)
    last_loss = float("nan")
    for _ in range(num_iterations):
        if num_samples <= config.batch_size:
            batch_idx = np.arange(num_samples)
        else:
            batch_idx = generator.choice(num_samples, size=config.batch_size, replace=False)
        loss, gradient = model.loss_and_gradient(features[batch_idx], labels[batch_idx])
        velocity = config.momentum * velocity - config.learning_rate * gradient
        model.set_weights(model.get_weights() + velocity)
        last_loss = loss
    return last_loss
