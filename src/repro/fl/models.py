"""Numpy models for the FedAvg simulator.

Both models expose the same tiny interface the FL stack needs:

* ``weights`` — the live flat float64 parameter vector.  Every parameter
  array is a view of it, so an in-place write moves the model (local SGD
  updates it this way);
* ``get_weights()`` / ``set_weights(flat)`` — a copy of that vector, and a
  copy into it (this is what devices "upload"; its size in bits is what
  the paper's ``d_n`` abstracts);
* ``gradient_oracle(x, y)`` — prepares one local update's arrays once and
  returns ``step(batch_idx, with_loss) -> (loss, flat_gradient)`` for the
  minibatch ``x[batch_idx]`` (all of ``x`` for ``None``) at the current
  weights; the loss is computed only when ``with_loss`` is true (NaN
  otherwise);
* ``loss_and_gradient(x, y)`` — mean cross-entropy and its flat gradient
  on the whole batch: the oracle's step with the loss on;
* ``predict_proba(x)`` / ``predict(x)`` — inference.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..exceptions import ConfigurationError

__all__ = ["SoftmaxRegression", "MLPClassifier"]

#: ``step(batch_idx, with_loss) -> (loss, flat_gradient)``.
GradientStep = Callable[[np.ndarray | None, bool], tuple[float, np.ndarray]]

#: Guard of the cross-entropy's ``log``.
_EPS = 1e-12


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    encoded = np.zeros((labels.shape[0], num_classes))
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


def _cross_entropy(targets: np.ndarray, probs: np.ndarray) -> float:
    return -np.mean(np.sum(targets * np.log(probs + _EPS), axis=1))


class _FlatModel:
    """Parameter plumbing shared by the models: one flat vector, viewed.

    Copy a model with ``clone()``: pickling or deep-copying it copies each
    view on its own, so the copy's views would no longer share its vector.
    """

    _flat: np.ndarray

    @property
    def num_parameters(self) -> int:
        return self._flat.size

    @property
    def weights(self) -> np.ndarray:
        """The live parameter vector; writing into it moves the model."""
        return self._flat

    def get_weights(self) -> np.ndarray:
        return self._flat.copy()

    def set_weights(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        if flat.size != self.num_parameters:
            raise ConfigurationError(
                f"expected {self.num_parameters} parameters, got {flat.size}"
            )
        self._flat[:] = flat.ravel()

    def upload_bits(self, bits_per_parameter: int = 32) -> float:
        """Size of one model upload, for consistency checks against ``d_n``."""
        return float(self.num_parameters * bits_per_parameter)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(x), axis=1)

    def loss_and_gradient(self, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        return self.gradient_oracle(x, y)(None, True)


class SoftmaxRegression(_FlatModel):
    """Multinomial logistic regression with L2 regularisation."""

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        *,
        l2: float = 1e-4,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if num_features <= 0 or num_classes < 2:
            raise ConfigurationError("need positive features and at least two classes")
        if l2 < 0.0:
            raise ConfigurationError("l2 must be non-negative")
        self.num_features = num_features
        self.num_classes = num_classes
        self.l2 = l2
        generator = np.random.default_rng(rng)
        shape = (num_features + 1, num_classes)
        self._flat = (0.01 * generator.normal(size=shape)).ravel()
        self._weights = self._flat.reshape(shape)

    def _with_bias(self, x: np.ndarray) -> np.ndarray:
        return np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return _softmax(self._with_bias(np.asarray(x, dtype=float)) @ self._weights)

    def gradient_oracle(self, x: np.ndarray, y: np.ndarray) -> GradientStep:
        x_all = self._with_bias(np.asarray(x, dtype=float))
        targets_all = _one_hot(np.asarray(y, dtype=int), self.num_classes)
        weights, l2 = self._weights, self.l2

        def step(batch_idx: np.ndarray | None, with_loss: bool) -> tuple[float, np.ndarray]:
            x_b, targets = x_all, targets_all
            if batch_idx is not None:
                x_b, targets = x_all[batch_idx], targets_all[batch_idx]
            probs = _softmax(x_b @ weights)
            loss = float("nan")
            if with_loss:
                loss = _cross_entropy(targets, probs)
                loss += 0.5 * l2 * float(np.sum(weights**2))
            grad = x_b.T @ (probs - targets) / x_b.shape[0] + l2 * weights
            return float(loss), grad.ravel()

        return step

    def clone(self) -> "SoftmaxRegression":
        copy = SoftmaxRegression(self.num_features, self.num_classes, l2=self.l2, rng=0)
        copy.set_weights(self.get_weights())
        return copy


class MLPClassifier(_FlatModel):
    """One-hidden-layer perceptron with tanh activation."""

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        hidden_units: int = 32,
        *,
        l2: float = 1e-4,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if hidden_units <= 0:
            raise ConfigurationError("hidden_units must be positive")
        if l2 < 0.0:
            raise ConfigurationError("l2 must be non-negative")
        self.num_features = num_features
        self.num_classes = num_classes
        self.hidden_units = hidden_units
        self.l2 = l2
        generator = np.random.default_rng(rng)
        scale1 = 1.0 / np.sqrt(num_features)
        scale2 = 1.0 / np.sqrt(hidden_units)
        w1 = generator.normal(scale=scale1, size=(num_features, hidden_units))
        w2 = generator.normal(scale=scale2, size=(hidden_units, num_classes))
        parts = [w1.ravel(), np.zeros(hidden_units), w2.ravel(), np.zeros(num_classes)]
        self._flat = np.concatenate(parts)
        w1_flat, self._b1, w2_flat, self._b2 = np.split(
            self._flat, np.cumsum([part.size for part in parts])[:-1]
        )
        self._w1 = w1_flat.reshape(w1.shape)
        self._w2 = w2_flat.reshape(w2.shape)

    def _forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        hidden = np.tanh(x @ self._w1 + self._b1)
        logits = hidden @ self._w2 + self._b2
        return hidden, logits

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        _, logits = self._forward(np.asarray(x, dtype=float))
        return _softmax(logits)

    def gradient_oracle(self, x: np.ndarray, y: np.ndarray) -> GradientStep:
        x_all = np.asarray(x, dtype=float)
        targets_all = _one_hot(np.asarray(y, dtype=int), self.num_classes)
        w1, w2, l2 = self._w1, self._w2, self.l2

        def step(batch_idx: np.ndarray | None, with_loss: bool) -> tuple[float, np.ndarray]:
            x_b, targets = x_all, targets_all
            if batch_idx is not None:
                x_b, targets = x_all[batch_idx], targets_all[batch_idx]
            hidden, logits = self._forward(x_b)
            probs = _softmax(logits)
            loss = float("nan")
            if with_loss:
                loss = _cross_entropy(targets, probs)
                loss += 0.5 * l2 * float(np.sum(w1**2) + np.sum(w2**2))

            delta_out = (probs - targets) / x_b.shape[0]
            grad_w2 = hidden.T @ delta_out + l2 * w2
            grad_b2 = delta_out.sum(axis=0)
            delta_hidden = (delta_out @ w2.T) * (1.0 - hidden**2)
            grad_w1 = x_b.T @ delta_hidden + l2 * w1
            grad_b1 = delta_hidden.sum(axis=0)
            gradient = np.concatenate(
                [grad_w1.ravel(), grad_b1, grad_w2.ravel(), grad_b2]
            )
            return float(loss), gradient

        return step

    def clone(self) -> "MLPClassifier":
        copy = MLPClassifier(
            self.num_features, self.num_classes, self.hidden_units, l2=self.l2, rng=0
        )
        copy.set_weights(self.get_weights())
        return copy
