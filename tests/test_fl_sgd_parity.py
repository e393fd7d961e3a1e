"""Local SGD against its frozen reference: the same bits, step for step.

``tests/sgd_reference.py`` keeps the original per-step formulation of
``sgd_steps`` and both models' ``loss_and_gradient``.  The library's lean
version must reproduce its weights, its returned loss and its generator
state exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fl import MLPClassifier, SGDConfig, SoftmaxRegression, make_classification_dataset
from repro.fl.optimizer import sgd_steps
from tests.sgd_reference import MLPReference, SoftmaxReference, sgd_steps_reference

#: The round loop's default minibatch size, features, classes and hidden
#: units: the shapes the FL workloads train at.
BATCH_SIZE = 32


@pytest.fixture(scope="module")
def dataset():
    return make_classification_dataset(400, num_features=16, num_classes=4, rng=7)


def _pair(kind: str, dataset):
    """A fresh model and its frozen reference, holding the same weights."""
    if kind == "softmax":
        model = SoftmaxRegression(dataset.num_features, dataset.num_classes, l2=1e-3, rng=11)
        reference = SoftmaxReference(
            dataset.num_features, dataset.num_classes, model.l2, model.get_weights()
        )
    else:
        model = MLPClassifier(
            dataset.num_features, dataset.num_classes, hidden_units=16, l2=1e-3, rng=11
        )
        reference = MLPReference(
            dataset.num_features, dataset.num_classes, 16, model.l2, model.get_weights()
        )
    return model, reference


@pytest.mark.parametrize("kind", ["softmax", "mlp"])
@pytest.mark.parametrize("momentum", [0.0, 0.9])
@pytest.mark.parametrize("num_samples", [BATCH_SIZE - 5, BATCH_SIZE, 90])
@pytest.mark.parametrize("num_iterations", [1, 8])
def test_sgd_steps_match_the_frozen_reference(
    dataset, kind, momentum, num_samples, num_iterations
):
    x = dataset.train_x[:num_samples]
    y = dataset.train_y[:num_samples]
    config = SGDConfig(learning_rate=0.2, batch_size=BATCH_SIZE, momentum=momentum)
    model, reference = _pair(kind, dataset)
    gen, gen_ref = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(3):  # several local updates, carrying the generator across
        loss = sgd_steps(model, x, y, num_iterations, config, rng=gen)
        loss_ref = sgd_steps_reference(reference, x, y, num_iterations, config, rng=gen_ref)
        assert np.isfinite(loss) and loss == loss_ref
        assert model.get_weights().tobytes() == reference.get_weights().tobytes()
    assert gen.random() == gen_ref.random()


@pytest.mark.parametrize("kind", ["softmax", "mlp"])
def test_sgd_steps_match_the_reference_on_fortran_ordered_features(dataset, kind):
    # At this size BLAS rounds ``x.T @ d`` differently for C- and
    # Fortran-ordered ``x``; the reference's whole-dataset "minibatch" is a
    # C-ordered copy.
    x = np.asfortranarray(dataset.train_x[:30])
    y = dataset.train_y[:30]
    config = SGDConfig(learning_rate=0.2, batch_size=BATCH_SIZE, momentum=0.9)
    model, reference = _pair(kind, dataset)
    loss = sgd_steps(model, x, y, 4, config, rng=0)
    assert loss == sgd_steps_reference(reference, x, y, 4, config, rng=0)
    assert model.get_weights().tobytes() == reference.get_weights().tobytes()


@pytest.mark.parametrize("kind", ["softmax", "mlp"])
def test_zero_iterations_return_nan_and_leave_the_weights(dataset, kind):
    model, reference = _pair(kind, dataset)
    before = model.get_weights()
    x, y = dataset.train_x[:30], dataset.train_y[:30]
    config = SGDConfig(batch_size=BATCH_SIZE)
    assert np.isnan(sgd_steps(model, x, y, 0, config, rng=0))
    assert np.isnan(sgd_steps_reference(reference, x, y, 0, config, rng=0))
    assert model.get_weights().tobytes() == before.tobytes()


@pytest.mark.parametrize("kind", ["softmax", "mlp"])
def test_loss_and_gradient_match_the_frozen_reference(dataset, kind):
    model, reference = _pair(kind, dataset)
    x, y = dataset.train_x[:50], dataset.train_y[:50]
    loss, gradient = model.loss_and_gradient(x, y)
    loss_ref, gradient_ref = reference.loss_and_gradient(x, y)
    assert loss == loss_ref
    assert gradient.tobytes() == gradient_ref.tobytes()


@pytest.mark.parametrize("kind", ["softmax", "mlp"])
def test_gradient_oracle_skips_only_the_loss(dataset, kind):
    model, _ = _pair(kind, dataset)
    step = model.gradient_oracle(dataset.train_x[:40], dataset.train_y[:40])
    batch_idx = np.array([3, 1, 4, 15, 9, 26])
    loss, gradient = step(batch_idx, True)
    no_loss, same_gradient = step(batch_idx, False)
    assert np.isfinite(loss) and np.isnan(no_loss)
    assert gradient.tobytes() == same_gradient.tobytes()


@pytest.mark.parametrize("kind", ["softmax", "mlp"])
def test_weights_is_the_live_parameter_vector(dataset, kind):
    model, _ = _pair(kind, dataset)
    x = dataset.test_x[:5]
    before = model.predict_proba(x)
    model.weights[:] = 0.0
    assert model.get_weights().tobytes() == np.zeros(model.num_parameters).tobytes()
    assert not np.allclose(model.predict_proba(x), before)
    assert np.allclose(model.predict_proba(x), 1.0 / dataset.num_classes)
