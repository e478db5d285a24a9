"""Reference softmax trainer in the sample-major layout.

This is the training loop greenloop.classify shipped before it kept its
logits, probabilities and gradients as (classes, samples) arrays, kept as
the oracle the class-major loop is compared against. `_loss_and_grad`,
`train_classifier` and `train_on_records` (which featurizes one record at a
time) are unchanged apart from their imports, the seed they take in place
of a config object, and the l2 penalty, which the library no longer has;
the "loss rose" warnings go to this module's logger. The learning rate and
the epoch count are read from greenloop.classify's constants at each call,
so a test that patches them changes both trainers alike. `fit_norm_stats`
is the library's former stats fit, which reads one value at a time, kept
here for this trainer.
"""

from __future__ import annotations

import logging
from typing import Mapping, Sequence

import numpy as np

from greenloop import classify
from greenloop.classify import (
    FEATURES,
    NormStats,
    SoftmaxModel,
    _feature,
    featurize,
    initial_weights,
)
from greenloop.errors import (
    DimensionMismatch,
    EmptyDataset,
    NonFiniteLoss,
    SingleClassData,
)

log = logging.getLogger(__name__)


def _loss_and_grad(
    weights: np.ndarray,
    biases: np.ndarray,
    x: np.ndarray,
    y_idx: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy with its analytic gradient."""
    n = x.shape[0]
    logits = x @ weights.T + biases
    logits -= logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    probs = exp / exp.sum(axis=1, keepdims=True)
    eps = 1e-300
    loss = -np.mean(np.log(probs[np.arange(n), y_idx] + eps))

    delta = probs
    delta[np.arange(n), y_idx] -= 1.0
    grad_w = delta.T @ x / n
    grad_b = delta.mean(axis=0)
    return float(loss), grad_w, grad_b


def train_classifier(
    data: Sequence[tuple[np.ndarray, str]],
    rng_seed: int,
    init_weights: np.ndarray | None = None,
) -> SoftmaxModel:
    """Full-batch gradient descent; labels are sorted into class order.

    data pairs are (featurized vector, label). The features are assumed
    already normalized; the returned model carries identity norm stats
    unless rebound by the caller (train_on_records does that binding).
    """
    if not data:
        raise EmptyDataset("no training data")
    labels = tuple(sorted({label for _, label in data}))
    if len(labels) < 2:
        raise SingleClassData(f"need >= 2 classes, got {labels}")
    label_index = {lb: i for i, lb in enumerate(labels)}

    x = np.array([vec for vec, _ in data], dtype=float)
    y_idx = np.array([label_index[lb] for _, lb in data], dtype=int)
    n_features = x.shape[1]

    if init_weights is None:
        weights = initial_weights(rng_seed, len(labels), n_features)
    else:
        weights = np.array(init_weights, dtype=float)
        if weights.shape != (len(labels), n_features):
            raise DimensionMismatch(
                f"init weights {weights.shape} vs expected {(len(labels), n_features)}"
            )
    biases = np.zeros(len(labels))

    prev_loss = np.inf
    for epoch in range(classify.EPOCHS):
        loss, grad_w, grad_b = _loss_and_grad(weights, biases, x, y_idx)
        if not np.isfinite(loss):
            raise NonFiniteLoss(f"loss diverged at epoch {epoch}; lower the learning rate")
        if loss > prev_loss + 1e-12:
            log.warning(
                "loss rose at epoch %d (%.6g -> %.6g); learning rate may be too large",
                epoch, prev_loss, loss,
            )
        prev_loss = loss
        weights = weights - classify.LEARNING_RATE * grad_w
        biases = biases - classify.LEARNING_RATE * grad_b

    if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(biases))):
        raise NonFiniteLoss("parameters diverged; lower the learning rate")

    identity = NormStats(means=(0.0,) * n_features, stds=(1.0,) * n_features)
    return SoftmaxModel(
        weights=weights, biases=biases, class_labels=labels, norm_stats=identity
    )


def fit_norm_stats(records: Sequence[Mapping[str, float]]) -> NormStats:
    """Means and standard deviations of the raw sensor features."""
    if not records:
        raise EmptyDataset("no records to fit normalization stats")
    mat = np.array([[_feature(r, f) for f in FEATURES] for r in records], dtype=float)
    means = mat.mean(axis=0)
    stds = mat.std(axis=0)
    return NormStats(means=tuple(float(m) for m in means), stds=tuple(float(s) for s in stds))


def train_on_records(
    records: Sequence[tuple[Mapping[str, float], str]],
    rng_seed: int,
) -> SoftmaxModel:
    """Fit norm stats on raw records, featurize, train, bind the stats."""
    if not records:
        raise EmptyDataset("no training records")
    stats = fit_norm_stats([raw for raw, _ in records])
    data = [(featurize(raw, stats), label) for raw, label in records]
    model = train_classifier(data, rng_seed)
    return SoftmaxModel(
        weights=model.weights,
        biases=model.biases,
        class_labels=model.class_labels,
        norm_stats=stats,
    )
