"""Waste-category classification from smart-bin sensor records.

Two classifiers live here. The softmax regression model is the learned
sorter: z-scored sensor features, full-batch gradient descent on mean
cross-entropy, max-subtraction softmax at prediction time. The rule
baseline sorts on the weight reading alone with fixed thresholds, standing
in for manual sorting at a conveyor; rule_classify_weights applies it to
a weight column.

The descent settings are fixed: EPOCHS (500) full-batch steps at
LEARNING_RATE (0.1), with no weight penalty. Training is deterministic for
a given seed, the only setting a caller passes. The loss is checked to be
nonincreasing across epochs; a violation logs a warning naming the epoch,
since it almost always means the learning rate is too hot.

Training and evaluation take the readings as a matrix, one row per record
in FEATURES order, beside a list of plain str labels: the columns the bin
simulator draws, with no per-record dict in between. The per-record
featurize, predict, predict_record and rule_classify live in
tests/reference_classify.py, as the oracle whose bits the batch keeps.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ClassifierError,
    DimensionMismatch,
    EmptyDataset,
    NonFiniteLoss,
    SingleClassData,
    ZeroVariance,
)

log = logging.getLogger(__name__)

FEATURES = (
    "weight_kg",
    "metal_response",
    "moisture",
    "opacity",
    "rigidity",
    "volume_l",
)

LEARNING_RATE = 0.1
EPOCHS = 500


@dataclass(frozen=True)
class NormStats:
    """Per-feature z-score parameters, in FEATURES order."""

    means: tuple[float, ...]
    stds: tuple[float, ...]

    def __post_init__(self):
        if len(self.means) != len(self.stds):
            raise ValueError("means and stds must have equal length")
        for i, s in enumerate(self.stds):
            if s <= 0:
                raise ZeroVariance(f"feature {FEATURES[i]!r} has zero variance")


@dataclass(frozen=True)
class SoftmaxModel:
    weights: np.ndarray
    biases: np.ndarray
    class_labels: tuple[str, ...]
    norm_stats: NormStats

    def __post_init__(self):
        if len(self.class_labels) < 2:
            raise ValueError("need at least 2 classes")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.biases))):
            raise ValueError("model parameters must be finite")


def _rows(features, labels: Sequence[str]) -> np.ndarray:
    """features as a C-contiguous float matrix of one FEATURES row per label."""
    mat = np.ascontiguousarray(features, dtype=float)
    if mat.ndim != 2 or mat.shape[1] != len(FEATURES) or len(mat) != len(labels):
        raise DimensionMismatch(
            f"feature matrix {mat.shape} vs {len(labels)} labels of "
            f"{len(FEATURES)} features"
        )
    return mat


def _norm_stats(mat: np.ndarray) -> NormStats:
    # Readings near the float limit overflow these sums; the statistic that
    # comes out infinite or NaN is named here, not met as a diverged loss.
    with np.errstate(over="ignore", invalid="ignore"):
        means = mat.mean(axis=0)
        stds = mat.std(axis=0)
    for what, values in (("mean", means), ("standard deviation", stds)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ClassifierError(
                f"feature {FEATURES[bad[0]]!r} has a non-finite {what} ({values[bad[0]]})"
            )
    return NormStats(means=tuple(float(m) for m in means), stds=tuple(float(s) for s in stds))


def initial_weights(rng_seed: int, n_classes: int, n_features: int) -> np.ndarray:
    """Seeded small-Gaussian starting point for gradient descent."""
    rng = np.random.default_rng(rng_seed)
    return 0.01 * rng.standard_normal((n_classes, n_features))


def _loss_and_grad(
    weights: np.ndarray,
    biases: np.ndarray,
    x: np.ndarray,
    y_idx: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy with its analytic gradient."""
    n, k = x.shape[0], weights.shape[0]
    return _class_major_step(
        weights, biases, x, np.ascontiguousarray(x.T), np.arange(n) * k + y_idx
    )


def _class_major_step(
    weights: np.ndarray,
    biases: np.ndarray,
    x: np.ndarray,
    xt: np.ndarray,
    picks: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """_loss_and_grad with its softmax over (classes, samples) arrays.

    xt is x transposed and contiguous; picks are the flat indices of each
    sample's true class in an (n, classes) array. The max and sum over the
    classes then run along contiguous rows instead of short columns, and
    every value keeps the bits of the sample-major computation: W @ xt is
    (x @ W.T).T, and a fold over the class rows is numpy's sum over a short
    contiguous axis. The probabilities are divided into an (n, classes)
    buffer, so grad_w is the sample-major expression itself: BLAS may sum
    delta.T @ x over the samples in another order when delta comes in
    another layout.
    """
    n = xt.shape[1]
    logits = weights @ xt
    logits += biases[:, None]
    logits -= logits.max(axis=0)
    np.exp(logits, out=logits)
    delta = np.empty((n, len(biases)))
    np.divide(logits, logits.sum(axis=0), out=delta.T)
    flat = delta.reshape(-1)
    picked = flat[picks]
    flat[picks] = picked - 1.0
    eps = 1e-300
    picked += eps
    loss = -np.mean(np.log(picked, out=picked))

    grad_w = delta.T @ x / n
    # The bits of delta.mean(axis=0), which divides the same sum by n:
    # einsum adds the rows in the same order, a whole row at a time, where
    # mean's reduce runs one classes-long inner loop per row (a third of an
    # epoch at 8,500 samples).
    grad_b = np.einsum("ij->j", delta) / n
    return float(loss), grad_w, grad_b


def _class_index(labels: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """Sorted distinct labels and each label's index among them."""
    classes = tuple(sorted(set(labels)))
    if len(classes) < 2:
        raise SingleClassData(f"need >= 2 classes, got {classes}")
    index = {lb: i for i, lb in enumerate(classes)}
    return classes, np.array([index[lb] for lb in labels], dtype=int)


def _descend(
    x: np.ndarray, y_idx: np.ndarray, n_classes: int, rng_seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Full-batch gradient descent from seeded weights and zero biases."""
    n, n_features = x.shape
    weights = initial_weights(rng_seed, n_classes, n_features)
    biases = np.zeros(n_classes)
    xt = np.ascontiguousarray(x.T)
    picks = np.arange(n) * n_classes + y_idx

    prev_loss = np.inf
    for epoch in range(EPOCHS):
        loss, grad_w, grad_b = _class_major_step(weights, biases, x, xt, picks)
        if not np.isfinite(loss):
            raise NonFiniteLoss(f"loss diverged at epoch {epoch}; lower the learning rate")
        if loss > prev_loss + 1e-12:
            log.warning(
                "loss rose at epoch %d (%.6g -> %.6g); learning rate may be too large",
                epoch, prev_loss, loss,
            )
        prev_loss = loss
        weights = weights - LEARNING_RATE * grad_w
        biases = biases - LEARNING_RATE * grad_b

    if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(biases))):
        raise NonFiniteLoss("parameters diverged; lower the learning rate")
    return weights, biases


def train_on_records(
    features: np.ndarray, labels: Sequence[str], rng_seed: int
) -> SoftmaxModel:
    """Fit norm stats on the raw readings, z-score them, train, bind the stats.

    features holds one row of readings per record in FEATURES order, and
    labels each record's category. The z-scores are the reference
    featurize's arithmetic on the whole matrix.
    """
    mat = _rows(features, labels)
    if not len(mat):
        raise EmptyDataset("no training records")
    stats = _norm_stats(mat)
    classes, y_idx = _class_index(labels)
    x = (mat - np.array(stats.means)) / np.array(stats.stds)
    weights, biases = _descend(x, y_idx, len(classes), rng_seed)
    return SoftmaxModel(
        weights=weights, biases=biases, class_labels=classes, norm_stats=stats
    )


def _predict_records(model: SoftmaxModel, mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The class index and the softmax probabilities of each row of a
    checked feature matrix; ties resolve to the lowest index.

    Every bit is that of predict_record, the per-record oracle in
    tests/reference_classify.py. The z-scores are its featurize's
    arithmetic on the whole matrix, and matmul of W with a stack of
    (features, 1) columns runs one BLAS gemv per record, the kernel its
    predict's W @ x calls. A single Z @ W.T would be a gemm, which rounds
    the logits differently (1,389 of the 1,500 rows of the waste fixture's
    evaluation split, by up to 1.8e-15), and the accuracy goes into
    metrics.json, where a near-tie would then move a pinned digest.
    """
    stats = model.norm_stats
    # checked here: numpy would broadcast a one-entry stats vector over
    # every feature, where a per-record z-score stops at the missing entry
    if model.weights.shape[1] != len(FEATURES) or len(stats.means) != len(FEATURES):
        raise DimensionMismatch(
            f"{len(FEATURES)} features vs model input {model.weights.shape[1]} "
            f"and {len(stats.means)} norm stats"
        )
    z = (mat - np.array(stats.means)) / np.array(stats.stds)
    logits = np.matmul(model.weights, z[:, :, None])[:, :, 0] + model.biases
    logits -= logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    probs = exp / exp.sum(axis=1, keepdims=True)
    return np.argmax(probs, axis=1), probs


def evaluate_accuracy_records(
    model: SoftmaxModel, features: np.ndarray, labels: Sequence[str]
) -> float:
    """The share of rows of features whose predicted category is their label."""
    mat = _rows(features, labels)
    if not len(mat):
        raise EmptyDataset("no evaluation records")
    predicted, _ = _predict_records(model, mat)
    names = model.class_labels
    correct = sum(1 for i, label in zip(predicted.tolist(), labels) if names[i] == label)
    return correct / len(mat)


# Weight bands for the rule baseline, in kg. Items lighter than the first
# bound sort as plastic, then metal, then glass; everything heavier is
# called organic.
RULE_WEIGHT_BANDS = ((0.55, "plastic"), (0.95, "metal"), (1.35, "glass"))
RULE_FALLBACK = "organic"


def rule_classify_weights(weights: Sequence[float] | np.ndarray) -> list[str]:
    """The rule baseline's category of each weight, in order.

    A weight sorts into the first band whose bound is above it; a weight
    above every bound, or NaN, sorts as RULE_FALLBACK.
    """
    bounds, names = zip(*RULE_WEIGHT_BANDS)
    names += (RULE_FALLBACK,)
    band = np.searchsorted(bounds, weights, side="right")
    return [names[k] for k in band.tolist()]


def model_to_dict(model: SoftmaxModel, version: int = 1) -> dict:
    return {
        "version": version,
        "class_labels": list(model.class_labels),
        "weights": [[float(v) for v in row] for row in model.weights],
        "biases": [float(v) for v in model.biases],
        "norm_means": [float(v) for v in model.norm_stats.means],
        "norm_stds": [float(v) for v in model.norm_stats.stds],
    }


def model_from_dict(doc: Mapping) -> SoftmaxModel:
    return SoftmaxModel(
        weights=np.array(doc["weights"], dtype=float),
        biases=np.array(doc["biases"], dtype=float),
        class_labels=tuple(doc["class_labels"]),
        norm_stats=NormStats(
            means=tuple(doc["norm_means"]), stds=tuple(doc["norm_stds"])
        ),
    )
