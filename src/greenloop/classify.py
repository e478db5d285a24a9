"""Waste-category classification from smart-bin sensor records.

Two classifiers live here. The softmax regression model is the learned
sorter: z-scored sensor features, full-batch gradient descent on mean
cross-entropy with an l2 weight penalty, max-subtraction softmax at
prediction time. The rule baseline sorts on the weight reading alone with
fixed thresholds, standing in for manual sorting at a conveyor.

Training is deterministic for a given seed. The loss is checked to be
nonincreasing across epochs; a violation logs a warning naming the epoch,
since it almost always means the learning rate is too hot.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyDataset,
    MissingFeature,
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

WASTE_CATEGORIES = ("glass", "metal", "organic", "plastic")


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
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 500
    l2_penalty: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.l2_penalty < 0:
            raise ValueError("l2_penalty must be >= 0")


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


def fit_norm_stats(records: Sequence[Mapping[str, float]]) -> NormStats:
    """Means and standard deviations of the raw sensor features."""
    if not records:
        raise EmptyDataset("no records to fit normalization stats")
    mat = np.array([[_feature(r, f) for f in FEATURES] for r in records], dtype=float)
    means = mat.mean(axis=0)
    stds = mat.std(axis=0)
    return NormStats(means=tuple(float(m) for m in means), stds=tuple(float(s) for s in stds))


def _feature(raw: Mapping[str, float], token: str) -> float:
    try:
        return float(raw[token])
    except KeyError:
        raise MissingFeature(f"sensor record lacks feature {token!r}") from None


def featurize(raw: Mapping[str, float], stats: NormStats) -> np.ndarray:
    """z-score the raw record in FEATURES order."""
    out = np.empty(len(FEATURES))
    for i, token in enumerate(FEATURES):
        out[i] = (_feature(raw, token) - stats.means[i]) / stats.stds[i]
    return out


def initial_weights(cfg: TrainConfig, n_classes: int, n_features: int) -> np.ndarray:
    """Seeded small-Gaussian starting point for gradient descent."""
    rng = np.random.default_rng(cfg.rng_seed)
    return 0.01 * rng.standard_normal((n_classes, n_features))


def _loss_and_grad(
    weights: np.ndarray,
    biases: np.ndarray,
    x: np.ndarray,
    y_idx: np.ndarray,
    l2_penalty: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy + l2*||W||^2 with its analytic gradient."""
    n = x.shape[0]
    logits = x @ weights.T + biases
    logits -= logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    probs = exp / exp.sum(axis=1, keepdims=True)
    eps = 1e-300
    loss = -np.mean(np.log(probs[np.arange(n), y_idx] + eps))
    # Diverging weights overflow to inf here; the caller's isfinite check
    # turns that into NonFiniteLoss, so the overflow warning adds nothing.
    with np.errstate(over="ignore"):
        loss += l2_penalty * float(np.sum(weights * weights))

    delta = probs
    delta[np.arange(n), y_idx] -= 1.0
    grad_w = delta.T @ x / n + 2.0 * l2_penalty * weights
    grad_b = delta.mean(axis=0)
    return float(loss), grad_w, grad_b


def train_classifier(
    data: Sequence[tuple[np.ndarray, str]],
    cfg: TrainConfig,
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
        weights = initial_weights(cfg, len(labels), n_features)
    else:
        weights = np.array(init_weights, dtype=float)
        if weights.shape != (len(labels), n_features):
            raise DimensionMismatch(
                f"init weights {weights.shape} vs expected {(len(labels), n_features)}"
            )
    biases = np.zeros(len(labels))

    prev_loss = np.inf
    for epoch in range(cfg.epochs):
        loss, grad_w, grad_b = _loss_and_grad(weights, biases, x, y_idx, cfg.l2_penalty)
        if not np.isfinite(loss):
            raise NonFiniteLoss(f"loss diverged at epoch {epoch}; lower the learning rate")
        if loss > prev_loss + 1e-12:
            log.warning(
                "loss rose at epoch %d (%.6g -> %.6g); learning rate may be too large",
                epoch, prev_loss, loss,
            )
        prev_loss = loss
        weights = weights - cfg.learning_rate * grad_w
        biases = biases - cfg.learning_rate * grad_b

    if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(biases))):
        raise NonFiniteLoss("parameters diverged; lower the learning rate")

    identity = NormStats(means=(0.0,) * n_features, stds=(1.0,) * n_features)
    return SoftmaxModel(
        weights=weights, biases=biases, class_labels=labels, norm_stats=identity
    )


def train_on_records(
    records: Sequence[tuple[Mapping[str, float], str]],
    cfg: TrainConfig,
) -> SoftmaxModel:
    """Fit norm stats on raw records, featurize, train, bind the stats."""
    if not records:
        raise EmptyDataset("no training records")
    stats = fit_norm_stats([raw for raw, _ in records])
    data = [(featurize(raw, stats), label) for raw, label in records]
    model = train_classifier(data, cfg)
    return SoftmaxModel(
        weights=model.weights,
        biases=model.biases,
        class_labels=model.class_labels,
        norm_stats=stats,
    )


def predict(model: SoftmaxModel, x: np.ndarray) -> tuple[str, np.ndarray]:
    """Label and softmax probabilities; ties resolve to the lowest index."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.weights.shape[1],):
        raise DimensionMismatch(
            f"feature vector {x.shape} vs model input {(model.weights.shape[1],)}"
        )
    logits = model.weights @ x + model.biases
    logits = logits - logits.max()
    exp = np.exp(logits)
    probs = exp / exp.sum()
    return model.class_labels[int(np.argmax(probs))], probs


def predict_record(model: SoftmaxModel, raw: Mapping[str, float]) -> tuple[str, np.ndarray]:
    return predict(model, featurize(raw, model.norm_stats))


def evaluate_accuracy(
    model: SoftmaxModel, data: Sequence[tuple[np.ndarray, str]]
) -> float:
    if not data:
        raise EmptyDataset("no evaluation data")
    correct = sum(1 for vec, label in data if predict(model, vec)[0] == label)
    return correct / len(data)


def evaluate_accuracy_records(
    model: SoftmaxModel, records: Sequence[tuple[Mapping[str, float], str]]
) -> float:
    if not records:
        raise EmptyDataset("no evaluation records")
    correct = sum(
        1 for raw, label in records if predict_record(model, raw)[0] == label
    )
    return correct / len(records)


# Weight bands for the rule baseline, in kg. Items lighter than the first
# bound sort as plastic, then metal, then glass; everything heavier is
# called organic.
RULE_WEIGHT_BANDS = ((0.55, "plastic"), (0.95, "metal"), (1.35, "glass"))
RULE_FALLBACK = "organic"


def rule_classify(raw: Mapping[str, float]) -> str:
    """Fixed weight-threshold sorter used as the no-learning baseline."""
    w = _feature(raw, "weight_kg")
    for bound, label in RULE_WEIGHT_BANDS:
        if w < bound:
            return label
    return RULE_FALLBACK


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
