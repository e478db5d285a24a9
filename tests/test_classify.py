"""Classifier tests: worked softmax examples, gradient checking, properties,
and bit-identity with the sample-major reference trainer in
reference_classify."""

import dataclasses
import json
import logging
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_classify as reference
from greenloop import classify, pipeline
from greenloop.classify import (
    FEATURES,
    NormStats,
    SoftmaxModel,
    evaluate_accuracy_records,
    featurize,
    model_from_dict,
    model_to_dict,
    predict,
    predict_record,
    RULE_FALLBACK,
    RULE_WEIGHT_BANDS,
    rule_classify,
    rule_classify_weights,
    train_on_records,
    _loss_and_grad,
    _predict_records,
)
from greenloop.errors import (
    ClassifierError,
    DimensionMismatch,
    GreenloopError,
    EmptyDataset,
    MissingFeature,
    NonFiniteLoss,
    SingleClassData,
    ZeroVariance,
)
from greenloop.scenario import parse_scenario
from greenloop.twin import simulate_bins


def raw_record(**overrides):
    base = {f: 1.0 for f in FEATURES}
    base.update(overrides)
    return base


def identity_stats(n=len(FEATURES)):
    return NormStats(means=(0.0,) * n, stds=(1.0,) * n)


def columns(data):
    """(vector, label) pairs as a feature matrix and its labels."""
    return np.array([vec for vec, _ in data], dtype=float), [label for _, label in data]


def two_labels(n):
    """Labels a, b, a, ... so that training reaches the stats."""
    return ["ab"[i % 2] for i in range(n)]


def constants(learning_rate=classify.LEARNING_RATE, epochs=classify.EPOCHS):
    """classify's descent constants patched for the duration of a with block."""
    return mock.patch.multiple(classify, LEARNING_RATE=learning_rate, EPOCHS=epochs)


class TestFeaturize:
    def test_record_at_means_is_zero_vector(self):
        stats = NormStats(means=(1.0,) * 6, stds=(2.0,) * 6)
        vec = featurize(raw_record(), stats)
        assert np.allclose(vec, 0.0)

    def test_zscore_arithmetic(self):
        stats = NormStats(means=(0.0,) * 6, stds=(2.0,) * 6)
        vec = featurize(raw_record(weight_kg=4.0), stats)
        assert vec[FEATURES.index("weight_kg")] == pytest.approx(2.0)

    def test_round_trip_recovers_raw(self):
        stats = NormStats(means=(0.3, 1.1, -0.2, 0.9, 2.0, 5.0), stds=(0.5, 2.0, 1.5, 0.1, 3.0, 4.0))
        raw = raw_record(weight_kg=0.7, metal_response=3.3, moisture=0.4,
                         opacity=0.6, rigidity=1.9, volume_l=2.5)
        vec = featurize(raw, stats)
        back = {f: vec[i] * stats.stds[i] + stats.means[i] for i, f in enumerate(FEATURES)}
        for f in FEATURES:
            assert back[f] == pytest.approx(raw[f], abs=1e-12)

    def test_missing_feature_names_token(self):
        raw = {f: 1.0 for f in FEATURES if f != "opacity"}
        with pytest.raises(MissingFeature, match="opacity"):
            featurize(raw, identity_stats())

    @pytest.mark.parametrize("shape, n_labels", [
        pytest.param((4, 5), 4, id="narrow"),
        pytest.param((4, 7), 4, id="wide"),
        pytest.param((6,), 6, id="flat"),
        pytest.param((1, 4, 6), 1, id="stacked"),
        pytest.param((4, 6), 3, id="few-labels"),
        pytest.param((4, 6), 5, id="many-labels"),
    ])
    def test_feature_matrix_raises_the_per_value_error(self, shape, n_labels):
        """Training and evaluation take one row of len(FEATURES) readings
        per label, and refuse any other shape before reading a value."""
        features = np.arange(np.prod(shape), dtype=float).reshape(shape)
        labels = two_labels(n_labels)
        with pytest.raises(DimensionMismatch, match="feature matrix"):
            train_on_records(features, labels, 0)
        model = SoftmaxModel(np.zeros((2, 6)), np.zeros(2), ("a", "b"), identity_stats())
        with pytest.raises(DimensionMismatch, match="feature matrix"):
            evaluate_accuracy_records(model, features, labels)

    def test_zero_variance_rejected_at_stats_construction(self):
        with pytest.raises(ZeroVariance):
            train_on_records(np.ones((2, len(FEATURES))), two_labels(2), 0)

    def test_training_binds_norm_stats(self):
        features = np.zeros((2, len(FEATURES)))
        features[1] = 2.0
        features[1, FEATURES.index("moisture")] = 4.0
        stats = train_on_records(features, two_labels(2), 0).norm_stats
        assert stats.means[FEATURES.index("weight_kg")] == pytest.approx(1.0)
        assert stats.stds[FEATURES.index("moisture")] == pytest.approx(2.0)


class TestPredict:
    def make_model(self, weights, biases, labels):
        return SoftmaxModel(
            weights=np.array(weights, dtype=float),
            biases=np.array(biases, dtype=float),
            class_labels=labels,
            norm_stats=NormStats(means=(0.0,) * len(weights[0]), stds=(1.0,) * len(weights[0])),
        )

    def test_zero_model_uniform_and_first_label(self):
        m = self.make_model([[0.0] * 6] * 4, [0.0] * 4, ("a", "b", "c", "d"))
        label, probs = predict(m, np.zeros(6))
        assert label == "a"
        assert np.allclose(probs, 0.25)

    def test_logit_shift_invariance(self):
        m1 = self.make_model([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.5], ("a", "b"))
        m2 = self.make_model([[1.0, 0.0], [0.0, 1.0]], [7.0, 7.5], ("a", "b"))
        x = np.array([0.3, -1.2])
        _, p1 = predict(m1, x)
        _, p2 = predict(m2, x)
        assert np.allclose(p1, p2, atol=1e-12)

    def test_closed_form_two_class(self):
        # logits (ln 3, 0) -> probabilities (0.75, 0.25)
        m = self.make_model([[0.0], [0.0]], [np.log(3.0), 0.0], ("a", "b"))
        label, probs = predict(m, np.zeros(1))
        assert label == "a"
        assert probs[0] == pytest.approx(0.75)
        assert probs[1] == pytest.approx(0.25)

    def test_extreme_logits_do_not_overflow(self):
        m = self.make_model([[1000.0], [-1000.0]], [0.0, 0.0], ("a", "b"))
        label, probs = predict(m, np.array([5.0]))
        assert label == "a"
        assert np.isfinite(probs).all()
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        m = self.make_model([[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0], ("a", "b"))
        with pytest.raises(DimensionMismatch):
            predict(m, np.zeros(3))


class TestTraining:
    def separable_records(self, n=40):
        # weight_kg cleanly separates the two classes; the rest is noise
        rng = np.random.default_rng(7)
        data = []
        for i in range(n):
            x = rng.normal(size=6) * 0.1
            x[0] = 1.0 if i % 2 == 0 else -1.0
            data.append((x, "pos" if i % 2 == 0 else "neg"))
        return columns(data)

    def test_separable_data_reaches_full_accuracy(self):
        x, labels = self.separable_records()
        model = train_on_records(x, labels, 0)
        assert evaluate_accuracy_records(model, x, labels) == 1.0

    def test_duplicated_data_trains_identical_model(self):
        # mean-loss convention: doubling the batch changes only summation order
        x, labels = self.separable_records(20)
        m1 = train_on_records(x, labels, 3)
        m2 = train_on_records(np.concatenate((x, x)), labels + labels, 3)
        assert np.allclose(m1.weights, m2.weights, rtol=1e-12, atol=1e-12)
        assert np.allclose(m1.biases, m2.biases, rtol=1e-12, atol=1e-12)

    def test_same_seed_bit_identical(self):
        x, labels = self.separable_records(30)
        m1 = train_on_records(x, labels, 9)
        m2 = train_on_records(x, labels, 9)
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.biases, m2.biases)

    def test_single_class_rejected(self):
        x, _ = self.separable_records(5)
        with pytest.raises(SingleClassData):
            train_on_records(x, ["only"] * len(x), 0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyDataset):
            train_on_records(np.empty((0, len(FEATURES))), [], 0)

    def test_divergence_raises(self):
        # The cross-entropy gradient is bounded, so only a rate that
        # overflows the step itself diverges: an infinite one makes the
        # weights inf and nan, and numpy's invalid-value warning would be
        # an error here before the check is reached.
        rng = np.random.default_rng(0)
        data = [(rng.normal(size=6) * 50, "a" if i % 2 else "b") for i in range(20)]
        with constants(learning_rate=float("inf")), np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteLoss):
                train_on_records(*columns(data), 0)

    @pytest.mark.parametrize("value, statistic", [
        (float("inf"), "mean (inf)"),
        (-1e308, "mean (-inf)"),
        (1e200, "standard deviation (inf)"),  # finite mean, squares overflow
    ])
    def test_non_finite_statistic_names_the_feature(self, value, statistic):
        features = np.ones((4, len(FEATURES)))
        features[:, FEATURES.index("opacity")] = [0.0, value, value, 3.0]
        with pytest.raises(ClassifierError) as caught:
            train_on_records(features, two_labels(4), 0)
        assert str(caught.value) == f"feature 'opacity' has a non-finite {statistic}"

    def test_rising_loss_logs_warning(self, caplog):
        rng = np.random.default_rng(1)
        data = [(rng.normal(size=6) * 30, "a" if i % 2 else "b") for i in range(16)]
        with caplog.at_level(logging.WARNING, logger="greenloop.classify"):
            try:
                with constants(learning_rate=500.0, epochs=60):
                    train_on_records(*columns(data), 0)
            except NonFiniteLoss:
                pass
        assert any("loss rose" in r.message for r in caplog.records)

    def test_loss_nonincreasing_at_small_rate(self, caplog):
        x, labels = self.separable_records(30)
        with caplog.at_level(logging.WARNING, logger="greenloop.classify"):
            with constants(learning_rate=0.01, epochs=300):
                train_on_records(x, labels, 0)
        assert not [r for r in caplog.records if "loss rose" in r.message]


class TestGradientCheck:
    def numeric_grad(self, weights, biases, x, y_idx, h=1e-6):
        gw = np.zeros_like(weights)
        gb = np.zeros_like(biases)
        for idx in np.ndindex(weights.shape):
            wp, wm = weights.copy(), weights.copy()
            wp[idx] += h
            wm[idx] -= h
            lp, _, _ = _loss_and_grad(wp, biases, x, y_idx)
            lm, _, _ = _loss_and_grad(wm, biases, x, y_idx)
            gw[idx] = (lp - lm) / (2 * h)
        for i in range(len(biases)):
            bp, bm = biases.copy(), biases.copy()
            bp[i] += h
            bm[i] -= h
            lp, _, _ = _loss_and_grad(weights, bp, x, y_idx)
            lm, _, _ = _loss_and_grad(weights, bm, x, y_idx)
            gb[i] = (lp - lm) / (2 * h)
        return gw, gb

    def test_analytic_gradient_matches_central_differences(self):
        """Twenty-five random (model, batch) pairs within 1e-5 relative."""
        rng = np.random.default_rng(20240917)
        for trial in range(25):
            n_classes = int(rng.integers(2, 5))
            n_features = int(rng.integers(2, 7))
            n_samples = int(rng.integers(3, 12))
            weights = rng.normal(size=(n_classes, n_features))
            biases = rng.normal(size=n_classes)
            x = rng.normal(size=(n_samples, n_features))
            y = rng.integers(0, n_classes, size=n_samples)
            _, gw, gb = _loss_and_grad(weights, biases, x, y)
            nw, nb = self.numeric_grad(weights, biases, x, y)
            scale_w = max(1e-8, float(np.abs(nw).max()))
            scale_b = max(1e-8, float(np.abs(nb).max()))
            assert np.abs(gw - nw).max() / scale_w < 1e-5
            assert np.abs(gb - nb).max() / scale_b < 1e-5


class TestEvaluate:
    def test_constant_model_on_single_label_data(self):
        m = SoftmaxModel(
            weights=np.zeros((2, 6)),
            biases=np.array([5.0, 0.0]),
            class_labels=("always", "never"),
            norm_stats=identity_stats(),
        )
        data = [(np.zeros(6), "always")] * 8
        assert evaluate_accuracy_records(m, *columns(data)) == 1.0

    def test_three_of_four_correct(self):
        m = SoftmaxModel(
            weights=np.array([[1.0] + [0.0] * 5, [-1.0] + [0.0] * 5]),
            biases=np.zeros(2),
            class_labels=("hi", "lo"),
            norm_stats=identity_stats(),
        )
        ex = lambda v: np.array([v] + [0.0] * 5)
        data = [(ex(1.0), "hi"), (ex(2.0), "hi"), (ex(-1.0), "lo"), (ex(3.0), "lo")]
        assert evaluate_accuracy_records(m, *columns(data)) == 0.75

    def test_empty_rejected(self):
        m = SoftmaxModel(
            weights=np.zeros((2, 6)), biases=np.zeros(2),
            class_labels=("a", "b"), norm_stats=identity_stats(),
        )
        with pytest.raises(EmptyDataset):
            evaluate_accuracy_records(m, np.empty((0, len(FEATURES))), [])

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1), classes=st.integers(2, 5),
        scale=st.integers(-3, 3), fortran=st.booleans(), n=st.integers(1, 300),
    )
    def test_batch_has_the_bits_of_predict_record(self, seed, classes, scale, fortran, n):
        rng = np.random.default_rng(seed)
        weights = rng.standard_normal((classes, len(FEATURES))) * 10.0**scale
        model = SoftmaxModel(
            weights=np.asfortranarray(weights) if fortran else weights,
            biases=rng.standard_normal(classes) * 10.0**scale,
            class_labels=tuple("abcde"[:classes]),
            norm_stats=NormStats(means=tuple(rng.standard_normal(len(FEATURES))),
                                 stds=tuple(rng.uniform(0.1, 3.0, len(FEATURES)))),
        )
        x = 3.0 * rng.standard_normal((n, len(FEATURES)))
        raws = [dict(zip(FEATURES, row)) for row in x.tolist()]
        predicted, probs = _predict_records(model, x)
        expected = [predict_record(model, raw) for raw in raws]
        assert [model.class_labels[i] for i in predicted] == [lb for lb, _ in expected]
        assert [p.tobytes() for p in probs] == [p.tobytes() for _, p in expected]
        labels = rng.choice(list("abcde"), n).tolist()
        correct = sum(predict_record(model, raw)[0] == lb for raw, lb in zip(raws, labels))
        assert evaluate_accuracy_records(model, x, labels) == correct / n

    @pytest.mark.parametrize("width, stats", [(3, 6), (6, 1), (6, 7)])
    def test_batch_rejects_a_model_of_another_width(self, width, stats):
        m = SoftmaxModel(weights=np.zeros((2, width)), biases=np.zeros(2),
                         class_labels=("a", "b"), norm_stats=identity_stats(stats))
        with pytest.raises(DimensionMismatch, match="6 features vs model input"):
            evaluate_accuracy_records(m, np.ones((1, len(FEATURES))), ["a"])


class TestRuleBaseline:
    def test_weight_bands(self):
        assert rule_classify(raw_record(weight_kg=0.2)) == "plastic"
        assert rule_classify(raw_record(weight_kg=0.7)) == "metal"
        assert rule_classify(raw_record(weight_kg=1.1)) == "glass"
        assert rule_classify(raw_record(weight_kg=2.0)) == "organic"

    def test_only_weight_matters(self):
        a = raw_record(weight_kg=0.7, moisture=0.9, opacity=0.1)
        b = raw_record(weight_kg=0.7, moisture=0.1, opacity=0.9)
        assert rule_classify(a) == rule_classify(b)

    def test_weight_column_sorts_as_a_first_band_above_scan(self):
        def scan(w):
            for bound, label in RULE_WEIGHT_BANDS:
                if w < bound:
                    return label
            return RULE_FALLBACK

        weights = [-np.inf, -0.0, 0.0, 3.0, np.inf, np.nan] + [
            w for b, _ in RULE_WEIGHT_BANDS
            for w in (np.nextafter(b, -np.inf), b, np.nextafter(b, np.inf))
        ]
        want = [scan(w) for w in weights]
        assert rule_classify_weights(np.array(weights)) == want
        assert [rule_classify(raw_record(weight_kg=w)) for w in weights] == want


class TestProperties:
    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_probabilities_on_simplex(self, seed):
        rng = np.random.default_rng(seed)
        n_classes = int(rng.integers(2, 6))
        n_features = int(rng.integers(1, 7))
        m = SoftmaxModel(
            weights=rng.normal(size=(n_classes, n_features)) * 10,
            biases=rng.normal(size=n_classes) * 10,
            class_labels=tuple(f"c{i}" for i in range(n_classes)),
            norm_stats=NormStats(means=(0.0,) * n_features, stds=(1.0,) * n_features),
        )
        _, probs = predict(m, rng.normal(size=n_features) * 5)
        assert (probs >= 0).all()
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_label_permutation_equivariance(self, monkeypatch):
        rng = np.random.default_rng(4)
        data = []
        for i in range(60):
            x = rng.normal(size=6)
            label = ("aa", "bb", "cc")[i % 3]
            x[0] += {"aa": -2.0, "bb": 0.0, "cc": 2.0}[label]
            data.append((x, label))
        x, labels = columns(data)
        monkeypatch.setattr(classify, "EPOCHS", 200)
        base = train_on_records(x, labels, 5)

        rename = {"aa": "zz", "bb": "aa", "cc": "mm"}  # sorted: aa, mm, zz
        renamed = [rename[lb] for lb in labels]
        seeded = classify.initial_weights
        # sorted renamed labels (aa, mm, zz) correspond to original (bb, cc, aa)
        monkeypatch.setattr(
            classify, "initial_weights", lambda *a: seeded(*a)[[1, 2, 0], :]
        )
        permuted = train_on_records(x, renamed, 5)

        for raw in [dict(zip(FEATURES, row)) for row in x[:10].tolist()]:
            lb_base, p_base = predict_record(base, raw)
            lb_perm, p_perm = predict_record(permuted, raw)
            assert lb_perm == rename[lb_base]
            order = [permuted.class_labels.index(rename[lb]) for lb in base.class_labels]
            assert np.allclose(p_base, p_perm[order], atol=1e-10)


class TestPersistence:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        data = [(rng.normal(size=6), "a" if i % 2 else "b") for i in range(30)]
        with constants(epochs=50):
            model = train_on_records(*columns(data), 0)
        doc = model_to_dict(model)
        assert doc["version"] == 1
        back = model_from_dict(doc)
        assert np.allclose(back.weights, model.weights)
        assert back.class_labels == model.class_labels
        assert back.norm_stats == model.norm_stats
        raw = dict(zip(FEATURES, rng.normal(size=6)))
        assert predict_record(back, raw)[0] == predict_record(model, raw)[0]


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.lines: list[str] = []

    def emit(self, record):
        self.lines.append(record.getMessage())


def traced(module, step_name, train, *args):
    """What a trainer returns, its per-epoch losses and its warnings.

    step_name is the module's per-epoch loss-and-gradient function, wrapped
    to record each loss. An error raised is returned in place of the model.
    """
    losses: list[float] = []
    step = getattr(module, step_name)

    def recording(*a):
        out = step(*a)
        losses.append(out[0])
        return out

    messages = _Messages()
    logger = logging.getLogger(module.__name__)
    logger.addHandler(messages)
    try:
        with mock.patch.object(module, step_name, recording):
            model = train(*args)
        result = (model.weights.tobytes(), model.biases.tobytes(),
                  model.class_labels, model.norm_stats)
    except GreenloopError as exc:
        result = (type(exc).__name__, str(exc))
    finally:
        logger.removeHandler(messages)
    return result, np.array(losses).tobytes(), messages.lines


@st.composite
def training_sets(draw, n_features=st.integers(1, 7)):
    """(x, labels, constants' arguments, seed): 2-5 classes, 1-300 samples
    and <= 30 epochs."""
    n_classes = draw(st.integers(2, 5))
    n_features = draw(n_features)
    n_samples = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.1, 1.0, 10.0]))
    x = rng.normal(size=(n_samples, n_features)) * scale
    y = rng.integers(0, n_classes, size=n_samples)
    y[:2] = [0, 1][:n_samples]  # two classes whenever there are two samples
    labels = [f"c{i}" for i in y]
    descent = {
        "learning_rate": draw(st.sampled_from([0.05, 0.5, 5.0])),
        "epochs": draw(st.integers(1, 30)),
    }
    return x, labels, descent, draw(st.integers(0, 1000))


def descend(x, labels, seed):
    """classify._descend on already normalized features, as a model."""
    classes, y_idx = classify._class_index(labels)
    weights, biases = classify._descend(x, y_idx, len(classes), seed)
    return SoftmaxModel(weights, biases, classes, identity_stats(x.shape[1]))


class TestReferenceTrainer:
    """The class-major trainer keeps every bit of the sample-major one."""

    @settings(deadline=None, max_examples=120)
    @given(problem=training_sets())
    def test_descend_matches_reference(self, problem):
        x, labels, descent, seed = problem
        with constants(**descent):
            got = traced(classify, "_class_major_step", descend, x, labels, seed)
            want = traced(
                reference, "_loss_and_grad", reference.train_classifier,
                list(zip(x, labels)), seed,
            )
        assert got == want

    @settings(deadline=None, max_examples=40)
    @given(problem=training_sets(n_features=st.just(len(FEATURES))))
    def test_train_on_records_matches_reference(self, problem):
        x, labels, descent, seed = problem
        records = [(dict(zip(FEATURES, row.tolist())), lb) for row, lb in zip(x, labels)]
        with constants(**descent):
            got = traced(classify, "_class_major_step", train_on_records, x, labels, seed)
            want = traced(
                reference, "_loss_and_grad", reference.train_on_records, records, seed
            )
        assert got == want

    @settings(deadline=None, max_examples=60)
    @given(problem=training_sets())
    def test_loss_and_grad_matches_reference(self, problem):
        x, labels, _, seed = problem
        rng = np.random.default_rng(seed)
        y_idx = rng.integers(0, 5, size=len(labels))
        weights = rng.normal(size=(5, x.shape[1]))
        biases = rng.normal(size=5)
        got = _loss_and_grad(weights, biases, x, y_idx)
        want = reference._loss_and_grad(weights, biases, x, y_idx)
        assert got[0] == want[0]
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2].tobytes() == want[2].tobytes()

    # The drawn problems above hold at most 1,500 delta entries, below
    # numpy's 8,192-element iterator buffer. The waste fixture's run trains
    # on 3,500 records and its feedback round on 8,500, four classes each.
    @pytest.mark.parametrize("n", [3500, 8500])
    def test_loss_and_grad_matches_reference_at_fixture_scale(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, len(FEATURES)))
        y_idx = rng.integers(0, 4, size=n)
        weights = rng.normal(size=(4, len(FEATURES)))
        biases = rng.normal(size=4)
        got = _loss_and_grad(weights, biases, x, y_idx)
        want = reference._loss_and_grad(weights, biases, x, y_idx)
        assert got[0] == want[0]
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2].tobytes() == want[2].tobytes()

    def test_feedback_round_retrain_matches_reference(self):
        # the rows pipeline._retrain trains on: the prior training split
        # plus a fresh batch drawn at the next seed
        text = (resources.files("greenloop") / "fixtures" / "waste_framework.json").read_text()
        s = parse_scenario(json.loads(text))
        (train_x, train_y), _ = pipeline._split(simulate_bins(s, pipeline.BIN_HORIZON))
        fresh = dataclasses.replace(s, rng_seed=s.rng_seed + 1)
        fresh_x, fresh_y = pipeline._examples(
            simulate_bins(fresh, pipeline.BIN_HORIZON), slice(None)
        )
        x, labels = np.concatenate((train_x, fresh_x)), train_y + fresh_y
        assert len(labels) == 8500
        got = traced(classify, "_class_major_step", train_on_records, x, labels, s.rng_seed)
        records = [(dict(zip(FEATURES, row)), lb) for row, lb in zip(x.tolist(), labels)]
        want = traced(
            reference, "_loss_and_grad", reference.train_on_records, records, s.rng_seed
        )
        assert got == want
        assert len(got[1]) == 8 * classify.EPOCHS
