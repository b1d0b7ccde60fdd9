"""Logistic-regression checks, centered on a finite-difference oracle.

The gradient oracle perturbs every weight coordinate both ways and
compares the central difference quotient of the loss against the
analytic gradient. Agreement within 1e-5 relative error over randomized
instances is the contract. The optimum oracle runs plain fixed-step
gradient descent to convergence, and the trained model must predict the
same probabilities. The loss takes the design matrix, whose last column
is the bias feature of ones.
"""
import io

import numpy as np
import pytest

from slanglex.errors import AnalysisError, SchemaError
from slanglex.labels import SlangClass
from slanglex.slangclass.features import (
    FeatureVocabulary,
    NgramKind,
    NgramTable,
    feature_matrix,
)
from slanglex.slangclass.logreg import (
    ClassifierModel,
    load_classifier,
    loss_and_gradient,
    predict_proba_batch,
    save_classifier,
    train_logreg,
)


def fd_gradient(weights, x, y_idx, l2, h=1e-6):
    """Central finite differences of the loss, coordinate by coordinate."""
    grad = np.zeros_like(weights)
    for i in range(weights.shape[0]):
        for j in range(weights.shape[1]):
            plus = weights.copy()
            plus[i, j] += h
            minus = weights.copy()
            minus[i, j] -= h
            loss_plus, _ = loss_and_gradient(plus, x, y_idx, l2)
            loss_minus, _ = loss_and_gradient(minus, x, y_idx, l2)
            grad[i, j] = (loss_plus - loss_minus) / (2.0 * h)
    return grad


def with_bias(x):
    """The design matrix: ``x`` with the bias column of ones appended."""
    return np.hstack([x, np.ones((len(x), 1))])


def random_instance(rng, n_classes, n_features, n_rows):
    x = rng.normal(size=(n_rows, n_features))
    y = rng.integers(0, n_classes, size=n_rows)
    w = rng.normal(scale=0.5, size=(n_classes, n_features + 1))
    return w, with_bias(x), y


class TestGradientOracle:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for trial in range(30):
            n_classes = int(rng.integers(2, 5))
            n_features = int(rng.integers(1, 6))
            n_rows = int(rng.integers(1, 8))
            l2 = float(rng.choice([0.0, 0.5, 2.0]))
            w, x, y = random_instance(rng, n_classes, n_features, n_rows)
            _, analytic = loss_and_gradient(w, x, y, l2)
            numeric = fd_gradient(w, x, y, l2)
            err = np.linalg.norm(analytic - numeric)
            scale = max(np.linalg.norm(numeric), 1e-12)
            assert err / scale < 1e-5, f"trial {trial}: rel err {err / scale}"

    def test_penalty_excludes_bias(self):
        # a pure-bias weight matrix must incur zero penalty
        w = np.zeros((2, 3))
        w[:, -1] = 5.0
        x = with_bias(np.zeros((1, 2)))
        y = np.array([0])
        loss_l2, _ = loss_and_gradient(w, x, y, l2=100.0)
        loss_free, _ = loss_and_gradient(w, x, y, l2=0.0)
        assert loss_l2 == pytest.approx(loss_free)

    def test_zero_weights_loss_is_log_k(self):
        # uniform predictions: mean NLL = log(n_classes)
        for k in (2, 3, 4):
            w = np.zeros((k, 4))
            x = with_bias(np.ones((6, 3)))
            y = np.zeros(6, dtype=np.int64)
            loss, _ = loss_and_gradient(w, x, y, l2=0.0)
            assert loss == pytest.approx(np.log(k), abs=1e-12)


def toy_dataset():
    words = ["aaaa", "aaab", "aaba", "bbbb", "bbba", "babb"]
    labels = [SlangClass.BLEND] * 3 + [SlangClass.CLIPPING] * 3
    vocab = NgramTable(words, NgramKind.CHAR, 1, 2).vocabulary(words, cap=50)
    return words, labels, vocab


class TestTraining:
    def test_separable_data_fits_exactly(self):
        words, labels, vocab = toy_dataset()
        model = train_logreg(words, labels, vocab, l2=0.01)
        for word, label in zip(words, labels):
            probs = predict_proba_batch(model, [word])[0]
            assert model.classes[int(np.argmax(probs))] is label

    def test_zero_epochs_predict_uniform(self):
        words, labels, vocab = toy_dataset()
        model = train_logreg(words, labels, vocab, max_epochs=0)
        assert (model.stop, model.iterations) == ("max_iter", 0)
        for p in predict_proba_batch(model, ["aaaa"])[0]:
            assert p == pytest.approx(0.5, abs=1e-12)

    def test_uniform_quarter_with_four_classes(self):
        words = ["aa", "ab", "ba", "bb", "aaa", "abb", "bab", "bba"]
        labels = [SlangClass.BLEND, SlangClass.CLIPPING,
                  SlangClass.ALPHABETISM, SlangClass.REDUPLICATIVE] * 2
        vocab = NgramTable(words, NgramKind.CHAR, 1, 2).vocabulary(words, cap=50)
        model = train_logreg(words, labels, vocab, max_epochs=0)
        for p in predict_proba_batch(model, ["ab"])[0]:
            assert p == pytest.approx(0.25, abs=1e-12)

    def test_training_lowers_the_loss(self):
        words, labels, vocab = toy_dataset()
        model = train_logreg(words, labels, vocab, l2=0.1)
        x = with_bias(feature_matrix(vocab, words))
        classes = model.classes
        y = np.array([classes.index(lab) for lab in labels])
        trained_loss, _ = loss_and_gradient(model.weights, x, y, 0.1)
        initial_loss, _ = loss_and_gradient(np.zeros_like(model.weights), x, y, 0.1)
        assert trained_loss < initial_loss

    def test_deterministic(self):
        words, labels, vocab = toy_dataset()
        a = train_logreg(words, labels, vocab)
        b = train_logreg(words, labels, vocab)
        assert np.array_equal(a.weights, b.weights)

    def test_survives_separable_data_without_regularization(self):
        # tol=0 cannot be met, so the fit must end cleanly at float precision
        words, labels, vocab = toy_dataset()
        model = train_logreg(words, labels, vocab, l2=1e-8, tol=0.0)
        assert model.stop in ("stalled", "max_iter")
        assert np.all(np.isfinite(model.weights))
        for word, label in zip(words, labels):
            probs = predict_proba_batch(model, [word])[0]
            assert model.classes[int(np.argmax(probs))] is label

    def test_classes_sorted_by_name(self):
        words, labels, vocab = toy_dataset()
        model = train_logreg(words, labels, vocab)
        assert model.classes == (SlangClass.BLEND, SlangClass.CLIPPING)

    def test_validation(self):
        words, labels, vocab = toy_dataset()
        with pytest.raises(AnalysisError):
            train_logreg(words[:2], labels, vocab)
        with pytest.raises(AnalysisError):
            train_logreg([], [], vocab)
        with pytest.raises(AnalysisError):
            train_logreg(words[:2], [SlangClass.BLEND] * 2, vocab)


def probabilities(weights, x):
    """Row-wise softmax of the class scores of the design matrix ``x``."""
    scores = x @ weights.T
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def gradient_descent_oracle(x, y_idx, n_classes, l2, tol=1e-9):
    """Plain gradient descent with the fixed step 1/L, L the bound
    ||x||^2 / (2n) + l2/n on the gradient's Lipschitz constant (``x`` the
    design matrix), run from zero until the gradient max-norm is at most
    ``tol``."""
    n = x.shape[0]
    lipschitz = np.linalg.norm(x, 2) ** 2 / (2 * n) + l2 / n
    weights = np.zeros((n_classes, x.shape[1]))
    for _ in range(100_000):
        _, grad = loss_and_gradient(weights, x, y_idx, l2)
        if np.max(np.abs(grad)) <= tol:
            return weights
        weights = weights - grad / lipschitz
    raise AssertionError("the gradient-descent oracle did not converge")


class TestOptimumOracle:
    def test_matches_converged_gradient_descent(self):
        rng = np.random.default_rng(11)
        for n_classes, n_rows, l2 in ((3, 18, 0.5), (4, 24, 1.0)):
            counts = rng.integers(0, 4, size=(n_rows, 5))
            # each word spells its count row; "z" is no feature
            words = ["".join(ch * int(c) for ch, c in zip("abcde", row)) + "z"
                     for row in counts]
            labels = [list(SlangClass)[i % n_classes]
                      for i in rng.permutation(n_rows)]
            vocab = FeatureVocabulary(kind=NgramKind.CHAR, n_min=1, n_max=1,
                                      features=tuple("abcde"))
            model = train_logreg(words, labels, vocab, l2=l2, tol=1e-8)
            x = with_bias(feature_matrix(vocab, words))
            assert np.array_equal(x[:, :-1], counts)
            y = np.array([model.classes.index(label) for label in labels])
            _, grad = loss_and_gradient(model.weights, x, y, l2)
            assert model.stop == "tol"
            assert np.max(np.abs(grad)) <= 1e-8
            oracle = gradient_descent_oracle(x, y, n_classes, l2)
            np.testing.assert_allclose(probabilities(model.weights, x),
                                       probabilities(oracle, x),
                                       rtol=0, atol=1e-6)


class TestPrediction:
    def test_distribution_sums_to_one(self):
        words, labels, vocab = toy_dataset()
        model = train_logreg(words, labels, vocab)
        assert predict_proba_batch(model, ["abab"])[0].sum() == pytest.approx(1.0)

    def test_fully_unknown_word_uses_bias_only(self):
        words, labels, vocab = toy_dataset()
        model = train_logreg(words, labels, vocab, max_epochs=0)
        for p in predict_proba_batch(model, ["zzzz"])[0]:
            assert p == pytest.approx(0.5, abs=1e-12)

    def test_morpheme_vocab_requires_segmenter(self):
        words, labels, _ = toy_dataset()
        morph_vocab = FeatureVocabulary(NgramKind.MORPHEME, 1, 5, ("aa", "bb"))
        with pytest.raises(AnalysisError, match="require a trained segmenter"):
            train_logreg(words, labels, morph_vocab)
        model = ClassifierModel(morph_vocab, (SlangClass.BLEND, SlangClass.CLIPPING),
                                np.zeros((2, 3)), 1.0)
        with pytest.raises(AnalysisError, match="require a trained segmenter"):
            predict_proba_batch(model, ["aaaa"], segmenter=None)


def npy_bytes(array):
    """A lone array in numpy's .npy format."""
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        words, labels, vocab = toy_dataset()
        model = train_logreg(words, labels, vocab, l2=0.3)
        path = tmp_path / "clf.npz"
        save_classifier(model, path)
        loaded = load_classifier(path)
        assert loaded.classes == model.classes
        assert loaded.regularization == pytest.approx(0.3)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.vocab.features == vocab.features
        for word in words:
            assert np.array_equal(predict_proba_batch(loaded, [word])[0],
                                  predict_proba_batch(model, [word])[0])

    def test_feature_ending_in_nul_refused_before_writing(self, tmp_path):
        # numpy string arrays drop trailing NULs: 'a\x00' would load as a
        # second 'a', so the model is refused rather than saved unloadable
        vocab = FeatureVocabulary(NgramKind.CHAR, 1, 2, ("a", "a\x00"))
        model = ClassifierModel(vocab, (SlangClass.BLEND, SlangClass.CLIPPING),
                                np.zeros((2, 3)), 1.0)
        path = tmp_path / "clf.npz"
        with pytest.raises(AnalysisError, match=r"feature 'a\\x00'"):
            save_classifier(model, path)
        assert not path.exists()

    @pytest.mark.parametrize("content", [
        b"x", b"", b"not an archive\n", b"PK\x03\x04not a zip",
        npy_bytes(np.zeros(3))])
    def test_non_archive_named(self, tmp_path, content):
        path = tmp_path / "clf.npz"
        path.write_bytes(content)
        with pytest.raises(SchemaError, match="not an npz archive") as info:
            load_classifier(path)
        assert str(path) in str(info.value)

    @pytest.mark.filterwarnings("error::ResourceWarning",
                                "error::pytest.PytestUnraisableExceptionWarning")
    def test_corrupt_archive_leaves_no_file_open(self, tmp_path):
        path = tmp_path / "clf.npz"
        path.write_bytes(b"PK\x03\x04not a zip")
        with pytest.raises(SchemaError, match="not an npz archive"):
            load_classifier(path)

    def test_unsupported_compression_named(self, tmp_path):
        words, labels, vocab = toy_dataset()
        path = tmp_path / "clf.npz"
        save_classifier(train_logreg(words, labels, vocab, max_epochs=0), path)
        data = bytearray(path.read_bytes())
        at = data.index(b"PK\x01\x02") + 10  # first member's compression method
        data[at:at + 2] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(SchemaError, match="is unreadable") as info:
            load_classifier(path)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("change, message", [
        (lambda a: a.pop("kind"), "missing array 'kind'"),
        (lambda a: a.update(weights=a["weights"][:, 1:]),
         "array 'weights' has dtype float64 and shape (2, 6), expected a "
         "float array of shape (2, 7)"),
        (lambda a: a.update(weights=a["weights"].astype(np.int64)),
         "array 'weights' has dtype int64"),
        (lambda a: a.update(classes=np.array([0.0, 1.0])),
         "array 'classes' has dtype float64 and shape (2,), expected a "
         "string array of shape (n,)"),
        (lambda a: a.update(n_range=np.array([[1, 2]])), "array 'n_range'"),
        (lambda a: a.update(kind=np.array(["char"], dtype=object)),
         "array 'kind' is unreadable"),
        (lambda a: a.update(kind=np.array(["syllable"])),
         "'syllable' is not a valid NgramKind"),
        (lambda a: a.update(classes=np.array(["Blend", "Acronym"])),
         "unknown slang class 'Acronym'"),
        (lambda a: a.update(format_version=np.array([2])),
         "unsupported model format version 2"),
    ], ids=["missing", "weights-shape", "weights-dtype", "classes-dtype",
            "n_range-shape", "object-array", "unknown-kind", "unknown-class",
            "version"])
    def test_malformed_array_named(self, tmp_path, change, message):
        words, labels, vocab = toy_dataset()
        path = tmp_path / "clf.npz"
        save_classifier(train_logreg(words, labels, vocab, max_epochs=0), path)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        change(arrays)
        np.savez(path, **arrays)
        with pytest.raises(SchemaError) as info:
            load_classifier(path)
        assert str(info.value).startswith(f"{path}: ")
        assert message in str(info.value)
