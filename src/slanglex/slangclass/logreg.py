"""Multinomial logistic regression fitted by L-BFGS.

Written against numpy directly so the gradient can be checked against
finite differences; no external optimizer is involved. The objective is

    L(W) = -(1/n) sum_i log p(y_i | x_i)  +  l2/(2n) * ||W without bias||^2

minimized by limited-memory BFGS (Liu & Nocedal 1989; Nocedal & Wright,
Numerical Optimization, ch. 7) from zero weights, so an untrained model
predicts the uniform distribution. Each iteration takes the two-loop
direction over the last ten curvature pairs and backtracks from a unit
step until the Armijo condition holds. A fit stops for one of three
reasons, recorded on the model: the gradient max-norm reached the
tolerance (``tol``), no step along the direction lowered the loss
(``stalled``), or the iteration cap was hit (``max_iter``).

Words reach the model one way, as `features.feature_matrix` counts them
plus a bias column of ones (`_with_bias`): `train_logreg` fits on that
design matrix of its training words, and `predict_proba_batch` scores
each block of words through it, one word or many alike. It scores a
block with one stacked product, ``matmul(weights, x[:, :, None])``.
That is not a matrix-matrix product, which would sum in another order and
can differ in the last bit (the reports print these probabilities): numpy
runs a stack of matrix-vector products as one BLAS gemv per word, the
same call that ``weights @ append(x, 1)`` makes for a single word, so each
word's scores keep the bits of its own product.
"""

from __future__ import annotations

import zipfile
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import AnalysisError, SchemaError, SlanglexError
from ..labels import SlangClass
from ..morphology import SegmenterModel
from .features import FeatureVocabulary, NgramKind, feature_matrix

_MODEL_FORMAT_VERSION = 1
_LBFGS_MEMORY = 10  # curvature pairs kept
_SCORE_BLOCK = 256  # words per feature matrix, which bounds its memory


@dataclass(frozen=True)
class ClassifierModel:
    vocab: FeatureVocabulary
    classes: tuple[SlangClass, ...]
    weights: np.ndarray  # classes x (|vocab| + 1); last column is the bias
    regularization: float
    # how the fit ended ("tol", "stalled" or "max_iter") and after how many
    # iterations; None on a loaded model, since the file does not keep them
    stop: str | None = None
    iterations: int | None = None

    def __post_init__(self):
        if len(self.classes) < 2:
            raise AnalysisError("classifier needs at least 2 classes")
        expected = (len(self.classes), len(self.vocab.features) + 1)
        if self.weights.shape != expected:
            raise AnalysisError(
                f"weight shape {self.weights.shape} != expected {expected}")
        if not np.all(np.isfinite(self.weights)):
            raise AnalysisError("classifier weights are not finite")


def _with_bias(x: np.ndarray) -> np.ndarray:
    """``x`` with a column of ones appended, the bias feature."""
    return np.hstack([x, np.ones((x.shape[0], 1))])


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def loss_and_gradient(weights: np.ndarray, x: np.ndarray, y_idx: np.ndarray,
                      l2: float) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood plus L2 penalty (bias excluded), and
    its gradient with respect to the weight matrix, for the design matrix
    ``x``: the counts with the bias column of ones last (`_with_bias`)."""
    n = x.shape[0]
    probs = _softmax_rows(x @ weights.T)
    nll = -np.mean(np.log(np.clip(probs[np.arange(n), y_idx], 1e-300, None)))
    penalty = l2 / (2.0 * n) * float(np.sum(weights[:, :-1] ** 2))
    onehot = np.zeros_like(probs)
    onehot[np.arange(n), y_idx] = 1.0
    grad = (probs - onehot).T @ x / n
    grad[:, :-1] += (l2 / n) * weights[:, :-1]
    return nll + penalty, grad


def _lbfgs_direction(grad: np.ndarray, pairs) -> np.ndarray:
    """-H grad, H the inverse-Hessian estimate built by the two-loop
    recursion from the stored (s, y, 1 / s.y) pairs, oldest first."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * np.vdot(s, q))
        q -= alphas[-1] * y
    if pairs:
        s, y, rho = pairs[-1]
        q /= rho * np.vdot(y, y)  # initial H = (s.y / y.y) I
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * np.vdot(y, q)) * s
    return -q


def train_logreg(words: Sequence[str], labels: Sequence[SlangClass],
                 vocab: FeatureVocabulary,
                 segmenter: SegmenterModel | None = None, *, l2: float,
                 max_epochs: int, tol: float) -> ClassifierModel:
    """Fit the classifier on the words' `feature_matrix`.

    The vocabulary must be fit on training data only. Training is fully
    deterministic (zero init, full-batch L-BFGS). Stops at gradient
    max-norm <= tol, when the line search stalls, or after ``max_epochs``
    iterations; the model records which, and the iteration count.
    """
    if len(words) != len(labels):
        raise AnalysisError(f"{len(words)} words vs {len(labels)} labels")
    if not labels:
        raise AnalysisError("cannot train on an empty dataset")
    if max_epochs < 0:
        raise AnalysisError(f"max_epochs must be >= 0, got {max_epochs}")
    for name, value in (("l2", l2), ("tol", tol)):
        if not value >= 0.0:  # NaN fails this too
            raise AnalysisError(f"{name} must be >= 0, got {value}")
    classes = tuple(sorted(set(labels), key=str))
    if len(classes) < 2:
        raise AnalysisError("training data must contain at least 2 classes")

    class_index = {c: i for i, c in enumerate(classes)}
    x = _with_bias(feature_matrix(vocab, words, segmenter))
    y_idx = np.array([class_index[label] for label in labels], dtype=np.int64)

    weights = np.zeros((len(classes), len(vocab.features) + 1))
    loss, grad = loss_and_gradient(weights, x, y_idx, l2)
    pairs: deque = deque(maxlen=_LBFGS_MEMORY)
    iterations = 0
    while True:
        if not np.isfinite(loss):
            raise AnalysisError(f"non-finite loss at iteration {iterations}")
        if float(np.max(np.abs(grad))) <= tol:
            stop = "tol"
            break
        if iterations >= max_epochs:
            stop = "max_iter"
            break
        direction = _lbfgs_direction(grad, pairs)
        slope = np.vdot(grad, direction)
        if not slope < 0.0:  # not a descent direction: restart from -grad
            pairs.clear()
            direction = -grad
            slope = -np.vdot(grad, grad)
        step = 1.0
        for _ in range(40):
            candidate = weights + step * direction
            new_loss, new_grad = loss_and_gradient(candidate, x, y_idx, l2)
            if new_loss <= loss + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            stop = "stalled"  # no descent step found at float precision
            break
        s, y = candidate - weights, new_grad - grad
        sy = np.vdot(s, y)
        if sy > 0.0:  # keeps the inverse-Hessian estimate positive definite
            pairs.append((s, y, 1.0 / sy))
        weights, loss, grad = candidate, new_loss, new_grad
        iterations += 1

    return ClassifierModel(vocab=vocab, classes=classes, weights=weights,
                           regularization=l2, stop=stop, iterations=iterations)


def predict_proba_batch(model: ClassifierModel, words: Sequence[str],
                        segmenter: SegmenterModel | None = None) -> np.ndarray:
    """The ``(len(words), len(model.classes))`` class probabilities of the
    words, in ``model.classes`` order; unknown features are ignored."""
    probs = np.empty((len(words), len(model.classes)))
    for start in range(0, len(words), _SCORE_BLOCK):
        x = _with_bias(feature_matrix(
            model.vocab, words[start:start + _SCORE_BLOCK], segmenter))
        scores = np.matmul(model.weights, x[:, :, None])[:, :, 0]
        probs[start:start + len(x)] = _softmax_rows(scores)
    return probs


def save_classifier(model: ClassifierModel, path) -> None:
    """Persist the model in a versioned npz container. numpy string
    arrays drop trailing NULs, so a feature ending in U+0000 could not be
    read back; such a model is refused before anything is written."""
    for feature in model.vocab.features:
        if feature.endswith("\x00"):
            raise AnalysisError(
                f"feature {feature!r} ends in U+0000, which the model file "
                "cannot store")
    # through a handle: given a name, numpy appends .npz to one without it
    with open(path, "wb") as handle:
        np.savez(
            handle,
            format_version=np.array([_MODEL_FORMAT_VERSION]),
            weights=model.weights,
            classes=np.array([str(c) for c in model.classes], dtype=str),
            kind=np.array([model.vocab.kind.value]),
            n_range=np.array([model.vocab.n_min, model.vocab.n_max]),
            features=np.array(model.vocab.features, dtype=str),
            regularization=np.array([model.regularization]),
        )


_DTYPE_KINDS = {"i": "an integer", "f": "a float", "U": "a string"}


def _array(data, path, name: str, kind: str, shape: tuple) -> np.ndarray:
    """Array ``name`` of an open archive, which must have numpy dtype kind
    ``kind`` and shape ``shape`` (None: any length)."""
    if name not in data.files:
        raise SchemaError(f"missing array {name!r}", field=name, path=path)
    try:
        array = data[name]
    except (ValueError, EOFError, NotImplementedError, zipfile.BadZipFile):
        raise SchemaError(f"array {name!r} is unreadable", field=name,
                          path=path) from None
    if array.dtype.kind != kind or len(array.shape) != len(shape) or any(
            want is not None and got != want
            for got, want in zip(array.shape, shape)):
        raise SchemaError(
            f"array {name!r} has dtype {array.dtype} and shape {array.shape}, "
            f"expected {_DTYPE_KINDS[kind]} array of shape "
            f"{str(shape).replace('None', 'n')}", field=name, path=path)
    return array


def load_classifier(path) -> ClassifierModel:
    """Read a model written by `save_classifier`. A file that is not an
    npz archive, a missing array, one of the wrong dtype or shape, or
    values no model can have, raise a `SchemaError` naming the file and
    the array."""
    with open(path, "rb") as handle:  # np.load(path) leaks it on a bad zip
        try:
            data = np.load(handle, allow_pickle=False)
        except (ValueError, EOFError, zipfile.BadZipFile):
            data = None
        if not isinstance(data, np.lib.npyio.NpzFile):  # also a lone .npy array
            raise SchemaError("not an npz archive", path=path)
        version = int(_array(data, path, "format_version", "i", (1,))[0])
        if version != _MODEL_FORMAT_VERSION:
            raise SchemaError(f"unsupported model format version {version}",
                              field="format_version", path=path)
        classes = _array(data, path, "classes", "U", (None,))
        features = _array(data, path, "features", "U", (None,))
        weights = _array(data, path, "weights", "f",
                         (len(classes), len(features) + 1))
        kind = _array(data, path, "kind", "U", (1,))
        n_range = _array(data, path, "n_range", "i", (2,))
        regularization = _array(data, path, "regularization", "f", (1,))
    try:
        vocab = FeatureVocabulary(kind=NgramKind(str(kind[0])),
                                  n_min=int(n_range[0]), n_max=int(n_range[1]),
                                  features=tuple(str(f) for f in features))
        return ClassifierModel(
            vocab=vocab, classes=tuple(SlangClass.parse(str(c)) for c in classes),
            weights=weights, regularization=float(regularization[0]))
    except (ValueError, SlanglexError) as exc:
        raise SchemaError(str(exc), path=path) from None
