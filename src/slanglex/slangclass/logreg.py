"""Multinomial logistic regression trained by full-batch gradient descent.

Written against numpy directly so the gradient can be checked against
finite differences; no external optimizer is involved. The objective is

    L(W) = -(1/n) sum_i log p(y_i | x_i)  +  l2/(2n) * ||W without bias||^2

minimized with backtracking line search. Weights start at zero, so an
untrained model predicts the uniform distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..errors import AnalysisError
from ..labels import SlangClass
from ..morphology import SegmenterModel
from .features import FeatureVocabulary, NgramKind, vectorize, word_features

_MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ClassifierModel:
    vocab: FeatureVocabulary
    classes: tuple[SlangClass, ...]
    weights: np.ndarray  # classes x (|vocab| + 1); last column is the bias
    regularization: float

    def __post_init__(self):
        if len(self.classes) < 2:
            raise AnalysisError("classifier needs at least 2 classes")
        expected = (len(self.classes), len(self.vocab.features) + 1)
        if self.weights.shape != expected:
            raise AnalysisError(
                f"weight shape {self.weights.shape} != expected {expected}")
        if not np.all(np.isfinite(self.weights)):
            raise AnalysisError("classifier weights are not finite")


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def loss_and_gradient(weights: np.ndarray, x: np.ndarray, y_idx: np.ndarray,
                      l2: float) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood plus L2 penalty (bias excluded), and
    its gradient with respect to the weight matrix."""
    n = x.shape[0]
    x_aug = np.hstack([x, np.ones((n, 1))])
    probs = _softmax_rows(x_aug @ weights.T)
    nll = -np.mean(np.log(np.clip(probs[np.arange(n), y_idx], 1e-300, None)))
    penalty = l2 / (2.0 * n) * float(np.sum(weights[:, :-1] ** 2))
    onehot = np.zeros_like(probs)
    onehot[np.arange(n), y_idx] = 1.0
    grad = (probs - onehot).T @ x_aug / n
    grad[:, :-1] += (l2 / n) * weights[:, :-1]
    return nll + penalty, grad


def train_logreg(feature_maps: Sequence[Mapping[str, int]],
                 labels: Sequence[SlangClass], vocab: FeatureVocabulary,
                 l2: float = 1.0, lr: float = 1.0, max_epochs: int = 500,
                 tol: float = 1e-6) -> ClassifierModel:
    """Fit the classifier on pre-extracted feature maps.

    The vocabulary must be fit on training data only. Training is fully
    deterministic (zero init, full-batch updates). Stops at
    gradient max-norm <= tol, when line search stalls, or at max_epochs.
    """
    if len(feature_maps) != len(labels):
        raise AnalysisError(
            f"{len(feature_maps)} feature maps vs {len(labels)} labels")
    if not labels:
        raise AnalysisError("cannot train on an empty dataset")
    classes = tuple(sorted(set(labels), key=str))
    if len(classes) < 2:
        raise AnalysisError("training data must contain at least 2 classes")

    class_index = {c: i for i, c in enumerate(classes)}
    x = np.vstack([vectorize(vocab, fmap) for fmap in feature_maps])
    y_idx = np.array([class_index[label] for label in labels], dtype=np.int64)

    weights = np.zeros((len(classes), len(vocab.features) + 1))
    loss, grad = loss_and_gradient(weights, x, y_idx, l2)
    for epoch in range(max_epochs):
        if not np.isfinite(loss):
            raise AnalysisError(f"non-finite loss at epoch {epoch}")
        if float(np.max(np.abs(grad))) <= tol:
            break
        step = lr
        sq_norm = float(np.sum(grad * grad))
        accepted = False
        for _ in range(40):
            candidate = weights - step * grad
            new_loss, new_grad = loss_and_gradient(candidate, x, y_idx, l2)
            if new_loss <= loss - 1e-4 * step * sq_norm:
                weights, loss, grad = candidate, new_loss, new_grad
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break  # no descent step found at float precision

    return ClassifierModel(vocab=vocab, classes=classes, weights=weights,
                           regularization=l2)


def predict_proba(model: ClassifierModel, word: str,
                  segmenter: SegmenterModel | None = None
                  ) -> dict[SlangClass, float]:
    """Class distribution for one word; unknown features are ignored."""
    vocab = model.vocab
    x = vectorize(vocab, word_features(word, vocab.kind, vocab.n_min,
                                       vocab.n_max, segmenter))
    scores = model.weights @ np.append(x, 1.0)
    probs = _softmax_rows(scores[None, :])[0]
    return {c: float(p) for c, p in zip(model.classes, probs)}


def save_classifier(model: ClassifierModel, path) -> None:
    """Persist the model in a versioned npz container."""
    np.savez(
        path,
        format_version=np.array([_MODEL_FORMAT_VERSION]),
        weights=model.weights,
        classes=np.array([str(c) for c in model.classes]),
        kind=np.array([model.vocab.kind.value]),
        n_range=np.array([model.vocab.n_min, model.vocab.n_max]),
        features=np.array(model.vocab.features),
        regularization=np.array([model.regularization]),
    )


def load_classifier(path) -> ClassifierModel:
    with np.load(path, allow_pickle=False) as data:
        version = int(data["format_version"][0])
        if version != _MODEL_FORMAT_VERSION:
            raise AnalysisError(f"unsupported model format version {version}")
        vocab = FeatureVocabulary(
            kind=NgramKind(str(data["kind"][0])),
            n_min=int(data["n_range"][0]),
            n_max=int(data["n_range"][1]),
            features=tuple(str(f) for f in data["features"]),
        )
        classes = tuple(SlangClass.parse(str(c)) for c in data["classes"])
        return ClassifierModel(vocab=vocab, classes=classes,
                               weights=np.array(data["weights"]),
                               regularization=float(data["regularization"][0]))
