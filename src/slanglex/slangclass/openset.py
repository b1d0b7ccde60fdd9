"""Open-set prediction: confidence thresholding with a Rejected outcome.

One rule, `judge_rows`, labels a matrix of probability rows whose columns
stand for the given labels:

- the prediction is the argmax column; ties go to the label whose `str`
  is smallest, whatever the column order;
- the confidence score is MaxProb, the highest probability, or
  NegEntropy, sum p*ln(p) in nats over the positive probabilities, added
  up in column order with `math.log` (numpy's vectorised log can differ
  from it in the last bit);
- the instance is rejected when its score is <= the threshold ``delta``
  (boundary inclusive); a NaN ``delta`` is refused.

It serves the slang formation classes, one row per word or a whole batch
at once; the subject vote is closed-set and takes the argmax alone.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Hashable, Sequence, TypeVar

import numpy as np

from ..corpus import GoldClassRecord, stratified_split
from ..errors import AnalysisError
from ..labels import REJECTED, SlangClass
from ..stats import weighted_f1

Label = TypeVar("Label", bound=Hashable)


class ScoreType(Enum):
    MAX_PROB = "maxprob"
    NEG_ENTROPY = "negentropy"


def judge_rows(labels: Sequence[Label], probs,
               score: ScoreType = ScoreType.MAX_PROB,
               delta: float = -math.inf) -> tuple[list, list[float]]:
    """Each row's prediction, a label or REJECTED, and its confidence
    score, by the rule in the module docstring; ``probs`` holds one row
    per instance, its columns in ``labels`` order. The default ``delta``
    rejects nothing, which leaves the argmax."""
    if math.isnan(delta):
        raise AnalysisError("rejection threshold must not be NaN")
    if not labels:
        raise AnalysisError("empty distribution")
    probs = np.asarray(probs, dtype=float)
    if probs.shape == (0,):  # no rows
        probs = probs.reshape(0, len(labels))
    if probs.shape[1:] != (len(labels),):
        raise AnalysisError(f"probability rows of shape {probs.shape[1:]} "
                            f"for {len(labels)} labels")
    order = sorted(range(len(labels)), key=lambda j: str(labels[j]))
    best = np.asarray(order)[np.argmax(probs[:, order], axis=1)]
    if score is ScoreType.MAX_PROB:
        scores = probs.max(axis=1).tolist()
    else:
        scores = [sum(p * math.log(p) for p in row if p > 0.0)
                  for row in probs.tolist()]
    return ([REJECTED if value <= delta else labels[j]
             for j, value in zip(best.tolist(), scores)], scores)


class LabelSampler:
    """Draws i.i.d. labels from an empirical training distribution."""

    def __init__(self, labels: Sequence[Label], seed: int):
        if not labels:
            raise AnalysisError("cannot build a baseline from no labels")
        counts: dict[Label, int] = {}
        for label in labels:
            counts[label] = counts.get(label, 0) + 1
        self._labels = sorted(counts, key=str)
        self._weights = [counts[lab] for lab in self._labels]
        self._rng = random.Random(seed)

    def draw(self, n: int) -> list:
        if n < 0:
            raise AnalysisError(f"cannot draw {n} samples")
        return self._rng.choices(self._labels, weights=self._weights, k=n)


@dataclass(frozen=True)
class CrossClassReport:
    fold_f1: dict[SlangClass, float]
    mean_f1: float


# a fold's model scores all its test words in one call: it returns the
# labels its columns stand for and one probability row per word
BatchModel = Callable[[Sequence[str]],
                      tuple[Sequence[SlangClass], Sequence[Sequence[float]]]]
# a fold's fit: the fold's training records to its model
TrainingProcedure = Callable[[list[GoldClassRecord]], BatchModel]


def cross_class_validate(gold: Sequence[GoldClassRecord],
                         fit: TrainingProcedure, delta: float,
                         score: ScoreType, seed: int,
                         test_fraction: float = 0.10) -> CrossClassReport:
    """Hold out each class in turn as the unknown set.

    The model for a fold is trained on the other classes' training split
    and evaluated on the full test split, scored in one batch, where
    instances of the held-out class carry the true label Rejected.
    Returns per-fold and mean weighted F1.
    """
    classes = sorted({r.label for r in gold}, key=str)
    if len(classes) < 3:
        raise AnalysisError(
            f"cross-class validation needs >= 3 classes, got {len(classes)}")
    train, test = stratified_split(gold, lambda r: r.label, test_fraction, seed)
    fold_f1: dict[SlangClass, float] = {}
    for held in classes:
        known = [c for c in classes if c != held]
        model = fit([r for r in train if r.label != held])
        labels, rows = model([r.word for r in test])
        if set(labels) - set(known):
            raise AnalysisError("model produced labels outside the known set")
        predictions = judge_rows(labels, rows, score, delta)[0]
        truth = [REJECTED if r.label == held else r.label for r in test]
        fold_f1[held] = weighted_f1(truth, predictions)
    mean = sum(fold_f1.values()) / len(fold_f1)
    return CrossClassReport(fold_f1=fold_f1, mean_f1=mean)
