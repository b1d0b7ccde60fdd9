"""Open-set prediction: confidence thresholding with a Rejected outcome.

A probability model here is any callable mapping an instance to a
distribution over known labels. Scoring follows the reject rule: take the
argmax label, then reject the instance when the confidence score is <= the
threshold (boundary inclusive). It serves the slang formation classes;
subjects are closed-set and use only `argmax_label`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Hashable, Mapping, Sequence, TypeVar

from ..corpus import GoldClassRecord, split_gold
from ..errors import AnalysisError
from ..labels import REJECTED, SlangClass
from ..stats import weighted_f1

Label = TypeVar("Label", bound=Hashable)
ProbabilityModel = Callable[[object], Mapping[Label, float]]


class ScoreType(Enum):
    MAX_PROB = "maxprob"
    NEG_ENTROPY = "negentropy"


def confidence_score(distribution: Mapping[Label, float],
                     score: ScoreType) -> float:
    """MaxProb = highest probability; NegEntropy = sum p*ln(p) in nats."""
    probs = list(distribution.values())
    if not probs:
        raise AnalysisError("empty distribution")
    if score is ScoreType.MAX_PROB:
        return max(probs)
    return sum(p * math.log(p) for p in probs if p > 0.0)


def argmax_label(distribution: Mapping[Label, float]) -> Label:
    """Highest-probability label; ties go to the lexically smallest label."""
    best = None
    best_p = -1.0
    for label in sorted(distribution, key=str):
        p = distribution[label]
        if p > best_p:
            best, best_p = label, p
    return best


def predict_with_reject(classes: Sequence[Label], model: ProbabilityModel,
                        instances: Sequence, delta: float,
                        score: ScoreType) -> list:
    """Label each instance, replacing low-confidence answers with REJECTED."""
    if math.isnan(delta):
        raise AnalysisError("rejection threshold must not be NaN")
    known = set(classes)
    out = []
    for instance in instances:
        dist = model(instance)
        if set(dist) - known:
            raise AnalysisError("model produced labels outside the known set")
        label = argmax_label(dist)
        if confidence_score(dist, score) <= delta:
            out.append(REJECTED)
        else:
            out.append(label)
    return out


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
    split = split_gold(list(gold), test_fraction=test_fraction, seed=seed)
    fold_f1: dict[SlangClass, float] = {}
    for held in classes:
        known = [c for c in classes if c != held]
        model = fit([r for r in split.train if r.label != held])
        labels, rows = model([r.word for r in split.test])
        predictions = predict_with_reject(
            known, lambda row: dict(zip(labels, row)), rows, delta, score)
        truth = [REJECTED if r.label == held else r.label for r in split.test]
        fold_f1[held] = weighted_f1(truth, predictions)
    mean = sum(fold_f1.values()) / len(fold_f1)
    return CrossClassReport(fold_f1=fold_f1, mean_f1=mean)
