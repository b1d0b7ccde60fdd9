"""Shared evaluation metrics: confusion matrices and per-class and
weighted F1.

F1 for a class with no true positives and no predicted positives is 0
(the usual 0/0 convention, stated here because model comparisons depend
on it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from .errors import AnalysisError


@dataclass
class ConfusionMatrix:
    """Square count matrix; rows are true labels, columns predictions."""

    labels: list
    counts: list[list[int]]

    def __getitem__(self, pair):
        true_label, pred_label = pair
        return self.counts[self.labels.index(true_label)][self.labels.index(pred_label)]


@dataclass
class ClassMetrics:
    label: Hashable
    precision: float
    recall: float
    f1: float
    support: int


def weighted_f1(truth: Sequence, pred: Sequence) -> float:
    """Per-class F1 of `confusion_and_report` averaged with weights
    proportional to true-class support."""
    _, report = confusion_and_report(truth, pred,
                                     sorted(set(truth) | set(pred), key=str))
    if not truth:
        raise AnalysisError("cannot score an empty prediction list")
    return sum((m.support / len(truth)) * m.f1 for m in report)


def confusion_and_report(truth: Sequence, pred: Sequence,
                         labels: Sequence) -> tuple[ConfusionMatrix, list[ClassMetrics]]:
    """Build a confusion matrix plus per-class precision/recall/F1.

    `labels` fixes row/column order and must cover every value present in
    either sequence.
    """
    if len(truth) != len(pred):
        raise AnalysisError(
            f"truth and prediction lengths differ: {len(truth)} vs {len(pred)}")
    labels = list(labels)
    index = {label: i for i, label in enumerate(labels)}
    counts = [[0] * len(labels) for _ in labels]
    for t, p in zip(truth, pred):
        if t not in index:
            raise AnalysisError(f"true label {t!r} not in the declared label set")
        if p not in index:
            raise AnalysisError(f"predicted label {p!r} not in the declared label set")
        counts[index[t]][index[p]] += 1

    report = []
    for i, label in enumerate(labels):
        tp = counts[i][i]
        support = sum(counts[i])
        predicted = sum(row[i] for row in counts)
        precision = tp / predicted if predicted > 0 else 0.0
        recall = tp / support if support > 0 else 0.0
        f1 = 2.0 * tp / (support + predicted) if support + predicted else 0.0
        report.append(ClassMetrics(label, precision, recall, f1, support))
    return ConfusionMatrix(labels, counts), report

