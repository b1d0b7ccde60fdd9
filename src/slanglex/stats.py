"""Shared evaluation metrics and hypothesis tests.

Conventions used throughout:
  * F1 for a class with no true positives and no predicted positives is 0
    (the usual 0/0 convention, stated here because model comparisons
    depend on it).
  * The standard normal CDF is computed with the Abramowitz & Stegun
    26.2.17 rational approximation (|error| < 7.5e-8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Sequence

from .errors import AnalysisError


@dataclass
class ConfusionMatrix:
    """Square count matrix; rows are true labels, columns predictions."""

    labels: list
    counts: list[list[int]]

    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def support(self, label) -> int:
        i = self.labels.index(label)
        return sum(self.counts[i])

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


@dataclass
class ProportionTestResult:
    z: float
    p_value: float
    adjusted_alpha: float
    significant: bool


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the A&S 26.2.17 rational approximation."""
    if x < 0.0:
        return 1.0 - normal_cdf(-x)
    t = 1.0 / (1.0 + 0.2316419 * x)
    poly = t * (0.319381530 + t * (-0.356563782 + t * (1.781477937
               + t * (-1.821255978 + t * 1.330274429))))
    pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return 1.0 - pdf * poly


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


def two_proportion_ztest(x1: int, n1: int, x2: int, n2: int,
                         alpha: float = 0.05, m: int = 1) -> ProportionTestResult:
    """Two-sided pooled z-test for a difference in proportions.

    `m` is the number of simultaneous comparisons; the significance cutoff
    is Bonferroni-adjusted to alpha/m.
    """
    for x, n in ((x1, n1), (x2, n2)):
        if n < 1:
            raise AnalysisError("sample sizes must be at least 1")
        if not 0 <= x <= n:
            raise AnalysisError(f"count {x} outside [0, {n}]")
    if m < 1:
        raise AnalysisError("number of comparisons m must be at least 1")
    pooled = (x1 + x2) / (n1 + n2)
    if pooled <= 0.0 or pooled >= 1.0:
        raise AnalysisError(
            "pooled proportion is 0 or 1; z statistic undefined")
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
    z = (x1 / n1 - x2 / n2) / se
    p_value = 2.0 * (1.0 - normal_cdf(abs(z)))
    p_value = min(p_value, 1.0)
    adjusted = alpha / m
    return ProportionTestResult(z=z, p_value=p_value,
                                adjusted_alpha=adjusted,
                                significant=p_value < adjusted)
