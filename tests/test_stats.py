"""Metric checks against independent oracles.

Hand-derived constants were worked out on paper before the
implementation existed and are frozen here.
"""
import pytest

from slanglex.errors import AnalysisError
from slanglex.stats import confusion_and_report, weighted_f1


class TestWeightedF1:
    def test_perfect(self):
        assert weighted_f1(["A", "B", "A"], ["A", "B", "A"]) == 1.0

    def test_all_flipped_binary(self):
        assert weighted_f1(["A", "B"], ["B", "A"]) == 0.0

    def test_hand_case_two_thirds(self):
        # truth AAB, pred ABB: F1(A) = 2/3, F1(B) = 2/3,
        # weights 2/3 and 1/3 -> 2/3 overall (worked by hand)
        assert weighted_f1(["A", "A", "B"], ["A", "B", "B"]) == pytest.approx(
            2.0 / 3.0, abs=1e-12)

    def test_matches_brute_force_tally(self):
        import random
        rng = random.Random(5)
        labels = ["u", "v", "w", "x"]
        truth = [rng.choice(labels) for _ in range(200)]
        pred = [rng.choice(labels) for _ in range(200)]

        def oracle(truth, pred):
            total = 0.0
            for lab in set(truth):
                tp = sum(1 for t, p in zip(truth, pred) if t == lab and p == lab)
                fp = sum(1 for t, p in zip(truth, pred) if t != lab and p == lab)
                fn = sum(1 for t, p in zip(truth, pred) if t == lab and p != lab)
                f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
                total += (tp + fn) / len(truth) * f1
            return total

        assert weighted_f1(truth, pred) == pytest.approx(oracle(truth, pred),
                                                         abs=1e-12)

    def test_permutation_invariance(self):
        truth = ["A", "A", "B", "C", "B"]
        pred = ["A", "B", "B", "C", "C"]
        base = weighted_f1(truth, pred)
        order = [3, 1, 4, 0, 2]
        assert weighted_f1([truth[i] for i in order],
                           [pred[i] for i in order]) == pytest.approx(base)

    def test_bounded(self):
        assert 0.0 <= weighted_f1(["A", "B"], ["A", "A"]) <= 1.0

    def test_rejects_length_mismatch(self):
        with pytest.raises(AnalysisError):
            weighted_f1(["A"], ["A", "B"])

    def test_rejects_empty(self):
        with pytest.raises(AnalysisError):
            weighted_f1([], [])


class TestConfusion:
    def test_perfect_is_diagonal(self):
        cm, report = confusion_and_report(["A", "B"], ["A", "B"], ["A", "B"])
        assert cm.counts == [[1, 0], [0, 1]]
        assert all(m.f1 == 1.0 for m in report)

    def test_single_error_off_diagonal(self):
        cm, _ = confusion_and_report(["A", "A"], ["A", "B"], ["A", "B"])
        assert cm["A", "B"] == 1
        assert sum(map(sum, cm.counts)) == 2

    def test_matches_brute_force_tally(self):
        import random
        rng = random.Random(11)
        labels = list("abcde")
        truth = [rng.choice(labels) for _ in range(20)]
        pred = [rng.choice(labels) for _ in range(20)]
        cm, report = confusion_and_report(truth, pred, labels)
        for t in labels:
            for p in labels:
                expected = sum(1 for a, b in zip(truth, pred)
                               if a == t and b == p)
                assert cm[t, p] == expected
        # row sums are true supports
        for lab in labels:
            assert sum(cm.counts[labels.index(lab)]) == truth.count(lab)
        for metrics in report:
            assert metrics.support == truth.count(metrics.label)

    def test_unknown_label_rejected(self):
        with pytest.raises(AnalysisError):
            confusion_and_report(["A"], ["Z"], ["A"])

