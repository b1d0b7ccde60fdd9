"""Reject-option prediction: scores, thresholds and cross-class protocol."""
import math
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from slanglex.corpus import GoldClassRecord, stratified_split
from slanglex.errors import AnalysisError
from slanglex.labels import REJECTED, SlangClass
from slanglex.slangclass.openset import (
    LabelSampler,
    ScoreType,
    cross_class_validate,
    judge_rows,
)


class TestScores:
    def test_maxprob(self):
        assert judge_rows(["A", "B"], [[0.7, 0.3]], ScoreType.MAX_PROB)[1] == [0.7]

    def test_negentropy_uniform_two(self):
        [value] = judge_rows(["A", "B"], [[0.5, 0.5]], ScoreType.NEG_ENTROPY)[1]
        assert value == pytest.approx(-math.log(2), abs=1e-12)

    def test_negentropy_degenerate_is_zero(self):
        [value] = judge_rows(["A", "B"], [[1.0, 0.0]], ScoreType.NEG_ENTROPY)[1]
        assert value == 0.0

    def test_negentropy_never_positive(self):
        rng = random.Random(0)
        for _ in range(200):
            raw = [rng.random() for _ in range(4)]
            total = sum(raw)
            row = [p / total for p in raw]
            [value] = judge_rows(range(4), [row], ScoreType.NEG_ENTROPY)[1]
            assert value <= 1e-12

    def test_empty_distribution_rejected(self):
        with pytest.raises(AnalysisError):
            judge_rows([], [[]], ScoreType.MAX_PROB)


class TestArgmax:
    def test_plain(self):
        assert judge_rows(["A", "B"], [[0.2, 0.8]])[0] == ["B"]

    def test_tie_takes_lexically_smallest(self):
        assert judge_rows(["B", "A"], [[0.5, 0.5]])[0] == ["A"]


class TestRejectRule:
    def test_boundary_is_inclusive(self):
        # uniform over 4: maxprob 0.25; delta 0.25 rejects (score <= delta)
        out = judge_rows(list("ABCD"), [[0.25] * 4], ScoreType.MAX_PROB,
                         delta=0.25)[0]
        assert out == [REJECTED]

    def test_below_minimum_accepts_everything(self):
        out = judge_rows(list("ABCD"), [[0.25] * 4], ScoreType.MAX_PROB,
                         delta=0.2)[0]
        assert out == ["A"]  # argmax tie resolves lexically

    def test_delta_one_rejects_everything(self):
        out = judge_rows(["A", "B"], [[0.9, 0.1]] * 2, ScoreType.MAX_PROB,
                         delta=1.0)[0]
        assert out == [REJECTED, REJECTED]

    def test_rejection_monotone_in_delta(self):
        rng = random.Random(4)
        labels = ["A", "B", "C"]
        instances = list(range(50))
        rows = []
        for _ in instances:
            raw = [rng.random() + 1e-9 for _ in labels]
            total = sum(raw)
            rows.append([p / total for p in raw])
        for score in ScoreType:
            previous = set()
            grid = ([i / 20 for i in range(21)] if score is ScoreType.MAX_PROB
                    else [-3 + i * 0.15 for i in range(21)])
            for delta in grid:
                out = judge_rows(labels, rows, score, delta)[0]
                rejected = {i for i, o in zip(instances, out) if o is REJECTED}
                assert previous <= rejected
                previous = rejected

    def test_accepted_labels_are_argmax(self):
        rng = random.Random(9)
        labels = ["A", "B", "C", "D"]
        for _ in range(100):
            raw = [rng.random() + 1e-9 for _ in labels]
            total = sum(raw)
            row = [p / total for p in raw]
            out = judge_rows(labels, [row], ScoreType.MAX_PROB, delta=0.0)[0]
            assert out == [labels[row.index(max(row))]]

    def test_unknown_label_in_model_output_rejected(self):
        def fit(train_records):
            return lambda words: (["A", "Z"], [[0.5, 0.5] for _ in words])

        with pytest.raises(AnalysisError, match="outside the known set"):
            cross_class_validate(oracle_gold(), fit, delta=0.0,
                                 score=ScoreType.MAX_PROB, seed=0)

    def test_nan_delta_rejected(self):
        with pytest.raises(AnalysisError):
            judge_rows(["A"], [[1.0]], ScoreType.MAX_PROB, delta=float("nan"))


def row_oracle(labels, row, score, delta):
    """One row by the rule written out: the first of the highest values in
    `str` label order, its score summed in column order, rejected when the
    score is <= delta."""
    best, best_p = None, -1.0
    for j in sorted(range(len(labels)), key=lambda j: str(labels[j])):
        if row[j] > best_p:
            best, best_p = labels[j], row[j]
    if score is ScoreType.MAX_PROB:
        value = max(row)
    else:
        value = 0.0
        for p in row:
            if p > 0.0:
                value += p * math.log(p)
    return (REJECTED if value <= delta else best), value


# exact ties come from the small pool; labels are drawn in any order
PROBS = st.one_of(st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0]),
                  st.floats(0.0, 1.0))


@st.composite
def judge_cases(draw):
    labels = draw(st.lists(st.text("abAB_", min_size=1, max_size=3),
                           min_size=1, max_size=6, unique=True))
    rows = draw(st.lists(st.lists(PROBS, min_size=len(labels),
                                  max_size=len(labels)), max_size=6))
    score = draw(st.sampled_from(ScoreType))
    own = [row_oracle(labels, row, score, -math.inf)[1] for row in rows]
    deltas = st.floats(-3.0, 1.0)
    delta = draw(st.one_of(st.sampled_from(own), deltas) if own else deltas)
    return labels, rows, score, delta


class TestJudgeRows:
    @given(judge_cases())
    # a tie in columns not in str order, then delta at a row's own score
    @example((["b", "a"], [[0.5, 0.5]], ScoreType.MAX_PROB, 0.25))
    @example((["b", "a"], [[0.5, 0.5]], ScoreType.MAX_PROB, 0.5))
    @example((["B", "a", "A"], [[0.25, 0.5, 0.25], [0.5, 0.0, 0.5]],
              ScoreType.NEG_ENTROPY, -math.log(2)))
    def test_equals_argmax_score_and_inclusive_reject(self, case):
        labels, rows, score, delta = case
        expected = [row_oracle(labels, row, score, delta) for row in rows]
        for probs in (rows, np.array(rows).reshape(len(rows), len(labels))):
            predictions, scores = judge_rows(labels, probs, score, delta)
            assert predictions == [label for label, _ in expected]
            assert scores == [value for _, value in expected]
        for row, (label, value) in zip(rows, expected):
            assert judge_rows(labels, [row], score, delta) == ([label], [value])
            assert judge_rows(labels, [row], score)[0] == [
                row_oracle(labels, row, score, -math.inf)[0]]

    def test_tie_goes_to_smallest_str_label_in_any_column_order(self):
        labels = [SlangClass.CLIPPING, SlangClass.BLEND, SlangClass.ALPHABETISM]
        predictions, scores = judge_rows(labels, [[0.4, 0.4, 0.2],
                                                  [0.3, 0.35, 0.35]])
        assert predictions == [SlangClass.BLEND, SlangClass.ALPHABETISM]
        assert scores == [0.4, 0.35]

    def test_nan_delta_refused(self):
        for rows in ([[1.0]], []):
            with pytest.raises(AnalysisError, match="NaN"):
                judge_rows(["A"], rows, ScoreType.NEG_ENTROPY, float("nan"))

    def test_shape_refused(self):
        with pytest.raises(AnalysisError, match="empty distribution"):
            judge_rows([], [[]])
        with pytest.raises(AnalysisError, match="for 2 labels"):
            judge_rows(["A", "B"], [[0.2, 0.3, 0.5]])
        assert judge_rows(["A", "B"], []) == ([], [])


class TestBaseline:
    def test_empirical_distribution(self):
        drawn = LabelSampler(["A", "A", "B", "A"], seed=0).draw(4000)
        assert drawn.count("A") / 4000 == pytest.approx(0.75, abs=0.03)
        assert drawn.count("B") / 4000 == pytest.approx(0.25, abs=0.03)

    def test_deterministic_per_seed(self):
        labels = ["A"] * 3 + ["B"] * 2 + ["C"]
        assert LabelSampler(labels, seed=5).draw(40) == \
            LabelSampler(labels, seed=5).draw(40)

    def test_draw_size_and_support(self):
        sampler = LabelSampler(["A", "B"], seed=1)
        drawn = sampler.draw(25)
        assert len(drawn) == 25
        assert set(drawn) <= {"A", "B"}

    def test_validation(self):
        with pytest.raises(AnalysisError):
            LabelSampler([], seed=0)
        with pytest.raises(AnalysisError):
            LabelSampler(["A"], seed=0).draw(-1)


def oracle_gold():
    words = {
        SlangClass.ALPHABETISM: ["aaa1", "aaa2", "aaa3", "aaa4", "aaa5"],
        SlangClass.BLEND: ["bbb1", "bbb2", "bbb3", "bbb4", "bbb5"],
        SlangClass.CLIPPING: ["ccc1", "ccc2", "ccc3", "ccc4", "ccc5"],
    }
    return [GoldClassRecord(w, label)
            for label, ws in words.items() for w in ws]


def known(train_records):
    """The classes a fold's training records carry, as the fit sees them."""
    return sorted({r.label for r in train_records}, key=str)


def batch(known_classes, model):
    """A one-word model as the batch model cross-class validation calls."""
    return lambda words: (known_classes,
                          [[model(w)[c] for c in known_classes] for w in words])


class TestCrossClassValidation:
    def test_oracle_model_scores_perfect_f1(self):
        gold = oracle_gold()
        truth_of = {r.word: r.label for r in gold}

        def h_factory(train_records):
            known_classes = known(train_records)

            def model(word):
                label = truth_of[word]
                if label in known_classes:
                    dist = {c: 0.0 for c in known_classes}
                    dist[label] = 1.0
                    return dist
                # held-out class: the oracle is maximally unsure
                return {c: 1.0 / len(known_classes) for c in known_classes}
            return batch(known_classes, model)

        # two known classes per fold: unsure means maxprob 0.5 <= delta
        report = cross_class_validate(gold, h_factory, delta=0.5,
                                      score=ScoreType.MAX_PROB, seed=0)
        assert set(report.fold_f1) == {SlangClass.ALPHABETISM,
                                       SlangClass.BLEND, SlangClass.CLIPPING}
        for f1 in report.fold_f1.values():
            assert f1 == pytest.approx(1.0)
        assert report.mean_f1 == pytest.approx(1.0)

    def test_overconfident_model_scores_zero_on_held_class(self):
        gold = oracle_gold()
        truth_of = {r.word: r.label for r in gold}

        def h_factory(train_records):
            known_classes = known(train_records)

            def model(word):
                label = truth_of[word]
                if label not in known_classes:
                    label = known_classes[0]  # confidently wrong
                dist = {c: 0.0 for c in known_classes}
                dist[label] = 1.0
                return dist
            return batch(known_classes, model)

        report = cross_class_validate(gold, h_factory, delta=0.5,
                                      score=ScoreType.MAX_PROB, seed=0)
        # per fold the test split holds one word per class. The held-out
        # word is accepted under a wrong label, which zeroes the Rejected
        # class F1 and drags the victim class to 2/3 precision:
        # (1/3)(2/3) + (1/3)(1) + (1/3)(0) = 5/9
        for f1 in report.fold_f1.values():
            assert f1 == pytest.approx(5 / 9)

    def test_each_fold_scores_its_test_words_in_one_call(self):
        gold = oracle_gold()
        truth_of = {r.word: r.label for r in gold}
        calls = []

        def h_factory(train_records):
            labels = known(train_records)[::-1]  # columns need not follow known

            def model(words):
                calls.append(list(words))
                return labels, [[1.0 if truth_of[w] == c else 0.0
                                 for c in labels]
                                if truth_of[w] in labels
                                else [1.0 / len(labels)] * len(labels)
                                for w in words]
            return model

        report = cross_class_validate(gold, h_factory, delta=0.5,
                                      score=ScoreType.MAX_PROB, seed=0)
        _, test = stratified_split(gold, lambda r: r.label, 0.10, seed=0)
        test_words = [r.word for r in test]
        assert calls == [test_words] * 3
        assert report.mean_f1 == pytest.approx(1.0)

    def test_requires_three_classes(self):
        gold = [GoldClassRecord(f"a{i}", SlangClass.BLEND) for i in range(5)]
        gold += [GoldClassRecord(f"b{i}", SlangClass.CLIPPING) for i in range(5)]
        with pytest.raises(AnalysisError):
            cross_class_validate(gold, lambda *a: None, delta=0.5,
                                 score=ScoreType.MAX_PROB, seed=0)
