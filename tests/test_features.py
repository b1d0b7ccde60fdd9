"""Character/morpheme n-gram extraction and vocabulary fitting."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slanglex.errors import AnalysisError
from slanglex.labels import SlangClass
from slanglex.morphology import Segmentation
from slanglex.slangclass.features import (
    FeatureVocabulary,
    NgramKind,
    extract_char_ngrams,
    extract_morpheme_ngrams,
    feature_matrix,
    fit_vocabulary,
    vectorize,
)
from slanglex.slangclass.logreg import (
    ClassifierModel,
    _softmax_rows,
    predict_proba,
    predict_proba_batch,
)


class TestCharNgrams:
    def test_ab_full_enumeration(self):
        assert extract_char_ngrams("ab", 1, 2) == {"a": 1, "b": 1, "ab": 1}

    def test_boo_with_multiplicity(self):
        assert extract_char_ngrams("boo", 1, 2) == {
            "b": 1, "o": 2, "bo": 1, "oo": 1}

    def test_periods_and_case_survive(self):
        grams = extract_char_ngrams("A.B", 1, 3)
        assert grams["."] == 1
        assert grams["A.B"] == 1
        assert "a" not in grams

    def test_window_longer_than_word(self):
        assert extract_char_ngrams("ab", 1, 5) == {"a": 1, "b": 1, "ab": 1}

    def test_count_identity(self):
        # a word of length L has L - n + 1 n-gram tokens
        word = "abcdefg"
        for n in range(1, 4):
            grams = extract_char_ngrams(word, n, n)
            assert sum(grams.values()) == len(word) - n + 1

    def test_validation(self):
        with pytest.raises(AnalysisError):
            extract_char_ngrams("")
        with pytest.raises(AnalysisError):
            extract_char_ngrams("ab", 2, 1)
        with pytest.raises(AnalysisError):
            extract_char_ngrams("ab", 0, 1)


class TestMorphemeNgrams:
    def test_two_morph_enumeration(self):
        seg = Segmentation("dogcat", ("dog", "cat"))
        assert extract_morpheme_ngrams(seg, 1, 2) == {
            "dog": 1, "cat": 1, "dog+cat": 1}

    def test_three_morph_gram_counts(self):
        seg = Segmentation("abc", ("a", "b", "c"))
        grams = extract_morpheme_ngrams(seg, 1, 3)
        # 3 unigrams, 2 bigrams, 1 trigram
        by_order = {1: 0, 2: 0, 3: 0}
        for gram, count in grams.items():
            by_order[gram.count("+") + 1] += count
        assert by_order == {1: 3, 2: 2, 3: 1}

    def test_single_morph(self):
        seg = Segmentation("dog", ("dog",))
        assert extract_morpheme_ngrams(seg, 1, 5) == {"dog": 1}


class TestVocabulary:
    def test_cap_keeps_most_frequent(self):
        maps = [{"aa": 5, "bb": 1}, {"aa": 2, "cc": 3}]
        vocab = fit_vocabulary(maps, NgramKind.CHAR, cap=2)
        assert vocab.features == ("aa", "cc")

    def test_tie_breaks_lexicographically(self):
        maps = [{"zz": 2, "aa": 2, "mm": 2}]
        vocab = fit_vocabulary(maps, NgramKind.CHAR, cap=2)
        assert vocab.features == ("aa", "mm")

    def test_cap_larger_than_inventory(self):
        vocab = fit_vocabulary([{"a": 1}], NgramKind.CHAR, cap=50)
        assert vocab.features == ("a",)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            fit_vocabulary([{"a": 1}], NgramKind.CHAR, cap=0)
        with pytest.raises(AnalysisError):
            fit_vocabulary([], NgramKind.CHAR)


class TestVectorize:
    def test_counts_land_in_columns(self):
        vocab = fit_vocabulary([{"a": 3, "b": 1}], NgramKind.CHAR, cap=10)
        x = vectorize(vocab, {"a": 2, "b": 7})
        assert x[vocab.index["a"]] == 2.0
        assert x[vocab.index["b"]] == 7.0

    def test_unknown_features_ignored(self):
        vocab = fit_vocabulary([{"a": 1}], NgramKind.CHAR, cap=10)
        x = vectorize(vocab, {"zzz": 40})
        assert np.array_equal(x, np.zeros(1))

    def test_dtype_and_shape(self):
        vocab = fit_vocabulary([{"a": 1, "b": 1, "c": 1}], NgramKind.CHAR, cap=3)
        x = vectorize(vocab, {"b": 1})
        assert x.dtype == np.float64
        assert x.shape == (3,)


# ASCII, the punctuation alphabetisms use, U+0000, an astral character, a
# combining mark and a lone surrogate (what a non-UTF-8 argv byte becomes)
CHARS = st.sampled_from(["a", "b", "A", ".", "-", "'", "\x00", "\U0001F600",
                         "\u0301", "\udcff"])
GRAMS = st.text(CHARS, min_size=1, max_size=9)


def _model(features, n_min, n_max):
    vocab = FeatureVocabulary(kind=NgramKind.CHAR, n_min=n_min, n_max=n_max,
                              features=tuple(features))
    weights = np.random.default_rng(len(features)).normal(
        size=(len(SlangClass), len(features) + 1))
    return ClassifierModel(vocab=vocab, classes=tuple(SlangClass),
                           weights=weights, regularization=1.0)


def _one_word_probs(model, word):
    """Scoring as it was defined one word at a time: the reference."""
    vocab = model.vocab
    x = vectorize(vocab, extract_char_ngrams(word, vocab.n_min, vocab.n_max))
    scores = model.weights @ np.append(x, 1.0)
    return _softmax_rows(scores[None, :])[0]


class TestBatchScoring:
    @settings(max_examples=300)
    @given(features=st.lists(GRAMS, min_size=1, max_size=30, unique=True),
           n_range=st.tuples(st.integers(1, 8), st.integers(1, 8)).map(sorted),
           words=st.lists(GRAMS, min_size=1, max_size=8))
    @example(features=["ab", "abc"], n_range=[3, 4], words=["ab", "abc"])
    @example(features=["ab"], n_range=[1, 2], words=["--"])
    @example(features=["a", "ab"], n_range=[1, 8], words=["abab"])
    @example(features=["a", "\x00", "a\x00"], n_range=[1, 2], words=["a\x00"])
    def test_batch_equals_one_word_path(self, features, n_range, words):
        model = _model(features, *n_range)
        x = feature_matrix(model.vocab, words)
        expected = np.vstack([vectorize(model.vocab, extract_char_ngrams(w, *n_range))
                              for w in words])
        assert x.dtype == np.float64
        assert np.array_equal(x, expected)
        probs = predict_proba_batch(model, words)
        for word, row in zip(words, probs):
            assert row.tobytes() == _one_word_probs(model, word).tobytes()
            assert list(predict_proba(model, word).values()) == row.tolist()

    def test_rows_match_across_blocks(self):
        rng = np.random.default_rng(0)
        words = ["".join(rng.choice(list("abcd.-"), size=rng.integers(1, 9)))
                 for _ in range(700)]
        maps = [extract_char_ngrams(w, 1, 5) for w in words[:100]]
        model = _model(fit_vocabulary(maps, NgramKind.CHAR, cap=200).features,
                       1, 5)
        probs = predict_proba_batch(model, words)
        assert probs.shape == (700, len(SlangClass))
        for word, row in zip(words, probs):
            assert row.tobytes() == _one_word_probs(model, word).tobytes()

    def test_validation(self):
        model = _model(["a"], 1, 2)
        with pytest.raises(AnalysisError, match="empty word"):
            feature_matrix(model.vocab, ["a", ""])
        bad = FeatureVocabulary(kind=NgramKind.CHAR, n_min=0, n_max=2,
                                features=("a",))
        with pytest.raises(AnalysisError, match="bad n-gram range"):
            feature_matrix(bad, ["a"])
        assert feature_matrix(model.vocab, []).shape == (0, 1)
