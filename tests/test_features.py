"""Character/morpheme n-gram extraction and vocabulary fitting."""
import collections
from importlib.resources import files

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import slanglex.cli as cli
from slanglex.corpus import load_gold_classes, split_gold
from slanglex.errors import AnalysisError
from slanglex.labels import SlangClass
from slanglex.morphology import Segmentation, SegmenterModel, load_segmenter
from slanglex.slangclass import features, logreg
from slanglex.slangclass.features import (
    FeatureVocabulary,
    NgramKind,
    NgramTable,
    count_matrix,
    extract_char_ngrams,
    extract_morpheme_ngrams,
    feature_matrix,
    fit_vocabulary,
    word_features,
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
    """One feature map as a count row: `count_matrix` of a single map."""

    def test_counts_land_in_columns(self):
        vocab = fit_vocabulary([{"a": 3, "b": 1}], NgramKind.CHAR, cap=10)
        x = count_matrix(vocab, [{"a": 2, "b": 7}])[0]
        assert x[vocab.index["a"]] == 2.0
        assert x[vocab.index["b"]] == 7.0

    def test_unknown_features_ignored(self):
        vocab = fit_vocabulary([{"a": 1}], NgramKind.CHAR, cap=10)
        x = count_matrix(vocab, [{"zzz": 40}])[0]
        assert np.array_equal(x, np.zeros(1))

    def test_dtype_and_shape(self):
        vocab = fit_vocabulary([{"a": 1, "b": 1, "c": 1}], NgramKind.CHAR, cap=3)
        x = count_matrix(vocab, [{"b": 1}])
        assert x.dtype == np.float64
        assert x.shape == (1, 3)


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
    x = count_matrix(vocab, [extract_char_ngrams(word, vocab.n_min, vocab.n_max)])[0]
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
        expected = np.vstack([count_matrix(model.vocab,
                                           [extract_char_ngrams(w, *n_range)])
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


def _old_vocabulary(maps, kind, cap, n_min, n_max):
    """The vocabulary rule as it was written over feature maps: the
    reference for the table's ranking."""
    totals = {}
    for fmap in maps:
        for feature, count in fmap.items():
            totals[feature] = totals.get(feature, 0) + count
    ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
    return FeatureVocabulary(kind=kind, n_min=n_min, n_max=n_max,
                             features=tuple(f for f, _ in ranked[:cap]))


def _old_rows(vocab, maps):
    """Count rows as they were built, one dense vector per map."""
    x = np.zeros((len(maps), len(vocab.features)))
    for row, fmap in zip(x, maps):
        for feature, count in fmap.items():
            col = vocab.index.get(feature)
            if col is not None:
                row[col] = count
    return x


# morphs for the morph-feature rows; letters outside them segment alone
SEGMENTER = SegmenterModel(morph_counts={"ab": 4, "ba": 3, "c": 2, "abc": 1},
                           alphabet=frozenset("abcd"), total_code_length=0.0)
WORDS = st.text("abcdAB.-", min_size=1, max_size=7)


class TestNgramTable:
    @settings(max_examples=120)
    @given(words=st.lists(WORDS, min_size=1, max_size=10),
           picks=st.lists(st.integers(0, 50), min_size=1, max_size=16),
           kind=st.sampled_from(NgramKind),
           n_range=st.tuples(st.integers(1, 4), st.integers(1, 4)).map(sorted),
           cap=st.integers(1, 30))
    # a tie at the cap: "a" and "b" both total 2
    @example(words=["ab", "ba"], picks=[0, 1], kind=NgramKind.CHAR,
             n_range=[1, 1], cap=1)
    # a cap above the number of distinct grams, over a repeated word
    @example(words=["ab", "ab"], picks=[0, 1, 1], kind=NgramKind.CHAR,
             n_range=[1, 2], cap=30)
    @example(words=["abab", "cab"], picks=[1, 0], kind=NgramKind.MORPHEME,
             n_range=[1, 2], cap=2)
    def test_table_equals_per_word_path(self, words, picks, kind, n_range, cap):
        segmenter = SEGMENTER if kind is NgramKind.MORPHEME else None
        table = NgramTable.of_words(words, kind, *n_range, segmenter)
        # a row subset, with repeats, of a word list that may hold duplicates
        chosen = [words[p % len(words)] for p in picks]
        maps = [word_features(w, kind, *n_range, segmenter) for w in chosen]
        rows = table.rows(chosen)
        assert [table.maps[i] for i in rows] == maps
        if not any(maps):  # every word shorter than n_min
            with pytest.raises(AnalysisError, match="no features observed"):
                table.vocabulary(rows, cap)
            return
        vocab = table.vocabulary(rows, cap)
        assert vocab == _old_vocabulary(maps, kind, cap, *n_range)
        assert fit_vocabulary(maps, kind, cap, *n_range) == vocab
        x = count_matrix(vocab, [table.maps[i] for i in rows])
        assert np.array_equal(x, _old_rows(vocab, maps))
        assert rows == [list(dict.fromkeys(words)).index(w) for w in chosen]

    @settings(max_examples=80)
    @given(maps=st.lists(st.dictionaries(GRAMS, st.integers(0, 4), max_size=6),
                         min_size=1, max_size=6),
           cap=st.integers(1, 12))
    # a feature seen only with count 0 still ranks, after the others
    @example(maps=[{"b": 1}, {"a": 0}], cap=5)
    def test_any_maps_keep_the_old_rule(self, maps, cap):
        if not any(maps):
            with pytest.raises(AnalysisError, match="no features observed"):
                fit_vocabulary(maps, NgramKind.CHAR, cap)
            return
        vocab = fit_vocabulary(maps, NgramKind.CHAR, cap)
        assert vocab == _old_vocabulary(maps, NgramKind.CHAR, cap, 1, 5)
        assert np.array_equal(count_matrix(vocab, maps), _old_rows(vocab, maps))
        assert all(np.array_equal(count_matrix(vocab, [m])[0], row)
                   for m, row in zip(maps, _old_rows(vocab, maps)))

    def test_rows_are_of_its_words_only(self):
        table = NgramTable.of_words(["ab", "ba", "ab"], NgramKind.CHAR, 1, 2)
        assert table.rows(["ba", "ab", "ba"]) == [1, 0, 1]
        with pytest.raises(KeyError):
            table.rows(["c"])


def count_extractions(monkeypatch) -> collections.Counter:
    """The `word_features` calls from now on, by (kind, word)."""
    extracted = collections.Counter()

    def counting(word, kind, *args):
        extracted[kind, word] += 1
        return word_features(word, kind, *args)

    monkeypatch.setattr(features, "word_features", counting)
    return extracted


def test_pipeline_models_equal_per_word_path(tmp_path, monkeypatch):
    """The six fits of the fixture pipeline, against the same fits built
    the old way: per-word maps, the dict ranking and one vector per row."""
    fits = []
    train_logreg = cli.train_logreg
    extracted = count_extractions(monkeypatch)

    def recording(maps, labels, vocab, **kwargs):
        fits.append((list(labels), kwargs, train_logreg(maps, labels, vocab,
                                                        **kwargs)))
        return fits[-1][-1]

    monkeypatch.setattr(cli, "train_logreg", recording)
    out = tmp_path / "run"
    result = CliRunner().invoke(cli.main, ["pipeline", "--fixtures", "--seed",
                                           "7", "--out", str(out)])
    assert result.exit_code == 0, result.output

    gold = load_gold_classes(files("slanglex").joinpath(
        "data", "fixtures", "gold_classes.csv"))
    split = split_gold(gold, test_fraction=0.10, seed=7)
    segmenter = load_segmenter(out / "segmenter_slang.tsv")
    folds = [[r for r in split.train if r.label != held]
             for held in sorted({r.label for r in gold}, key=str)]
    expected = [(split.train, NgramKind.CHAR, None),
                (split.train, NgramKind.MORPHEME, segmenter),
                *((records, NgramKind.CHAR, None) for records in folds)]
    assert len(fits) == len(expected) == 6
    # the char fits read one table of every gold word, so each word's char
    # n-grams are extracted once; morph n-grams once for the training words
    # (the morph fit's table) and once for the test words (scoring)
    assert extracted == {**{(NgramKind.CHAR, r.word): 1 for r in gold},
                         **{(NgramKind.MORPHEME, r.word): 1 for r in gold}}
    monkeypatch.setattr(features, "word_features", word_features)
    monkeypatch.setattr(logreg, "count_matrix", _old_rows)
    for (labels, kwargs, model), (records, kind, seg) in zip(fits, expected):
        n_min, n_max, cap = (cli.FIT[key] for key in ("n_min", "n_max", "cap"))
        maps = [word_features(r.word, kind, n_min, n_max, seg) for r in records]
        vocab = _old_vocabulary(maps, kind, cap, n_min, n_max)
        assert labels == [r.label for r in records]
        old = train_logreg(maps, labels, vocab, **kwargs)
        assert model.vocab == vocab
        assert model.classes == old.classes
        assert model.weights.tobytes() == old.weights.tobytes()
        assert (model.stop, model.iterations) == (old.stop, old.iterations)


def test_classes_eval_extracts_each_gold_word_once(monkeypatch):
    """Its four folds' char fits read one table of every gold word; fold
    scoring walks the vocabulary trie and extracts nothing."""
    extracted = count_extractions(monkeypatch)
    gold = files("slanglex").joinpath("data", "fixtures", "gold_classes.csv")
    result = CliRunner().invoke(cli.main, ["classes", "eval", "--gold", str(gold),
                                           "--delta", "0.5", "--seed", "7"])
    assert result.exit_code == 0, result.output
    assert extracted == {(NgramKind.CHAR, r.word): 1
                         for r in load_gold_classes(gold)}
