"""Character/morpheme n-gram extraction and vocabulary fitting."""
import collections
from importlib.resources import files

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import slanglex.cli as cli
from slanglex.corpus import load_gold_classes, stratified_split
from slanglex.errors import AnalysisError
from slanglex.labels import SlangClass
from slanglex.morphology import SegmenterModel, load_segmenter, segment
from slanglex.slangclass import features, logreg
from slanglex.slangclass.features import (
    FeatureVocabulary,
    NgramKind,
    NgramTable,
    feature_matrix,
    word_features,
)
from slanglex.slangclass.logreg import (
    ClassifierModel,
    _softmax_rows,
    predict_proba_batch,
)


class TestCharNgrams:
    def test_ab_full_enumeration(self):
        assert word_features("ab", NgramKind.CHAR, 1, 2) == {"a": 1, "b": 1, "ab": 1}

    def test_boo_with_multiplicity(self):
        assert word_features("boo", NgramKind.CHAR, 1, 2) == {
            "b": 1, "o": 2, "bo": 1, "oo": 1}

    def test_periods_and_case_survive(self):
        grams = word_features("A.B", NgramKind.CHAR, 1, 3)
        assert grams["."] == 1
        assert grams["A.B"] == 1
        assert "a" not in grams

    def test_window_longer_than_word(self):
        assert word_features("ab", NgramKind.CHAR, 1, 5) == {"a": 1, "b": 1, "ab": 1}

    def test_count_identity(self):
        # a word of length L has L - n + 1 n-gram tokens
        word = "abcdefg"
        for n in range(1, 4):
            grams = word_features(word, NgramKind.CHAR, n, n)
            assert sum(grams.values()) == len(word) - n + 1

    def test_validation(self):
        with pytest.raises(AnalysisError):
            word_features("", NgramKind.CHAR, 1, 5)
        with pytest.raises(AnalysisError):
            word_features("ab", NgramKind.CHAR, 2, 1)
        with pytest.raises(AnalysisError):
            word_features("ab", NgramKind.CHAR, 0, 1)


# segments dogcat as dog+cat, abc as a+b+c and dog as dog
MORPHS = SegmenterModel(morph_counts=dict.fromkeys(["dog", "cat", "a", "b", "c"], 1),
                        alphabet=frozenset("dogcatb"), total_code_length=0.0)


class TestMorphemeNgrams:
    def test_two_morph_enumeration(self):
        assert segment(MORPHS, "dogcat").morphs == ("dog", "cat")
        assert word_features("dogcat", NgramKind.MORPHEME, 1, 2, MORPHS) == {
            "dog": 1, "cat": 1, "dog+cat": 1}

    def test_three_morph_gram_counts(self):
        assert segment(MORPHS, "abc").morphs == ("a", "b", "c")
        grams = word_features("abc", NgramKind.MORPHEME, 1, 3, MORPHS)
        # 3 unigrams, 2 bigrams, 1 trigram
        by_order = {1: 0, 2: 0, 3: 0}
        for gram, count in grams.items():
            by_order[gram.count("+") + 1] += count
        assert by_order == {1: 3, 2: 2, 3: 1}

    def test_single_morph(self):
        assert segment(MORPHS, "dog").morphs == ("dog",)
        assert word_features("dog", NgramKind.MORPHEME, 1, 5, MORPHS) == {"dog": 1}

    @settings(max_examples=200)
    @given(word=st.text("abcd", min_size=1, max_size=12),
           n_range=st.tuples(st.integers(1, 6), st.integers(1, 6)).map(sorted))
    def test_single_letter_morphs_give_char_features(self, word, n_range):
        # every letter is its own morph, so a morph run, its separators
        # removed, is the char run at the same place
        letters = SegmenterModel(morph_counts=dict.fromkeys("abcd", 1),
                                 alphabet=frozenset("abcd"), total_code_length=0.0)
        morph = word_features(word, NgramKind.MORPHEME, *n_range, letters)
        stripped = [(gram.replace(features.MORPH_SEPARATOR, ""), count)
                    for gram, count in morph.items()]
        assert stripped == list(word_features(word, NgramKind.CHAR, *n_range).items())


def unigram_vocabulary(words, cap):
    """The char-unigram vocabulary of the words."""
    return NgramTable(words, NgramKind.CHAR, 1, 1).vocabulary(words, cap)


class TestVocabulary:
    def test_cap_keeps_most_frequent(self):
        # a: 5 + 2, b: 1, c: 3
        vocab = unigram_vocabulary(["aaaaab", "aaccc"], cap=2)
        assert vocab.features == ("a", "c")

    def test_tie_breaks_lexicographically(self):
        vocab = unigram_vocabulary(["zzaamm"], cap=2)
        assert vocab.features == ("a", "m")

    def test_cap_larger_than_inventory(self):
        vocab = unigram_vocabulary(["a"], cap=50)
        assert vocab.features == ("a",)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            unigram_vocabulary(["a"], cap=0)
        with pytest.raises(AnalysisError, match="no features observed"):
            unigram_vocabulary([], cap=200)


# morphs for the morph-feature rows; letters outside them segment alone
SEGMENTER = SegmenterModel(morph_counts={"ab": 4, "ba": 3, "c": 2, "abc": 1},
                           alphabet=frozenset("abcd"), total_code_length=0.0)


class TestVectorize:
    """Words as count rows: `feature_matrix`, the one path to a model
    matrix."""

    def test_counts_land_in_columns(self):
        vocab = unigram_vocabulary(["ab"], cap=10)
        x = feature_matrix(vocab, ["aabbbbbbb"])[0]
        assert x[vocab.index["a"]] == 2.0
        assert x[vocab.index["b"]] == 7.0

    def test_unknown_features_ignored(self):
        vocab = unigram_vocabulary(["a"], cap=10)
        x = feature_matrix(vocab, ["zzz"])[0]
        assert np.array_equal(x, np.zeros(1))

    def test_dtype_and_shape(self):
        vocab = unigram_vocabulary(["abc"], cap=3)
        x = feature_matrix(vocab, ["b"])
        assert x.dtype == np.float64
        assert x.shape == (1, 3)

    def test_morph_rows(self):
        # abab -> ab+ab, cab -> c+ab, abd -> ab+d; "zz" is never seen
        vocab = FeatureVocabulary(kind=NgramKind.MORPHEME, n_min=1, n_max=2,
                                  features=("ab", "c+ab", "zz"))
        x = feature_matrix(vocab, ["abab", "cab", "abd"], SEGMENTER)
        assert x.dtype == np.float64
        assert x.tolist() == [[2.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 0.0, 0.0]]


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
    x = _old_rows(vocab, [word_features(word, NgramKind.CHAR, vocab.n_min,
                                       vocab.n_max)])[0]
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
        expected = _old_rows(model.vocab, [word_features(w, NgramKind.CHAR, *n_range)
                                           for w in words])
        assert x.dtype == np.float64
        assert np.array_equal(x, expected)
        probs = predict_proba_batch(model, words)
        for word, row in zip(words, probs):
            assert row.tobytes() == _one_word_probs(model, word).tobytes()
            assert predict_proba_batch(model, [word])[0].tolist() == row.tolist()

    def test_rows_match_across_blocks(self):
        rng = np.random.default_rng(0)
        words = ["".join(rng.choice(list("abcd.-"), size=rng.integers(1, 9)))
                 for _ in range(700)]
        vocab = NgramTable(words[:100], NgramKind.CHAR, 1, 5).vocabulary(
            words[:100], cap=200)
        model = _model(vocab.features, 1, 5)
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
        table = NgramTable(words, kind, *n_range, segmenter)
        # a subset, with repeats, of a word list that may hold duplicates
        chosen = [words[p % len(words)] for p in picks]
        maps = [word_features(w, kind, *n_range, segmenter) for w in chosen]
        if not any(maps):  # every word shorter than n_min
            with pytest.raises(AnalysisError, match="no features observed"):
                table.vocabulary(chosen, cap)
            return
        vocab = table.vocabulary(chosen, cap)
        assert vocab == _old_vocabulary(maps, kind, cap, *n_range)
        x = feature_matrix(vocab, chosen, segmenter)
        assert np.array_equal(x, _old_rows(vocab, maps))

    def test_rows_are_of_its_words_only(self):
        table = NgramTable(["ab", "ba", "ab"], NgramKind.CHAR, 1, 2)
        assert table.vocabulary(["ba", "ba"], 5).features == ("a", "b", "ba")
        with pytest.raises(KeyError):
            table.vocabulary(["c"], 5)


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

    def recording(words, labels, vocab, segmenter=None, **kwargs):
        fits.append((list(words), list(labels), kwargs,
                     train_logreg(words, labels, vocab, segmenter, **kwargs)))
        return fits[-1][-1]

    monkeypatch.setattr(cli, "train_logreg", recording)
    out = tmp_path / "run"
    result = CliRunner().invoke(cli.main, ["pipeline", "--fixtures", "--seed",
                                           "7", "--out", str(out)])
    assert result.exit_code == 0, result.output

    gold = load_gold_classes(files("slanglex").joinpath(
        "data", "fixtures", "gold_classes.csv"))
    train, _ = stratified_split(gold, lambda r: r.label, 0.10, seed=7)
    segmenter = load_segmenter(out / "segmenter_slang.tsv")
    folds = [[r for r in train if r.label != held]
             for held in sorted({r.label for r in gold}, key=str)]
    expected = [(train, NgramKind.CHAR, None),
                (train, NgramKind.MORPHEME, segmenter),
                *((records, NgramKind.CHAR, None) for records in folds)]
    assert len(fits) == len(expected) == 6
    # the char fits read one table of every gold word, so each word's char
    # n-grams are extracted once (their matrices walk the trie); morph
    # n-grams twice for the training words (the morph fit's table, then its
    # matrix) and once for the test words (scoring)
    train_words = {r.word for r in train}
    assert extracted == {**{(NgramKind.CHAR, r.word): 1 for r in gold},
                         **{(NgramKind.MORPHEME, r.word): 1 + (r.word in train_words)
                            for r in gold}}
    monkeypatch.setattr(features, "word_features", word_features)

    def old_matrix(vocab, words, segmenter=None):
        return _old_rows(vocab, [word_features(w, vocab.kind, vocab.n_min,
                                               vocab.n_max, segmenter)
                                 for w in words])

    monkeypatch.setattr(logreg, "feature_matrix", old_matrix)
    for (words, labels, kwargs, model), (records, kind, seg) in zip(fits, expected):
        n_min, n_max, cap = (cli.FIT[key] for key in ("n_min", "n_max", "cap"))
        maps = [word_features(r.word, kind, n_min, n_max, seg) for r in records]
        vocab = _old_vocabulary(maps, kind, cap, n_min, n_max)
        assert words == [r.word for r in records]
        assert labels == [r.label for r in records]
        old = train_logreg(words, labels, vocab, seg, **kwargs)
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
