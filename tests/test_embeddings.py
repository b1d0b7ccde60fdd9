"""Corpus building, SGNS gradients (finite-difference oracle), training
behavior, similarity queries, the text vector format and its cache."""
import collections
import math
import os
import tracemalloc
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from slanglex import embeddings
from slanglex.corpus import LexiconEntry, load_slang_lexicon
from slanglex.embeddings import (
    EmbeddingTable,
    TrainingConfig,
    _window_pairs,
    build_usage_corpus,
    cosine,
    cosines,
    load_embeddings,
    save_embeddings,
    sgns_pair_gradients,
    train_skipgram,
)
from slanglex.errors import AnalysisError, SchemaError


def entry(headword, *examples):
    return LexiconEntry(headword, examples=examples)


class TestCorpusBuilding:
    def test_lowercase_and_punctuation_split(self):
        corpus = build_usage_corpus(
            [entry("thizz", "thizz is NOT pure extacy!")])
        assert corpus == [["thizz", "is", "not", "pure", "extacy"]]

    def test_apostrophes_stay_inside_tokens(self):
        corpus = build_usage_corpus([entry("x", "don't stop")])
        assert corpus == [["don't", "stop"]]

    def test_multiword_headword_joined(self):
        corpus = build_usage_corpus(
            [entry("med school", "she got into med school early")])
        assert corpus == [["she", "got", "into", "med_school", "early"]]

    def test_longest_phrase_wins(self):
        entries = [entry("a b", "x"), entry("a b c", "the a b c method")]
        corpus = build_usage_corpus(entries)
        assert ["the", "a_b_c", "method"] in corpus

    def test_each_example_is_a_sentence(self):
        corpus = build_usage_corpus([entry("x", "one two", "three four")])
        assert corpus == [["one", "two"], ["three", "four"]]

    def test_numbers_kept(self):
        corpus = build_usage_corpus([entry("x", "call 911 now")])
        assert corpus == [["call", "911", "now"]]


class TestPairGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        h = 1e-6
        for trial in range(30):
            d = int(rng.integers(2, 8))
            k = int(rng.integers(1, 6))
            center = rng.normal(scale=0.8, size=d)
            positive = rng.normal(scale=0.8, size=d)
            negatives = rng.normal(scale=0.8, size=(k, d))
            _, g_c, g_p, g_n = sgns_pair_gradients(center, positive, negatives)

            def loss_at(c, p, n):
                return sgns_pair_gradients(c, p, n)[0]

            fd_c = np.zeros(d)
            for j in range(d):
                up, down = center.copy(), center.copy()
                up[j] += h
                down[j] -= h
                fd_c[j] = (loss_at(up, positive, negatives)
                           - loss_at(down, positive, negatives)) / (2 * h)
            fd_p = np.zeros(d)
            for j in range(d):
                up, down = positive.copy(), positive.copy()
                up[j] += h
                down[j] -= h
                fd_p[j] = (loss_at(center, up, negatives)
                           - loss_at(center, down, negatives)) / (2 * h)
            fd_n = np.zeros((k, d))
            for i in range(k):
                for j in range(d):
                    up, down = negatives.copy(), negatives.copy()
                    up[i, j] += h
                    down[i, j] -= h
                    fd_n[i, j] = (loss_at(center, positive, up)
                                  - loss_at(center, positive, down)) / (2 * h)

            for analytic, numeric in ((g_c, fd_c), (g_p, fd_p), (g_n, fd_n)):
                err = np.linalg.norm(analytic - numeric)
                scale = max(np.linalg.norm(numeric), 1e-12)
                assert err / scale < 1e-4, f"trial {trial}"

    def test_zero_center_loss_is_log2_per_term(self):
        # all dots are 0, so every term contributes -log sigmoid(0) = ln 2
        d, k = 5, 3
        loss, _, g_p, _ = sgns_pair_gradients(
            np.zeros(d), np.ones(d), np.ones((k, d)))
        assert loss == pytest.approx((1 + k) * math.log(2), abs=1e-12)
        assert np.allclose(g_p, 0.0)  # (sigmoid(0) - 1) * zero center

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            loss, *_ = sgns_pair_gradients(
                rng.normal(size=4), rng.normal(size=4), rng.normal(size=(2, 4)))
            assert loss >= 0.0

    def test_batch_rows_match_single_pairs(self):
        # each row of a masked batch equals a single-pair call on that row
        # with the masked negatives left out
        rng = np.random.default_rng(21)
        b, k, d = 40, 5, 7
        center = rng.normal(scale=0.8, size=(b, d))
        positive = rng.normal(scale=0.8, size=(b, d))
        negatives = rng.normal(scale=0.8, size=(b, k, d))
        keep = rng.random((b, k)) < 0.7
        keep[0] = False  # a row whose every negative is dropped
        loss, g_c, g_p, g_n = sgns_pair_gradients(center, positive, negatives,
                                                  keep=keep)
        assert loss.shape == (b,)
        assert g_n.shape == (b, k, d)
        for i in range(b):
            ref_loss, ref_c, ref_p, ref_n = sgns_pair_gradients(
                center[i], positive[i], negatives[i][keep[i]])
            assert isinstance(ref_loss, float)
            np.testing.assert_allclose(loss[i], ref_loss, rtol=1e-12)
            np.testing.assert_allclose(g_c[i], ref_c, rtol=1e-12)
            np.testing.assert_allclose(g_p[i], ref_p, rtol=1e-12)
            np.testing.assert_allclose(g_n[i][keep[i]], ref_n, rtol=1e-12)
            assert not np.any(g_n[i][~keep[i]])


def identical_context_corpus():
    a = "the quick brown xxx jumps over fence".split()
    b = "the quick brown yyy jumps over fence".split()
    c = "cold rain falls zzz under grey cloud".split()
    return [a, b, c] * 40


SMALL_CONFIG = TrainingConfig(dimension=20, window=2, negatives=5, epochs=20,
                              lr=0.025, min_count=1,
                              subsample=0.0, seed=0)


@pytest.fixture(scope="module")
def trained_table():
    return train_skipgram(identical_context_corpus(), SMALL_CONFIG)


class TestTraining:
    def test_shared_contexts_align_vectors(self, trained_table):
        xy = cosine(trained_table.vector("xxx"), trained_table.vector("yyy"))
        xz = cosine(trained_table.vector("xxx"), trained_table.vector("zzz"))
        assert xy > xz

    def test_epoch_loss_decreases(self, trained_table):
        assert trained_table.epoch_losses[-1] < trained_table.epoch_losses[0]

    def test_bit_for_bit_deterministic(self, trained_table):
        again = train_skipgram(identical_context_corpus(), SMALL_CONFIG)
        assert again.tokens == trained_table.tokens
        assert np.array_equal(again.matrix, trained_table.matrix)

    def test_seed_changes_vectors(self, trained_table):
        other = train_skipgram(
            identical_context_corpus(),
            TrainingConfig(dimension=20, window=2, negatives=5, epochs=20,
                           min_count=1, subsample=0.0, seed=1, lr=0.025))
        assert not np.array_equal(other.matrix, trained_table.matrix)

    def test_heavy_repetition_stays_finite(self):
        # a 3-token vocabulary repeats every row many times per chunk of
        # pairs unless the chunk is bounded by the vocabulary size
        corpus = [["ab", "cd", "ef"]] * 300
        config = TrainingConfig(dimension=10, window=2, negatives=5, epochs=5,
                                min_count=1, subsample=0.0, seed=3, lr=0.025)
        table = train_skipgram(corpus, config)
        assert all(math.isfinite(loss) for loss in table.epoch_losses)
        assert table.epoch_losses[-1] < table.epoch_losses[0]
        assert np.all(np.isfinite(table.matrix))

    def test_min_count_filters_vocabulary(self):
        corpus = [["common", "common", "common", "rare"]]
        config = TrainingConfig(dimension=4, window=2, negatives=2, epochs=1,
                                min_count=2, subsample=0.0, lr=0.025, seed=0)
        table = train_skipgram(corpus, config)
        assert "common" in table
        assert "rare" not in table

    def test_empty_vocabulary_rejected(self):
        config = TrainingConfig(dimension=4, window=2, negatives=2, epochs=1,
                                min_count=50, lr=0.025, subsample=1e-3, seed=0)
        with pytest.raises(AnalysisError):
            train_skipgram([["a", "b"]], config)

    def test_config_validation(self):
        valid = dict(dimension=100, window=5, negatives=5, epochs=5, lr=0.025,
                     min_count=5, subsample=1e-3, seed=0)
        for kwargs in ({"dimension": 0}, {"window": 0}, {"negatives": 0},
                       {"epochs": 0}, {"min_count": 0}, {"lr": 0.0},
                       {"lr": math.inf}, {"lr": math.nan},
                       {"subsample": math.nan}):
            with pytest.raises(AnalysisError):
                TrainingConfig(**{**valid, **kwargs})


def reference_skipgram(corpus, config):
    """SGNS training written one chunk at a time: each chunk draws its own
    negatives and keep mask, and each descent sorts the chunk's rows with
    argsort. The reference the trainer must equal bit for bit."""
    counts = {}
    for sentence in corpus:
        for token in sentence:
            counts[token] = counts.get(token, 0) + 1
    vocab = sorted((t for t, c in counts.items() if c >= config.min_count),
                   key=lambda t: (-counts[t], t))
    index = {t: i for i, t in enumerate(vocab)}
    vocab_counts = np.array([counts[t] for t in vocab], dtype=np.float64)
    keep_prob = np.ones(len(vocab))
    if config.subsample > 0:
        freq = vocab_counts / vocab_counts.sum()
        with np.errstate(divide="ignore"):
            keep_prob = np.minimum(
                1.0, np.sqrt(config.subsample / freq))
    noise = vocab_counts ** 0.75
    noise_cdf = np.cumsum(noise / noise.sum())
    rng = np.random.default_rng(config.seed)
    d = config.dimension
    vectors = (rng.random((len(vocab), d)) - 0.5) / d
    context = np.zeros((len(vocab), d))
    sentences = [[index[t] for t in sent if t in index] for sent in corpus]
    tokens = np.array([w for sent in sentences for w in sent], dtype=np.intp)
    sentence_ids = np.repeat(np.arange(len(sentences)),
                             [len(sent) for sent in sentences])

    def descend(matrix, rows, grads, lr):
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
        starts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
        matrix[rows[starts]] -= lr * np.add.reduceat(grads[order], starts,
                                                     axis=0)

    chunk = min(len(vocab), 128)
    epoch_losses = []
    for epoch in range(config.epochs):
        lr = max(config.lr * (1.0 - epoch / config.epochs),
                 config.lr * 1e-4)
        kept = rng.random(len(tokens)) < keep_prob[tokens]
        reach = rng.integers(1, config.window + 1, size=int(kept.sum()))
        centers, contexts = _window_pairs(tokens[kept], sentence_ids[kept],
                                          reach, config.window)
        loss_sum = 0.0
        for lo in range(0, len(centers), chunk):
            c_ids = centers[lo:lo + chunk]
            p_ids = contexts[lo:lo + chunk]
            n_ids = noise_cdf.searchsorted(
                rng.random((len(c_ids), config.negatives)))
            loss, g_c, g_p, g_n = sgns_pair_gradients(
                vectors[c_ids], context[p_ids], context[n_ids],
                keep=n_ids != p_ids[:, None])
            descend(vectors, c_ids, g_c, lr)
            descend(context, p_ids, g_p, lr)
            descend(context, n_ids.ravel(), g_n.reshape(-1, d), lr)
            loss_sum += float(loss.sum())
        epoch_losses.append(loss_sum / len(centers) if len(centers) else 0.0)
    return vocab, vectors, tuple(epoch_losses)


@st.composite
def corpora(draw):
    """Every one of 1-170 types at least once plus repeats, shuffled and
    cut into sentences: vocabularies on both sides of the 128-pair chunk
    bound."""
    types = draw(st.integers(1, 170))
    ids = list(range(types)) + draw(
        st.lists(st.integers(0, types - 1), max_size=150))
    ids = draw(st.permutations(ids))
    cuts = draw(st.lists(st.integers(1, len(ids)), max_size=20))
    bounds = sorted({0, len(ids), *cuts})
    return [[f"w{i}" for i in ids[a:b]] for a, b in zip(bounds, bounds[1:])]


class TestWindowPairs:
    def test_wide_window_pairs_within_sentences_in_bounded_memory(self):
        # the fixture usage corpus's longest sentence is 17 tokens; offsets
        # out to the window would take tokens x 6000 matrices (over 100 MB)
        corpus = build_usage_corpus(load_slang_lexicon(
            files("slanglex").joinpath("data", "fixtures", "slang.jsonl")))
        vocab = {t: i for i, t in enumerate(sorted({t for s in corpus
                                                     for t in s}))}
        tokens = np.array([vocab[t] for s in corpus for t in s])
        sentence_ids = np.repeat(np.arange(len(corpus)), list(map(len, corpus)))
        reach = np.random.default_rng(0).integers(1, 3001, size=len(tokens))
        tracemalloc.start()
        try:
            centers, contexts = _window_pairs(tokens, sentence_ids, reach, 3000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6
        expected, start = [], 0
        for sentence in corpus:
            span = range(start, start + len(sentence))
            expected += [(tokens[i], tokens[j]) for i in span for j in span
                         if j != i and abs(j - i) <= reach[i]]
            start += len(sentence)
        assert list(zip(centers.tolist(), contexts.tolist())) == expected


class TestTrainingOracle:
    @settings(max_examples=100)
    @given(corpus=corpora(), negatives=st.integers(1, 15),
           dimension=st.integers(1, 40), window=st.integers(1, 5),
           epochs=st.integers(1, 3), min_count=st.integers(1, 2),
           subsample=st.sampled_from([0.0, 1e-3, 0.05]),
           seed=st.integers(0, 2**32 - 1))
    # three types: every row repeats within each chunk of 3 pairs, over
    # the 120 chunks of an epoch's 360 pairs
    @example(corpus=[["ab", "cd", "ef"]] * 60, negatives=5, dimension=10,
             window=2, epochs=3, min_count=1, subsample=0.0, seed=3)
    # 12 pairs in chunks of 4 (a window of 1 always reaches 1): no
    # partial chunk
    @example(corpus=[["a", "b", "c", "d"]] * 2, negatives=3, dimension=4,
             window=1, epochs=2, min_count=1, subsample=0.0, seed=0)
    # 160 types: 128-pair chunks and a partial last chunk
    @example(corpus=[[f"w{i}" for i in range(160)]], negatives=15,
             dimension=40, window=5, epochs=3, min_count=1, subsample=1e-3,
             seed=9)
    def test_equals_chunk_by_chunk_training(self, corpus, negatives, dimension,
                                            window, epochs, min_count,
                                            subsample, seed):
        config = TrainingConfig(dimension=dimension, window=window,
                                negatives=negatives, epochs=epochs,
                                min_count=min_count,
                                subsample=subsample, seed=seed, lr=0.025)
        counts = collections.Counter(t for sentence in corpus for t in sentence)
        if max(counts.values()) < min_count:
            with pytest.raises(AnalysisError):
                train_skipgram(corpus, config)
            return
        table = train_skipgram(corpus, config)
        vocab, matrix, epoch_losses = reference_skipgram(corpus, config)
        assert table.tokens == tuple(vocab)
        assert table.matrix.tobytes() == matrix.tobytes()
        assert np.array(table.epoch_losses).tobytes() == \
            np.array(epoch_losses).tobytes()


class TestCosine:
    def test_identities(self):
        v = np.array([1.0, 2.0, -3.0])
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)
        assert cosine(v, -v) == pytest.approx(-1.0, abs=1e-12)
        assert cosine(np.array([1.0, 0.0]),
                      np.array([0.0, 5.0])) == pytest.approx(0.0, abs=1e-12)

    def test_scale_invariance(self):
        u = np.array([0.3, -0.7, 2.0])
        v = np.array([1.1, 0.4, -0.2])
        assert cosine(u, v) == pytest.approx(cosine(3.0 * u, 0.5 * v))

    def test_zero_vector_rejected(self):
        with pytest.raises(AnalysisError):
            cosine(np.zeros(3), np.ones(3))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            cosine(np.ones(3), np.ones(4))

    def test_kernel_rows_equal_scalar_cosine(self):
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(7, 5))
        queries = rng.normal(size=(3, 5))
        stacked = cosines(queries, rows)
        assert stacked.shape == (3, 7)
        for query, row_sims in zip(queries, stacked):
            assert cosines(query, rows).tolist() == row_sims.tolist()
            assert row_sims.tolist() == [cosine(query, row) for row in rows]

    def test_kernel_rejects_zero_row(self):
        with pytest.raises(AnalysisError):
            cosines(np.ones(2), np.array([[1.0, 0.0], [0.0, 0.0]]))


class TestPersistence:
    def test_roundtrip_at_six_decimals(self, tmp_path):
        rng = np.random.default_rng(2)
        tokens = ["alpha", "beta", "gamma"]
        matrix = rng.normal(size=(3, 4))
        table = EmbeddingTable(tokens, matrix)
        path = tmp_path / "vectors.txt"
        save_embeddings(table, path)
        loaded = load_embeddings(path)
        assert loaded.tokens == tuple(tokens)
        assert loaded.dimension == 4
        assert np.allclose(loaded.matrix, matrix, atol=5e-7)

    @settings(max_examples=100)
    @given(matrix=arrays(
        np.float64, st.tuples(st.integers(0, 4), st.integers(1, 6)),
        elements=st.floats(allow_nan=False, allow_infinity=False)
        # negative zero, values that round to -0.000000, values near and
        # at a tie in the sixth decimal (2**-7 ends in 5 at the seventh)
        | st.sampled_from([-0.0, -1e-9, -4.9e-7, 5e-7, -5e-7, 2.0**-7,
                           -(2.0**-7), 3 * 2.0**-7, 1e300, -1e300])))
    @example(matrix=np.array([[-0.0], [5e-7], [-5e-7], [1e300]]))
    def test_rows_formatted_value_by_value(self, tmp_path_factory, matrix):
        tokens = [f"t{i}" for i in range(len(matrix))]
        table = EmbeddingTable(tokens, matrix)
        path = tmp_path_factory.getbasetemp() / "vectors.txt"
        save_embeddings(table, path)
        expected = f"{len(tokens)} {matrix.shape[1]}\n" + "".join(
            f"{token} {' '.join(f'{x:.6f}' for x in row)}\n"
            for token, row in zip(tokens, matrix))
        assert path.read_bytes() == expected.encode("utf-8")

    def test_trailing_whitespace_accepted(self, tmp_path):
        # word2vec text files often end every vector line with a space
        path = tmp_path / "vectors.txt"
        path.write_text("2 3 \na 0.1 0.2 0.3 \nb -1 0 2.5 \r\n",
                        encoding="utf-8")
        loaded = load_embeddings(path)
        assert loaded.tokens == ("a", "b")
        assert np.array_equal(loaded.matrix,
                              [[0.1, 0.2, 0.3], [-1.0, 0.0, 2.5]])
        again = tmp_path / "again.txt"
        save_embeddings(loaded, again)
        reloaded = load_embeddings(again)
        assert reloaded.tokens == loaded.tokens
        assert np.array_equal(reloaded.matrix, loaded.matrix)

    def test_header_must_match_body(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("2 3\na 0.1 0.2 0.3\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_embeddings(path)

    def test_bad_dimension_reports_line(self, tmp_path):
        path = tmp_path / "vectors.txt"
        for text, line in (("1 3\na 0.1 0.2\n", 2),
                           ("2 3\na 0.1 0.2 0.3 \nb 0.1 0.2 \n", 3)):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(SchemaError) as err:
                load_embeddings(path)
            assert err.value.line == line

    def test_non_numeric_value_rejected(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("1 2\na 0.1 oops\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_embeddings(path)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("3\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_embeddings(path)

    @pytest.mark.parametrize("text, reason", [
        ("2 1\na 0.5\na 0.25\n", "duplicate tokens in embedding table"),
        ("1 2\na 0.5 nan\n", "embedding matrix contains non-finite values"),
        ("1 1\na -inf\n", "embedding matrix contains non-finite values"),
        ("2 3\na 0.1 0.2 0.3\n", "header declared 2 tokens, file has 1"),
        ("\n", "expected '<vocab> <dim>' header"),
    ], ids=["duplicate", "nan", "infinite", "count", "no-header"])
    def test_table_error_names_the_file(self, tmp_path, text, reason):
        path = tmp_path / "vectors.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            load_embeddings(path)
        assert str(err.value) == f"{path}: {reason}"

    @pytest.mark.parametrize("header", ["0 -1", "1 0"])
    def test_dimension_below_one_rejected(self, tmp_path, header):
        path = tmp_path / "vectors.txt"
        path.write_text(f"\n{header}\na\n", encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            load_embeddings(path)
        assert str(err.value).startswith(f"{path}:2: dimension must be >= 1")


def cache_entries(cache_home):
    return sorted((cache_home / "slanglex").glob("*.npz"))


def write_table(path, rows, dim=2):
    """A vector table of `rows` (token, values) pairs; returns its path."""
    lines = [f"{len(rows)} {dim}"] + [
        " ".join([token, *map(str, values)]) for token, values in rows]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


class TestCache:
    """A table is parsed once per content: later loads of the same bytes
    read a cache entry under $XDG_CACHE_HOME/slanglex, which never changes
    what a load returns or raises."""

    @staticmethod
    def unparsed(monkeypatch):
        """Make any parse of a text table fail the test."""
        def parse(path):
            raise AssertionError("a cached table was parsed")
        monkeypatch.setattr(embeddings, "_parse_lines", parse)

    @pytest.mark.parametrize("rows", [
        [("", [0.5, 1.0]), ("a\tb", [-0.0, 2.5e-300]), ("nul\x00", [1e300, 3.0]),
         ("ñandú_🙂", [0.1, 0.2]), ("plain", [-7.25, 1 / 3])],
        [],
    ], ids=["odd-tokens", "zero-rows"])
    def test_warm_load_is_bit_identical(self, tmp_path, cache_home,
                                        monkeypatch, rows):
        path = write_table(tmp_path / "vectors.txt", rows)
        cold = load_embeddings(path)
        assert len(cache_entries(cache_home)) == 1
        self.unparsed(monkeypatch)
        warm = load_embeddings(path)
        assert warm.tokens == cold.tokens == tuple(t for t, _ in rows)
        assert warm.matrix.dtype == cold.matrix.dtype == np.float64
        assert warm.matrix.shape == cold.matrix.shape == (len(rows), 2)
        assert warm.matrix.tobytes() == cold.matrix.tobytes()

    @pytest.mark.parametrize("text", [
        "2 1\na 0.5\na 0.25\n", "1 2\na 0.5 nan\n", "2 3\na 0.1 0.2 0.3\n",
        "1 2\na 0.1 oops\n", "1 1\n\xe9 0.5\n", "3\n",
    ], ids=["duplicate", "nan", "count", "non-numeric", "latin-1", "header"])
    def test_malformed_table_fails_alike_with_a_warm_cache(
            self, tmp_path, cache_home, text):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(text.encode("latin-1"))
        with pytest.raises(SchemaError) as cold:
            load_embeddings(bad)
        good = write_table(tmp_path / "good.txt", [("a", [0.5])], dim=1)
        load_embeddings(good)
        load_embeddings(good)
        with pytest.raises(SchemaError) as warm:
            load_embeddings(bad)
        assert str(warm.value) == str(cold.value)
        assert len(cache_entries(cache_home)) == 1  # the good table's

    def test_changed_value_misses(self, tmp_path, cache_home):
        path = write_table(tmp_path / "vectors.txt", [("a", [0.5, 1.0])])
        load_embeddings(path)
        write_table(path, [("a", [0.5, 1.5])])
        assert load_embeddings(path).matrix.tolist() == [[0.5, 1.5]]
        assert len(cache_entries(cache_home)) == 2

    def test_truncated_entry_is_reparsed_and_rewritten(self, tmp_path,
                                                       cache_home):
        path = write_table(tmp_path / "vectors.txt",
                           [("a", [0.5, 1.0]), ("b", [2.0, -1.0])])
        cold = load_embeddings(path)
        [entry] = cache_entries(cache_home)
        written = entry.read_bytes()
        for damaged in (written[:len(written) // 2], b"", b"not a zip"):
            entry.write_bytes(damaged)
            again = load_embeddings(path)
            assert again.tokens == cold.tokens
            assert again.matrix.tobytes() == cold.matrix.tobytes()
            assert entry.read_bytes() == written

    def test_mis_shaped_entry_is_a_miss(self, tmp_path, cache_home):
        path = write_table(tmp_path / "vectors.txt", [("a", [0.5, 1.0])])
        load_embeddings(path)
        [entry] = cache_entries(cache_home)
        for arrays in ({"matrix": np.ones((1, 2))},
                       {"matrix": np.ones((2, 2)),
                        "tokens": np.frombuffer(b"a", dtype=np.uint8)},
                       {"matrix": np.array([[np.inf, 1.0]]),
                        "tokens": np.frombuffer(b"a", dtype=np.uint8)},
                       {"matrix": np.ones((1, 2), dtype=np.float32),
                        "tokens": np.frombuffer(b"a", dtype=np.uint8)}):
            with open(entry, "wb") as handle:
                np.savez(handle, **arrays)
            assert load_embeddings(path).matrix.tolist() == [[0.5, 1.0]]

    def test_cache_home_that_is_a_file(self, tmp_path, monkeypatch):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("", encoding="utf-8")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        path = write_table(tmp_path / "vectors.txt", [("a", [0.5, 1.0])])
        for _ in range(2):
            assert load_embeddings(path).matrix.tolist() == [[0.5, 1.0]]
        assert blocker.read_text(encoding="utf-8") == ""

    def test_keeps_the_entries_used_last(self, tmp_path, cache_home):
        limit = embeddings._CACHE_ENTRIES
        tables = [write_table(tmp_path / f"v{i}.txt", [("a", [float(i), 1.0])])
                  for i in range(limit + 2)]
        entries = {}
        for i, table in enumerate(tables[:limit]):
            load_embeddings(table)
            [entries[i]] = set(cache_entries(cache_home)) - set(entries.values())
            os.utime(entries[i], ns=(0, i))  # distinct times, oldest first
        load_embeddings(tables[0])  # a hit makes table 0 the newest
        for table in tables[limit:]:
            load_embeddings(table)
        kept = set(cache_entries(cache_home))
        assert len(kept) == limit
        assert entries[0] in kept
        assert entries[1] not in kept and entries[2] not in kept

    def test_nothing_lands_outside_the_cache_home(self, tmp_path, cache_home,
                                                  monkeypatch):
        home = tmp_path / "home"
        home.mkdir()
        monkeypatch.setenv("HOME", str(home))
        path = write_table(tmp_path / "vectors.txt", [("a", [0.5, 1.0])])
        load_embeddings(path)
        [entry] = cache_entries(cache_home)
        assert set(cache_home.rglob("*")) == {entry, entry.parent}
        assert not any(home.iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "home", "vectors.txt"]

    @pytest.mark.parametrize("value", ["", "relative/cache"])
    def test_unset_or_relative_cache_home_means_home(self, tmp_path,
                                                     monkeypatch, value):
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setenv("XDG_CACHE_HOME", value)
        monkeypatch.chdir(tmp_path)
        load_embeddings(write_table(tmp_path / "vectors.txt",
                                    [("a", [0.5, 1.0])]))
        assert len(cache_entries(tmp_path / ".cache")) == 1
        assert not (tmp_path / "relative").exists()

    def test_no_home_directory_means_no_cache(self, tmp_path, monkeypatch):
        def unknown_user(uid):
            raise KeyError(uid)
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.delenv("HOME", raising=False)
        monkeypatch.setattr("pwd.getpwuid", unknown_user)
        monkeypatch.chdir(tmp_path)
        path = write_table(tmp_path / "vectors.txt", [("a", [0.5, 1.0])])
        for _ in range(2):
            assert load_embeddings(path).matrix.tolist() == [[0.5, 1.0]]
        assert [p.name for p in tmp_path.iterdir()] == ["vectors.txt"]
