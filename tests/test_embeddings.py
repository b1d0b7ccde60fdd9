"""Corpus building, SGNS gradients (finite-difference oracle), training
behavior, similarity queries and the text vector format."""
import math

import numpy as np
import pytest

from slanglex.corpus import LexiconEntry
from slanglex.embeddings import (
    EmbeddingTable,
    TrainingConfig,
    build_usage_corpus,
    cosine,
    cosines,
    load_embeddings,
    nearest,
    save_embeddings,
    sgns_pair_gradients,
    train_skipgram,
)
from slanglex.errors import AnalysisError, SchemaError


def fsum_cosine(u, v):
    """Cosine from exactly rounded sums, independent of the library kernel."""
    return math.fsum(u * v) / (math.sqrt(math.fsum(u * u))
                               * math.sqrt(math.fsum(v * v)))


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
                              initial_lr=0.025, min_count=1,
                              subsample_threshold=0.0, seed=0)


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
                           min_count=1, subsample_threshold=0.0, seed=1))
        assert not np.array_equal(other.matrix, trained_table.matrix)

    def test_heavy_repetition_stays_finite(self):
        # a 3-token vocabulary repeats every row many times per chunk of
        # pairs unless the chunk is bounded by the vocabulary size
        corpus = [["ab", "cd", "ef"]] * 300
        config = TrainingConfig(dimension=10, window=2, negatives=5, epochs=5,
                                min_count=1, subsample_threshold=0.0, seed=3)
        table = train_skipgram(corpus, config)
        assert all(math.isfinite(loss) for loss in table.epoch_losses)
        assert table.epoch_losses[-1] < table.epoch_losses[0]
        assert np.all(np.isfinite(table.matrix))

    def test_min_count_filters_vocabulary(self):
        corpus = [["common", "common", "common", "rare"]]
        config = TrainingConfig(dimension=4, window=2, negatives=2, epochs=1,
                                min_count=2, subsample_threshold=0.0)
        table = train_skipgram(corpus, config)
        assert "common" in table
        assert "rare" not in table
        assert table.counts["common"] == 3

    def test_empty_vocabulary_rejected(self):
        config = TrainingConfig(dimension=4, window=2, negatives=2, epochs=1,
                                min_count=50)
        with pytest.raises(AnalysisError):
            train_skipgram([["a", "b"]], config)

    def test_config_validation(self):
        for kwargs in ({"dimension": 0}, {"window": 0}, {"negatives": 0},
                       {"epochs": 0}, {"min_count": 0}, {"initial_lr": 0.0}):
            with pytest.raises(AnalysisError):
                TrainingConfig(**kwargs)


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


class TestNearest:
    def table(self):
        rng = np.random.default_rng(8)
        tokens = [f"t{i}" for i in range(30)]
        matrix = rng.normal(size=(30, 6))
        return EmbeddingTable(tokens, matrix, {t: 1 for t in tokens})

    def test_matches_brute_force(self):
        table = self.table()
        query = "t7"
        expected = sorted(
            ((t, cosine(table.vector(query), table.vector(t)))
             for t in table.tokens if t != query),
            key=lambda pair: (-pair[1], pair[0]))[:5]
        got = nearest(table, query, k=5)
        assert [t for t, _ in got] == [t for t, _ in expected]
        for (_, sim_got), (_, sim_expected) in zip(got, expected):
            assert sim_got == pytest.approx(sim_expected, abs=1e-12)

    def test_matches_oracle_with_planted_ties(self):
        # the second half repeats first-half rows scaled by 1/2, 1 or 2
        # (exact cosine ties); two rows are zeroed and must rank last
        for seed in range(10):
            rng = np.random.default_rng(seed)
            base = rng.normal(size=(12, 37))
            repeats = (base[rng.integers(0, 12, size=12)]
                       * rng.choice([0.5, 1.0, 2.0], size=(12, 1)))
            matrix = np.vstack([base, repeats])
            matrix[rng.integers(0, 24, size=2)] = 0.0
            tokens = [f"w{i}" for i in rng.permutation(24)]
            table = EmbeddingTable(tokens, matrix, {t: 1 for t in tokens})
            for query in tokens:
                q = table.vector(query)
                if not q.any():
                    continue
                sims = {t: fsum_cosine(q, v) if v.any() else -2.0
                        for t, v in zip(tokens, matrix) if t != query}
                ranked = sorted(sims, key=lambda t: (-sims[t], t))
                for k in (1, 5, 23):
                    got = nearest(table, query, k)
                    assert [t for t, _ in got] == ranked[:k]
                    assert [s for _, s in got] == pytest.approx(
                        [sims[t] for t in ranked[:k]], abs=1e-12)

    def test_query_token_excluded(self):
        table = self.table()
        assert all(t != "t3" for t, _ in nearest(table, "t3", k=29))

    def test_tie_breaks_lexicographically(self):
        tokens = ["a", "b", "c"]
        matrix = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        table = EmbeddingTable(tokens, matrix, {t: 1 for t in tokens})
        # b and c are both at cosine 1.0 from a
        assert [t for t, _ in nearest(table, "a", k=2)] == ["b", "c"]

    def test_unknown_token_rejected(self):
        with pytest.raises(AnalysisError):
            nearest(self.table(), "absent", k=3)

    def test_bad_k_rejected(self):
        with pytest.raises(AnalysisError):
            nearest(self.table(), "t0", k=0)


class TestPersistence:
    def test_roundtrip_at_six_decimals(self, tmp_path):
        rng = np.random.default_rng(2)
        tokens = ["alpha", "beta", "gamma"]
        matrix = rng.normal(size=(3, 4))
        table = EmbeddingTable(tokens, matrix, {t: 2 for t in tokens})
        path = tmp_path / "vectors.txt"
        save_embeddings(table, path)
        loaded = load_embeddings(path)
        assert loaded.tokens == tuple(tokens)
        assert loaded.dimension == 4
        assert np.allclose(loaded.matrix, matrix, atol=5e-7)
        assert loaded.counts == {t: 1 for t in tokens}

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
