"""Subject KNN and bias metrics on hand-constructed embeddings.

Every numeric expectation below is short two- or three-term arithmetic
worked out in the comments, so failures point at the implementation and
not at the fixture.
"""
import math

import numpy as np
import pytest

from slanglex.embeddings import EmbeddingTable
from slanglex.errors import AnalysisError, SchemaError
from slanglex.labels import SubjectLabel
from slanglex.social import (
    Gender,
    GenderLexicon,
    KnnMetric,
    KnnModel,
    direct_bias,
    evaluate_subject_model,
    gender_direction,
    knn_from_embedding,
    knn_predict_proba,
    load_bias_lexicons,
    lookup,
    name_prejudice_comparison,
    occupation_projections,
    permutation_test_means,
    religious_prejudice_matrix,
    sexprej,
    subject_token,
)


def table(vectors: dict[str, list[float]]) -> EmbeddingTable:
    tokens = list(vectors)
    matrix = np.array([vectors[t] for t in tokens], dtype=np.float64)
    return EmbeddingTable(tokens, matrix, {t: 1 for t in tokens})


def fsum_cosine(u, v):
    """Cosine from exactly rounded sums, independent of the library kernel."""
    return math.fsum(u * v) / (math.sqrt(math.fsum(u * u))
                               * math.sqrt(math.fsum(v * v)))


class TestSubjectToken:
    def test_folds_case_and_joins_spaces(self):
        assert subject_token("Med School") == "med_school"
        assert subject_token("  drugs ") == "drugs"


class TestLookup:
    def test_one_rule_for_every_lexicon_word(self):
        emb = table({"holy_roller": [1.0, 0.0], "he": [0.0, 1.0]})
        found, rows = lookup(emb, ["Holy Roller", "ghost", " he "])
        assert found == [True, False, True]
        assert rows.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_nothing_found_gives_empty_rows(self):
        found, rows = lookup(table({"he": [0.0, 1.0]}), ["ghost"])
        assert found == [False]
        assert rows.shape == (0, 2)


class TestKnn:
    def test_vote_fractions(self):
        # five reference points, three Sex and two Drugs; with k=5 all of
        # them vote: 3/5 vs 2/5
        reference = tuple(
            (f"r{i}", np.array([1.0, float(i)]), label)
            for i, label in enumerate([SubjectLabel.SEX] * 3
                                      + [SubjectLabel.DRUGS] * 2))
        model = KnnModel(k=5, reference=reference)
        dist = knn_predict_proba(model, np.array([1.0, 0.0]))
        assert dist == {SubjectLabel.SEX: pytest.approx(0.6),
                        SubjectLabel.DRUGS: pytest.approx(0.4)}

    def test_similarity_tie_breaks_by_token(self):
        same = np.array([1.0, 0.0])
        reference = (("b", same, SubjectLabel.SEX),
                     ("a", same, SubjectLabel.DRUGS))
        model = KnnModel(k=1, reference=reference)
        dist = knn_predict_proba(model, same)
        assert dist[SubjectLabel.DRUGS] == 1.0
        assert dist[SubjectLabel.SEX] == 0.0

    def test_metric_changes_the_neighbor(self):
        # "far" points the same way as the query but is distant; cosine
        # picks it, euclidean picks the nearby off-axis point
        reference = (("far", np.array([10.0, 0.0]), SubjectLabel.SEX),
                     ("near", np.array([0.9, 0.1]), SubjectLabel.DRUGS))
        query = np.array([1.0, 0.0])
        by_cos = KnnModel(k=1, reference=reference, metric=KnnMetric.COSINE)
        by_euc = KnnModel(k=1, reference=reference, metric=KnnMetric.EUCLIDEAN)
        assert knn_predict_proba(by_cos, query)[SubjectLabel.SEX] == 1.0
        assert knn_predict_proba(by_euc, query)[SubjectLabel.DRUGS] == 1.0

    def test_k_larger_than_reference_uses_all(self):
        reference = (("a", np.array([1.0]), SubjectLabel.SEX),
                     ("b", np.array([2.0]), SubjectLabel.DRUGS))
        model = KnnModel(k=10, reference=reference)
        dist = knn_predict_proba(model, np.array([1.5]))
        assert dist == {SubjectLabel.SEX: 0.5, SubjectLabel.DRUGS: 0.5}

    def test_build_from_embedding_counts_skips(self):
        emb = table({"known": [1.0, 0.0]})
        model, skipped = knn_from_embedding(
            emb, [("known", SubjectLabel.SEX), ("missing", SubjectLabel.DRUGS)],
            k=1)
        assert skipped == 1
        assert len(model.reference) == 1

    def test_build_fails_when_nothing_matches(self):
        emb = table({"x": [1.0]})
        with pytest.raises(AnalysisError):
            knn_from_embedding(emb, [("missing", SubjectLabel.SEX)], k=1)

    def test_dimension_mismatch_rejected(self):
        model = KnnModel(k=1, reference=(("a", np.array([1.0, 0.0]),
                                         SubjectLabel.SEX),))
        with pytest.raises(AnalysisError):
            knn_predict_proba(model, np.array([1.0]))

    def test_model_validation(self):
        ref = (("a", np.array([1.0]), SubjectLabel.SEX),)
        with pytest.raises(AnalysisError):
            KnnModel(k=0, reference=ref)
        with pytest.raises(AnalysisError):
            KnnModel(k=1, reference=())


class TestStackedKnnOracle:
    """The stacked model against a per-reference brute force, on seeded
    tables whose second half repeats first-half rows scaled by 1/2, 1 or 2:
    exact ties in cosine (and, for the unscaled repeats, in distance)."""

    @staticmethod
    def oracle(reference, vector, k, metric):
        def distance(ref):
            if metric is KnnMetric.COSINE:
                return -fsum_cosine(vector, ref)
            return math.sqrt(math.fsum((vector - ref) ** 2))
        ranked = sorted(reference, key=lambda ref: (distance(ref[1]), ref[0]))
        chosen = [label for _, _, label in ranked[:k]]
        labels = sorted({label for _, _, label in reference}, key=str)
        return {label: chosen.count(label) / len(chosen) for label in labels}

    def test_matches_brute_force_with_planted_ties(self):
        subjects = list(SubjectLabel)[:4]
        for seed in range(15):
            rng = np.random.default_rng(seed)
            base = rng.normal(size=(10, 37))
            repeats = (base[rng.integers(0, 10, size=10)]
                       * rng.choice([0.5, 1.0, 2.0], size=(10, 1)))
            vectors = np.vstack([base, repeats])
            tokens = [f"r{i}" for i in rng.permutation(len(vectors))]
            labels = [subjects[i]
                      for i in rng.integers(0, len(subjects), len(vectors))]
            reference = tuple(zip(tokens, vectors, labels))
            queries = np.vstack([rng.normal(size=(5, 37)), vectors[::4]])
            for metric in KnnMetric:
                for k in (1, 3, 7, 30):
                    model = KnnModel(k=k, reference=reference, metric=metric)
                    for query in queries:
                        assert knn_predict_proba(model, query) == self.oracle(
                            reference, query, k, metric)


class TestSubjectEvaluation:
    def test_separable_clusters_score_one(self):
        emb = table({
            "sex1": [1.0, 0.0], "sex2": [0.9, 0.1],
            "drug1": [0.0, 1.0], "drug2": [0.1, 0.9],
            "t_sex": [1.0, 0.05], "t_drug": [0.05, 1.0],
        })
        model, _ = knn_from_embedding(
            emb, [("sex1", SubjectLabel.SEX), ("sex2", SubjectLabel.SEX),
                  ("drug1", SubjectLabel.DRUGS), ("drug2", SubjectLabel.DRUGS)],
            k=1)
        result = evaluate_subject_model(
            model,
            [("t_sex", SubjectLabel.SEX), ("t_drug", SubjectLabel.DRUGS),
             ("not_in_vocab", SubjectLabel.MUSIC)],
            emb)
        assert result.f1 == pytest.approx(1.0)
        assert result.excluded == 1
        assert result.confusion[SubjectLabel.SEX, SubjectLabel.SEX] == 1

    def test_all_test_words_missing_rejected(self):
        emb = table({"sex1": [1.0], "drug1": [2.0]})
        model, _ = knn_from_embedding(
            emb, [("sex1", SubjectLabel.SEX), ("drug1", SubjectLabel.DRUGS)],
            k=1)
        with pytest.raises(AnalysisError):
            evaluate_subject_model(model, [("gone", SubjectLabel.SEX)], emb)


class TestGenderLexicon:
    def test_csv_parse_and_lookup(self, tmp_path):
        path = tmp_path / "names.csv"
        path.write_text("# name,gender\nAnna,female\nCarl,male\nPat,unknown\n",
                        encoding="utf-8")
        lex = GenderLexicon.from_csv(path)
        assert lex.lookup("anna") is Gender.FEMALE
        assert lex.lookup("CARL") is Gender.MALE
        assert lex.lookup("pat") is Gender.UNKNOWN
        assert lex.lookup("never-listed") is Gender.UNKNOWN
        assert lex.names == ("Anna", "Carl", "Pat")

    def test_names_in_file_order_from_csv_parse(self, tmp_path):
        path = tmp_path / "names.csv"
        path.write_text('# name,gender\n"smith, john",male\nAnna,female\n'
                        'anna,female\n', encoding="utf-8")
        lex = GenderLexicon.from_csv(path)
        assert lex.names == ("smith, john", "Anna", "anna")
        assert lex.lookup("Smith, John") is Gender.MALE

    def test_bad_gender_value_rejected(self, tmp_path):
        path = tmp_path / "names.csv"
        path.write_text("Anna,woman\n", encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            GenderLexicon.from_csv(path)
        assert err.value.line == 1


class TestGenderDirection:
    def test_single_pair_hand_arithmetic(self):
        emb = table({"he": [1.0, 0.0], "she": [0.0, 1.0]})
        g = gender_direction(emb, [("he", "she")])
        # she - he = (-1, 1); normalized components are +-1/sqrt(2)
        root_half = 1.0 / math.sqrt(2.0)
        assert g == pytest.approx([-root_half, root_half], abs=1e-12)

    def test_mean_over_two_pairs(self):
        emb = table({"he": [1.0, 0.0], "she": [0.0, 1.0],
                     "king": [1.0, 0.0], "queen": [-1.0, 0.0]})
        g = gender_direction(emb, [("he", "she"), ("king", "queen")])
        # diffs normalize to (-r, r) and (-1, 0); their mean points
        # left-up; renormalized norm must be 1
        assert float(np.linalg.norm(g)) == pytest.approx(1.0, abs=1e-12)
        assert g[0] < 0 < g[1]

    def test_identical_pair_rejected(self):
        emb = table({"he": [1.0, 0.0], "she": [1.0, 0.0]})
        with pytest.raises(AnalysisError):
            gender_direction(emb, [("he", "she")])

    def test_cancelling_pairs_rejected(self):
        emb = table({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        with pytest.raises(AnalysisError):
            gender_direction(emb, [("a", "b"), ("b", "a")])

    def test_no_pairs_rejected(self):
        emb = table({"a": [1.0]})
        with pytest.raises(AnalysisError):
            gender_direction(emb, [])


class TestDirectBias:
    def test_orthogonal_word_scores_zero(self):
        emb = table({"w": [0.0, 1.0]})
        g = np.array([1.0, 0.0])
        assert direct_bias(emb, ["w"], g) == pytest.approx(0.0, abs=1e-9)

    def test_parallel_word_scores_one(self):
        emb = table({"w": [2.0, 0.0]})
        g = np.array([1.0, 0.0])
        assert direct_bias(emb, ["w"], g) == pytest.approx(1.0, abs=1e-9)

    def test_antiparallel_absolute_value(self):
        emb = table({"w": [-3.0, 0.0]})
        g = np.array([1.0, 0.0])
        assert direct_bias(emb, ["w"], g) == pytest.approx(1.0, abs=1e-9)

    def test_mean_and_strictness_exponent(self):
        emb = table({"para": [1.0, 0.0], "orth": [0.0, 1.0],
                     "diag": [1.0, 1.0]})
        g = np.array([1.0, 0.0])
        assert direct_bias(emb, ["para", "orth"], g) == pytest.approx(0.5)
        # cos(diag, g) = sqrt(1/2); squaring gives 1/2
        assert direct_bias(emb, ["diag"], g, c=2.0) == pytest.approx(0.5)

    def test_oov_words_are_skipped(self):
        emb = table({"w": [1.0, 0.0]})
        g = np.array([1.0, 0.0])
        assert direct_bias(emb, ["w", "missing"], g) == pytest.approx(1.0)
        with pytest.raises(AnalysisError):
            direct_bias(emb, ["missing"], g)


class TestOccupationProjections:
    def test_sorted_most_female_first(self):
        emb = table({"nurse": [0.0, 1.0], "engineer": [0.0, -1.0],
                     "teacher": [1.0, 1.0]})
        g = np.array([0.0, 1.0])
        ranked = occupation_projections(emb, ["engineer", "nurse", "teacher"], g)
        assert [w for w, _ in ranked] == ["nurse", "teacher", "engineer"]
        assert ranked[0][1] == pytest.approx(1.0)
        assert ranked[2][1] == pytest.approx(-1.0)

    def test_oov_occupations_dropped(self):
        emb = table({"nurse": [0.0, 1.0]})
        ranked = occupation_projections(emb, ["nurse", "pilot"],
                                        np.array([0.0, 1.0]))
        assert len(ranked) == 1


class TestSexprej:
    def test_hand_mean(self):
        emb = table({"w": [1.0, 0.0], "t1": [1.0, 0.0], "t2": [0.0, 1.0]})
        # cos(w, t1) = 1, cos(w, t2) = 0; mean 0.5
        assert sexprej(emb, "w", ["t1", "t2"]) == pytest.approx(0.5)

    def test_oov_terms_excluded_from_mean(self):
        emb = table({"w": [1.0, 0.0], "t1": [1.0, 0.0], "t2": [0.0, 1.0]})
        assert sexprej(emb, "w", ["t1", "t2", "gone"]) == pytest.approx(0.5)

    def test_no_terms_in_vocab_rejected(self):
        emb = table({"w": [1.0]})
        with pytest.raises(AnalysisError):
            sexprej(emb, "w", ["gone"])

    def test_word_must_be_in_vocab(self):
        emb = table({"t1": [1.0]})
        with pytest.raises(AnalysisError):
            sexprej(emb, "w", ["t1"])


class TestPermutationTest:
    def test_two_plus_two_exhaustive(self):
        # 6 ways to choose the first group; only the original split and
        # the full swap reach |diff| = 0.8, so p = 2/6 = 1/3
        p, exhaustive = permutation_test_means([0.9, 0.9], [0.1, 0.1])
        assert exhaustive is True
        assert p == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_identical_groups_p_one(self):
        p, exhaustive = permutation_test_means([0.5, 0.5], [0.5, 0.5])
        assert exhaustive is True
        assert p == pytest.approx(1.0)

    def test_monte_carlo_path(self):
        rng = np.random.default_rng(0)
        a = list(rng.normal(loc=1.0, size=8))
        b = list(rng.normal(loc=0.0, size=8))
        # C(16, 8) = 12870 exceeds the permutation budget
        p, exhaustive = permutation_test_means(a, b, n_permutations=500, seed=3)
        assert exhaustive is False
        assert 0.0 < p <= 1.0
        again, _ = permutation_test_means(a, b, n_permutations=500, seed=3)
        assert again == p

    def test_group_size_validation(self):
        with pytest.raises(AnalysisError):
            permutation_test_means([1.0], [0.0, 0.0])


class TestNamePrejudiceComparison:
    def make_fixture(self, tmp_path):
        emb = table({
            "whore": [1.0, 0.0],
            "anna": [2.0, 0.0], "bella": [0.5, 0.0],   # cosine 1 to whore
            "carl": [0.0, 1.0], "dave": [0.0, 3.0],    # cosine 0
        })
        path = tmp_path / "names.csv"
        path.write_text("anna,female\nbella,female\nzoe,female\n"
                        "carl,male\ndave,male\npat,unknown\n",
                        encoding="utf-8")
        return emb, GenderLexicon.from_csv(path)

    def test_hand_computed_report(self, tmp_path):
        emb, genders = self.make_fixture(tmp_path)
        report = name_prejudice_comparison(
            emb, ["anna", "bella", "zoe", "carl", "dave", "pat"],
            genders, ["whore"])
        assert report.female_mean == pytest.approx(1.0, abs=1e-9)
        assert report.male_mean == pytest.approx(0.0, abs=1e-9)
        assert report.difference == pytest.approx(1.0, abs=1e-9)
        assert report.female_n == 2 and report.male_n == 2
        assert report.excluded_unknown == 1  # pat
        assert report.excluded_oov == 1      # zoe
        assert report.exhaustive is True
        assert report.p_value == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_scores_are_the_usable_names_in_order(self, tmp_path):
        emb, genders = self.make_fixture(tmp_path)
        report = name_prejudice_comparison(
            emb, ["carl", "anna", "pat", "zoe", "bella", "dave", "anna"],
            genders, ["whore"])
        assert [(name, gender) for name, gender, _ in report.scores] == [
            ("carl", Gender.MALE), ("anna", Gender.FEMALE),
            ("bella", Gender.FEMALE), ("dave", Gender.MALE),
            ("anna", Gender.FEMALE)]
        assert [score for _, _, score in report.scores] == pytest.approx(
            [0.0, 1.0, 1.0, 0.0, 1.0], abs=1e-9)

    def test_too_few_usable_names_rejected(self, tmp_path):
        emb, genders = self.make_fixture(tmp_path)
        with pytest.raises(AnalysisError):
            name_prejudice_comparison(emb, ["anna", "carl", "dave"],
                                      genders, ["whore"])


class TestReligiousMatrix:
    def make_embedding(self):
        return table({
            "r1": [1.0, 0.0], "r2": [0.0, 1.0],
            "p1": [1.0, 0.0], "p2": [0.6, 0.8],
        })

    def test_hand_computed_matrix(self):
        emb = self.make_embedding()
        report = religious_prejudice_matrix(emb, ["r1", "r2", "ghost"],
                                            ["p1", "p2", "phantom"])
        # raw cosines: [[1.0, 0.6], [0.0, 0.8]]
        assert report.raw == pytest.approx(np.array([[1.0, 0.6], [0.0, 0.8]]))
        assert report.overall_mean_raw == pytest.approx(0.6)
        assert report.missing_religions == ("ghost",)
        assert report.missing_prejudices == ("phantom",)
        # with two religions every standardized entry is +-1/sqrt(2)
        root_half = 1.0 / math.sqrt(2.0)
        assert np.abs(report.standardized) == pytest.approx(
            np.full((2, 2), root_half), abs=1e-9)

    def test_columns_standardized(self):
        emb = table({
            "r1": [1.0, 0.0, 0.0], "r2": [0.5, 0.5, 0.0],
            "r3": [0.0, 1.0, 0.5], "p1": [1.0, 0.2, 0.1],
            "p2": [0.1, 0.9, 0.3],
        })
        report = religious_prejudice_matrix(emb, ["r1", "r2", "r3"],
                                            ["p1", "p2"])
        means = report.standardized.mean(axis=0)
        stds = report.standardized.std(axis=0, ddof=1)
        assert means == pytest.approx(np.zeros(2), abs=1e-9)
        assert stds == pytest.approx(np.ones(2), abs=1e-9)

    def test_zero_variance_column_rejected(self):
        emb = table({"r1": [1.0, 0.0], "r2": [2.0, 0.0], "p1": [1.0, 0.0]})
        with pytest.raises(AnalysisError):
            religious_prejudice_matrix(emb, ["r1", "r2"], ["p1"])

    def test_needs_two_religions(self):
        emb = self.make_embedding()
        with pytest.raises(AnalysisError):
            religious_prejudice_matrix(emb, ["r1"], ["p1"])

    def test_needs_one_prejudice(self):
        emb = self.make_embedding()
        with pytest.raises(AnalysisError):
            religious_prejudice_matrix(emb, ["r1", "r2"], ["phantom"])


class TestBiasLexiconLoading:
    def write_lexicons(self, directory, pairs_line="he,she"):
        directory.mkdir(exist_ok=True)
        (directory / "prejudice_terms.txt").write_text(
            "# comment\nwhore\nslut\n", encoding="utf-8")
        (directory / "religious_terms.txt").write_text(
            "muslim\nchristian\n", encoding="utf-8")
        (directory / "trait_terms.txt").write_text(
            "terrorist\nevil\n", encoding="utf-8")
        (directory / "occupations.txt").write_text(
            "doctor\nnurse\n", encoding="utf-8")
        (directory / "gender_pairs.txt").write_text(
            pairs_line + "\n", encoding="utf-8")

    def test_load_all_five(self, tmp_path):
        self.write_lexicons(tmp_path / "lex")
        lexicons = load_bias_lexicons(tmp_path / "lex")
        assert lexicons.prejudice_terms == ("whore", "slut")
        assert lexicons.gender_pairs == (("he", "she"),)

    def test_tab_separated_pairs_accepted(self, tmp_path):
        self.write_lexicons(tmp_path / "lex", pairs_line="him\ther")
        lexicons = load_bias_lexicons(tmp_path / "lex")
        assert lexicons.gender_pairs == (("him", "her"),)

    def test_malformed_pair_rejected(self, tmp_path):
        self.write_lexicons(tmp_path / "lex", pairs_line="he she")
        with pytest.raises(SchemaError):
            load_bias_lexicons(tmp_path / "lex")
