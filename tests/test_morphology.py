"""Description-length segmenter checks.

The oracle below re-derives the two-part code length from scratch (plain
Counter arithmetic, no incremental bookkeeping) and exhaustively
enumerates every joint segmentation of a small lexicon, so the trainer's
greedy search is validated against the true global minimum. Two further
oracles check the fast paths step for step: a reference trainer that
scores every candidate by recomputing the whole code length, and an
exhaustive decoder over every segmentation of a short word.
"""
import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slanglex.errors import AnalysisError, SchemaError
from slanglex.morphology import (
    AffixSide,
    Segmentation,
    SegmenterModel,
    affix_distribution,
    character_bits,
    elias_gamma_bits,
    load_segmenter,
    morph_code_length,
    save_segmenter,
    segment,
    train_segmenter,
)

LEXICON = ["dogcat", "catdog", "dog", "cat"]


def oracle_cost(morph_counts: Counter, alphabet_size: int) -> float:
    """Two-part code length, written independently of the library.

    Per distinct morph: a uniform character code over the alphabet plus an
    end marker, and an Elias gamma code for its count. Corpus side: total
    surprisal of the morph tokens under their empirical unigram model.
    """
    char = math.log2(alphabet_size + 1)
    model = 0.0
    for morph, count in morph_counts.items():
        model += (len(morph) + 1) * char
        model += 2 * math.floor(math.log2(count)) + 1
    n = sum(morph_counts.values())
    corpus = n * math.log2(n) - sum(c * math.log2(c) for c in morph_counts.values())
    return model + corpus


def all_segmentations(word: str):
    """Every way to cut a word into contiguous non-empty pieces."""
    if len(word) == 1:
        return [(word,)]
    out = []
    for first in range(1, len(word) + 1):
        head = word[:first]
        if first == len(word):
            out.append((head,))
        else:
            out.extend((head,) + rest for rest in all_segmentations(word[first:]))
    return out


class TestExhaustiveOracle:
    def test_trained_state_is_the_global_minimum(self):
        alphabet = set("".join(LEXICON))
        assert len(alphabet) == 6
        options = [all_segmentations(w) for w in LEXICON]
        assert [len(o) for o in options] == [32, 32, 4, 4]

        best_cost = math.inf
        minima = []
        for assignment in itertools.product(*options):
            morphs = Counter()
            for segs in assignment:
                morphs.update(segs)
            cost = oracle_cost(morphs, len(alphabet))
            if cost < best_cost - 1e-9:
                best_cost = cost
                minima = [assignment]
            elif cost <= best_cost + 1e-9:
                minima.append(assignment)

        model = train_segmenter(LEXICON, seed=0)
        assert model.total_code_length == pytest.approx(best_cost, abs=1e-9)
        # the optimum reuses dog and cat across all four words
        assert model.morph_counts == {"cat": 3, "dog": 3}
        # every cost-minimal assignment splits dogcat the same way,
        # and the trained model's decoder agrees
        for assignment in minima:
            assert assignment[0] == ("dog", "cat")
        assert segment(model, "dogcat").morphs == ("dog", "cat")

    def test_hapax_stays_unsplit(self):
        # one word "cat": keeping it whole costs 4*log2(4) + 1 = 9 bits;
        # any split adds a second end marker and gamma code and costs more
        model = train_segmenter(["cat"])
        assert model.morph_counts == {"cat": 1}
        assert model.total_code_length == pytest.approx(9.0, abs=1e-9)

    def test_trained_cost_matches_recomputation(self):
        model = train_segmenter(LEXICON, seed=3)
        recomputed = morph_code_length(model.morph_counts, len(model.alphabet))
        assert model.total_code_length == recomputed
        independent = oracle_cost(Counter(model.morph_counts), len(model.alphabet))
        assert model.total_code_length == pytest.approx(independent, abs=1e-9)


class TestCodeComponents:
    def test_elias_gamma_values(self):
        assert [elias_gamma_bits(c) for c in (1, 2, 3, 4, 7, 8)] == [1, 3, 3, 5, 5, 7]

    def test_elias_gamma_exact_past_float_precision(self):
        # float log2 of 2**49 - 1 rounds up to 49.0
        assert elias_gamma_bits(2**49 - 1) == 97
        assert elias_gamma_bits(2**53 - 1) == 105

    def test_elias_gamma_rejects_zero(self):
        with pytest.raises(AnalysisError):
            elias_gamma_bits(0)

    def test_character_bits(self):
        assert character_bits("dog", 6) == pytest.approx(4 * math.log2(7))
        assert character_bits("", 1) == pytest.approx(1.0)  # just the end marker


class TestTraining:
    def test_costs_non_increasing_and_end_below_start(self):
        words = ["walking", "walked", "talking", "talked", "walks", "talks"]
        model = train_segmenter(words, seed=1)
        costs = model.training_costs
        assert len(costs) >= 2
        for before, after in zip(costs, costs[1:]):
            assert after <= before + 1e-9
        assert model.total_code_length == costs[-1]

    def test_deterministic_per_seed(self):
        words = ["looking", "booking", "cooking", "looked", "booked"]
        assert train_segmenter(words, seed=5) == train_segmenter(words, seed=5)

    def test_duplicates_fold_into_multiplicity(self):
        model = train_segmenter(["cat", "cat", "cat"])
        assert model.morph_counts == {"cat": 3}

    def test_case_folded(self):
        model = train_segmenter(["CAT"])
        assert model.morph_counts == {"cat": 1}

    def test_empty_inputs_rejected(self):
        with pytest.raises(AnalysisError):
            train_segmenter([])
        with pytest.raises(AnalysisError):
            train_segmenter(["dog", ""])

    def test_split_penalty_discourages_splitting(self):
        words = ["dogcat", "catdog", "dog", "cat"]
        free = train_segmenter(words, split_penalty=0.0)
        taxed = train_segmenter(words, split_penalty=1000.0)
        assert free.morph_counts == {"cat": 3, "dog": 3}
        assert set(taxed.morph_counts) == set(words)


@pytest.fixture(scope="module")
def model():
    return train_segmenter(LEXICON, seed=0)


class TestSegment:
    def test_known_word(self, model):
        assert segment(model, "catdog").morphs == ("cat", "dog")

    def test_oov_word_backs_off_to_known_morphs(self, model):
        # fish never seen; dog should still be peeled off the front
        assert segment(model, "dogfish").morphs == ("dog", "fish")

    def test_concatenation_invariant_fuzz(self, model):
        rng = random.Random(99)
        alphabet = "dogcatfsh"
        for _ in range(2000):
            word = "".join(rng.choice(alphabet)
                           for _ in range(rng.randint(1, 14)))
            seg = segment(model, word)
            assert "".join(seg.morphs) == word

    def test_tie_prefers_fewer_morphs(self):
        # counts chosen so cost("ab") == cost("a") + cost("b") exactly:
        # N = 9, -log2(1/9) = 2 * -log2(3/9)
        model = SegmenterModel(
            morph_counts={"ab": 1, "a": 3, "b": 3, "z": 2},
            alphabet=frozenset("abz"),
            total_code_length=0.0)
        assert segment(model, "ab").morphs == ("ab",)

    def test_tie_prefers_fewer_morphs_met_later(self):
        # N = 16, surprisals a 1, b 2, bb 3, bab 4 bits: a+a+a+b+a+bb and
        # a+a+a+bab+b both cost 9 bits; the DP meets the six-morph one first
        model = SegmenterModel(
            morph_counts={"bab": 1, "aaa": 1, "b": 4, "a": 8, "bb": 2},
            alphabet=frozenset("ab"),
            total_code_length=0.0)
        assert segment(model, "aaababb").morphs == ("a", "a", "a", "bab", "b")

    def test_tie_prefers_leftmost_longest(self):
        # cost("aa") == cost("a"); both two-morph splits of "aaa" tie
        model = SegmenterModel(
            morph_counts={"aa": 1, "a": 1},
            alphabet=frozenset("a"),
            total_code_length=0.0)
        assert segment(model, "aaa").morphs == ("aa", "a")

    def test_empty_word_rejected(self, model):
        with pytest.raises(AnalysisError):
            segment(model, "")

    def test_mismatched_morphs_rejected(self):
        with pytest.raises(AnalysisError):
            Segmentation(word="dog", morphs=("do",))


class TestAffixDistribution:
    def segs(self):
        return [Segmentation("dogcat", ("dog", "cat")),
                Segmentation("dogfish", ("dog", "fish")),
                Segmentation("cat", ("cat",))]

    def test_prefix_hand_tally(self):
        dist = affix_distribution(self.segs(), AffixSide.PREFIX, k=2)
        assert dist.entries == (("dog", pytest.approx(2 / 3)),
                                ("cat", pytest.approx(1 / 3)))
        assert dist.covered_mass_at_k[1] == pytest.approx(2 / 3)
        assert dist.covered_mass_at_k[2] == pytest.approx(1.0)

    def test_suffix_hand_tally(self):
        dist = affix_distribution(self.segs(), AffixSide.SUFFIX, k=5)
        assert dist.entries[0] == ("cat", pytest.approx(2 / 3))
        # mass keys run 1..k even past the distinct-affix count
        assert sorted(dist.covered_mass_at_k) == [1, 2, 3, 4, 5]
        assert dist.covered_mass_at_k[5] == pytest.approx(1.0)

    def test_count_tie_breaks_alphabetically(self):
        segs = [Segmentation("ba", ("b", "a")), Segmentation("ab", ("a", "b"))]
        dist = affix_distribution(segs, AffixSide.PREFIX, k=2)
        assert [a for a, _ in dist.entries] == ["a", "b"]

    def test_k_truncates(self):
        dist = affix_distribution(self.segs(), AffixSide.PREFIX, k=1)
        assert len(dist.entries) == 1

    def test_validation(self):
        with pytest.raises(AnalysisError):
            affix_distribution([], AffixSide.PREFIX)
        with pytest.raises(AnalysisError):
            affix_distribution(self.segs(), AffixSide.PREFIX, k=0)


class TestPersistence:
    def test_roundtrip_preserves_behavior(self, tmp_path):
        model = train_segmenter(LEXICON, seed=0)
        path = tmp_path / "segmenter.tsv"
        save_segmenter(model, path)
        loaded = load_segmenter(path)
        assert loaded.morph_counts == model.morph_counts
        assert loaded.alphabet == model.alphabet
        assert loaded.total_code_length == model.total_code_length
        for word in ("dogcat", "dogfish", "tacocat"):
            assert segment(loaded, word).morphs == segment(model, word).morphs

    def test_bad_count_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("dog\tmany\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_segmenter(path)

    def test_non_positive_count_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("dog\t0\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_segmenter(path)

    def test_empty_model_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_segmenter(path)

    def test_empty_model_error_names_the_file(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("\n  \n", encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            load_segmenter(path)
        assert str(err.value) == f"{path}: segmenter model file is empty"


EPS = 1e-12  # the library's tie tolerance


def reference_train(words, split_penalty=0.0, max_iters=10, seed=0):
    """The trainer's search, scoring each candidate by recomputing the
    whole code length of a copied inventory: same visiting order, same
    recursive splitting, same tolerance."""
    multiplicity = Counter(w.lower() for w in words)
    alphabet_size = len(set("".join(multiplicity)))
    counts = Counter(multiplicity)
    analyses = {w: (w,) for w in multiplicity}

    def cost(inventory):
        return morph_code_length(+inventory, alphabet_size)

    def cost_with(morphs, k):
        inventory = counts.copy()
        for m in morphs:
            inventory[m] += k
        return cost(inventory)

    def optimize(piece, mult):
        best, best_i = cost_with([piece], mult), None
        for i in range(1, len(piece)):
            candidate = cost_with([piece[:i], piece[i:]], mult) + split_penalty
            if candidate < best - EPS:
                best, best_i = candidate, i
        if best_i is None:
            counts[piece] += mult
            return [piece]
        return optimize(piece[:best_i], mult) + optimize(piece[best_i:], mult)

    rng = random.Random(seed)
    order = sorted(multiplicity)
    for _ in range(max_iters):
        rng.shuffle(order)
        changed = False
        for word in order:
            mult, old = multiplicity[word], analyses[word]
            before = cost(counts)
            for m in old:
                counts[m] -= mult
            new = tuple(optimize(word, mult))
            if new != old and cost(counts) <= before + EPS:
                analyses[word] = new
                changed = True
            elif new != old:
                for m in new:
                    counts[m] -= mult
                for m in old:
                    counts[m] += mult
        if not changed:
            break
    return dict(sorted((+counts).items()))


def exhaustive_segment(model, word):
    """The documented argmin over every segmentation: least cost (within
    the tolerance), then fewest morphs, then leftmost-longest morphs."""
    n_tokens = sum(model.morph_counts.values())

    def bits(morph):
        if morph in model.morph_counts:
            return -math.log2(model.morph_counts[morph] / n_tokens)
        return ((len(morph) + 1) * math.log2(len(model.alphabet) + 1)
                + math.log2(n_tokens + 1))

    scored = []
    for seg in all_segmentations(word):
        total = 0.0
        for morph in seg:
            total += bits(morph)
        scored.append((total, seg))
    least = min(total for total, _ in scored)
    tied = [seg for total, seg in scored if total <= least + EPS]
    return min(tied, key=lambda seg: (len(seg), [-len(m) for m in seg]))


# words glued from a few shared pieces, so that splits pay off
LEXICONS = st.lists(st.text("abcd", min_size=1, max_size=3), min_size=1,
                    max_size=4, unique=True).flatmap(
    lambda pieces: st.lists(st.lists(st.sampled_from(pieces), min_size=1,
                                     max_size=3).map("".join),
                            min_size=1, max_size=8))
# one count for every morph makes analyses with equal morph counts tie
INVENTORIES = st.one_of(
    st.builds(dict.fromkeys, st.sets(st.text("ab", min_size=1, max_size=3),
                                     min_size=2, max_size=6),
              st.integers(1, 3)),
    st.dictionaries(st.text("abc", min_size=1, max_size=3), st.integers(1, 8),
                    min_size=1, max_size=6))


class TestFastPathOracles:
    @settings(max_examples=100)
    @given(words=LEXICONS, seed=st.integers(0, 3),
           split_penalty=st.sampled_from([0.0, 1.5]))
    # a re-analysis that costs more and is undone; one that costs the same
    # and is kept
    @example(words=["aa", "aaa", "a"], seed=0, split_penalty=0.0)
    @example(words=["abcd", "abcda", "aabcd", "bcdaa", "a", "bcdbcda", "aa"],
             seed=1, split_penalty=0.0)
    def test_trainer_matches_full_recomputation(self, words, seed, split_penalty):
        model = train_segmenter(words, split_penalty=split_penalty, seed=seed)
        assert model.morph_counts == reference_train(
            words, split_penalty=split_penalty, seed=seed)

    @settings(max_examples=100)
    @given(counts=INVENTORIES, data=st.data())
    def test_segment_is_the_exhaustive_argmin(self, counts, data):
        model = SegmenterModel(counts, frozenset("".join(counts)), 0.0)
        # inventory morphs and an unseen letter, at most 7 letters a word
        pieces = st.sampled_from(sorted(counts) + ["c", "d"])
        words = data.draw(st.lists(
            st.lists(pieces, min_size=1, max_size=4).map("".join).filter(
                lambda w: len(w) <= 7), min_size=1, max_size=5))
        for word in words:
            assert segment(model, word).morphs == exhaustive_segment(model, word)

    @settings(max_examples=30)
    @given(words=LEXICONS, seed=st.integers(0, 3))
    def test_saved_model_reports_the_same_code_length(self, tmp_path_factory,
                                                      words, seed):
        model = train_segmenter(words, seed=seed)
        path = tmp_path_factory.getbasetemp() / "segmenter.tsv"
        save_segmenter(model, path)
        assert load_segmenter(path).total_code_length == model.total_code_length
