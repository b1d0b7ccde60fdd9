"""Rule-based clipping, echo-pair and blend analyzers.

Categorical cases below are canonical formations with hand-assigned
types; the analyzers must reproduce every one exactly.
"""
import pytest

from slanglex.corpus import GoldClassRecord
from slanglex.errors import AnalysisError
from slanglex.labels import SlangClass
from slanglex.slangclass.patterns import (
    ClippingType,
    ReduplicativeType,
    blend_suffix_stats,
    classify_clipping,
    classify_reduplicative,
    substitution_stats,
)


class TestClipping:
    def test_back_clipping(self):
        assert classify_clipping("nigg", "nigger") is ClippingType.BACK
        assert classify_clipping("fave", "faves") is ClippingType.BACK

    def test_fore_clipping(self):
        assert classify_clipping("roach", "cockroach") is ClippingType.FORE

    def test_compound_clipping(self):
        assert classify_clipping("slowmo", "slow motion") is ClippingType.COMPOUND

    def test_unknown(self):
        assert classify_clipping("juvie", "juvenile") is ClippingType.UNKNOWN

    def test_compound_precedence_over_back(self):
        # multiword source wins even though the clip is also a prefix of it
        assert classify_clipping("med", "med school") is ClippingType.COMPOUND

    def test_case_insensitive(self):
        assert classify_clipping("Bro", "BROTHER") is ClippingType.BACK

    def test_identity_counts_as_back(self):
        # a "clip" equal to its source keeps the start trivially
        assert classify_clipping("dog", "dog") is ClippingType.BACK

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            classify_clipping("", "dog")
        with pytest.raises(AnalysisError):
            classify_clipping("dog", "  ")


class TestReduplicative:
    def test_exact_doubling(self):
        assert classify_reduplicative("boo boo") is ReduplicativeType.DUP
        assert classify_reduplicative("boo-boo") is ReduplicativeType.DUP

    def test_vowel_exchange(self):
        assert classify_reduplicative("flip-flop") is ReduplicativeType.EX_VOW
        assert classify_reduplicative("bing-bang") is ReduplicativeType.EX_VOW

    def test_consonant_exchange(self):
        assert classify_reduplicative("bitsy-witsy") is ReduplicativeType.EX_CONS
        assert classify_reduplicative("teenie-weenie") is ReduplicativeType.EX_CONS
        assert classify_reduplicative("hodge-podge") is ReduplicativeType.EX_CONS

    def test_shm_prefix(self):
        assert classify_reduplicative("moodle-schmoodle") is ReduplicativeType.SHM
        assert classify_reduplicative("fancy-shmancy") is ReduplicativeType.SHM

    def test_unclassified(self):
        # unequal part lengths with no shm prefix
        assert classify_reduplicative("helter-skelter") is ReduplicativeType.UNK

    def test_mixed_exchange_is_unk(self):
        # 'a'->'i' (vowels) and 'b'->'c' (consonants) in one pair
        assert classify_reduplicative("bab-cib") is ReduplicativeType.UNK

    def test_y_counts_as_consonant(self):
        # 'a' vs 'y' mixes a vowel and a consonant; 'y' vs 'w' is consonants
        assert classify_reduplicative("bat-byt") is ReduplicativeType.UNK
        assert classify_reduplicative("bay-baw") is ReduplicativeType.EX_CONS

    def test_part_count_enforced(self):
        with pytest.raises(AnalysisError):
            classify_reduplicative("boo")
        with pytest.raises(AnalysisError):
            classify_reduplicative("a b c")


class TestSubstitutionStats:
    def test_single_pair_vowel_swap(self):
        stats = substitution_stats([("bing", "bang")])
        assert stats.replacements == {"i": {"a": 1.0}}
        assert stats.skipped == 0

    def test_single_pair_consonant_swap(self):
        stats = substitution_stats([("teenie", "weenie")])
        assert stats.replacements == {"t": {"w": 1.0}}

    def test_shares_across_pairs(self):
        stats = substitution_stats([("bing", "bang"), ("bing", "bong"),
                                    ("tip", "tap"), ("zig", "zag")])
        # i replaced by a three times, by o once
        assert stats.replacements["i"] == {"a": pytest.approx(0.75),
                                           "o": pytest.approx(0.25)}

    def test_unequal_length_pairs_skipped(self):
        stats = substitution_stats([("boo", "booo"), ("bing", "bang")])
        assert stats.skipped == 1
        assert stats.replacements == {"i": {"a": 1.0}}

    def test_multi_position_pair(self):
        stats = substitution_stats([("ab", "ba")])
        assert stats.replacements == {"a": {"b": 1.0}, "b": {"a": 1.0}}

    def test_empty_input(self):
        stats = substitution_stats([])
        assert stats.replacements == {}
        assert stats.skipped == 0


def blend(word, *components):
    return GoldClassRecord(word, SlangClass.BLEND, components or None)


class TestBlendSuffixes:
    def test_inherited_suffix_extraction(self):
        dist, skipped = blend_suffix_stats([blend("sextini", "sex", "martini")])
        assert dist == [("tini", 1.0, 1.0)]
        assert skipped == 0

    def test_top_k_ranking(self):
        records = [
            blend("sextini", "sex", "martini"),
            blend("appletini", "apple", "martini"),
            blend("chillax", "chill", "relax"),
        ]
        dist, skipped = blend_suffix_stats(records, k=5)
        assert dist[0] == ("tini", pytest.approx(2 / 3), pytest.approx(2 / 3))
        assert skipped == 0
        assert dist[1][2] == pytest.approx(1.0)

    def test_records_without_components_are_skipped(self):
        records = [blend("smog", "smoke", "fog"), blend("orphan")]
        dist, skipped = blend_suffix_stats(records)
        assert skipped == 1
        assert dist == [("og", 1.0, 1.0)]

    def test_no_shared_suffix_is_skipped(self):
        records = [blend("smog", "smoke", "fog"),
                   blend("brunch", "breakfast", "xyz")]
        _, skipped = blend_suffix_stats(records)
        assert skipped == 1

    def test_all_unusable_counted(self):
        assert blend_suffix_stats([blend("orphan"),
                                   blend("brunch", "breakfast", "xyz")]) == ([], 2)

    def test_bad_k_rejected(self):
        with pytest.raises(AnalysisError):
            blend_suffix_stats([blend("smog", "smoke", "fog")], k=0)
