"""Grapheme-to-phoneme conversion and phoneme statistics.

Expected sequences were derived by hand: table entries transcribed from
the bundled pronouncing table, fallback outputs worked through the
longest-match rule pass on paper.
"""
import string

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from slanglex.errors import AnalysisError, SchemaError
from slanglex.morphology import letters
from slanglex.phonology import (
    ConversionSource,
    FallbackRules,
    Manner,
    MANNER_BY_SYMBOL,
    PronouncingTable,
    WordPosition,
    has_letter,
    load_bundled_fallback_rules,
    load_bundled_pronouncing_table,
    manner_of,
    odds_ratio_ranking,
    phoneme_distribution,
    positional_manner_distribution,
    to_phonemes,
)


@pytest.fixture(scope="module")
def table():
    return load_bundled_pronouncing_table()


@pytest.fixture(scope="module")
def rules():
    return load_bundled_fallback_rules()


def ratios(ranking):
    return {entry.symbol: entry.ratio for entry in ranking}


class TestMannerInventory:
    def test_inventory_has_39_symbols(self):
        assert len(MANNER_BY_SYMBOL) == 39

    def test_group_sizes(self):
        sizes = {}
        for manner in MANNER_BY_SYMBOL.values():
            sizes[manner] = sizes.get(manner, 0) + 1
        assert sizes == {
            Manner.STOP: 6,
            Manner.FRICATIVE: 8,
            Manner.VOWEL: 15,
            Manner.NASAL: 3,
            Manner.LIQUID: 2,
            Manner.AFFRICATE: 2,
            Manner.ASPIRATE: 1,
            Manner.SEMIVOWEL: 2,
        }

    def test_representative_assignments(self):
        assert manner_of("B") is Manner.STOP
        assert manner_of("ZH") is Manner.FRICATIVE
        assert manner_of("W") is Manner.SEMIVOWEL
        assert manner_of("HH") is Manner.ASPIRATE
        assert manner_of("NG") is Manner.NASAL
        assert manner_of("L") is Manner.LIQUID
        assert manner_of("CH") is Manner.AFFRICATE
        assert manner_of("OY") is Manner.VOWEL

    def test_stress_digits_tolerated(self):
        assert manner_of("AH0") is Manner.VOWEL
        assert manner_of("IY1") is Manner.VOWEL

    def test_unknown_symbol_rejected(self):
        with pytest.raises(AnalysisError):
            manner_of("QX")


class TestConversion:
    def test_woody_via_lookup(self, table, rules):
        seq = to_phonemes("woody", table, rules)
        assert seq.phonemes == ("W", "UH", "D", "IY")
        assert seq.source is ConversionSource.LEXICON_LOOKUP

    def test_zorp_via_fallback(self, table, rules):
        # not a dictionary word; z->Z, or->AO R, p->P by the rule pass
        assert table.lookup("zorp") is None
        seq = to_phonemes("zorp", table, rules)
        assert seq.phonemes == ("Z", "AO", "R", "P")
        assert seq.source is ConversionSource.RULE_FALLBACK

    def test_lookup_is_case_insensitive(self, table, rules):
        assert to_phonemes("WOODY", table, rules).phonemes == \
            to_phonemes("woody", table, rules).phonemes

    def test_multiword_concatenates(self, table, rules):
        single = to_phonemes("woody", table, rules)
        double = to_phonemes("woody woody", table, rules)
        assert double.phonemes == single.phonemes * 2

    def test_multiword_source_is_fallback_if_any_token_missed(self, table, rules):
        seq = to_phonemes("woody zorp", table, rules)
        assert seq.source is ConversionSource.RULE_FALLBACK

    def test_punctuation_stripped_before_lookup(self, table, rules):
        assert to_phonemes("woody!", table, rules).phonemes == \
            to_phonemes("woody", table, rules).phonemes

    def test_empty_word_rejected(self, table, rules):
        with pytest.raises(AnalysisError):
            to_phonemes("  ", table, rules)

    def test_non_alphabetic_rejected(self, table, rules):
        with pytest.raises(AnalysisError):
            to_phonemes("1234", table, rules)


class TestLetters:
    """One rule for what a letter is: `letters` keeps the raw word's ASCII
    letters and lowercases them; `has_letter` is whether it keeps any."""

    @pytest.mark.parametrize("char", ["\u212a", "\u0130"])
    def test_lowercase_ascii_lookalike_is_not_a_letter(self, char):
        # the Kelvin sign lowercases to "k", dotted capital I to "i" + U+0307
        assert letters(char) == ""
        assert not has_letter(char)
        assert letters(f"o{char}") == "o"

    def test_ascii_letters_lowercased(self):
        assert letters("Lol-Cat 420!") == "lolcat"
        assert has_letter("x") and not has_letter("420")

    @given(st.text())
    @example("\u212aelvin")
    @example("\u0130stanbul")
    def test_letters_and_has_letter_agree(self, text):
        ascii_letters = [c for c in text if c in string.ascii_letters]
        assert letters(text) == "".join(ascii_letters).lower()
        assert has_letter(text) == bool(letters(text)) == bool(ascii_letters)


class TestPronouncingTableFile:
    def test_stress_comments_and_alternates(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text(";;; header comment\n"
                        "READ  R IY1 D\n"
                        "READ(2)  R EH1 D\n"
                        "DOG  D AO1 G\n",
                        encoding="utf-8")
        table = PronouncingTable.from_file(path)
        assert table.lookup("read") == ("R", "IY", "D")
        assert table.lookup("dog") == ("D", "AO", "G")
        assert table.lookup("READ(2)") is None

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("JUSTAWORD\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            PronouncingTable.from_file(path)

    def test_unknown_symbol_names_its_line(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("CAT  K AE1 T\nDOG  D QX G\n", encoding="utf-8")
        with pytest.raises(SchemaError) as info:
            PronouncingTable.from_file(path)
        assert str(info.value) == f"{path}:2: unknown ARPAbet symbol: 'QX'"


class TestFallbackRules:
    def test_longest_cluster_wins(self):
        rules = FallbackRules({"s": ("S",), "h": ("HH",), "sh": ("SH",)})
        assert rules.apply("sh") == ("SH",)
        assert rules.apply("hs") == ("HH", "S")

    def test_uncovered_letter_rejected(self):
        rules = FallbackRules({"a": ("AH",)})
        with pytest.raises(AnalysisError):
            rules.apply("ab")

    def test_unknown_symbol_rejected_at_load(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("a\tAH\nb\tQX\n", encoding="utf-8")
        with pytest.raises(SchemaError) as info:
            FallbackRules.from_file(path)
        assert str(info.value) == f"{path}:2: unknown ARPAbet symbol: 'QX'"

    def test_bundled_rules_cover_whole_alphabet(self, rules):
        import string
        for letter in string.ascii_lowercase:
            assert rules.apply(letter), letter


class TestDistributions:
    def test_woody_uniform_quarters(self, table, rules):
        dist = phoneme_distribution([to_phonemes("woody", table, rules)])
        assert dist == {"D": 0.25, "IY": 0.25, "UH": 0.25, "W": 0.25}

    def test_repeated_word_hand_tally(self, table, rules):
        # boo = B UW; two copies -> B 0.5, UW 0.5
        seqs = [to_phonemes("boo", table, rules),
                to_phonemes("boo", table, rules)]
        assert phoneme_distribution(seqs) == {"B": 0.5, "UW": 0.5}

    def test_probabilities_sum_to_one(self, table, rules):
        seqs = [to_phonemes(w, table, rules)
                for w in ("woody", "boo", "zorp", "dog")]
        assert sum(phoneme_distribution(seqs).values()) == pytest.approx(1.0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(AnalysisError):
            phoneme_distribution([])


class TestOddsRatios:
    def test_hand_case_ratio_two(self):
        ranking = odds_ratio_ranking({"W": 0.5, "D": 0.5},
                                     {"W": 0.25, "D": 0.75})
        assert ratios(ranking)["W"] == pytest.approx(2.0, rel=1e-4)
        assert ratios(ranking)["D"] == pytest.approx(2.0 / 3.0, rel=1e-4)
        assert ranking[0].symbol == "W"
        assert ranking[0].rank == 1

    def test_smoothing_keeps_missing_symbols_finite(self):
        ranking = odds_ratio_ranking({"W": 1.0}, {"D": 1.0}, smoothing=1e-6)
        assert ratios(ranking)["W"] == pytest.approx(1e6, rel=1e-3)
        assert ratios(ranking)["D"] == pytest.approx(1e-6, rel=1e-3)

    def test_tie_breaks_alphabetically(self):
        ranking = odds_ratio_ranking({"B": 0.5, "A": 0.5},
                                     {"B": 0.5, "A": 0.5})
        assert [e.symbol for e in ranking] == ["A", "B"]
        assert [e.rank for e in ranking] == [1, 2]


class TestPositionalManner:
    def test_woody_edges(self, table, rules):
        corpus = [to_phonemes("woody", table, rules)]
        first = positional_manner_distribution(corpus, WordPosition.FIRST)
        final = positional_manner_distribution(corpus, WordPosition.FINAL)
        assert first == {Manner.SEMIVOWEL: 1.0}
        assert final == {Manner.VOWEL: 1.0}

    def test_mixed_corpus_hand_tally(self, table, rules):
        # dog D AO G, boo B UW, woody W UH D IY:
        # first manners Stop, Stop, Semivowel
        corpus = [to_phonemes(w, table, rules) for w in ("dog", "boo", "woody")]
        first = positional_manner_distribution(corpus, WordPosition.FIRST)
        assert first == {Manner.STOP: pytest.approx(2 / 3),
                         Manner.SEMIVOWEL: pytest.approx(1 / 3)}

    def test_empty_corpus_rejected(self):
        with pytest.raises(AnalysisError):
            positional_manner_distribution([], WordPosition.FIRST)
