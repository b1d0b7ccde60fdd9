"""Grapheme-to-phoneme conversion and phoneme/manner statistics.

Conversion is two-stage: exact lookup in an ARPAbet pronouncing table
(CMU dictionary file format), falling back to a deterministic
longest-match letter-cluster rule table for out-of-vocabulary words.
Each emitted sequence records which path produced it so downstream
reports can quantify fallback usage.

A phoneme is its stress-stripped ARPAbet symbol: stress digits on vowel
symbols (AH0, IY1, ...) are stripped on load, so the whole module works
over the plain 39-symbol inventory, and a phoneme's manner is read from
the one table, ``MANNER_BY_SYMBOL``.
"""

from __future__ import annotations

import enum
import importlib.resources
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .corpus import read_records
from .errors import AnalysisError, SchemaError
from .morphology import letters


class Manner(enum.Enum):
    STOP = "Stop"
    FRICATIVE = "Fricative"
    VOWEL = "Vowel"
    NASAL = "Nasal"
    LIQUID = "Liquid"
    AFFRICATE = "Affricate"
    ASPIRATE = "Aspirate"
    SEMIVOWEL = "Semivowel"

    def __str__(self):
        return self.value


_MANNER_GROUPS = {
    Manner.STOP: ("B", "D", "G", "K", "P", "T"),
    Manner.FRICATIVE: ("DH", "F", "S", "SH", "TH", "V", "Z", "ZH"),
    Manner.VOWEL: ("AA", "AE", "AH", "AO", "AW", "AY", "EH", "ER",
                   "EY", "IH", "IY", "OW", "OY", "UH", "UW"),
    Manner.NASAL: ("M", "N", "NG"),
    Manner.LIQUID: ("L", "R"),
    Manner.AFFRICATE: ("CH", "JH"),
    Manner.ASPIRATE: ("HH",),
    Manner.SEMIVOWEL: ("W", "Y"),
}

MANNER_BY_SYMBOL: dict[str, Manner] = {
    symbol: manner for manner, symbols in _MANNER_GROUPS.items() for symbol in symbols
}


def _canonical(symbol: str) -> str:
    """The phoneme an ARPAbet symbol stands for: the symbol uppercased with
    its stress digits stripped, checked against the inventory."""
    canonical = symbol.upper().rstrip("012")
    if canonical not in MANNER_BY_SYMBOL:
        raise AnalysisError(f"unknown ARPAbet symbol: {symbol!r}")
    return canonical


def manner_of(symbol: str) -> Manner:
    """Articulation manner of an ARPAbet symbol (stress digits tolerated)."""
    return MANNER_BY_SYMBOL[_canonical(symbol)]


class ConversionSource(enum.Enum):
    LEXICON_LOOKUP = "lookup"
    RULE_FALLBACK = "fallback"


@dataclass(frozen=True)
class PhonemeSequence:
    word: str
    phonemes: tuple[str, ...]
    source: ConversionSource


class PronouncingTable:
    """ARPAbet pronunciations keyed by uppercase word.

    File format is the CMU dictionary one: ``WORD  PH1 PH2 ...`` per line,
    ``;;;`` comment lines ignored, ``WORD(2)``-style alternative
    pronunciations skipped (the first listed pronunciation wins).
    """

    def __init__(self, entries: Mapping[str, Sequence[str]]):
        self._entries = {
            word.upper(): tuple(map(_canonical, symbols))
            for word, symbols in entries.items()
        }

    def lookup(self, word: str) -> tuple[str, ...] | None:
        return self._entries.get(word.upper())

    @classmethod
    def from_file(cls, path) -> "PronouncingTable":
        entries: dict[str, list[str]] = {}
        for word, *symbols in read_records(path, _split_entry, comment=";;;"):
            if not re.fullmatch(r".+\(\d+\)", word):
                entries.setdefault(word.upper(), symbols)
        return cls(entries)


def _split_entry(line: str) -> list[str]:
    parts = line.split()
    if len(parts) < 2:
        raise SchemaError("expected WORD PH1 PH2 ...")
    return [parts[0], *_known(parts[1:])]


def _known(symbols: list[str]) -> list[str]:
    """A file line's phonemes; an unknown symbol is an error naming the line."""
    try:
        return list(map(_canonical, symbols))
    except AnalysisError as exc:
        raise SchemaError(str(exc)) from None


class FallbackRules:
    """Deterministic letter-cluster to phoneme rules for OOV words.

    Applied greedily left to right, always consuming the longest cluster
    with a rule. The bundled table covers every single letter, so any
    alphabetic input converts. Symbols are validated, and stress-stripped,
    once at construction.
    """

    def __init__(self, rules: Mapping[str, Sequence[str]]):
        self._rules = {cluster.lower(): tuple(map(_canonical, symbols))
                       for cluster, symbols in rules.items()}
        if not self._rules:
            raise AnalysisError("fallback rule table is empty")
        self._max_len = max(len(c) for c in self._rules)

    def apply(self, word: str) -> tuple[str, ...]:
        text = letters(word)
        result: list[str] = []
        i = 0
        while i < len(text):
            for width in range(min(self._max_len, len(text) - i), 0, -1):
                cluster = text[i:i + width]
                if cluster in self._rules:
                    result.extend(self._rules[cluster])
                    i += width
                    break
            else:
                raise AnalysisError(
                    f"no fallback rule covers {text[i]!r} in {word!r}")
        return tuple(result)

    @classmethod
    def from_file(cls, path) -> "FallbackRules":
        return cls(dict(read_records(path, _rule)))


def _rule(line: str) -> tuple[str, list[str]]:
    parts = line.split("\t")
    if len(parts) != 2:
        raise SchemaError("expected cluster<TAB>phonemes")
    return parts[0].strip(), _known(parts[1].split())


def _data_path(name: str):
    return importlib.resources.files("slanglex").joinpath("data", name)


def load_bundled_pronouncing_table() -> PronouncingTable:
    with importlib.resources.as_file(_data_path("pronouncing_table.txt")) as path:
        return PronouncingTable.from_file(path)


def load_bundled_fallback_rules() -> FallbackRules:
    with importlib.resources.as_file(_data_path("g2p_rules.tsv")) as path:
        return FallbackRules.from_file(path)


def has_letter(word: str) -> bool:
    """Whether the word has a letter by `letters`, which `to_phonemes`
    needs: morphology segments exactly the words phonology converts."""
    return bool(letters(word))


def to_phonemes(word: str, table: PronouncingTable,
                rules: FallbackRules) -> PhonemeSequence:
    """Convert a (possibly multiword) headword to its phoneme sequence.

    Multiword headwords are converted token by token and concatenated;
    tokens without a letter are left out. The source flag is
    LEXICON_LOOKUP only when every token resolved via the table.
    """
    if not word or not word.strip():
        raise AnalysisError("cannot convert an empty word")
    if not has_letter(word):
        raise AnalysisError(f"word contains no alphabetic characters: {word!r}")
    phonemes: list[str] = []
    all_lookup = True
    for token in word.split():
        cleaned = re.sub(r"[^A-Za-z']", "", token).strip("'")
        if not has_letter(cleaned):
            continue
        found = table.lookup(cleaned)
        if found is not None:
            phonemes.extend(found)
        else:
            phonemes.extend(rules.apply(cleaned))
            all_lookup = False
    source = ConversionSource.LEXICON_LOOKUP if all_lookup else ConversionSource.RULE_FALLBACK
    return PhonemeSequence(word=word, phonemes=tuple(phonemes), source=source)


@dataclass(frozen=True)
class OddsRatioEntry:
    symbol: str
    ratio: float
    rank: int


def phoneme_distribution(corpus: Iterable[PhonemeSequence]) -> dict[str, float]:
    """Relative frequency of each phoneme over all tokens in the corpus.

    One count per headword occurrence in the input (type counts when the
    caller passes one sequence per headword).
    """
    counts: dict[str, int] = {}
    total = 0
    for seq in corpus:
        for p in seq.phonemes:
            counts[p] = counts.get(p, 0) + 1
            total += 1
    if total == 0:
        raise AnalysisError("empty corpus: no phonemes to count")
    return {symbol: count / total for symbol, count in sorted(counts.items())}


def odds_ratio_ranking(p_slang: Mapping[str, float], p_std: Mapping[str, float],
                       smoothing: float = 1e-6) -> tuple[OddsRatioEntry, ...]:
    """Rank phonemes by their slang-vs-standard odds ratio, descending.

    Additive smoothing, finite and positive, keeps ratios finite when a
    phoneme is absent from one distribution. Ties break alphabetically.
    """
    if not 0.0 < smoothing < float("inf"):
        raise AnalysisError(f"smoothing must be finite and > 0, got {smoothing}")
    inventory = sorted(set(p_slang) | set(p_std))
    scored = [
        (symbol, (p_slang.get(symbol, 0.0) + smoothing) / (p_std.get(symbol, 0.0) + smoothing))
        for symbol in inventory
    ]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return tuple(OddsRatioEntry(symbol, ratio, rank)
                 for rank, (symbol, ratio) in enumerate(scored, 1))


class WordPosition(enum.Enum):
    FIRST = "first"
    FINAL = "final"


def positional_manner_distribution(corpus: Sequence[PhonemeSequence],
                                   position: WordPosition) -> dict[Manner, float]:
    """Distribution of articulation manners at a word edge, over the
    manners that occur there.

    FIRST looks at the first phoneme of each word, FINAL at the last (for
    multiword headwords these come from the first and last token
    respectively, since conversion concatenates in order).
    """
    counts: dict[Manner, int] = {}
    n = 0
    for seq in corpus:
        if not seq.phonemes:
            continue
        p = seq.phonemes[0] if position is WordPosition.FIRST else seq.phonemes[-1]
        manner = MANNER_BY_SYMBOL[p]
        counts[manner] = counts.get(manner, 0) + 1
        n += 1
    if n == 0:
        raise AnalysisError("empty corpus: no words with phonemes")
    return {manner: counts[manner] / n for manner in Manner if manner in counts}
