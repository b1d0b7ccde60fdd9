"""Rule-based analyzers for clipping, reduplicative, and blend formation.

All comparisons are case-insensitive. Vowels are {a,e,i,o,u}; 'y' counts
as a consonant.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Sequence

from ..corpus import GoldClassRecord
from ..errors import AnalysisError
from ..morphology import ranked_shares

_VOWELS = frozenset("aeiou")
_PAIR_SPLIT = re.compile(r"[-\s]+")


class ClippingType(enum.Enum):
    BACK = "Back"
    FORE = "Fore"
    COMPOUND = "Compound"
    UNKNOWN = "Unknown"


class ReduplicativeType(enum.Enum):
    DUP = "DUP"
    EX_VOW = "EX_VOW"
    EX_CONS = "EX_CONS"
    SHM = "SHM"
    UNK = "UNK"


def classify_clipping(clip: str, source: str) -> ClippingType:
    """Type a clipped word against its source lexeme.

    Precedence: Compound (multiword source) > Back (clip keeps the start)
    > Fore (clip keeps the end) > Unknown.
    """
    clip = clip.strip().lower()
    source = source.strip().lower()
    if not clip or not source:
        raise AnalysisError("clipping comparison needs two non-empty words")
    if re.search(r"\s", source):
        return ClippingType.COMPOUND
    if source.startswith(clip):
        return ClippingType.BACK
    if source.endswith(clip):
        return ClippingType.FORE
    return ClippingType.UNKNOWN


def split_pair(pair: str) -> tuple[str, str] | None:
    """The two parts of an echo pair, split at hyphens and spaces, or None
    when there are not exactly two; empty parts (from a leading, trailing
    or doubled separator) are dropped."""
    parts = [p for p in _PAIR_SPLIT.split(pair.strip()) if p]
    return (parts[0], parts[1]) if len(parts) == 2 else None


def classify_reduplicative(pair: str) -> ReduplicativeType:
    """Type an echo pair like "boo-boo" or "flip flop".

    Precedence: DUP > SHM > EX_VOW > EX_CONS > UNK. EX_VOW/EX_CONS require
    equal-length parts whose differing positions are all vowels (resp. all
    consonants) on both sides.
    """
    parts = split_pair(pair.lower())
    if parts is None:
        raise AnalysisError(
            f"expected exactly two hyphen- or space-separated parts in {pair!r}")
    first, second = parts
    if first == second:
        return ReduplicativeType.DUP
    for prefix in ("schm", "shm"):
        tail = second[len(prefix):]
        if second.startswith(prefix) and tail and first.endswith(tail):
            return ReduplicativeType.SHM
    if len(first) == len(second):
        diffs = [i for i in range(len(first)) if first[i] != second[i]]
        if diffs:
            if all(first[i] in _VOWELS and second[i] in _VOWELS for i in diffs):
                return ReduplicativeType.EX_VOW
            if all(first[i] not in _VOWELS and second[i] not in _VOWELS
                   for i in diffs):
                return ReduplicativeType.EX_CONS
    return ReduplicativeType.UNK


@dataclass(frozen=True)
class SubstitutionStats:
    """Per-letter replacement probabilities from EX_VOW/EX_CONS pairs."""

    replacements: dict[str, dict[str, float]]
    skipped: int  # unequal-length pairs that could not be aligned


def substitution_stats(pairs: Sequence[tuple[str, str]]) -> SubstitutionStats:
    """Tally which letters replace which across aligned echo pairs."""
    tally: dict[str, dict[str, int]] = {}
    skipped = 0
    for first, second in pairs:
        first = first.lower()
        second = second.lower()
        if len(first) != len(second):
            skipped += 1
            continue
        for a, b in zip(first, second):
            if a != b:
                tally.setdefault(a, {})
                tally[a][b] = tally[a].get(b, 0) + 1
    replacements = {}
    for letter in sorted(tally):
        total = sum(tally[letter].values())
        replacements[letter] = {
            b: count / total for b, count in sorted(tally[letter].items())
        }
    return SubstitutionStats(replacements=replacements, skipped=skipped)


def blend_suffix_stats(blends: Sequence[GoldClassRecord], k: int
                       ) -> tuple[list[tuple[str, float, float]], int]:
    """Ranked shares of the top-k suffixes that blends inherit from their
    final component.

    The suffix is the longest common suffix of the blend and its last
    component. Records without components, or with no shared suffix, are
    skipped; the skip count is returned alongside the shares, which are
    empty when every record is skipped.
    """
    counts: dict[str, int] = {}
    for record in blends:
        if record.components and len(record.components) >= 2:
            suffix = _common_suffix(record.word.lower(),
                                    record.components[-1].lower())
            if suffix:
                counts[suffix] = counts.get(suffix, 0) + 1
    used = sum(counts.values())
    return ranked_shares(counts, used, k), len(blends) - used


def _common_suffix(a: str, b: str) -> str:
    n = 0
    while n < len(a) and n < len(b) and a[-1 - n] == b[-1 - n]:
        n += 1
    return a[len(a) - n:] if n else ""
