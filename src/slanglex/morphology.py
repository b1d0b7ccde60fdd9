"""Unsupervised morpheme segmentation by two-part MDL, plus affix statistics.

The segmenter is trained by greedy recursive binary splitting: a split is
accepted only when it lowers the total description length

    L = model bits + corpus bits

where, for morph type m with count c over an alphabet A (the characters of
the training words) and N morph tokens in all,

    model bits(m)  = (len(m) + 1) * log2(|A| + 1)      uniform character code
                     + 2 * floor(log2(c)) + 1          Elias gamma count code
    corpus bits    = N * log2(N) - sum_m c * log2(c)   unigram token NLL

``morph_code_length`` is the one definition of L. Training never
recomputes it per candidate: as in Morfessor Baseline's local search
(Creutz & Lagus 2002), a candidate analysis of a word is scored by the
change in L from adding its tokens, which depends only on the counts of
the morphs it touches and on N. With EG(c) the gamma bits and
XLX(c) = c * log2(c), adding k tokens of a morph with count c costs

    c = 0:  (len(m) + 1) * log2(|A| + 1) + EG(k) - XLX(k)
    c > 0:  EG(c + k) - EG(c) - (XLX(c + k) - XLX(c))

plus, once per analysis of j morphs, XLX(N + j * k) - XLX(N). EG and XLX
are tables indexed by count, built once per fit, and so are, per token
multiplicity k, the two cases above: indexed by c for a morph already in
the inventory and by len(m) for a new one. Every split candidate
shares the token-total term, so candidates differ only by sums of a few
small per-morph changes; the absolute ``_EPS`` compares those changes, not
totals of 1e5 bits where it would be below float resolution. The costs a
model reports come from ``morph_code_length`` (a correctly rounded sum),
so a trained model and its saved-then-loaded copy agree exactly.

Words are lowercased before segmentation; non-alphanumeric characters are
kept as literal symbols.
"""

from __future__ import annotations

import enum
import math
import random
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

from .corpus import read_records
from .errors import AnalysisError, SchemaError

_EPS = 1e-12


def normalize_word(word: str) -> str:
    return word.lower()


def letters(word: str) -> str:
    """The ASCII letters (``A``-``Z``, ``a``-``z``) of the word, lowercased;
    every other character is dropped, also one whose lowercase is an ASCII
    letter (the Kelvin sign, dotted capital I)."""
    return re.sub(r"[^A-Za-z]", "", word).lower()


def character_bits(morph: str, alphabet_size: int) -> float:
    """Bits to spell a morph under a uniform character + end-marker code."""
    return (len(morph) + 1) * math.log2(alphabet_size + 1)


def elias_gamma_bits(count: int) -> int:
    """Code length of a positive integer under the Elias gamma code."""
    if count < 1:
        raise AnalysisError(f"counts must be positive, got {count}")
    return 2 * (int(count).bit_length() - 1) + 1


def morph_code_length(morph_counts: Mapping[str, int],
                      alphabet_size: int | None = None) -> float:
    """Total two-part description length of a morph inventory. Its terms
    are summed with one rounding (``math.fsum``), so the result does not
    depend on the order of the counts."""
    if alphabet_size is None:
        alphabet_size = len({ch for m in morph_counts for ch in m})
    n_tokens = sum(morph_counts.values())
    terms = [n_tokens * math.log2(n_tokens)] if n_tokens > 0 else []
    for morph, count in morph_counts.items():
        terms += (character_bits(morph, alphabet_size), elias_gamma_bits(count),
                  -count * math.log2(count))
    return math.fsum(terms)


@dataclass(frozen=True)
class SegmenterModel:
    morph_counts: dict[str, int]
    alphabet: frozenset[str]
    total_code_length: float
    training_costs: tuple[float, ...] = ()

    @property
    def token_count(self) -> int:
        return sum(self.morph_counts.values())

    @cached_property
    def surprisal(self) -> dict[str, float]:
        """Unigram surprisal in bits of each inventory morph, computed on
        first use; ``morph_counts`` must not change after that."""
        n_tokens = self.token_count
        return {m: -math.log2(c / n_tokens)
                for m, c in self.morph_counts.items() if c}


@dataclass(frozen=True)
class Segmentation:
    word: str
    morphs: tuple[str, ...]

    def __post_init__(self):
        if "".join(self.morphs) != self.word:
            raise AnalysisError(
                f"morphs {self.morphs!r} do not concatenate to {self.word!r}")


def train_segmenter(words: Iterable[str], max_iters: int = 10,
                    seed: int = 0) -> SegmenterModel:
    """Learn a morph inventory from a word list.

    Each pass re-analyzes every word (in seeded random order) by recursive
    binary splitting, keeping a new analysis only if it does not raise the
    total cost; training stops when a pass changes nothing or after
    ``max_iters`` passes. The total cost is non-increasing across passes.
    """
    if max_iters < 0:
        raise AnalysisError(f"max_iters must be >= 0, got {max_iters}")
    multiplicity: dict[str, int] = {}
    for word in words:
        word = normalize_word(word)
        if not word:
            raise AnalysisError("cannot segment an empty word")
        multiplicity[word] = multiplicity.get(word, 0) + 1
    if not multiplicity:
        raise AnalysisError("cannot train a segmenter on an empty word list")

    alphabet = frozenset(ch for w in multiplicity for ch in w)
    letter_bits = math.log2(len(alphabet) + 1)
    # no count or token total exceeds the training text's character count
    size = (sum(len(w) * m for w, m in multiplicity.items())
            + 2 * max(multiplicity.values()))
    eg = [0] + [elias_gamma_bits(c) for c in range(1, size + 1)]
    xlx = [0.0] + [c * math.log2(c) for c in range(1, size + 1)]

    counts = dict(multiplicity)
    analyses = {word: (word,) for word in multiplicity}
    n_tokens = sum(counts.values())
    longest = max(map(len, multiplicity))
    tables: dict[int, tuple[list[float], list[float]]] = {}

    def table(k: int) -> tuple[list[float], list[float]]:
        # the bits added by k more tokens of a morph, the token-total term
        # aside: seen[c] for a morph with count c > 0, new[len] for a new one
        if k not in tables:
            tables[k] = ([0.0] + [eg[c + k] - eg[c] - (xlx[c + k] - xlx[c])
                                  for c in range(1, size - k + 1)],
                         [(n + 1) * letter_bits + eg[k] - xlx[k]
                          for n in range(longest + 1)])
        return tables[k]

    def move(morphs: Sequence[str], k: int):
        # k more tokens of each of morphs (repeats allowed); k < 0 removes
        nonlocal n_tokens
        for m in morphs:
            c = counts.get(m, 0) + k
            if c:
                counts[m] = c
            else:
                del counts[m]
        n_tokens += len(morphs) * k

    def gain(morph: str, k: int) -> float:
        seen, new = table(k)
        c = counts.get(morph, 0)
        return seen[c] if c else new[len(morph)]

    def added_bits(morphs: Sequence[str], k: int) -> float:
        # bits added by k more tokens of each of morphs (repeats allowed)
        bits = xlx[n_tokens + len(morphs) * k] - xlx[n_tokens]
        for m in dict.fromkeys(morphs):
            bits += gain(m, morphs.count(m) * k)
        return bits

    def optimize(piece: str, mult: int) -> list[str]:
        # piece's tokens are currently absent from the counts
        seen, new = table(mult)
        get = counts.get
        n = len(piece)
        c = get(piece)
        best = ((seen[c] if c else new[n])
                + (xlx[n_tokens + mult] - xlx[n_tokens]))
        pair_bits = xlx[n_tokens + 2 * mult] - xlx[n_tokens]
        best_i = None
        for i in range(1, n):
            left, right = piece[:i], piece[i:]
            if left == right:
                bits = gain(left, 2 * mult)
            else:
                c, d = get(left), get(right)
                bits = ((seen[c] if c else new[i])
                        + (seen[d] if d else new[n - i]))
            if bits + pair_bits < best - _EPS:
                best = bits + pair_bits
                best_i = i
        if best_i is None:
            move((piece,), mult)
            return [piece]
        return optimize(piece[:best_i], mult) + optimize(piece[best_i:], mult)

    rng = random.Random(seed)
    order = sorted(multiplicity)
    costs = [morph_code_length(counts, len(alphabet))]
    for _ in range(max_iters):
        rng.shuffle(order)
        changed = False
        for word in order:
            mult = multiplicity[word]
            old = analyses[word]
            move(old, -mult)
            old_bits = added_bits(old, mult)
            new = tuple(optimize(word, mult))
            if new == old:
                continue
            move(new, -mult)
            if added_bits(new, mult) <= old_bits + _EPS:
                analyses[word] = new
                changed = True
            move(analyses[word], mult)
        costs.append(morph_code_length(counts, len(alphabet)))
        if not changed:
            break

    return SegmenterModel(
        morph_counts=dict(sorted(counts.items())),
        alphabet=alphabet,
        total_code_length=costs[-1],
        training_costs=tuple(costs),
    )


def segment(model: SegmenterModel, word: str) -> Segmentation:
    """Best segmentation of a word under a trained model.

    Dynamic programming over split points; morphs in the inventory cost
    their unigram surprisal, unseen substrings fall back to a character
    code plus an out-of-inventory charge. Ties break toward fewer morphs,
    then toward the leftmost-longest morph.
    """
    word = normalize_word(word)
    if not word:
        raise AnalysisError("cannot segment an empty word")
    surprisal = model.surprisal
    letter_bits = math.log2(len(model.alphabet) + 1)
    unseen_bits = math.log2(model.token_count + 1)

    # best analysis of word[:j]: its cost, its morph count and where its
    # last morph starts
    n = len(word)
    cost = [0.0] * (n + 1)
    n_morphs = [0] * (n + 1)
    start = [0] * (n + 1)
    for j in range(1, n + 1):
        best_i = 0
        best = math.inf
        for i in range(j):
            piece = word[i:j]
            bits = surprisal.get(piece)
            if bits is None:
                bits = (j - i + 1) * letter_bits + unseen_bits
            cand = cost[i] + bits
            if cand < best - _EPS:
                best, best_i = cand, i
            elif cand <= best + _EPS and (
                    n_morphs[i] < n_morphs[best_i] or
                    n_morphs[i] == n_morphs[best_i] and
                    _lengths(start, i, j) > _lengths(start, best_i, j)):
                best, best_i = cand, i
        cost[j], n_morphs[j], start[j] = best, n_morphs[best_i] + 1, best_i
    cuts = [n]
    while cuts[-1]:
        cuts.append(start[cuts[-1]])
    cuts.reverse()
    return Segmentation(word=word, morphs=tuple(
        word[i:j] for i, j in zip(cuts, cuts[1:])))


def _lengths(start: list[int], i: int, j: int) -> tuple[int, ...]:
    """Morph lengths, first to last, of the best analysis of word[:i]
    followed by the morph word[i:j]; only ties need them."""
    lengths = [j - i]
    while i:
        lengths.append(i - start[i])
        i = start[i]
    return tuple(reversed(lengths))


class AffixSide(enum.Enum):
    PREFIX = "prefix"
    SUFFIX = "suffix"


def ranked_shares(counts: Mapping[str, int], total: int,
                  k: int) -> list[tuple[str, float, float]]:
    """Top-k affixes by count (ties alphabetical), each as ``(affix, share,
    cumulative)``: its share of ``total`` and the running sum of shares up
    to its rank."""
    if k < 1:
        raise AnalysisError(f"k must be at least 1, got {k}")
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:k]
    shares = [count / total for _, count in ranked]
    return [(affix, share, cumulative) for (affix, _), share, cumulative
            in zip(ranked, shares, accumulate(shares))]


def affix_distribution(segmentations: Sequence[Segmentation], side: AffixSide,
                       k: int = 25) -> list[tuple[str, float, float]]:
    """Ranked shares of word-initial or word-final morphs over a corpus."""
    if not segmentations:
        raise AnalysisError("no segmentations to summarize")
    counts: dict[str, int] = {}
    for seg in segmentations:
        affix = seg.morphs[0] if side is AffixSide.PREFIX else seg.morphs[-1]
        counts[affix] = counts.get(affix, 0) + 1
    return ranked_shares(counts, len(segmentations), k)


def save_segmenter(model: SegmenterModel, path) -> None:
    """Persist a model as sorted morph<TAB>count lines."""
    with open(path, "w", encoding="utf-8") as handle:
        for morph, count in sorted(model.morph_counts.items()):
            handle.write(f"{morph}\t{count}\n")


def _morph_count(line: str) -> tuple[str, int]:
    parts = line.split("\t")
    if len(parts) != 2:
        raise SchemaError("expected morph<TAB>count")
    try:
        count = int(parts[1])
    except ValueError:
        raise SchemaError(f"bad count {parts[1]!r}") from None
    if count < 1:
        raise SchemaError(f"non-positive count {count}")
    return parts[0], count


def load_segmenter(path) -> SegmenterModel:
    # morphs may begin with "#", so this format has no comment lines
    counts = dict(read_records(path, _morph_count, comment=None))
    if not counts:
        raise SchemaError("segmenter model file is empty", path=path)
    alphabet = frozenset(ch for m in counts for ch in m)
    return SegmenterModel(
        morph_counts=counts,
        alphabet=alphabet,
        total_code_length=morph_code_length(counts, len(alphabet)),
    )
