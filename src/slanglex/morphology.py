"""Unsupervised morpheme segmentation by two-part MDL, plus affix statistics.

The segmenter is trained by greedy recursive binary splitting: a split is
accepted only when it lowers the total description length

    L = model bits + corpus bits

where, for morph type m with count c over an alphabet A (the characters of
the training words),

    model bits(m)  = (len(m) + 1) * log2(|A| + 1)      uniform character code
                     + 2 * floor(log2(c)) + 1          Elias gamma count code
    corpus bits    = N * log2(N) - sum_m c * log2(c)   unigram token NLL

Words are lowercased before segmentation; non-alphanumeric characters are
kept as literal symbols. The ``split_penalty`` knob adds a fixed cost per
split during training (0 = pure MDL).
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .corpus import read_records
from .errors import AnalysisError, SchemaError

_EPS = 1e-12


def normalize_word(word: str) -> str:
    return word.lower()


def character_bits(morph: str, alphabet_size: int) -> float:
    """Bits to spell a morph under a uniform character + end-marker code."""
    return (len(morph) + 1) * math.log2(alphabet_size + 1)


def elias_gamma_bits(count: int) -> int:
    """Code length of a positive integer under the Elias gamma code."""
    if count < 1:
        raise AnalysisError(f"counts must be positive, got {count}")
    return 2 * int(math.log2(count)) + 1


def morph_code_length(morph_counts: Mapping[str, int],
                      alphabet_size: int | None = None) -> float:
    """Total two-part description length of a morph inventory.

    Recomputable from counts alone; the trainer's incremental bookkeeping
    must agree with this function.
    """
    if alphabet_size is None:
        alphabet_size = len({ch for m in morph_counts for ch in m})
    model = 0.0
    n_tokens = 0
    sum_clog = 0.0
    for morph, count in morph_counts.items():
        model += character_bits(morph, alphabet_size) + elias_gamma_bits(count)
        n_tokens += count
        sum_clog += count * math.log2(count)
    corpus = n_tokens * math.log2(n_tokens) - sum_clog if n_tokens > 0 else 0.0
    return model + corpus


@dataclass(frozen=True)
class SegmenterModel:
    morph_counts: dict[str, int]
    alphabet: frozenset[str]
    total_code_length: float
    training_costs: tuple[float, ...] = ()

    @property
    def token_count(self) -> int:
        return sum(self.morph_counts.values())


@dataclass(frozen=True)
class Segmentation:
    word: str
    morphs: tuple[str, ...]

    def __post_init__(self):
        if "".join(self.morphs) != self.word:
            raise AnalysisError(
                f"morphs {self.morphs!r} do not concatenate to {self.word!r}")


class _CostState:
    """Incrementally maintained description length of a morph inventory."""

    def __init__(self, alphabet_size: int):
        self.alphabet_size = alphabet_size
        self.counts: dict[str, int] = {}
        self.n_tokens = 0
        self.sum_clog = 0.0
        self.model_bits = 0.0

    def add(self, morph: str, k: int = 1):
        old = self.counts.get(morph, 0)
        new = old + k
        self.counts[morph] = new
        self.n_tokens += k
        if old > 0:
            self.sum_clog -= old * math.log2(old)
            self.model_bits -= elias_gamma_bits(old)
        else:
            self.model_bits += character_bits(morph, self.alphabet_size)
        self.sum_clog += new * math.log2(new)
        self.model_bits += elias_gamma_bits(new)

    def remove(self, morph: str, k: int = 1):
        old = self.counts[morph]
        new = old - k
        self.sum_clog -= old * math.log2(old)
        self.model_bits -= elias_gamma_bits(old)
        if new > 0:
            self.counts[morph] = new
            self.sum_clog += new * math.log2(new)
            self.model_bits += elias_gamma_bits(new)
        elif new == 0:
            del self.counts[morph]
            self.model_bits -= character_bits(morph, self.alphabet_size)
        else:
            raise AnalysisError(f"removed more {morph!r} tokens than present")
        self.n_tokens -= k

    def cost(self) -> float:
        if self.n_tokens == 0:
            return 0.0
        corpus = self.n_tokens * math.log2(self.n_tokens) - self.sum_clog
        return self.model_bits + corpus

    def cost_with(self, morphs: Sequence[str], k: int) -> float:
        for m in morphs:
            self.add(m, k)
        value = self.cost()
        for m in morphs:
            self.remove(m, k)
        return value


def train_segmenter(words: Iterable[str], split_penalty: float = 0.0,
                    max_iters: int = 10, seed: int = 0) -> SegmenterModel:
    """Learn a morph inventory from a word list.

    Each pass re-analyzes every word (in seeded random order) by recursive
    binary splitting, keeping a new analysis only if it does not raise the
    total cost; training stops when a pass changes nothing or after
    ``max_iters`` passes. The total cost is non-increasing across passes.
    """
    multiplicity: dict[str, int] = {}
    for word in words:
        word = normalize_word(word)
        if not word:
            raise AnalysisError("cannot segment an empty word")
        multiplicity[word] = multiplicity.get(word, 0) + 1
    if not multiplicity:
        raise AnalysisError("cannot train a segmenter on an empty word list")

    alphabet = frozenset(ch for w in multiplicity for ch in w)
    state = _CostState(len(alphabet))
    analyses: dict[str, tuple[str, ...]] = {}
    for word, mult in multiplicity.items():
        analyses[word] = (word,)
        state.add(word, mult)

    def optimize(piece: str, mult: int) -> list[str]:
        # piece's tokens are currently absent from the state
        keep_cost = state.cost_with([piece], mult)
        best_i = None
        best_cost = keep_cost
        for i in range(1, len(piece)):
            candidate = state.cost_with([piece[:i], piece[i:]], mult) + split_penalty
            if candidate < best_cost - _EPS:
                best_cost = candidate
                best_i = i
        if best_i is None:
            state.add(piece, mult)
            return [piece]
        return optimize(piece[:best_i], mult) + optimize(piece[best_i:], mult)

    rng = random.Random(seed)
    order = sorted(multiplicity)
    costs = [state.cost()]
    for _ in range(max_iters):
        rng.shuffle(order)
        changed = False
        for word in order:
            mult = multiplicity[word]
            old = analyses[word]
            cost_before = state.cost()
            for m in old:
                state.remove(m, mult)
            new = tuple(optimize(word, mult))
            if new != old and state.cost() <= cost_before + _EPS:
                analyses[word] = new
                changed = True
            elif new != old:
                # greedy re-analysis came out worse; restore the old one
                for m in new:
                    state.remove(m, mult)
                for m in old:
                    state.add(m, mult)
        costs.append(state.cost())
        if not changed:
            break

    return SegmenterModel(
        morph_counts=dict(sorted(state.counts.items())),
        alphabet=alphabet,
        total_code_length=state.cost(),
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
    n_tokens = model.token_count
    alpha_size = len(model.alphabet)

    def morph_cost(m: str) -> float:
        count = model.morph_counts.get(m)
        if count:
            return -math.log2(count / n_tokens)
        return character_bits(m, alpha_size) + math.log2(n_tokens + 1)

    # dp[j]: best (cost, n_morphs, neg-length key, morphs) for word[:j]
    dp: list[tuple | None] = [None] * (len(word) + 1)
    dp[0] = (0.0, 0, (), ())
    for j in range(1, len(word) + 1):
        best = None
        for i in range(j):
            prev = dp[i]
            if prev is None:
                continue
            piece = word[i:j]
            cand = (prev[0] + morph_cost(piece), prev[1] + 1,
                    prev[2] + (-len(piece),), prev[3] + (piece,))
            if best is None or _dp_better(cand, best):
                best = cand
        dp[j] = best
    assert dp[len(word)] is not None
    return Segmentation(word=word, morphs=dp[len(word)][3])


def _dp_better(cand, best) -> bool:
    if cand[0] < best[0] - _EPS:
        return True
    if cand[0] > best[0] + _EPS:
        return False
    return (cand[1], cand[2]) < (best[1], best[2])


class AffixSide(enum.Enum):
    PREFIX = "prefix"
    SUFFIX = "suffix"


@dataclass(frozen=True)
class AffixDistribution:
    """Top-k first/last morph frequencies with cumulative mass per rank."""

    side: AffixSide
    entries: tuple[tuple[str, float], ...]
    covered_mass_at_k: dict[int, float]


def ranked_shares(counts: Mapping[str, int], total: int, side: AffixSide,
                  k: int) -> AffixDistribution:
    """Top-k affixes by count (ties alphabetical), each with its share of
    ``total``, and the running sum of those shares at every rank 1..k."""
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    entries = tuple((affix, count / total) for affix, count in ranked[:k])
    mass = {}
    running = 0.0
    for rank in range(1, k + 1):
        if rank <= len(entries):
            running += entries[rank - 1][1]
        mass[rank] = running
    return AffixDistribution(side=side, entries=entries, covered_mass_at_k=mass)


def affix_distribution(segmentations: Sequence[Segmentation], side: AffixSide,
                       k: int = 25) -> AffixDistribution:
    """Distribution of word-initial or word-final morphs over a corpus."""
    if not segmentations:
        raise AnalysisError("no segmentations to summarize")
    if k < 1:
        raise AnalysisError(f"k must be at least 1, got {k}")
    counts: dict[str, int] = {}
    for seg in segmentations:
        affix = seg.morphs[0] if side is AffixSide.PREFIX else seg.morphs[-1]
        counts[affix] = counts.get(affix, 0) + 1
    return ranked_shares(counts, len(segmentations), side, k)


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
        raise SchemaError("segmenter model file is empty")
    alphabet = frozenset(ch for m in counts for ch in m)
    return SegmenterModel(
        morph_counts=counts,
        alphabet=alphabet,
        total_code_length=morph_code_length(counts, len(alphabet)),
    )
