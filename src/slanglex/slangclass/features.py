"""Character and morpheme n-gram features for the slang-class models.

Case and punctuation are preserved: periods and capitals are exactly the
cues that identify alphabetisms, so no normalization happens here.

The n-grams of a word have one rule, `word_features`: every run of
``n_min..n_max`` units with its multiplicity, where the units are the
word's characters or its segmenter's morphs (morph runs are joined with
`MORPH_SEPARATOR`).

Words reach a model in two steps, each defined once. `NgramTable`
picks the features: it holds the `word_features` of distinct words as one
count table, whose columns are the distinct grams in gram (code point)
order and whose nonzero cells are kept as row, column and count arrays.
A vocabulary has one rule, `NgramTable.vocabulary`: the `cap` grams with
the largest column totals over the chosen words, ties broken by gram
order; a cell weighs as often as its row is chosen, so the totals are one
weighted ``np.bincount`` over the cells. A gram no chosen word holds
is never ranked, so a table over more words than a fit trains on gives
the fit the same vocabulary: the char fits on one gold file share one
table of all its words, each word's n-grams extracted once.

`feature_matrix` then counts a word list's vocabulary features, the one
path from words to a model matrix, for fitting and scoring alike. Morph
features segment each word and scatter its `word_features`.
For char features it walks a trie of the vocabulary, built on first use:
depth d holds the sorted keys ``parent_state * BASE + code_point`` of its
edges and the child state of each, and a state that ends a feature maps
to that feature's column. ``BASE`` is 0x110001, one more than the code
points, so a key is below ``#states * BASE``: within int64 for any trie
under 8e12 states, whatever the n-gram range, where one integer per
n-gram would overflow past a few characters.
Every word position advances one depth at a time, by one ``searchsorted``
per depth, until its next character has no edge; each word is followed by
0x110000, which no edge has, so no position runs into the next word. A
position that reaches a feature's state at a depth within
``n_min..n_max`` counts one hit, so the counts equal those of the words'
`word_features` maps exactly. Characters come from one UTF-32
encoding of the joined words, one code unit per character as ``len``
counts them; a numpy ``U`` array would drop a word's trailing U+0000.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from ..errors import AnalysisError
from ..morphology import SegmenterModel, segment

MORPH_SEPARATOR = "+"


class NgramKind(enum.Enum):
    CHAR = "char"
    MORPHEME = "morph"


def _check(words: Iterable[str], n_min: int, n_max: int) -> None:
    if not 1 <= n_min <= n_max:
        raise AnalysisError(f"bad n-gram range ({n_min}, {n_max})")
    if not all(words):
        raise AnalysisError("cannot extract features from an empty word")


def word_features(word: str, kind: NgramKind, n_min: int, n_max: int,
                  segmenter: SegmenterModel | None = None) -> dict[str, int]:
    """The n-grams of one word (module docstring) with their multiplicities,
    for training and prediction alike, shortest runs first, then left to
    right."""
    _check((word,), n_min, n_max)
    if kind is NgramKind.CHAR:
        units, join = word, str  # a run of characters is already a string
    elif segmenter is None:
        raise AnalysisError("morpheme features require a trained segmenter")
    else:
        units, join = segment(segmenter, word).morphs, MORPH_SEPARATOR.join
    counts: dict[str, int] = {}
    for n in range(n_min, n_max + 1):
        for i in range(len(units) - n + 1):
            gram = join(units[i:i + n])
            counts[gram] = counts.get(gram, 0) + 1
    return counts


@dataclass(frozen=True)
class FeatureVocabulary:
    kind: NgramKind
    n_min: int
    n_max: int
    features: tuple[str, ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.features)) != len(self.features):
            raise AnalysisError("feature list contains duplicates")
        object.__setattr__(self, "index",
                           {f: i for i, f in enumerate(self.features)})

    def __len__(self) -> int:
        return len(self.features)

    @cached_property
    def _trie(self) -> "_CharTrie":
        return _CharTrie(self.features)


class NgramTable:
    """The features of the distinct ``words`` as one count table (module
    docstring), from which `vocabulary` ranks the grams of any of them."""

    def __init__(self, words: Iterable[str], kind: NgramKind, n_min: int,
                 n_max: int, segmenter: SegmenterModel | None = None):
        distinct = list(dict.fromkeys(words))
        maps = [word_features(w, kind, n_min, n_max, segmenter) for w in distinct]
        self.kind, self.n_min, self.n_max = kind, n_min, n_max
        self._row = {word: i for i, word in enumerate(distinct)}
        self.grams = sorted({gram for fmap in maps for gram in fmap})
        column = {gram: j for j, gram in enumerate(self.grams)}
        # the nonzero cells, row after row: each one's row, column and count
        self.rows = np.repeat(np.arange(len(maps)), [len(fmap) for fmap in maps])
        self.columns = np.fromiter((column[g] for fmap in maps for g in fmap),
                                   np.int64, len(self.rows))
        self.counts = np.fromiter((c for fmap in maps for c in fmap.values()),
                                  np.float64, len(self.rows))

    def vocabulary(self, words: Iterable[str], cap: int) -> FeatureVocabulary:
        """The `cap` grams with the largest totals over ``words``, each a
        word of the table (repeats count again), ties broken by gram
        order."""
        if cap < 1:
            raise AnalysisError(f"vocabulary cap must be positive, got {cap}")
        rows = np.array([self._row[word] for word in words], dtype=np.int64)
        # each cell counts once for every time its row is chosen; the
        # totals are integers, so they are exact in float64
        chosen = np.bincount(rows, minlength=len(self._row))[self.rows]
        totals = np.bincount(self.columns, weights=chosen * self.counts,
                             minlength=len(self.grams))
        observed = np.flatnonzero(totals)  # every count is positive
        if not len(observed):
            raise AnalysisError("no features observed in training data")
        ranked = observed[np.argsort(-totals[observed], kind="stable")[:cap]]
        return FeatureVocabulary(kind=self.kind, n_min=self.n_min,
                                 n_max=self.n_max,
                                 features=tuple(self.grams[j] for j in ranked))


class _CharTrie:
    """The features as a trie over code points, one sorted key array per
    depth (see the module docstring)."""

    BASE = 0x110001  # one more than the code points; 0x110000 ends a word

    def __init__(self, features: Sequence[str]):
        self.n_columns = len(features)
        edges: list[dict[int, int]] = []  # per depth: key -> child state
        # per state: the column of the feature it ends; other states count
        # into a spare last column, which is dropped
        column = [self.n_columns]
        for col, feature in enumerate(features):
            state = 0
            for depth, ch in enumerate(feature):
                if depth == len(edges):
                    edges.append({})
                key = state * self.BASE + ord(ch)
                if key not in edges[depth]:
                    edges[depth][key] = len(column)
                    column.append(self.n_columns)
                state = edges[depth][key]
            column[state] = col
        # each key array ends in a value above every key, so the slot
        # searchsorted returns is always in range; children are stored
        # premultiplied by BASE, ready for the next depth's keys
        self.keys = [np.array(sorted(level) + [np.iinfo(np.int64).max],
                              dtype=np.int64) for level in edges]
        self.children = [np.array([level[k] for k in keys[:-1]],
                                  dtype=np.int64) * self.BASE
                         for level, keys in zip(edges, self.keys)]
        self.column = np.array(column, dtype=np.int64)

    def counts(self, words: Sequence[str], n_min: int, n_max: int) -> np.ndarray:
        width = self.n_columns + 1
        ends = np.fromiter(accumulate(len(w) + 1 for w in words), np.int64,
                           len(words)) - 1  # where each word's separator is
        text = np.frombuffer(("\0".join(words) + "\0").encode(
            "utf-32-le", "surrogatepass"), dtype="<u4").astype(np.int64)
        text[ends] = self.BASE - 1
        pos = np.arange(len(text))  # where each surviving n-gram starts
        state = 0  # times BASE, as the key arrays want it
        found_pos, found_state = [pos[:0]], [pos[:0]]
        for n in range(min(n_max, len(self.keys))):
            keys = self.keys[n]
            key = state + text[n:][pos]
            slot = keys.searchsorted(key)
            hit = keys[slot] == key
            pos, state = pos[hit], self.children[n][slot[hit]]
            if n + 1 >= n_min:
                found_pos.append(pos)
                found_state.append(state)
        flat = (ends.searchsorted(np.concatenate(found_pos)) * width
                + self.column[np.concatenate(found_state) // self.BASE])
        # counted in float64 from the start: a first int-to-float cast in
        # the process would page in another 128 kB of numpy
        counts = np.zeros((len(words), width))
        np.add.at(counts.reshape(-1), flat, 1.0)
        return counts[:, :-1]


def feature_matrix(vocab: FeatureVocabulary, words: Sequence[str],
                   segmenter: SegmenterModel | None = None) -> np.ndarray:
    """The ``(len(words), len(vocab))`` count matrix of the words'
    vocabulary features, for fitting and scoring alike; unknown features
    are ignored. Char features take the trie walk; morph features segment
    each word and scatter its `word_features` into one matrix."""
    _check(words, vocab.n_min, vocab.n_max)
    if vocab.kind is NgramKind.CHAR:
        return vocab._trie.counts(words, vocab.n_min, vocab.n_max)
    index = vocab.index
    cells = [(row, index[feature], count) for row, word in enumerate(words)
             for feature, count in word_features(word, vocab.kind, vocab.n_min,
                                                 vocab.n_max, segmenter).items()
             if feature in index]
    x = np.zeros((len(words), len(vocab)))
    if cells:
        rows, columns, counts = zip(*cells)
        x[rows, columns] = counts
    return x
