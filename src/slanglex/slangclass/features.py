"""Character and morpheme n-gram features for the slang-class models.

Case and punctuation are preserved: periods and capitals are exactly the
cues that identify alphabetisms, so no normalization happens here.

An `NgramTable` holds the feature maps of many rows (words) as one count
table: its columns are the distinct grams in gram (code point) order,
and each row's nonzero counts are kept in compressed sparse row arrays.
A vocabulary has one rule, `NgramTable.vocabulary`: the `cap` grams with
the largest column totals over the chosen rows (one ``np.bincount``),
ties broken by gram order. `fit_vocabulary` is that rule over a table of
its maps. A gram no chosen row holds is never ranked, so a table over more
words than a fit trains on gives the fit the same vocabulary and rows: the
char fits on one gold file share one table of all its words, each word's
n-grams extracted once. `count_matrix` turns feature maps into the dense
matrix a model trains on, with one scatter.

`feature_matrix` counts a whole word list's vocabulary features at once.
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
``n_min..n_max`` counts one hit, so the counts equal `count_matrix` of
the `extract_char_ngrams` maps exactly. Characters come from one UTF-32
encoding of the joined words, one code unit per character as ``len``
counts them; a numpy ``U`` array would drop a word's trailing U+0000.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..errors import AnalysisError
from ..morphology import Segmentation, SegmenterModel, segment

MORPH_SEPARATOR = "+"


class NgramKind(enum.Enum):
    CHAR = "char"
    MORPHEME = "morph"


def _check_range(n_min: int, n_max: int) -> None:
    if not 1 <= n_min <= n_max:
        raise AnalysisError(f"bad n-gram range ({n_min}, {n_max})")


def extract_char_ngrams(word: str, n_min: int = 1, n_max: int = 5) -> dict[str, int]:
    """All contiguous substrings of length n_min..n_max, with multiplicity."""
    if not word:
        raise AnalysisError("cannot extract features from an empty word")
    _check_range(n_min, n_max)
    counts: dict[str, int] = {}
    for n in range(n_min, n_max + 1):
        for i in range(len(word) - n + 1):
            gram = word[i:i + n]
            counts[gram] = counts.get(gram, 0) + 1
    return counts


def extract_morpheme_ngrams(seg: Segmentation, n_min: int = 1,
                            n_max: int = 5) -> dict[str, int]:
    """Contiguous morph subsequences joined with a reserved separator."""
    _check_range(n_min, n_max)
    counts: dict[str, int] = {}
    morphs = seg.morphs
    for n in range(n_min, n_max + 1):
        for i in range(len(morphs) - n + 1):
            gram = MORPH_SEPARATOR.join(morphs[i:i + n])
            counts[gram] = counts.get(gram, 0) + 1
    return counts


def word_features(word: str, kind: NgramKind, n_min: int, n_max: int,
                  segmenter: SegmenterModel | None = None) -> dict[str, int]:
    """The features of one word, for training and prediction alike: char
    n-grams, or n-grams of the segmenter's morphs."""
    if kind is NgramKind.CHAR:
        return extract_char_ngrams(word, n_min, n_max)
    if segmenter is None:
        raise AnalysisError("morpheme features require a trained segmenter")
    return extract_morpheme_ngrams(segment(segmenter, word), n_min, n_max)


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
    """The feature maps of a list of rows as one count table (module
    docstring); with ``words``, row i holds the features of ``words[i]``."""

    def __init__(self, feature_maps: Iterable[Mapping[str, int]],
                 kind: NgramKind, n_min: int, n_max: int,
                 words: Sequence[str] = ()):
        self.maps = list(feature_maps)
        self.kind, self.n_min, self.n_max = kind, n_min, n_max
        self._row = {word: i for i, word in enumerate(words)}
        self.grams = sorted({gram for fmap in self.maps for gram in fmap})
        column = {gram: j for j, gram in enumerate(self.grams)}
        sizes = np.array([len(fmap) for fmap in self.maps], dtype=np.int64)
        self.starts = np.concatenate(([0], np.cumsum(sizes)))  # CSR row starts
        self.columns = np.fromiter((column[g] for fmap in self.maps for g in fmap),
                                   np.int64, self.starts[-1])
        self.counts = np.fromiter((c for fmap in self.maps for c in fmap.values()),
                                  np.float64, self.starts[-1])

    @classmethod
    def of_words(cls, words: Iterable[str], kind: NgramKind, n_min: int,
                 n_max: int, segmenter: SegmenterModel | None = None
                 ) -> "NgramTable":
        """One row per distinct word, holding its `word_features`."""
        distinct = list(dict.fromkeys(words))
        return cls([word_features(w, kind, n_min, n_max, segmenter)
                    for w in distinct], kind, n_min, n_max, distinct)

    def rows(self, words: Iterable[str]) -> list[int]:
        """The row of each word, repeats included."""
        return [self._row[word] for word in words]

    def vocabulary(self, rows: Sequence[int], cap: int) -> FeatureVocabulary:
        """The `cap` grams with the largest totals over ``rows`` (repeats
        count again), ties broken by gram order. A gram counts as observed
        when a row's map holds it, whatever its count."""
        if cap < 1:
            raise AnalysisError(f"vocabulary cap must be positive, got {cap}")
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        starts = self.starts[rows]
        sizes = self.starts[rows + 1] - starts
        # the cells of the rows, row after row
        cells = np.repeat(starts - np.cumsum(sizes) + sizes, sizes) \
            + np.arange(sizes.sum())
        columns = self.columns[cells]
        observed = np.flatnonzero(np.bincount(columns, minlength=len(self.grams)))
        if not len(observed):
            raise AnalysisError("no features observed in training data")
        totals = np.bincount(columns, weights=self.counts[cells],
                             minlength=len(self.grams))[observed]
        ranked = observed[np.argsort(-totals, kind="stable")[:cap]]
        return FeatureVocabulary(kind=self.kind, n_min=self.n_min,
                                 n_max=self.n_max,
                                 features=tuple(self.grams[j] for j in ranked))


def fit_vocabulary(feature_maps: Iterable[Mapping[str, int]], kind: NgramKind,
                   cap: int = 200, n_min: int = 1,
                   n_max: int = 5) -> FeatureVocabulary:
    """Select the `cap` most frequent features, ties broken lexicographically:
    `NgramTable.vocabulary` over every map."""
    table = NgramTable(feature_maps, kind, n_min, n_max)
    return table.vocabulary(range(len(table.maps)), cap)


def count_matrix(vocab: FeatureVocabulary,
                 feature_maps: Sequence[Mapping[str, int]]) -> np.ndarray:
    """The ``(len(feature_maps), len(vocab))`` count matrix of the maps'
    vocabulary features, filled by one scatter; unknown features are
    ignored."""
    index = vocab.index
    cells = [(row, index[feature], count)
             for row, fmap in enumerate(feature_maps)
             for feature, count in fmap.items() if feature in index]
    x = np.zeros((len(feature_maps), len(vocab)))
    if cells:
        rows, columns, counts = zip(*cells)
        x[rows, columns] = counts
    return x


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
    vocabulary features, equal to `count_matrix` of their `word_features`.
    Char features take the trie walk; morph features segment each word."""
    _check_range(vocab.n_min, vocab.n_max)
    if vocab.kind is NgramKind.CHAR:
        if not all(words):
            raise AnalysisError("cannot extract features from an empty word")
        return vocab._trie.counts(words, vocab.n_min, vocab.n_max)
    return count_matrix(vocab, [word_features(w, vocab.kind, vocab.n_min,
                                              vocab.n_max, segmenter)
                                for w in words])
