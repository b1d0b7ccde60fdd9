"""Character and morpheme n-gram features for the slang-class models.

Case and punctuation are preserved: periods and capitals are exactly the
cues that identify alphabetisms, so no normalization happens here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from ..errors import AnalysisError
from ..morphology import Segmentation, SegmenterModel, segment

MORPH_SEPARATOR = "+"


class NgramKind(enum.Enum):
    CHAR = "char"
    MORPHEME = "morph"


def extract_char_ngrams(word: str, n_min: int = 1, n_max: int = 5) -> dict[str, int]:
    """All contiguous substrings of length n_min..n_max, with multiplicity."""
    if not word:
        raise AnalysisError("cannot extract features from an empty word")
    if not 1 <= n_min <= n_max:
        raise AnalysisError(f"bad n-gram range ({n_min}, {n_max})")
    counts: dict[str, int] = {}
    for n in range(n_min, n_max + 1):
        for i in range(len(word) - n + 1):
            gram = word[i:i + n]
            counts[gram] = counts.get(gram, 0) + 1
    return counts


def extract_morpheme_ngrams(seg: Segmentation, n_min: int = 1,
                            n_max: int = 5) -> dict[str, int]:
    """Contiguous morph subsequences joined with a reserved separator."""
    if not 1 <= n_min <= n_max:
        raise AnalysisError(f"bad n-gram range ({n_min}, {n_max})")
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


def fit_vocabulary(feature_maps: Iterable[Mapping[str, int]], kind: NgramKind,
                   cap: int = 200, n_min: int = 1,
                   n_max: int = 5) -> FeatureVocabulary:
    """Select the `cap` most frequent features, ties broken lexicographically."""
    if cap < 1:
        raise AnalysisError(f"vocabulary cap must be positive, got {cap}")
    totals: dict[str, int] = {}
    for fmap in feature_maps:
        for feature, count in fmap.items():
            totals[feature] = totals.get(feature, 0) + count
    if not totals:
        raise AnalysisError("no features observed in training data")
    ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
    features = tuple(feature for feature, _ in ranked[:cap])
    return FeatureVocabulary(kind=kind, n_min=n_min, n_max=n_max,
                             features=features)


def vectorize(vocab: FeatureVocabulary, fmap: Mapping[str, int]) -> np.ndarray:
    """Dense count vector over the vocabulary; unknown features are ignored."""
    x = np.zeros(len(vocab.features), dtype=np.float64)
    for feature, count in fmap.items():
        col = vocab.index.get(feature)
        if col is not None:
            x[col] = count
    return x
