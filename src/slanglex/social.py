"""Subject classification over 10 categories and embedding bias metrics.

Covers the KNN subject model (k=5 over cosine similarity), the gender
direction and DirectBias measures, mean-cosine sexual-prejudice scoring
with a permutation test over name groups, and the standardized
religion-by-prejudice matrix. All operations are pure given immutable
embeddings and lexicons.

Every analysis takes its cosines from the one kernel,
`embeddings.cosines`: one call per block of KNN queries or per report,
never one per word pair. Every lexicon word reaches its vector by one
rule, `lookup`: the word's `subject_token` (lowercased, a multiword term
joined with "_"), kept when that token is in the vocabulary. A `KnnModel`
stacks its reference points once, sorted by token, and the KNN is cosine
only: `knn_predict` scores each block of queries with one kernel call
and keeps each query's k nearest by a partition, which gives similarity
ties to the smaller token as a stable sort would.
"""

from __future__ import annotations

import csv
import enum
import itertools
import math
import random
import re
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import read_records
from .embeddings import EmbeddingTable, cosines, subject_token
from .errors import AnalysisError, SchemaError
from .labels import SubjectLabel
from .slangclass.openset import judge_rows
from .stats import (ClassMetrics, ConfusionMatrix, confusion_and_report,
                    weighted_f1)


def lookup(embedding: EmbeddingTable, words: Sequence[str]
           ) -> tuple[list[bool], np.ndarray]:
    """The one rule from lexicon words to vectors: a word's token is its
    subject_token, and the word has a vector when that token is in the
    vocabulary and its row is not all zeros (a zero vector has no cosine,
    so it counts as missing). Returns which words have one, and those
    vectors stacked in word order."""
    tokens = [subject_token(word) for word in words]
    found = [token in embedding for token in tokens]
    rows = [embedding.vector(t) for t, ok in zip(tokens, found) if ok]
    rows = np.array(rows).reshape(len(rows), embedding.dimension)
    nonzero = rows.any(axis=1)
    if not nonzero.all():
        kept = iter(nonzero.tolist())
        found = [ok and next(kept) for ok in found]
        rows = rows[nonzero]
    return found, rows


KNN_BLOCK = 256  # queries per kernel call in knn_predict


@dataclass(frozen=True)
class KnnModel:
    """Reference points stacked once, sorted by token: row i of `matrix` is
    the vector of token `reference[i]`, whose subject is `labels[i]`."""

    k: int
    reference: tuple[str, ...]
    matrix: np.ndarray
    labels: tuple[SubjectLabel, ...]


def check_k(k: int) -> None:
    """Refuse a KNN neighbour count below 1."""
    if k < 1:
        raise AnalysisError(f"k must be at least 1, got {k}")


def knn_from_embedding(embedding: EmbeddingTable,
                       labeled: Sequence[tuple[str, SubjectLabel]],
                       k: int) -> tuple[KnnModel, int]:
    """Build the reference set from labeled words; returns (model, skipped)
    where skipped counts words missing from the embedding vocabulary."""
    check_k(k)
    found, rows = lookup(embedding, [word for word, _ in labeled])
    if not len(rows):
        raise AnalysisError("no labeled word is in the embedding vocabulary")
    kept = list(itertools.compress(labeled, found))
    tokens = [subject_token(word) for word, _ in kept]
    order = sorted(range(len(kept)), key=tokens.__getitem__)
    return (KnnModel(k=k, reference=tuple(tokens[i] for i in order),
                     matrix=rows[order],
                     labels=tuple(kept[i][1] for i in order)),
            len(labeled) - len(kept))


def knn_predict(model: KnnModel, rows: np.ndarray) -> list[SubjectLabel]:
    """Majority subject of each row's k nearest reference points by cosine,
    in blocks of KNN_BLOCK rows. Similarity ties go to the smaller token,
    vote ties to the smaller label name."""
    if rows.shape[1:] != model.matrix.shape[1:]:
        raise AnalysisError(f"vector dimension {rows.shape[1:]} does not "
                            f"match reference {model.matrix.shape[1]}")
    k = min(model.k, len(model.reference))
    subjects = sorted(set(model.labels), key=str)
    codes = np.array([subjects.index(label) for label in model.labels])
    preds = []
    for start in range(0, len(rows), KNN_BLOCK):
        sims = cosines(rows[start:start + KNN_BLOCK], model.matrix)
        # each row's votes per subject, the same in any order of the k nearest
        votes = codes[_nearest(sims, k)]
        counts = (votes[:, :, None] == np.arange(len(subjects))).sum(axis=1)
        preds += judge_rows(subjects, counts)[0]
    return preds


def _nearest(sims: np.ndarray, k: int) -> np.ndarray:
    """Per row of `sims`, the columns of its k largest values, in no
    order: the columns a stable descending argsort puts first, so that of
    the columns tied at the k-th value the leftmost are kept. A partition
    finds them without sorting the row; only a row where more than k
    columns reach its k-th value sorts, and only those columns."""
    nearest = np.argpartition(-sims, k - 1, axis=1)[:, :k]
    kth = np.take_along_axis(sims, nearest, axis=1).min(axis=1, keepdims=True)
    reaching = sims >= kth
    for i in np.flatnonzero(reaching.sum(axis=1) > k):
        columns = np.flatnonzero(reaching[i])
        nearest[i] = columns[np.argsort(-sims[i, columns], kind="stable")[:k]]
    return nearest


@dataclass(frozen=True)
class SubjectEvaluation:
    f1: float
    confusion: ConfusionMatrix
    per_class: list[ClassMetrics]
    excluded: int  # test words absent from the embedding vocabulary


def evaluate_subject_model(model: KnnModel,
                           test: Sequence[tuple[str, SubjectLabel]],
                           embedding: EmbeddingTable) -> SubjectEvaluation:
    """Closed-set weighted F1 and confusion matrix on labeled test words."""
    found, rows = lookup(embedding, [word for word, _ in test])
    if not len(rows):
        raise AnalysisError("no test word is in the embedding vocabulary")
    truth = [label for _, label in itertools.compress(test, found)]
    preds = knn_predict(model, rows)
    labels = sorted(set(truth) | set(preds), key=str)
    confusion, per_class = confusion_and_report(truth, preds, labels)
    return SubjectEvaluation(f1=weighted_f1(truth, preds),
                             confusion=confusion, per_class=per_class,
                             excluded=len(test) - len(truth))


class Gender(enum.Enum):
    MALE = "male"
    FEMALE = "female"
    UNKNOWN = "unknown"


class GenderLexicon:
    """Case-insensitive name -> gender lookup, total with Unknown default.

    ``names`` lists the names as given: in file order, repeats kept, when
    read with :meth:`from_csv`.
    """

    def __init__(self, assignments: Mapping[str, Gender],
                 names: Sequence[str] | None = None):
        self._table = {name.casefold(): g for name, g in assignments.items()}
        self.names = tuple(assignments if names is None else names)

    def lookup(self, name: str) -> Gender:
        return self._table.get(name.casefold(), Gender.UNKNOWN)

    @classmethod
    def from_csv(cls, path) -> "GenderLexicon":
        rows = read_records(path, _name_gender)
        return cls(dict(rows), [name for name, _ in rows])


def _name_gender(line: str) -> tuple[str, Gender]:
    """One `name,gender` CSV record; a quoted name may hold a comma."""
    row = next(csv.reader([line]))
    if len(row) != 2:
        raise SchemaError("expected name,gender")
    try:
        return row[0].strip(), Gender(row[1].strip().lower())
    except ValueError:
        raise SchemaError(f"unknown gender {row[1]!r}", field="gender") from None


@dataclass(frozen=True)
class BiasLexicons:
    """Term lists driving the bias analyses.

    trait_terms is the religion-axis prejudice list (terrorist, evil, ...);
    prejudice_terms is the sexual-prejudice list L.
    """

    prejudice_terms: tuple[str, ...]
    religious_terms: tuple[str, ...]
    trait_terms: tuple[str, ...]
    occupations: tuple[str, ...]
    gender_pairs: tuple[tuple[str, str], ...]  # (male, female)

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            values = getattr(self, name)
            if not values:
                raise SchemaError(f"bias lexicon {name} is empty", field=name)
            if len(set(values)) != len(values):
                raise SchemaError(f"bias lexicon {name} has duplicates",
                                  field=name)


def _read_terms(path: Path) -> tuple[str, ...]:
    return tuple(read_records(path, lambda line: line.strip().lower()))


def _gender_pair(line: str) -> tuple[str, str]:
    parts = [p.strip().lower() for p in re.split(r"[,\t]", line.strip())]
    if len(parts) != 2 or not all(parts):
        raise SchemaError("expected male,female")
    return parts[0], parts[1]


def load_bias_lexicons(directory) -> BiasLexicons:
    """Load the five plain-text lexicon files, one per field and named
    after it (`occupations.txt`), from a directory; an empty or repeated
    list is a `SchemaError` naming its file."""
    directory = Path(directory)
    lists = {name: _read_terms(directory / f"{name}.txt") for name in
             ("prejudice_terms", "religious_terms", "trait_terms", "occupations")}
    lists["gender_pairs"] = tuple(read_records(directory / "gender_pairs.txt",
                                               _gender_pair))
    try:
        return BiasLexicons(**lists)
    except SchemaError as exc:
        raise SchemaError(exc.reason, path=directory / f"{exc.field}.txt") from None


def gender_direction(embedding: EmbeddingTable,
                     pairs: Sequence[tuple[str, str]]) -> np.ndarray:
    """Unit vector from male toward female word use.

    Mean over pairs of the normalized (female - male) difference vectors,
    renormalized. Every pair word must be in the vocabulary; callers that
    want to tolerate gaps should filter pairs first.
    """
    if not pairs:
        raise AnalysisError("no gender pairs supplied")
    words = [word for pair in pairs for word in pair]
    found, rows = lookup(embedding, words)
    if not all(found):
        raise AnalysisError(
            f"{words[found.index(False)]!r} not in embedding vocabulary")
    diffs = rows[1::2] - rows[0::2]
    norms = np.linalg.norm(diffs, axis=1)
    if np.any(norms == 0.0):
        male, female = pairs[int(np.argmin(norms))]
        raise AnalysisError(
            f"pair ({male!r}, {female!r}) has identical vectors")
    mean = np.mean(diffs / norms[:, None], axis=0)
    norm = float(np.linalg.norm(mean))
    if norm == 0.0:
        raise AnalysisError("gender pair differences cancel out")
    return mean / norm


def direct_bias(embedding: EmbeddingTable, neutral_words: Sequence[str],
                g: np.ndarray, c: float) -> float:
    """Mean |cosine(w, g)|^c over the words present in the vocabulary."""
    if not c >= 0.0:
        raise AnalysisError(f"strictness c must be >= 0, got {c}")
    _, rows = lookup(embedding, neutral_words)
    if not len(rows):
        raise AnalysisError("no neutral word is in the embedding vocabulary")
    return float(np.mean(np.abs(cosines(g, rows)) ** c))


def occupation_projections(embedding: EmbeddingTable,
                           occupations: Sequence[str],
                           g: np.ndarray) -> list[tuple[str, float]]:
    """Signed cosine of each occupation onto g, most-female first."""
    found, rows = lookup(embedding, occupations)
    projections = zip(itertools.compress(occupations, found),
                      map(float, cosines(g, rows)))
    return sorted(projections, key=lambda item: (-item[1], item[0]))


def permutation_test_means(group_a: Sequence[float], group_b: Sequence[float],
                           n_permutations: int, seed: int) -> tuple[float, bool]:
    """Two-sided permutation test on the difference of group means.

    Enumerates all label assignments when there are at most n_permutations
    of them (p = fraction with |diff| >= |observed|); otherwise samples
    n_permutations shuffles with the add-one Monte Carlo estimator.
    Returns (p_value, exhaustive).
    """
    if n_permutations < 1:
        raise AnalysisError(
            f"number of permutations must be at least 1, got {n_permutations}")
    if len(group_a) < 2 or len(group_b) < 2:
        raise AnalysisError("each group needs at least 2 values")
    pooled = list(group_a) + list(group_b)
    n_a = len(group_a)
    observed = abs(float(np.mean(group_a)) - float(np.mean(group_b)))
    tol = 1e-12

    if math.comb(len(pooled), n_a) <= n_permutations:
        hits = 0
        total = 0
        for picks in itertools.combinations(range(len(pooled)), n_a):
            chosen = set(picks)
            mean_a = sum(pooled[i] for i in chosen) / n_a
            mean_b = (sum(pooled) - mean_a * n_a) / (len(pooled) - n_a)
            if abs(mean_a - mean_b) >= observed - tol:
                hits += 1
            total += 1
        return hits / total, True

    rng = random.Random(seed)
    hits = 0
    for _ in range(n_permutations):
        rng.shuffle(pooled)
        mean_a = sum(pooled[:n_a]) / n_a
        mean_b = sum(pooled[n_a:]) / (len(pooled) - n_a)
        if abs(mean_a - mean_b) >= observed - tol:
            hits += 1
    return (1 + hits) / (1 + n_permutations), False


@dataclass(frozen=True)
class NameBiasReport:
    female_mean: float
    female_n: int
    male_mean: float
    male_n: int
    difference: float  # female - male
    p_value: float
    exhaustive: bool
    excluded_unknown: int
    excluded_oov: int
    scores: tuple[tuple[str, Gender, float], ...]  # usable names, in order


def name_prejudice_comparison(embedding: EmbeddingTable,
                              names: Sequence[str], genders: GenderLexicon,
                              prejudice_terms: Sequence[str],
                              n_permutations: int, seed: int) -> NameBiasReport:
    """Mean SEXPREJ by name gender plus permutation-test significance.

    A name's SEXPREJ is its mean cosine to the prejudice terms that have a
    vector (`lookup`); names of unknown gender or without a vector are
    left out and counted."""
    known = [(name, genders.lookup(name)) for name in names]
    known = [(name, g) for name, g in known if g is not Gender.UNKNOWN]
    found, rows = lookup(embedding, [name for name, _ in known])
    usable = list(itertools.compress(known, found))
    values = ()
    if usable:
        _, terms = lookup(embedding, prejudice_terms)
        if not len(terms):
            raise AnalysisError("no prejudice term is in the embedding vocabulary")
        values = cosines(rows, terms).mean(axis=-1)
    scores = tuple((name, g, float(value))
                   for (name, g), value in zip(usable, values))
    groups = {gender: [value for _, g, value in scores if g is gender]
              for gender in (Gender.MALE, Gender.FEMALE)}
    for gender, group in groups.items():
        if len(group) < 2:
            raise AnalysisError(
                f"need at least 2 usable {gender.value} names, "
                f"got {len(group)}")
    female = groups[Gender.FEMALE]
    male = groups[Gender.MALE]
    p_value, exhaustive = permutation_test_means(
        female, male, n_permutations=n_permutations, seed=seed)
    return NameBiasReport(
        female_mean=float(np.mean(female)), female_n=len(female),
        male_mean=float(np.mean(male)), male_n=len(male),
        difference=float(np.mean(female)) - float(np.mean(male)),
        p_value=p_value, exhaustive=exhaustive,
        excluded_unknown=len(names) - len(known),
        excluded_oov=len(known) - len(usable), scores=scores)


@dataclass(frozen=True)
class ReligiousBiasReport:
    religions: tuple[str, ...]
    prejudices: tuple[str, ...]
    raw: np.ndarray           # religions x prejudices cosine matrix
    standardized: np.ndarray  # per-prejudice column: mean 0, sample std 1
    overall_mean_raw: float
    missing_religions: tuple[str, ...]
    missing_prejudices: tuple[str, ...]


def religious_prejudice_matrix(embedding: EmbeddingTable,
                               religions: Sequence[str],
                               prejudices: Sequence[str]
                               ) -> ReligiousBiasReport:
    """Cosine of each religion to each prejudice trait, column-standardized.

    Standardization uses the sample (n-1) standard deviation over religions
    for each prejudice column; the overall mean is taken on raw scores.
    """
    found_r, religion_rows = lookup(embedding, religions)
    found_p, prejudice_rows = lookup(embedding, prejudices)
    present_r = tuple(itertools.compress(religions, found_r))
    present_p = tuple(itertools.compress(prejudices, found_p))
    if len(present_r) < 2:
        raise AnalysisError(
            f"standardization needs >= 2 religions in vocabulary, "
            f"got {len(present_r)}")
    if not present_p:
        raise AnalysisError("no prejudice term is in the embedding vocabulary")

    raw = cosines(religion_rows, prejudice_rows)
    stds = raw.std(axis=0, ddof=1)
    zero_cols = [present_p[j] for j in range(len(present_p)) if stds[j] == 0.0]
    if zero_cols:
        raise AnalysisError(
            f"zero variance for prejudice column(s): {', '.join(zero_cols)}")
    standardized = (raw - raw.mean(axis=0)) / stds
    return ReligiousBiasReport(
        religions=present_r, prejudices=present_p,
        raw=raw, standardized=standardized,
        overall_mean_raw=float(raw.mean()),
        missing_religions=tuple(r for r in religions if r not in present_r),
        missing_prejudices=tuple(p for p in prejudices if p not in present_p))
