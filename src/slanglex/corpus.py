"""Lexicon data model, ingestion, vote filtering, and train/test splitting.

`stratified_split` is the one split: the class detector, cross-class
validation and the subject KNN all call it with their own label.

Two on-disk formats are understood:

  * slang lexicons as JSON lines, one entry object per line with fields
    ``headword``, ``definitions``, ``examples``, ``upvotes``, ``downvotes``
    and optional ``subjects`` / ``year_added`` (see SCHEMA.md);
  * standard-English lexicons as TSV, ``word<TAB>definition`` with one
    line per definition (a bare word line is accepted as a definition-less
    entry); only the word set is kept.

Every line-oriented input, the vector table and the CLI's config file
included, is read by `read_records`, with the line rules SCHEMA.md states.

All loaded values are immutable and safe to share between parallel
analysis passes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import AnalysisError, SchemaError
from .labels import SlangClass, SubjectLabel

T = TypeVar("T")


@dataclass(frozen=True)
class LexiconEntry:
    """One slang headword with its definitions, usage examples and votes.

    Headwords keep their original case and punctuation (alphabetism cues
    depend on periods and capitals); use :attr:`key` for case-insensitive
    joins.
    """

    headword: str
    definitions: tuple[str, ...] = ()
    examples: tuple[str, ...] = ()
    upvotes: int = 0
    downvotes: int = 0
    subjects: frozenset[SubjectLabel] | None = None
    year_added: int | None = None

    def __post_init__(self):
        if not self.headword.strip():
            raise SchemaError("headword is empty", field="headword")
        if self.upvotes < 0:
            raise SchemaError(f"negative upvotes: {self.upvotes}", field="upvotes")
        if self.downvotes < 0:
            raise SchemaError(f"negative downvotes: {self.downvotes}", field="downvotes")
        for example in self.examples:
            if not example:
                raise SchemaError("empty example string", field="examples")

    @property
    def key(self) -> str:
        """Lowercase-folded headword used for joins across lexicons."""
        return self.headword.casefold()

    @property
    def total_votes(self) -> int:
        return self.upvotes + self.downvotes


@dataclass(frozen=True)
class GoldClassRecord:
    """A manually labeled word for the slang-class detector.

    ``components`` carries the source word(s) for blends and clippings
    when known.
    """

    word: str
    label: SlangClass
    components: tuple[str, ...] | None = None


_STRINGS = (lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
            "a list of strings")
_INT = (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")
# JSON type of each slang-lexicon field; a null subjects or year_added is absent
_FIELD_TYPES = {"headword": (lambda v: isinstance(v, str), "a string"),
                "definitions": _STRINGS, "examples": _STRINGS, "upvotes": _INT,
                "downvotes": _INT, "subjects": _STRINGS, "year_added": _INT}


def _entry_from_json(line: str) -> LexiconEntry:
    try:
        obj = json.loads(line.strip())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise SchemaError("expected a JSON object", field=None)
    if "headword" not in obj:
        raise SchemaError("missing required field", field="headword")
    for name, (check, expected) in _FIELD_TYPES.items():
        value = obj.get(name)
        if name in obj and not (check(value) or value is None and name in
                                ("subjects", "year_added")):
            raise SchemaError(f"{name} must be {expected}", field=name)
    subjects = obj.get("subjects")
    return LexiconEntry(
        headword=obj["headword"],
        definitions=tuple(obj.get("definitions", ())),
        examples=tuple(obj.get("examples", ())),
        upvotes=obj.get("upvotes", 0),
        downvotes=obj.get("downvotes", 0),
        subjects=None if subjects is None else frozenset(
            SubjectLabel.parse(s) for s in subjects),
        year_added=obj.get("year_added"),
    )


def entry_to_dict(entry: LexiconEntry) -> dict:
    """Stable JSON-serializable form of an entry (inverse of ingestion)."""
    obj = {
        "headword": entry.headword,
        "definitions": list(entry.definitions),
        "examples": list(entry.examples),
        "upvotes": entry.upvotes,
        "downvotes": entry.downvotes,
    }
    if entry.subjects is not None:
        obj["subjects"] = sorted(s.value for s in entry.subjects)
    if entry.year_added is not None:
        obj["year_added"] = entry.year_added
    return obj


def read_records(path, parse: Callable[[str], T],
                 comment: str | None = "#") -> list[T]:
    """`parse(line)` for every line that is not blank and does not begin
    with `comment` (None: the format has none) after leading whitespace;
    `parse` sees the line with only its ending stripped. A `SchemaError`
    from `parse`, or a line that is not UTF-8, is raised naming file and line."""
    records = []
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, 1):
            try:
                line = raw.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError as exc:
                raise SchemaError(f"not UTF-8 text: {exc.reason}", line=lineno,
                                  path=path) from None
            if not line.strip() or comment and line.lstrip().startswith(comment):
                continue
            try:
                records.append(parse(line))
            except SchemaError as exc:
                raise SchemaError(exc.reason, line=lineno, field=exc.field,
                                  path=path) from exc
    return records


def load_slang_lexicon(path) -> list[LexiconEntry]:
    """Read a JSON-lines slang lexicon; blank lines are ignored."""
    return read_records(path, _entry_from_json, comment=None)


def _standard_word(line: str) -> str:
    """The word of a word<TAB>definition line or of a bare word line."""
    word, *definition = line.split("\t")
    if not word.strip():
        raise SchemaError("empty word", field="word")
    if len(definition) > 1:
        raise SchemaError(
            f"expected word<TAB>definition, got {len(definition) + 1} fields")
    return word.strip()


def load_standard_lexicon(path) -> frozenset[str]:
    """The words of a TSV standard lexicon (word<TAB>definition, one per
    line). Definitions are checked for shape but not kept: no analysis
    reads them."""
    return frozenset(read_records(path, _standard_word))


def save_slang_lexicon(entries: Iterable[LexiconEntry], path) -> None:
    """Write entries as JSON lines; load_slang_lexicon inverts this exactly."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for entry in entries:
            handle.write(json.dumps(entry_to_dict(entry), ensure_ascii=False,
                                    sort_keys=True))
            handle.write("\n")


def _gold_record(line: str) -> GoldClassRecord:
    parts = line.split(",")
    if len(parts) < 2:
        raise SchemaError("expected word,label")
    if len(parts) > 3:
        raise SchemaError(f"expected word,label[,components], got {len(parts)} fields")
    word = parts[0].strip()
    if not word:
        raise SchemaError("empty word", field="word")
    components = None
    if len(parts) == 3 and parts[2].strip():
        components = tuple(c.strip() for c in parts[2].split(";") if c.strip())
    return GoldClassRecord(word, SlangClass.parse(parts[1]), components)


def load_gold_classes(path) -> list[GoldClassRecord]:
    """Read gold class records from CSV: word,label[,component;component...]."""
    return read_records(path, _gold_record)


def filter_by_votes(entries: Sequence[LexiconEntry],
                    min_votes: int = 100) -> list[LexiconEntry]:
    """Keep entries whose total vote count reaches the threshold.

    Rare words and short-lived trends carry few votes; the default cutoff
    of 100 total votes (inclusive) weeds them out. Order is preserved and
    the operation is idempotent.
    """
    if min_votes < 0:
        raise AnalysisError(f"min_votes must be non-negative, got {min_votes}")
    return [e for e in entries if e.total_votes >= min_votes]


def stratified_split(records: Sequence, label_of: Callable,
                     test_fraction: float, seed: int) -> tuple[tuple, tuple]:
    """Per-class train/test split over arbitrary records: ``(train, test)``.

    Each class of n records contributes round(n * test_fraction) test
    records (round half up), at least 1 and at most n - 1, so every class
    keeps a training record. Deterministic for a fixed seed; input order
    is preserved within each side.
    """
    if not 0.0 < test_fraction < 1.0:
        raise AnalysisError(f"test_fraction must be in (0, 1), got {test_fraction}")
    by_class: dict = {}
    for i, record in enumerate(records):
        by_class.setdefault(label_of(record), []).append(i)
    rng = random.Random(seed)
    test_idx = set()
    for label in sorted(by_class, key=str):
        indices = by_class[label]
        if len(indices) < 2:
            raise AnalysisError(
                f"class {label} has {len(indices)} record(s); need at least 2 to split")
        n_test = min(max(1, math.floor(len(indices) * test_fraction + 0.5)),
                     len(indices) - 1)
        shuffled = indices[:]
        rng.shuffle(shuffled)
        test_idx.update(shuffled[:n_test])
    train = tuple(r for i, r in enumerate(records) if i not in test_idx)
    test = tuple(r for i, r in enumerate(records) if i in test_idx)
    return train, test
