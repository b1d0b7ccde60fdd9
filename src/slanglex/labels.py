"""Label enums shared by the corpus, classification, and social modules.

Kept in one dependency-free module so that data loading, classifiers, and
evaluation code can all refer to the same label objects without import
cycles.
"""

from __future__ import annotations

import enum

from .errors import SchemaError


class SlangClass(enum.Enum):
    """The four word-formation categories the class detector knows."""

    ALPHABETISM = "Alphabetism"
    BLEND = "Blend"
    CLIPPING = "Clipping"
    REDUPLICATIVE = "Reduplicative"

    def __str__(self):
        return self.value

    @classmethod
    def parse(cls, text: str) -> "SlangClass":
        return _parse(cls, text, "slang class", "label")


class SubjectLabel(enum.Enum):
    """The ten subject categories used for topic restriction analysis."""

    SEX = "Sex"
    DRUGS = "Drugs"
    MUSIC = "Music"
    NAME = "Name"
    COLLEGE = "College"
    SPORTS = "Sports"
    INTERNET = "Internet"
    RELIGION = "Religion"
    FOOD = "Food"
    WORK = "Work"

    def __str__(self):
        return self.value

    @classmethod
    def parse(cls, text: str) -> "SubjectLabel":
        return _parse(cls, text, "subject label", "subjects")


# each label enum's members by lowercased value, built once
_BY_NAME = {cls: {member.value.lower(): member for member in cls}
            for cls in (SlangClass, SubjectLabel)}


def _parse(cls, text: str, kind: str, field: str):
    """The member of ``cls`` whose value is ``text``, ignoring case and
    surrounding whitespace; any other text raises a SchemaError naming
    ``field``."""
    member = _BY_NAME[cls].get(text.strip().lower())
    if member is None:
        raise SchemaError(f"unknown {kind} {text!r}", field=field)
    return member


class _Rejected(enum.Enum):
    """Singleton open-set outcome, distinct from every known class."""

    REJECTED = "Rejected"

    def __str__(self):
        return self.value


REJECTED = _Rejected.REJECTED
