"""Objects shared within one command run.

One rule: a command run parses each input once. Every subcommand,
``pipeline`` included, runs inside one `sharing()` block, opened by
`cli.command`, and the pipeline's stages are the subcommands' own
functions, whose parameters are exactly their command-line options, so
the store is not passed to them: it exists for the extent of the block
and is gone when the block returns or raises. Inside it,
`load(fn, path, *args)` gives every caller the object that
``fn(path, *args)`` returned the first time, keyed by the resolved path
(``a/./b`` and ``a/b`` are one key), ``fn`` and ``args``.
`forget(path)` drops every object derived from a path that the run has
just rewritten, so the next `load` reads the new file.
Outside a block `load` calls ``fn`` and keeps nothing.

A file's content digest is one such object: ``load(sha256_hex, path)``
serves both the provenance headers and the vector-table cache, so a run
hashes each input once.
"""
from __future__ import annotations

import contextlib
import contextvars
import hashlib
from pathlib import Path
from typing import Callable, TypeVar

T = TypeVar("T")

# (resolved path, fn, *args) -> object, for the innermost `sharing()` block
_objects: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "slanglex_run_store", default=None)


@contextlib.contextmanager
def sharing():
    """A fresh store for the block."""
    token = _objects.set({})
    try:
        yield
    finally:
        _objects.reset(token)


def load(fn: Callable[..., T], path, *args) -> T:
    """``fn(path, *args)``, or in a run what it returned the first time."""
    objects = _objects.get()
    if objects is None:
        return fn(path, *args)
    key = (Path(path).resolve(), fn, *args)
    if key not in objects:
        objects[key] = fn(path, *args)
    return objects[key]


def forget(path) -> None:
    """Drop every object derived from ``path`` in this run."""
    objects = _objects.get()
    if objects is not None:
        resolved = Path(path).resolve()
        for key in [k for k in objects if k[0] == resolved]:
            del objects[key]


def sha256_hex(path) -> str:
    """The sha256 of the file's bytes, in hex, read in 64 KiB chunks (a
    larger buffer raises the peak memory of a short run)."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
