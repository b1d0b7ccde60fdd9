"""Objects shared by the stages of one pipeline run.

A run's stages are the subcommands' own functions, whose parameters are
exactly their command-line options, so the store is not passed to them:
it exists for the extent of a `sharing()` block (``run_pipeline`` is
wrapped in one) and is gone when the block returns or raises. Inside it,
`load(loader, path)` gives every caller the object that ``loader``
returned the first time for that path (resolved, so ``a/./b`` and
``a/b`` are one key), and `shared(key, make, usable)` shares any other
object under a tuple key of the caller's choosing. `forget(path)` drops
what was loaded from a path that the run has just rewritten, so the next
`load` parses the new file.
Outside a `sharing()` block, which is how every subcommand runs, `load`
calls the loader and `shared` makes a fresh object: nothing is kept.
"""
from __future__ import annotations

import contextlib
import contextvars
from pathlib import Path
from typing import Callable, TypeVar

T = TypeVar("T")

# tuple key -> object, for the innermost `sharing()` block; the key of a
# loaded object is (resolved path, loader)
_objects: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "slanglex_run_store", default=None)


@contextlib.contextmanager
def sharing():
    """A fresh store for the block (or the decorated function)."""
    token = _objects.set({})
    try:
        yield
    finally:
        _objects.reset(token)


def shared(key: tuple, make: Callable[[], T],
           usable: Callable[[T], bool] | None = None) -> T:
    """The object kept under ``key`` in this run if there is one and
    ``usable`` (when given) accepts it; otherwise ``make()``, which is kept
    under ``key`` in its place."""
    objects = _objects.get()
    if objects is None:
        return make()
    if key not in objects or usable is not None and not usable(objects[key]):
        objects[key] = make()
    return objects[key]


def load(loader: Callable[[Path], T], path) -> T:
    """``loader(path)``, or in a run what it returned the first time."""
    if _objects.get() is None:
        return loader(path)
    return shared((Path(path).resolve(), loader), lambda: loader(path))


def forget(path) -> None:
    """Drop every object loaded from ``path`` in this run."""
    objects = _objects.get()
    if objects is not None:
        resolved = Path(path).resolve()
        for key in [k for k in objects if k[:1] == (resolved,)]:
            del objects[key]
