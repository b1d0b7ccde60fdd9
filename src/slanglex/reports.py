"""Report emission helpers: provenance headers and CSV writing.

Every report starts with comment lines recording the tool version, the
seed, and a short digest of each input file, so a report can be traced
back to the exact inputs that produced it. Headers carry no timestamps;
identical runs must produce identical bytes.
"""
from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterable, Sequence

from . import __version__
from .store import load, sha256_hex

DIGEST_CHARS = 12


def file_digest(path) -> str:
    """First 12 hex chars of the file's sha256, hashed once per run."""
    return load(sha256_hex, path)[:DIGEST_CHARS]


def provenance_lines(seed: int | None,
                     inputs: Sequence[tuple[str, object]]) -> list[str]:
    """Header comments: version, seed, one digest line per named input."""
    lines = [f"# slanglex {__version__}"]
    if seed is not None:
        lines.append(f"# seed: {seed}")
    for name, path in inputs:
        lines.append(f"# input {name}: sha256:{file_digest(path)}")
    return lines


def csv_text(fieldnames: Sequence[str], rows: Iterable[Sequence],
             header_lines: Sequence[str] = ()) -> str:
    """Header comments, the field-name row, then one row per value sequence
    (in field order), quoted as the csv module does by default."""
    buf = io.StringIO()
    for line in header_lines:
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    writer.writerows(rows)
    return buf.getvalue()


def write_csv(path, fieldnames: Sequence[str], rows: Iterable[Sequence],
              header_lines: Sequence[str] = ()) -> None:
    """`csv_text` written to `path`; the parent directory is created if
    missing."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(csv_text(fieldnames, rows, header_lines),
                          encoding="utf-8")


def fnum(x: float) -> str:
    """Fixed-point float formatting shared by all reports."""
    return f"{x:.6f}"


def summary_line(command: str, **fields) -> str:
    """One machine-readable line per analysis: `summary <cmd> k=v ...`."""
    parts = [f"summary {command}"]
    for key, value in fields.items():
        if isinstance(value, float):
            value = fnum(value)
        parts.append(f"{key}={value}")
    return " ".join(parts)
