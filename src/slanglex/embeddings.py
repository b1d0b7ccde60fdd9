"""Skip-gram with negative sampling over slang usage examples.

Training works on arrays, not one pair at a time. Each epoch subsamples
every token with one draw, draws every position's window at once and
builds all (center, context) pairs inside sentence bounds; the pairs then
go through in chunks in corpus order. Per chunk, one batched
`sgns_pair_gradients` call computes the loss and gradients from the
vectors as they stood at the chunk's start, negatives equal to their
pair's context are dropped, and the summed updates are applied once per
row (mini-batched SGNS, Ji et al. 2016). A chunk holds at most
min(vocabulary size, 128) pairs. The vocabulary bound keeps training
stable: rows that repeat within a chunk get their stale updates added
together, and with a small vocabulary and large chunks those sums
overshoot and training diverges (on a 15-token corpus, 1,024 pairs per
chunk ended at a loss of 4e22). The 128 keeps a chunk's negative rows and
their gradients, chunk x negatives x dimension floats each, small enough
to stay in cache: at the CLI's 5 negatives and 100 dimensions, 128-pair
chunks trained faster and with a lower peak memory than 256- or 512-pair
chunks. Each chunk draws its own negatives: drawn for a whole epoch at
once, they raised the peak RSS of training on 1,000 generated usage
entries (23k tokens) from 48 to 54 MB.

Each chunk gathers its rows into four arrays made once per training,
which then take the row-sorted gradients, the per-row sums and the rows
being updated (the descent reuses the gathered negatives' array, which
the gradients no longer need). Only `sgns_pair_gradients`, which the
gradient checks share, returns fresh arrays, and each chunk frees them
before the next makes its own. Half-megabyte temporaries allocated and
freed by every chunk make glibc grow and trim its heap on every chunk,
and the fresh pages cost more than the arithmetic: on the
`pipeline-usage` benchmark inputs (281 sentences, 428 types, 8 epochs),
a fresh process takes about 90k minor page faults to train at 100
dimensions and 276k at 300 that way, and about a third of its training
time goes to the kernel; with the work arrays it takes about 3k at
either. Each descent sorts its rows stably and sums a repeated row's
gradients by `np.add.reduceat`, which adds a run's first row to numpy's
pairwise sum of the others. That fixes the order of every sum;
`np.add.at`, a matrix product or a sum written out another way changes
the last bits of the vectors.

Training is single-threaded, and for a fixed seed it is bit-for-bit
deterministic: the random draws and the order of every sum are fixed by
the seed and the corpus. The published vectors are the input
(center-word) vectors.

Persisted tables use the common text format: a `<vocab> <dim>` header
line, then one `token v1 ... v_d` line per word, which also lets the
loader read third-party reference embeddings for the bias comparisons.
It is read by the line rules every input shares (no comment lines);
trailing whitespace on a line, common in word2vec files, is ignored.

Loading reads the table through `read_records` too, one `float()` per
value, into one array of doubles that the matrix views without a copy.
Python floats, a list per row, took far more memory: a cold load of a
20k x 300 table (a 48 MB matrix) added 284 MB to the peak RSS that way,
and adds 65 MB this way. The parse costs about 190 ns a value, so a
table that loaded cleanly is cached, and later loads of the same bytes,
in any process, read the cache instead. The key is the file's sha256,
the one digest a command run takes of each input (`store.sha256_hex`,
which the provenance headers print too), with the version and
`_CACHE_FORMAT`. Each table is one `.npz` file under
$XDG_CACHE_HOME/slanglex (or ~/.cache/slanglex) holding the float64
matrix and the tokens as UTF-8 bytes joined by newlines, loaded without
pickle into the same `EmbeddingTable`. A file that is missing,
unreadable or not laid out so is a miss and gets parsed and rewritten; a
cache that cannot be written is skipped. Only the `_CACHE_ENTRIES`
entries used last are kept. The cache never changes what a table loads
to or the error it fails with.
"""

from __future__ import annotations

import contextlib
import math
import os
import re
import zipfile
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .corpus import LexiconEntry, read_records
from .errors import AnalysisError, SchemaError
from .store import load, sha256_hex

# underscore admitted so joined multiword headwords survive the split
_TOKEN_RE = re.compile(r"[a-z0-9_]+(?:'[a-z0-9_]+)*")
# pairs per chunk, further capped at the vocabulary size (module docstring)
_MAX_CHUNK = 128
# the layout of a cache file; part of its key, with the version
_CACHE_FORMAT = 1
# cache files kept, the most recently used first
_CACHE_ENTRIES = 16


@dataclass(frozen=True)
class TrainingConfig:
    dimension: int
    window: int
    negatives: int
    epochs: int
    lr: float
    min_count: int
    subsample: float  # <= 0 disables subsampling
    seed: int

    def __post_init__(self):
        if self.dimension < 1:
            raise AnalysisError(f"dimension must be >= 1, got {self.dimension}")
        if self.window < 1:
            raise AnalysisError(f"window must be >= 1, got {self.window}")
        if self.negatives < 1:
            raise AnalysisError(f"negatives must be >= 1, got {self.negatives}")
        if self.epochs < 1:
            raise AnalysisError(f"epochs must be >= 1, got {self.epochs}")
        if self.min_count < 1:
            raise AnalysisError(f"min_count must be >= 1, got {self.min_count}")
        if not 0 < self.lr < math.inf:
            raise AnalysisError(f"lr must be finite and > 0, got {self.lr}")
        if math.isnan(self.subsample):
            raise AnalysisError("subsample must not be nan")


class EmbeddingTable:
    """token -> d-dimensional vector, with the epoch losses of training."""

    def __init__(self, tokens: Sequence[str], matrix: np.ndarray,
                 epoch_losses: tuple[float, ...] = ()):
        if matrix.ndim != 2 or matrix.shape[0] != len(tokens):
            raise AnalysisError("embedding matrix does not match token list")
        if not np.all(np.isfinite(matrix)):
            raise AnalysisError("embedding matrix contains non-finite values")
        self.tokens = tuple(tokens)
        self.matrix = matrix
        self.epoch_losses = epoch_losses
        self._index = {t: i for i, t in enumerate(self.tokens)}
        if len(self._index) != len(self.tokens):
            raise AnalysisError("duplicate tokens in embedding table")

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def __len__(self) -> int:
        return len(self.tokens)

    def vector(self, token: str) -> np.ndarray:
        i = self._index.get(token)
        if i is None:
            raise AnalysisError(f"token {token!r} not in embedding vocabulary")
        return self.matrix[i]


def subject_token(word: str) -> str:
    """Corpus token for a headword: lowercased, spaces joined with '_'."""
    return "_".join(word.strip().lower().split())


def build_usage_corpus(entries: Iterable[LexiconEntry]) -> list[list[str]]:
    """Token sequences from example sentences.

    Text is lowercased and split on whitespace/punctuation with apostrophes
    kept inside tokens. Occurrences of any known multiword headword are
    replaced by its underscore-joined form before splitting, greedy longest
    phrase first.
    """
    entries = list(entries)
    phrases = {}
    for entry in entries:
        head = entry.headword.strip().lower()
        if re.search(r"\s", head):
            phrases[head] = subject_token(head)
    replacements = [
        (re.compile(r"\b" + r"\s+".join(re.escape(w) for w in phrase.split())
                    + r"\b"), joined)
        for phrase, joined in sorted(phrases.items(),
                                     key=lambda kv: (-len(kv[0]), kv[0]))
    ]
    corpus = []
    for entry in entries:
        for example in entry.examples:
            text = example.lower()
            for pattern, joined in replacements:
                text = pattern.sub(joined, text)
            tokens = _TOKEN_RE.findall(text)
            if tokens:
                corpus.append(tokens)
    return corpus


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def sgns_pair_gradients(center: np.ndarray, positive: np.ndarray,
                        negatives: np.ndarray, keep: np.ndarray | None = None
                        ) -> tuple[float | np.ndarray, np.ndarray, np.ndarray,
                                   np.ndarray]:
    """Loss and gradients for (center, context, negatives) updates.

    loss = -log sigmoid(u.v+) - sum_j log sigmoid(-u.v_j). Shapes are
    center (..., d), positive (..., d), negatives (..., k, d), with any
    leading batch axes; `keep` (..., k) marks the negatives that count, so
    a dropped one adds no loss and gets a zero gradient. Returns (loss,
    d/du, d/dv+, d/dV-), one loss per pair (a float for a single pair), so
    the trainer and the gradient checks share one definition.
    """
    pos_dot = np.einsum("...d,...d->...", center, positive)
    neg_dots = np.einsum("...kd,...d->...k", negatives, center)
    g_pos = _sigmoid(pos_dot) - 1.0
    g_negs = _sigmoid(neg_dots)
    neg_loss = np.logaddexp(0.0, neg_dots)
    if keep is not None:
        g_negs = np.where(keep, g_negs, 0.0)
        neg_loss = np.where(keep, neg_loss, 0.0)
    loss = np.logaddexp(0.0, -pos_dot) + neg_loss.sum(axis=-1)
    grad_center = (g_pos[..., None] * positive
                   + np.einsum("...k,...kd->...d", g_negs, negatives))
    grad_positive = g_pos[..., None] * center
    grad_negatives = g_negs[..., None] * center[..., None, :]
    if loss.ndim == 0:
        loss = float(loss)
    return loss, grad_center, grad_positive, grad_negatives


def _descend(matrix: np.ndarray, rows: np.ndarray, grads: np.ndarray,
             lr: float, work: tuple[np.ndarray, np.ndarray]) -> None:
    """matrix[rows] -= lr * grads, summing the gradients of a repeated row
    with np.add.reduceat over the rows in stable sorted order. The first
    work array takes the sorted gradients and then the rows being updated,
    the second the sums (ufunc.at is several times slower)."""
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    starts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
    targets = rows[starts]
    buffer, sums = work[0], work[1][:len(starts)]
    ordered = grads.take(order, axis=0, out=buffer[:len(order)], mode="clip")
    np.add.reduceat(ordered, starts, axis=0, out=sums)
    sums *= lr
    current = matrix.take(targets, axis=0, out=buffer[:len(targets)],
                          mode="clip")
    current -= sums
    matrix[targets] = current


def _window_pairs(tokens: np.ndarray, sentence_ids: np.ndarray,
                  reach: np.ndarray, window: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(center, context) ids for every position, centers in corpus order
    and each center's contexts left to right; position i pairs with the
    positions within reach[i] of it in the same sentence. No two positions
    of a sentence lie further apart than its length less one, so the
    offsets stop there: the offset matrix is bounded by the longest
    sentence, not by ``window``."""
    span = min(window, np.bincount(sentence_ids).max(initial=1) - 1)
    offsets = np.r_[np.arange(-span, 0), np.arange(1, span + 1)]
    positions = np.arange(len(tokens))[:, None] + offsets
    inside = (positions >= 0) & (positions < len(tokens))
    positions = np.where(inside, positions, 0)
    valid = (inside & (np.abs(offsets) <= reach[:, None])
             & (sentence_ids[positions] == sentence_ids[:, None]))
    centers, _ = np.nonzero(valid)
    return tokens[centers], tokens[positions[valid]]


def train_skipgram(corpus: Sequence[Sequence[str]],
                   config: TrainingConfig) -> EmbeddingTable:
    """Train SGNS embeddings; negatives come from the unigram^0.75 table."""
    counts: dict[str, int] = {}
    for sentence in corpus:
        for token in sentence:
            counts[token] = counts.get(token, 0) + 1
    vocab = sorted((t for t, c in counts.items() if c >= config.min_count),
                   key=lambda t: (-counts[t], t))
    if not vocab:
        raise AnalysisError(
            f"no token appears at least min_count={config.min_count} times")
    index = {t: i for i, t in enumerate(vocab)}
    vocab_counts = np.array([counts[t] for t in vocab], dtype=np.float64)
    total = float(vocab_counts.sum())

    keep_prob = np.ones(len(vocab))
    if config.subsample > 0:
        freq = vocab_counts / total
        with np.errstate(divide="ignore"):
            keep_prob = np.minimum(
                1.0, np.sqrt(config.subsample / freq))

    noise = vocab_counts ** 0.75
    noise_cdf = np.cumsum(noise / noise.sum())

    rng = np.random.default_rng(config.seed)
    d = config.dimension
    vectors = (rng.random((len(vocab), d)) - 0.5) / d
    context = np.zeros((len(vocab), d))

    sentences = [[index[t] for t in sent if t in index] for sent in corpus]
    tokens = np.array([w for sent in sentences for w in sent], dtype=np.intp)
    sentence_ids = np.repeat(np.arange(len(sentences)),
                             [len(sent) for sent in sentences])
    chunk = min(len(vocab), _MAX_CHUNK)
    k = config.negatives
    # one chunk's gathered rows and summed updates, reused by every chunk;
    # the descent starts once the gradients are computed, so it can reuse
    # the gathered negatives' rows
    center_rows, context_rows = np.empty((chunk, d)), np.empty((chunk, d))
    negative_rows = np.empty((chunk, k, d))
    descent = (negative_rows.reshape(-1, d), np.empty((chunk * k, d)))
    epoch_losses = []
    for epoch in range(config.epochs):
        lr = max(config.lr * (1.0 - epoch / config.epochs), config.lr * 1e-4)
        kept = rng.random(len(tokens)) < keep_prob[tokens]
        reach = rng.integers(1, config.window + 1, size=int(kept.sum()))
        centers, contexts = _window_pairs(tokens[kept], sentence_ids[kept],
                                          reach, config.window)
        loss_sum = 0.0
        for lo in range(0, len(centers), chunk):
            c_ids = centers[lo:lo + chunk]
            p_ids = contexts[lo:lo + chunk]
            m = len(c_ids)
            n_ids = noise_cdf.searchsorted(rng.random((m, k)))
            # gradients from the rows as they stand at the chunk's start
            loss, g_c, g_p, g_n = sgns_pair_gradients(
                vectors.take(c_ids, axis=0, out=center_rows[:m], mode="clip"),
                context.take(p_ids, axis=0, out=context_rows[:m], mode="clip"),
                context.take(n_ids, axis=0, out=negative_rows[:m],
                             mode="clip"),
                keep=n_ids != p_ids[:, None])
            _descend(vectors, c_ids, g_c, lr, descent)
            _descend(context, p_ids, g_p, lr, descent)
            _descend(context, n_ids.ravel(), g_n.reshape(-1, d), lr, descent)
            loss_sum += float(loss.sum())
            # free the gradients before the next chunk allocates its own, so
            # the heap holds one chunk's at a time (module docstring)
            del loss, g_c, g_p, g_n
        epoch_losses.append(loss_sum / len(centers) if len(centers) else 0.0)

    return EmbeddingTable(tokens=vocab, matrix=vectors,
                          epoch_losses=tuple(epoch_losses))


def cosines(query: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Cosine of `query` (d,) to every row of `rows` (n, d), clipped to
    [-1, 1]; a stack of queries (m, d) gives an (m, n) matrix. This is the
    one cosine in slanglex, and a zero vector raises. The dot products are
    einsum sums rather than a BLAS matrix product, which sums a row in an
    order that depends on where the row sits: a repeated row could then
    differ in the last bit and break an exact tie. einsum sums every row
    the same way, alone or stacked."""
    query_norms = np.linalg.norm(query, axis=-1)
    row_norms = np.linalg.norm(rows, axis=-1)
    if np.any(query_norms == 0.0) or np.any(row_norms == 0.0):
        raise AnalysisError("cosine undefined for a zero vector")
    dots = np.einsum("...d,nd->...n", query, rows)
    return np.clip(dots / (query_norms[..., None] * row_norms), -1.0, 1.0)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    if u.shape != v.shape:
        raise AnalysisError(f"vector shapes differ: {u.shape} vs {v.shape}")
    return float(cosines(u, v[None])[0])


def save_embeddings(table: EmbeddingTable, path) -> None:
    """Write the text format with six decimals, each row formatted by one
    `%` call (the same digits as formatting each value alone)."""
    row = " ".join(["%.6f"] * table.dimension)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{len(table)} {table.dimension}\n")
        handle.writelines(f"{token} {row % tuple(values)}\n" for token, values
                          in zip(table.tokens, table.matrix.tolist()))


def _header(line: str) -> tuple[int, int]:
    try:
        vocab, dim = map(int, line.split())
    except ValueError:
        raise SchemaError("expected '<vocab> <dim>' header") from None
    if dim < 1:
        raise SchemaError(f"dimension must be >= 1, got {dim}")
    return vocab, dim


def _parse_lines(path) -> tuple[list[str], np.ndarray]:
    """The table line by line through `read_records`, every row's values
    appended to one array of doubles that the matrix then views (module
    docstring)."""
    shape = []  # (vocab, dimension), from the header
    values = array("d")

    def parse(line: str):
        if shape:
            token, *row = line.rstrip().split(" ")
            if len(row) != shape[1]:
                raise SchemaError(f"expected token plus {shape[1]} values")
            try:
                values.extend(map(float, row))
            except ValueError:
                raise SchemaError("non-numeric vector value") from None
            return token
        shape.extend(_header(line))

    tokens = read_records(path, parse, comment=None)[1:]
    if not shape:
        raise SchemaError("expected '<vocab> <dim>' header", path=path)
    if len(tokens) != shape[0]:
        raise SchemaError(
            f"header declared {shape[0]} tokens, file has {len(tokens)}",
            path=path)
    return tokens, np.frombuffer(values).reshape(len(tokens), shape[1])


def _cache_file(digest: str) -> Path | None:
    """Where the table of the file with sha256 `digest` is cached:
    $XDG_CACHE_HOME/slanglex, or ~/.cache/slanglex where that variable is
    unset or not an absolute path, as the XDG base directory spec says.
    None where neither names a directory: with no home directory known,
    `expanduser` leaves the ~ in place."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.expanduser(os.path.join("~", ".cache"))
        if not os.path.isabs(base):
            return None
    return Path(base, "slanglex", f"{digest}-{__version__}-{_CACHE_FORMAT}.npz")


def _read_cache(path: Path) -> tuple[list[str], np.ndarray] | None:
    """The tokens and matrix cached in `path`, or None where it is missing,
    unreadable or not laid out as `_write_cache` lays it out. A hit
    refreshes the file's time, which orders the entries kept."""
    try:
        with open(path, "rb") as handle:
            data = np.load(handle, allow_pickle=False)
            if not isinstance(data, np.lib.npyio.NpzFile):
                return None
            matrix, joined = data["matrix"], data["tokens"]
        if (matrix.dtype != np.float64 or matrix.ndim != 2
                or joined.dtype != np.uint8 or joined.ndim != 1):
            return None
        tokens = joined.tobytes().decode("utf-8").split("\n") if len(matrix) else []
        if len(tokens) != len(matrix):
            return None
        os.utime(path)
    except (OSError, ValueError, EOFError, KeyError, NotImplementedError,
            zipfile.BadZipFile):  # a decode error is a ValueError too
        return None
    return tokens, matrix


def _write_cache(path: Path, table: EmbeddingTable) -> None:
    """Cache `table` in `path`, then drop all but the `_CACHE_ENTRIES`
    entries used last. The tokens are stored as their UTF-8 bytes joined by
    \\n, which no token holds: a numpy string array drops trailing NULs.
    The file is written under a name of this process's own and moved into
    place, so a reader never sees half of it. A cache that cannot be
    written is no cache: an OSError is ignored."""
    temporary = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(temporary, "wb") as handle:
            np.savez(handle, matrix=table.matrix, tokens=np.frombuffer(
                "\n".join(table.tokens).encode("utf-8"), dtype=np.uint8))
        os.replace(temporary, path)
        # file times are only as fine as the kernel's clock tick, so the
        # entry just written is kept whatever its time
        entries = []
        for entry in path.parent.glob("*.npz"):
            with contextlib.suppress(FileNotFoundError):  # another run's
                if entry != path:
                    entries.append((entry.stat().st_mtime_ns, entry.name, entry))
        for *_, stale in sorted(entries, reverse=True)[_CACHE_ENTRIES - 1:]:
            stale.unlink(missing_ok=True)
    except OSError:
        with contextlib.suppress(OSError):
            temporary.unlink(missing_ok=True)


def load_embeddings(path) -> EmbeddingTable:
    """Read the text vector format (module docstring); a malformed line or
    table raises a `SchemaError` naming the file. A table this version has
    loaded before, byte for byte, comes from the cache instead."""
    cache = _cache_file(load(sha256_hex, path))
    cached = None if cache is None else _read_cache(cache)
    if cached is not None:
        with contextlib.suppress(AnalysisError):  # an edited cache file
            return EmbeddingTable(*cached)
    tokens, matrix = _parse_lines(path)
    try:
        table = EmbeddingTable(tokens, matrix)
    except AnalysisError as exc:  # duplicate tokens, non-finite values
        raise SchemaError(str(exc), path=path) from None
    if cache is not None:
        _write_cache(cache, table)
    return table
