"""Skip-gram with negative sampling over slang usage examples.

Training works on arrays, not one pair at a time. Each epoch subsamples
every token with one draw, draws every position's window at once and
builds all (center, context) pairs inside sentence bounds; the pairs then
go through in chunks in corpus order. Per chunk, the negatives are drawn,
one batched `sgns_pair_gradients` call computes the loss and gradients
from the vectors as they stood at the chunk's start, and the summed
updates are applied once per row (mini-batched SGNS, Ji et al. 2016).
A chunk holds at most min(vocabulary size, 128) pairs. The vocabulary
bound keeps training stable: rows that repeat within a chunk get their
stale updates added together, and with a small vocabulary and large
chunks those sums overshoot and training diverges (on a 15-token corpus,
1,024 pairs per chunk ended at a loss of 4e22). The 128 keeps a chunk's
negative rows and their gradients, chunk x negatives x dimension floats
each, small enough to stay in cache: at the default 5 negatives and 100
dimensions, 128-pair chunks trained faster and with a lower peak memory
than 256- or 512-pair chunks.

Training is single-threaded, and for a fixed seed it is bit-for-bit
deterministic: the random draws and the order of every sum are fixed by
the seed and the corpus. The published vectors are the input
(center-word) vectors.

Persisted tables use the common text format: a `<vocab> <dim>` header
line, then one `token v1 ... v_d` line per word, which also lets the
loader read third-party reference embeddings for the bias comparisons.
It is read by the line rules every input shares (no comment lines);
trailing whitespace on a line, common in word2vec files, is ignored.

Loading parses the table in bulk. The file is read line by line under
the same rules (lines end at `\n` only, blank ones are dropped), the
header and each row's token are taken apart in Python, and every value
is converted by one `np.loadtxt` call. Anything off (a byte that is not
UTF-8, a bad header, a row without values, a `loadtxt` error, a matrix
of another shape than the header's) sends the file to the line parser,
`read_records` with one `parse` per line, which alone words an error.
The bulk result is exact: numpy's converter takes a subset of what
`float()` takes (it refuses `1_0` and non-ASCII digits, which `float()`
takes, and hex, which neither does) and both round correctly, so when
it succeeds it gives the same bits. The one exception is the ASCII
separators U+001C-U+001F, which numpy strips around a value as
whitespace and `float()` refuses; a table with one in a value goes to
the line parser. A header of zero tokens skips `loadtxt`, which warns
when it finds no data.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import LexiconEntry, read_records
from .errors import AnalysisError, SchemaError

# underscore admitted so joined multiword headwords survive the split
_TOKEN_RE = re.compile(r"[a-z0-9_]+(?:'[a-z0-9_]+)*")
# pairs per chunk, further capped at the vocabulary size (module docstring)
_MAX_CHUNK = 128
# the ASCII separators: numpy strips them around a value as whitespace,
# float() refuses them
_SEPARATORS = "\x1c\x1d\x1e\x1f"


@dataclass(frozen=True)
class TrainingConfig:
    dimension: int = 100
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    initial_lr: float = 0.025
    min_count: int = 5
    subsample_threshold: float = 1e-3  # <= 0 disables subsampling
    seed: int = 0

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
        if not self.initial_lr > 0:
            raise AnalysisError("initial_lr must be positive")


class EmbeddingTable:
    """token -> d-dimensional vector, with corpus counts as metadata."""

    def __init__(self, tokens: Sequence[str], matrix: np.ndarray,
                 counts: Mapping[str, int],
                 epoch_losses: tuple[float, ...] = ()):
        if matrix.ndim != 2 or matrix.shape[0] != len(tokens):
            raise AnalysisError("embedding matrix does not match token list")
        if not np.all(np.isfinite(matrix)):
            raise AnalysisError("embedding matrix contains non-finite values")
        self.tokens = tuple(tokens)
        self.matrix = matrix
        self.counts = dict(counts)
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
             lr: float) -> None:
    """matrix[rows] -= lr * grads, summing the gradients of a repeated row
    (sorted segments and reduceat; ufunc.at is several times slower)."""
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    starts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
    matrix[rows[starts]] -= lr * np.add.reduceat(grads[order], starts, axis=0)


def _sgd_step(vectors: np.ndarray, context: np.ndarray, c_ids: np.ndarray,
              p_ids: np.ndarray, n_ids: np.ndarray, lr: float) -> float:
    """One chunk's update from the rows as they stand; negatives equal to
    their pair's context are dropped. Returns the chunk's summed loss. (A
    function, so the chunk's arrays are freed before the next is drawn.)"""
    loss, g_c, g_p, g_n = sgns_pair_gradients(
        vectors[c_ids], context[p_ids], context[n_ids],
        keep=n_ids != p_ids[:, None])
    _descend(vectors, c_ids, g_c, lr)
    _descend(context, p_ids, g_p, lr)
    _descend(context, n_ids.ravel(), g_n.reshape(-1, vectors.shape[1]), lr)
    return float(loss.sum())


def _window_pairs(tokens: np.ndarray, sentence_ids: np.ndarray,
                  reach: np.ndarray, window: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(center, context) ids for every position, centers in corpus order
    and each center's contexts left to right; position i pairs with the
    positions within reach[i] of it in the same sentence."""
    offsets = np.r_[np.arange(-window, 0), np.arange(1, window + 1)]
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
    if config.subsample_threshold > 0:
        freq = vocab_counts / total
        with np.errstate(divide="ignore"):
            keep_prob = np.minimum(
                1.0, np.sqrt(config.subsample_threshold / freq))

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
    epoch_losses = []
    for epoch in range(config.epochs):
        lr = max(config.initial_lr * (1.0 - epoch / config.epochs),
                 config.initial_lr * 1e-4)
        kept = rng.random(len(tokens)) < keep_prob[tokens]
        reach = rng.integers(1, config.window + 1, size=int(kept.sum()))
        centers, contexts = _window_pairs(tokens[kept], sentence_ids[kept],
                                          reach, config.window)
        loss_sum = 0.0
        for lo in range(0, len(centers), chunk):
            c_ids = centers[lo:lo + chunk]
            p_ids = contexts[lo:lo + chunk]
            n_ids = noise_cdf.searchsorted(
                rng.random((len(c_ids), config.negatives)))
            loss_sum += _sgd_step(vectors, context, c_ids, p_ids, n_ids, lr)
        epoch_losses.append(loss_sum / len(centers) if len(centers) else 0.0)

    return EmbeddingTable(tokens=vocab, matrix=vectors,
                          counts={t: int(counts[t]) for t in vocab},
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


def nearest(table: EmbeddingTable, token: str,
            k: int) -> list[tuple[str, float]]:
    """Exact top-k neighbors by cosine, ties broken lexicographically;
    tokens with a zero vector rank last."""
    if k < 1:
        raise AnalysisError(f"k must be at least 1, got {k}")
    query = table.vector(token)
    nonzero = np.linalg.norm(table.matrix, axis=1) > 0.0
    sims = np.full(len(table), -2.0)
    sims[nonzero] = cosines(query, table.matrix[nonzero])
    by_token = np.argsort(np.array(table.tokens))
    ranked = by_token[np.argsort(-sims[by_token], kind="stable")]
    return [(table.tokens[i], float(sims[i])) for i in ranked[:k + 1]
            if table.tokens[i] != token][:k]


def save_embeddings(table: EmbeddingTable, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{len(table)} {table.dimension}\n")
        for i, token in enumerate(table.tokens):
            row = " ".join(f"{x:.6f}" for x in table.matrix[i])
            handle.write(f"{token} {row}\n")


def _header(line: str) -> tuple[int, int]:
    try:
        vocab, dim = map(int, line.split())
    except ValueError:
        raise SchemaError("expected '<vocab> <dim>' header") from None
    if dim < 1:
        raise SchemaError(f"dimension must be >= 1, got {dim}")
    return vocab, dim


def _parse_bulk(path) -> tuple[list[str], np.ndarray] | None:
    """The table in one `np.loadtxt` call, or None where anything is off
    and the line parser must decide (module docstring)."""
    with open(path, "rb") as handle:
        try:
            # lines end at \n only, as in read_records; the header's split()
            # and each row's rstrip() drop the ending, \r included
            lines = (line for line in map(bytes.decode, handle) if line.strip())
            header = next(lines, "")
            rows = [line.rstrip().partition(" ") for line in lines]
        except UnicodeDecodeError:
            return None
    try:
        vocab, dim = _header(header)
    except SchemaError:
        return None
    values = [part for _, _, part in rows]
    # loadtxt skips an empty line, and warns when it finds no data at all
    if (len(rows) != vocab or not all(values)
            or any(sep in part for part in values for sep in _SEPARATORS)):
        return None
    if not rows:
        return [], np.empty((0, dim))
    try:  # a row of the wrong width is a ValueError or the wrong shape
        matrix = np.loadtxt(values, dtype=np.float64, delimiter=" ",
                            comments=None, ndmin=2)
    except ValueError:
        return None
    if matrix.shape != (vocab, dim):
        return None
    return [token for token, _, _ in rows], matrix


def _parse_lines(path) -> tuple[list[str], np.ndarray]:
    """The table line by line through `read_records`: the one judge of a
    malformed table, and the one place its errors are worded."""
    shape = []  # (vocab, dimension), from the header

    def parse(line: str):
        if shape:
            token, *values = line.rstrip().split(" ")
            if len(values) != shape[1]:
                raise SchemaError(f"expected token plus {shape[1]} values")
            try:
                return token, list(map(float, values))
            except ValueError:
                raise SchemaError("non-numeric vector value") from None
        shape.extend(_header(line))

    rows = read_records(path, parse, comment=None)[1:]
    if not shape:
        raise SchemaError("expected '<vocab> <dim>' header", path=path)
    if len(rows) != shape[0]:
        raise SchemaError(
            f"header declared {shape[0]} tokens, file has {len(rows)}", path=path)
    tokens = [token for token, _ in rows]
    matrix = np.array([values for _, values in rows],
                      dtype=np.float64).reshape(len(rows), shape[1])
    return tokens, matrix


def load_embeddings(path) -> EmbeddingTable:
    """Read the text vector format (module docstring); a malformed line or
    table raises a `SchemaError` naming the file. Counts are not stored in
    this format, so every loaded token gets count 1."""
    tokens, matrix = _parse_bulk(path) or _parse_lines(path)
    try:
        return EmbeddingTable(tokens=tokens, matrix=matrix,
                              counts={t: 1 for t in tokens})
    except AnalysisError as exc:  # duplicate tokens, non-finite values
        raise SchemaError(str(exc), path=path) from None
