"""Word and phrase embedding stores with exact cosine k-nearest retrieval.

Vectors are held in float32 (the text format's precision); every similarity
is accumulated in float64 so scores are reproducible and stable. Nearest
neighbor lists are exact: brute-force matrix products over fixed blocks of
queries, ranked by higher cosine first, then ascending token, and returned
as arrays (`Neighbors`). The selection, `top_k`, ranks by any tuple of keys
per target, most significant first, with the token as the last tie-break;
every retrieval method ranks through it too.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Callable, Iterable

import numpy as np

from .fileio import atomic_write

log = logging.getLogger(__name__)

CACHE_VERSION = 1


@dataclass
class ScoredCandidates:
    """Ranked retrieval output for one query token."""

    query: str
    candidates: tuple[tuple[str, float], ...]

    def best(self) -> str:
        return self.candidates[0][0]


@dataclass
class EmbeddingStore:
    """A fixed vocabulary with one vector per token.

    vocab order is load order; lookups go through an internal token index.
    """

    vocab: tuple[str, ...]
    vectors: np.ndarray
    normalized: bool = False
    _index: dict[str, int] = field(init=False, repr=False)
    _lexrank: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.vectors.ndim != 2:
            raise ValueError("vectors must be a 2-d array")
        if len(self.vocab) != self.vectors.shape[0]:
            raise ValueError(
                f"vocab size {len(self.vocab)} != vector rows {self.vectors.shape[0]}"
            )
        if self.vectors.dtype != np.float32:
            self.vectors = self.vectors.astype(np.float32)
        self._index = {tok: i for i, tok in enumerate(self.vocab)}
        if len(self._index) != len(self.vocab):
            raise ValueError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.vocab)

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def indices(self, tokens: Iterable[str]) -> np.ndarray:
        return np.array([self._index[t] for t in tokens], dtype=np.int64)

    def lexrank(self) -> np.ndarray:
        """lexrank[i] = position of vocab[i] in lexicographic token order.

        Used as the deterministic secondary sort key for score ties.
        """
        if self._lexrank is None:
            order = sorted(range(len(self.vocab)), key=lambda i: self.vocab[i])
            rank = np.empty(len(self.vocab), dtype=np.int64)
            rank[order] = np.arange(len(self.vocab))
            self._lexrank = rank
        return self._lexrank


def load_embeddings(source: str | Path | IO[str]) -> EmbeddingStore:
    """Parse the text format: a "count dim" header, then one
    "token v1 ... v_dim" line per word.

    Duplicate tokens keep the first occurrence (with a warning); any other
    malformed content is a fatal error naming the line number.
    """
    if hasattr(source, "read"):
        return _parse_embeddings(source, "<stream>")
    with open(source, encoding="utf-8") as fh:
        return _parse_embeddings(fh, str(source))


def _parse_embeddings(fh: IO[str], name: str) -> EmbeddingStore:
    header = fh.readline()
    if not header.strip():
        raise ValueError(f"{name}: line 1: missing 'count dim' header")
    parts = header.split()
    if len(parts) != 2:
        raise ValueError(f"{name}: line 1: header must be 'count dim', got {header.strip()!r}")
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"{name}: line 1: non-integer header {header.strip()!r}") from None
    if count < 1 or dim < 1:
        raise ValueError(f"{name}: line 1: count and dim must be positive")

    vocab: list[str] = []
    seen: dict[str, int] = {}
    rows = np.empty((count, dim), dtype=np.float32)
    kept = 0
    data_lines = 0
    lineno = 1
    for line in fh:
        lineno += 1
        if not line.strip():
            continue
        data_lines += 1
        if data_lines > count:
            raise ValueError(f"{name}: line {lineno}: more vectors than the header count {count}")
        fields = line.rstrip("\n").split(" ")
        # Tolerate a trailing space, a quirk of several public embedding dumps.
        if fields and fields[-1] == "":
            fields.pop()
        if len(fields) != dim + 1:
            raise ValueError(
                f"{name}: line {lineno}: expected token + {dim} values, got {len(fields)} fields"
            )
        token = fields[0]
        if token in seen:
            log.warning("%s: line %d: duplicate token %r, keeping first", name, lineno, token)
            continue
        try:
            values = [float(v) for v in fields[1:]]
        except ValueError:
            raise ValueError(f"{name}: line {lineno}: non-numeric vector component") from None
        seen[token] = kept
        vocab.append(token)
        rows[kept] = values
        kept += 1
    if data_lines < count:
        raise ValueError(f"{name}: expected {count} vectors, file ended after {data_lines}")
    return EmbeddingStore(tuple(vocab), rows[:kept])


def save_cache(store: EmbeddingStore, path: str | Path) -> None:
    """Binary cache: an .npz with a version stamp, the vocab, the float32
    matrix, and the normalized flag. Loadable only by load_cache."""
    with atomic_write(path, binary=True) as fh:
        np.savez(
            fh,
            version=np.int64(CACHE_VERSION),
            vocab=np.array(store.vocab, dtype=np.str_),
            vectors=store.vectors,
            normalized=np.bool_(store.normalized),
        )


def load_cache(path: str | Path) -> EmbeddingStore:
    with np.load(path, allow_pickle=False) as data:
        version = int(data["version"])
        if version != CACHE_VERSION:
            raise ValueError(f"{path}: cache version {version}, expected {CACHE_VERSION}")
        store = EmbeddingStore(
            tuple(str(t) for t in data["vocab"]),
            data["vectors"].astype(np.float32),
            normalized=bool(data["normalized"]),
        )
    return store


def unit_normalize(store: EmbeddingStore) -> EmbeddingStore:
    """Scale every row to unit L2 norm (idempotent; zero vectors are fatal)."""
    norms = np.sqrt((store.vectors.astype(np.float64) ** 2).sum(axis=1))
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise ValueError(f"zero vector for token {store.vocab[int(zero[0])]!r}")
    vectors = (store.vectors.astype(np.float64) / norms[:, None]).astype(np.float32)
    out = EmbeddingStore(store.vocab, vectors, normalized=True)
    return out


def cosine_matrix(src: EmbeddingStore, tgt: EmbeddingStore, rows: np.ndarray | None = None) -> np.ndarray:
    """Pairwise dot products (cosines once both stores are normalized),
    float32 inputs accumulated in float64."""
    a = src.vectors if rows is None else src.vectors[rows]
    return a.astype(np.float64) @ tgt.vectors.astype(np.float64).T


# Source rows scored per `score_rows` call. BLAS may round a cosine
# differently in the last bits for another row count, so this is fixed.
_BLOCK_ROWS = 512
# Rows per top-k selection: its partition and sort temporaries are as large
# as the scores it ranks, so selecting a whole block at once would double the
# block's memory.
_SELECT_ROWS = 64


def _top_k_rows(keys: tuple[np.ndarray, ...], lexrank: np.ndarray, k: int) -> np.ndarray:
    """Exact top-k columns of each row of (rows, n) key arrays.

    Columns rank by each key descending, most significant first, then by
    lexrank ascending. A partition finds each row's k-th best first key;
    every column at or above it (the k best plus any ties) goes into one
    flat lexsort by (row, keys, lexrank), which keeps the first k per row.
    """
    first = keys[0]
    rows, n = first.shape
    if k >= n:
        by_token = np.broadcast_to(lexrank, first.shape)
        return np.lexsort((by_token, *(-key for key in reversed(keys))), axis=1)
    kth = np.partition(first, n - k, axis=1)[:, n - k, None]
    flat = np.flatnonzero(first >= kth)
    row, col = np.divmod(flat, n)
    order = np.lexsort((lexrank[col], *(-key.ravel()[flat] for key in reversed(keys)), row))
    counts = np.bincount(row, minlength=rows)
    starts = np.cumsum(counts) - counts
    return col[order[(starts[:, None] + np.arange(k)).ravel()]].reshape(rows, k)


@dataclass(eq=False)
class Neighbors(Sequence):
    """k nearest targets per query, held as arrays.

    Row i ranks `targets[idx[i, j]]` with score `scores[i, j]` (the cosine
    for `k_nearest`), best first.
    Indexing yields the row as ScoredCandidates.
    """

    queries: tuple[str, ...]
    targets: tuple[str, ...]
    idx: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.queries)

    def __getitem__(self, i: int) -> ScoredCandidates:
        tokens = (self.targets[j] for j in self.idx[i].tolist())
        return ScoredCandidates(self.queries[i], tuple(zip(tokens, self.scores[i].tolist())))


def top_k(
    queries: Sequence[str],
    rows: np.ndarray,
    tgt: EmbeddingStore,
    k: int,
    score_rows: Callable[[np.ndarray], tuple[np.ndarray, ...]],
) -> Neighbors:
    """The k best targets of each query, a block of source rows at a time.

    `rows[i]` is the source row of `queries[i]`, and `score_rows(r)` gives
    the keys of source rows `r`: a tuple of (len(r), len(tgt)) arrays, most
    significant first. Targets rank by each key descending, then by token
    ascending; the first key is the reported score. k is at most len(tgt).
    """
    lexrank = tgt.lexrank()
    idx = np.empty((len(rows), k), dtype=np.int64)
    scores = np.empty((len(rows), k), dtype=np.float64)
    for start in range(0, len(rows), _BLOCK_ROWS):
        block_keys = score_rows(rows[start : start + _BLOCK_ROWS])
        for sub in range(0, len(block_keys[0]), _SELECT_ROWS):
            at = start + sub
            part = tuple(key[sub : sub + _SELECT_ROWS] for key in block_keys)
            top = _top_k_rows(part, lexrank, k)
            idx[at : at + len(top)] = top
            scores[at : at + len(top)] = np.take_along_axis(part[0], top, axis=1)
        # Free this block's keys before `score_rows` builds the next block.
        del block_keys, part
    return Neighbors(tuple(queries), tgt.vocab, idx, scores)


def k_nearest(
    src: EmbeddingStore,
    tgt: EmbeddingStore,
    queries: Sequence[str],
    k: int,
) -> Neighbors:
    """Exact cosine k-nearest targets for each query token.

    Queries must exist in `src`. If k exceeds the target vocabulary the full
    ranking is returned with a warning.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > len(tgt):
        log.warning("k=%d exceeds target vocabulary %d; returning all", k, len(tgt))
        k = len(tgt)
    missing = [q for q in queries if q not in src]
    if missing:
        raise KeyError(f"query token {missing[0]!r} not in source store")
    rows = src.indices(queries)
    return top_k(queries, rows, tgt, k, lambda r: (cosine_matrix(src, tgt, r),))
