"""Direct word-translation retrieval over cross-lingual embeddings.

Four exact methods. Each gives the keys of a block of queries against every
target, most significant first, and `embeddings.top_k`, the selection that
`k_nearest` uses too, returns the `top` best candidates per query as
`Neighbors`, each with its first key as the score. Ties on every key go to
the ascending token.

- nn: plain cosine nearest neighbor.
- inv_nn: rank the query among all source words by cosine to each target,
  prefer the target giving the best (lowest) rank; the keys are minus the
  rank, then the cosine. Counteracts hub targets. Sources tying on a target
  share its best rank. For `top` up to `_DEPTH`, ranks are computed only
  within each target column's largest cosines, and the rare query short of
  `top` ranks there takes its row of a rank table that sorts each target
  column once; for larger `top`, that table is built up front.
- inv_softmax: softmax over the *source* vocabulary per target at a fixed
  temperature, so hub targets split their mass across many sources.
- csls: 2*cos(x, y) - r_T(x) - r_S(y), each r the mean cosine to the k
  nearest neighbors on the other side.

Apart from inv_nn's rank table, the cosine matrix is the only array of its
size: the softmax normalisers and the CSLS means are reduced 64 columns (or
rows) at a time, and the keys are built one block of queries at a time.

Stores are unit-normalized on entry if needed. Queries missing from the
source store are dropped with a warning; evaluation applies its copy
back-off to them downstream.
"""

from __future__ import annotations

import logging
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingStore, Neighbors, cosine_matrix, top_k, unit_normalize
from .lexicon import InducedDictionary

log = logging.getLogger(__name__)

METHODS = ("nn", "inv_nn", "inv_softmax", "csls")


@dataclass(frozen=True)
class RetrievalConfig:
    method: str = "csls"
    softmax_temperature: float = 30.0
    csls_k: int = 10

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown retrieval method {self.method!r}")
        if self.softmax_temperature <= 0:
            raise ValueError("softmax temperature must be positive")
        if self.csls_k < 1:
            raise ValueError("csls_k must be >= 1")


# Lines (target columns, or rows) reduced, partitioned or sorted per step:
# their copies and sort buffers stay a small fraction of the cosine matrix.
_COLUMN_BLOCK = 64


def _blocks(n: int) -> Iterator[slice]:
    """Slices of at most `_COLUMN_BLOCK` lines that cover range(n).

    None is one line wide unless n is 1, because numpy sums a lone column
    pairwise but several columns row by row, as over the whole matrix; so
    the last slice may overlap the one before it.
    """
    for start in range(0, n, _COLUMN_BLOCK):
        yield slice(max(0, min(start, n - 2)), start + _COLUMN_BLOCK)


def _mean_topk(matrix: np.ndarray, k: int, axis: int) -> np.ndarray:
    """Mean of the k largest entries along `axis` (k capped at the size),
    a block of lines across the other axis at a time.

    Along axis 0, a block's columns are partitioned as the rows of a
    transposed copy, which is faster than partitioning strided columns.
    Their top k go back into a (k, block) array laid out like the matrix,
    whose mean adds each column's terms in the order that a mean over the
    whole matrix does.
    """
    size = matrix.shape[axis]
    k = min(k, size)
    means = np.empty(matrix.shape[1 - axis])
    for lines in _blocks(len(means)):
        if axis == 1:
            means[lines] = np.partition(matrix[lines], size - k, axis=1)[:, size - k :].mean(axis=1)
        else:
            block = np.ascontiguousarray(matrix[:, lines]).T.copy()
            block.partition(size - k, axis=1)
            top = np.empty_like(matrix[:k, lines])
            top[...] = block[:, size - k :].T
            means[lines] = top.mean(axis=0)
    return means


def _log_normalizer(cos: np.ndarray, t: float) -> np.ndarray:
    """log sum_x exp(t * cos[x, y]) per target column y, shifted by the
    column's largest term, a block of columns at a time."""
    log_z = np.empty(cos.shape[1])
    for cols in _blocks(len(log_z)):
        scaled = t * cos[:, cols]
        col_max = scaled.max(axis=0)
        log_z[cols] = col_max + np.log(np.exp(scaled - col_max).sum(axis=0))
    return log_z


def _neg_column_ranks(cos: np.ndarray) -> np.ndarray:
    """Minus each cosine's rank in its column, as float64 of cos's shape.

    rank = 1 + the cosines above it in its column = len(cos) + 1 - the
    cosines at most it; that count is one past the last position of its run
    of equal values in the sorted column. Each column is sorted once.
    """
    n_src, n_tgt = cos.shape
    neg_rank = np.empty(cos.shape)
    positions = np.arange(n_src - 1)
    for start in range(0, n_tgt, _COLUMN_BLOCK):
        cols = np.ascontiguousarray(cos[:, start : start + _COLUMN_BLOCK].T)
        order = np.argsort(cols, axis=1)
        ordered = np.take_along_axis(cols, order, axis=1)
        # A run ends where the next value differs or the column does; every
        # position takes the nearest run end at or after it. Both are done
        # in place and the ranks go back into `cols`, so that a step holds
        # few arrays of the block's size.
        ends = np.full(ordered.shape, n_src - 1)
        np.copyto(ends[:, :-1], positions, where=ordered[:, :-1] != ordered[:, 1:])
        np.minimum.accumulate(ends[:, ::-1], axis=1, out=ends[:, ::-1])
        ends -= n_src
        np.put_along_axis(cols, order, ends, axis=1)
        neg_rank[:, start : start + _COLUMN_BLOCK] = cols.T
    return neg_rank


# inv_nn computes ranks within each target column's _DEPTH largest cosines.
_DEPTH = 32


def _column_tops(cos: np.ndarray, depth: int) -> np.ndarray:
    """Each target column's `depth` largest cosines, ascending, flattened
    column after column as complex keys column + 1j * cosine.

    numpy orders complex numbers by real part, then imaginary part, so the
    keys are sorted, and one `searchsorted` places any (column, cosine) pair
    among its column's largest cosines.
    """
    n_src, n_tgt = cos.shape
    keys = np.empty((n_tgt, depth), dtype=np.complex128)
    keys.real = np.arange(n_tgt)[:, None]
    for cols in _blocks(n_tgt):
        # Copying the columns first and transposing the copy is faster than
        # one transposing copy out of the whole matrix.
        block = np.ascontiguousarray(cos[:, cols]).T.copy()
        block.partition(n_src - depth, axis=1)
        keys.imag[cols] = np.sort(block[:, n_src - depth :], axis=1)
    return keys.ravel()


def _inv_nn_rows(cos: np.ndarray, k: int):
    """inv_nn's `score_rows`: minus the rank, then the cosine.

    Two regimes. For k <= _DEPTH, a cosine below its column's d-th largest
    (d = _DEPTH, or the column length if shorter) has rank > d, so each
    query gets exact ranks only for its cosines at or above that threshold,
    as 1 + the column's d largest above it; every other cosine gets a key
    below all ranks, and the query's top k is exact once it has k ranks.
    A query with fewer (an anti-hub: it lies low in almost every column)
    takes its row of the rank table, which the first such query builds by
    sorting each column once. For k > _DEPTH most queries would need it,
    so the table is built up front. Equal ranks go to the higher cosine.
    """
    if k > _DEPTH:
        table = _neg_column_ranks(cos)
        return lambda rows: (table[rows], cos[rows])

    n_src, n_tgt = cos.shape
    depth = min(_DEPTH, n_src)
    keys = _column_tops(cos, depth)
    thresholds = np.ascontiguousarray(keys.imag[::depth])
    # A cosine without a computed rank gets the key -(n_src + 1 + its
    # column), below every rank and distinct within a row: numpy's partition
    # slows down on long runs of equal values. The smallest integer type
    # that holds the keys keeps their block a fraction of the cosine block.
    uncomputed = (-1 - n_src - np.arange(n_tgt)).astype(np.min_scalar_type(-2 - n_src - n_tgt))
    table = None

    def score_rows(rows):
        nonlocal table
        block = cos[rows]
        flat = np.flatnonzero(block >= thresholds)
        r, c = np.divmod(flat, n_tgt)
        short = np.bincount(r, minlength=len(rows)) < k
        # Built before this block's other arrays, so that its sort buffers
        # come on top of little more than the matrix.
        if short.any() and table is None:
            table = _neg_column_ranks(cos)
        neg_rank = np.empty(block.shape, dtype=uncomputed.dtype)
        neg_rank[:] = uncomputed
        at = np.empty(len(flat), dtype=np.complex128)
        at.real = c
        at.imag = block.ravel()[flat]
        # Keys up to (c, cosine) are every earlier column's and those of
        # column c at most the cosine; the rest of column c's are above.
        neg_rank[r, c] = np.searchsorted(keys, at, side="right") - (c + 1) * depth - 1
        if short.any():
            neg_rank[short] = table[rows[short]]
        return neg_rank, block

    return score_rows


def rank_candidates(
    src: EmbeddingStore,
    tgt: EmbeddingStore,
    queries: list[str],
    config: RetrievalConfig,
    top: int | None = None,
) -> Neighbors:
    """The `top` best targets (None: all) of each query found in `src` under
    the configured method, as `Neighbors`, the type `k_nearest` returns.

    Builds the complete source x target cosine matrix, so memory grows with
    both vocabularies; meant for evaluation-sized stores. Besides it, every
    method holds only per-target vectors and arrays of one block of queries
    (or of target columns), except inv_nn with `top` above `_DEPTH` or None,
    or with a query short of `top` ranks within the depth, which holds a
    float64 rank table of the matrix's size.
    """
    if top is not None and top < 1:
        raise ValueError("top must be >= 1 when given")
    if not src.normalized:
        src = unit_normalize(src)
    if not tgt.normalized:
        tgt = unit_normalize(tgt)
    present = [q for q in queries if q in src]
    for q in queries:
        if q not in src:
            log.warning("query %r not in source store; skipped (copy back-off applies)", q)

    k = len(tgt) if top is None else min(top, len(tgt))
    if not present:
        return Neighbors((), tgt.vocab, np.empty((0, k), dtype=np.int64), np.empty((0, k)))

    cos = cosine_matrix(src, tgt)

    if config.method == "nn":
        def score_rows(rows):
            return (cos[rows],)

    elif config.method == "inv_nn":
        score_rows = _inv_nn_rows(cos, k)

    elif config.method == "inv_softmax":
        t = config.softmax_temperature
        log_z = _log_normalizer(cos, t)

        def score_rows(rows):
            # In place, so that a block holds one array of its size.
            scores = cos[rows]
            scores *= t
            scores -= log_z
            return (scores,)

    else:  # csls
        r_tgt = _mean_topk(cos, config.csls_k, axis=1)
        r_src = _mean_topk(cos, config.csls_k, axis=0)

        def score_rows(rows):
            scores = cos[rows]
            scores *= 2.0
            scores -= r_tgt[rows, None]
            scores -= r_src
            return (scores,)

    return top_k(present, src.indices(present), tgt, k, score_rows)


def induce_dictionary(
    src: EmbeddingStore,
    tgt: EmbeddingStore,
    queries: list[str],
    config: RetrievalConfig,
    top: int | None = None,
) -> InducedDictionary:
    """Ranked translation lists for every in-vocabulary query.

    `top` caps the candidates kept per query; None keeps the full ranking.
    """
    ranked = rank_candidates(src, tgt, queries, config, top=top)
    return InducedDictionary({r.query: r.candidates for r in ranked})
