"""Direct word-translation retrieval over cross-lingual embeddings.

Four exact methods. Each gives the keys of a block of queries against every
target, most significant first, and `embeddings.top_k`, the selection that
`k_nearest` uses too, returns the `top` best candidates per query as
`Neighbors`, each with its first key as the score. Ties on every key go to
the ascending token.

- nn: plain cosine nearest neighbor.
- inv_nn: rank the query among all source words by cosine to each target,
  prefer the target giving the best (lowest) rank; the keys are minus the
  rank, then the cosine. Counteracts hub targets. Each target column is
  sorted once per call, and sources tying on a target share its best rank.
- inv_softmax: softmax over the *source* vocabulary per target at a fixed
  temperature, so hub targets split their mass across many sources.
- csls: 2*cos(x, y) - r_T(x) - r_S(y), each r the mean cosine to the k
  nearest neighbors on the other side.

Stores are unit-normalized on entry if needed. Queries missing from the
source store are dropped with a warning; evaluation applies its copy
back-off to them downstream.
"""

from __future__ import annotations

import logging
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


def _mean_topk(matrix: np.ndarray, k: int, axis: int) -> np.ndarray:
    """Mean of the k largest entries along `axis` (k capped at the size)."""
    size = matrix.shape[axis]
    k = min(k, size)
    part = np.partition(matrix, size - k, axis=axis)
    if axis == 1:
        return part[:, size - k :].mean(axis=1)
    return part[size - k :, :].mean(axis=0)


# Target columns sorted per step: their transposed copy and sort buffers stay
# a small fraction of the cosine matrix.
_COLUMN_BLOCK = 64


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
        # position takes the nearest run end at or after it.
        ends = np.full(ordered.shape, n_src - 1)
        ends[:, :-1] = np.where(ordered[:, :-1] != ordered[:, 1:], positions, n_src - 1)
        last = np.minimum.accumulate(ends[:, ::-1], axis=1)[:, ::-1]
        block = np.empty(cols.shape)
        np.put_along_axis(block, order, last - float(n_src), axis=1)
        neg_rank[:, start : start + _COLUMN_BLOCK] = block.T
    return neg_rank


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
    both vocabularies; meant for evaluation-sized stores. inv_nn sorts each
    target column once and holds a float64 rank table of the same size on
    top of the matrix.
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
        neg_rank = _neg_column_ranks(cos)

        def score_rows(rows):
            # Equal ranks go to the higher cosine.
            return neg_rank[rows], cos[rows]

    elif config.method == "inv_softmax":
        t = config.softmax_temperature
        scaled = t * cos
        col_max = scaled.max(axis=0)
        log_z = col_max + np.log(np.exp(scaled - col_max).sum(axis=0))

        def score_rows(rows):
            return (scaled[rows] - log_z,)

    else:  # csls
        r_tgt = _mean_topk(cos, config.csls_k, axis=1)
        r_src = _mean_topk(cos, config.csls_k, axis=0)

        def score_rows(rows):
            return (2.0 * cos[rows] - r_tgt[rows, None] - r_src,)

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
