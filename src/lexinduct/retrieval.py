"""Direct word-translation retrieval over cross-lingual embeddings.

Four methods, all exact and all returning full rankings:

- nn: plain cosine nearest neighbor.
- inv_nn: rank the query among all source words by cosine to each target,
  prefer the target giving the best (lowest) rank; ties broken by higher
  cosine, then ascending token. Counteracts hub targets.
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

from .embeddings import EmbeddingStore, ScoredCandidates, unit_normalize
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


def _full_cosines(src: EmbeddingStore, tgt: EmbeddingStore) -> np.ndarray:
    return src.vectors.astype(np.float64) @ tgt.vectors.astype(np.float64).T


def rank_candidates(
    src: EmbeddingStore,
    tgt: EmbeddingStore,
    queries: list[str],
    config: RetrievalConfig,
    top: int | None = None,
) -> list[ScoredCandidates]:
    """Target ranking for each query under the configured method.

    Builds the complete source x target cosine matrix, so memory grows with
    both vocabularies; meant for evaluation-sized stores. `top` keeps only
    the best `top` candidates per query (None keeps the full ranking); the
    ordering is computed over all targets either way.
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
    if not present:
        return []

    cos = _full_cosines(src, tgt)
    q_rows = src.indices(present)
    lexrank = tgt.lexrank()
    results: list[ScoredCandidates] = []

    if config.method == "nn":
        for q, row in zip(present, q_rows):
            scores = cos[row]
            order = np.lexsort((lexrank, -scores))
            results.append(_scored(q, tgt, scores, order, top))

    elif config.method == "inv_nn":
        n_src = cos.shape[0]
        col_sorted = np.sort(cos, axis=0)
        rows = cos[q_rows]
        ranks_all = np.empty(rows.shape, dtype=np.int64)
        for y in range(cos.shape[1]):
            greater = n_src - np.searchsorted(col_sorted[:, y], rows[:, y], side="right")
            ranks_all[:, y] = 1 + greater
        for i, q in enumerate(present):
            scores = rows[i]
            ranks = ranks_all[i]
            order = np.lexsort((lexrank, -scores, ranks))
            results.append(_scored(q, tgt, -ranks.astype(np.float64), order, top))

    elif config.method == "inv_softmax":
        t = config.softmax_temperature
        scaled = t * cos
        col_max = scaled.max(axis=0)
        log_z = col_max + np.log(np.exp(scaled - col_max).sum(axis=0))
        for q, row in zip(present, q_rows):
            scores = scaled[row] - log_z
            order = np.lexsort((lexrank, -scores))
            results.append(_scored(q, tgt, scores, order, top))

    else:  # csls
        r_tgt = _mean_topk(cos, config.csls_k, axis=1)
        r_src = _mean_topk(cos, config.csls_k, axis=0)
        for q, row in zip(present, q_rows):
            scores = 2.0 * cos[row] - r_tgt[row] - r_src
            order = np.lexsort((lexrank, -scores))
            results.append(_scored(q, tgt, scores, order, top))

    return results


def _scored(
    query: str,
    tgt: EmbeddingStore,
    scores: np.ndarray,
    order: np.ndarray,
    top: int | None,
) -> ScoredCandidates:
    if top is not None:
        order = order[:top]
    kept = order.tolist()
    values = scores[order].tolist()
    return ScoredCandidates(query, tuple(zip((tgt.vocab[j] for j in kept), values)))


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
