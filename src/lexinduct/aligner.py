"""Word alignment: IBM-2 expectation maximization with a log-linear
diagonal position prior, Viterbi link extraction, and grow-diag-final-and
symmetrization.

Each target position j (1-based, sentence lengths m source / n target)
aligns to the null word with probability p0 or to source position i with
probability (1 - p0) * exp(-lambda * |i/m - j/n|), renormalized over the
source positions of that target position. EM re-estimates the word
translation table in closed form; the tension lambda stays as configured.
fast_align learns it, but on a sparse t(f|e) maximum likelihood drives it
up at every iteration, and a low fixed lambda aligns better.

Words are interned to int ids, source id 0 being the null word, and t(f|e)
is one array over the ascending keys e * (|F| + 1) + f. EM and Viterbi
work on one block of same-shape pairs at a time. Distances are computed
from integers, as |i*n - j*m| / (m*n), so an exact Viterbi tie, mirror
positions included, goes to null and then to the smaller source index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fileio import atomic_write, parse_number

NULL_WORD = "<null>"

Link = tuple[int, int]
Pair = tuple[Sequence[str], Sequence[str]]

DEFAULT_ITERATIONS = 5
DEFAULT_TENSION = 1.0
DEFAULT_NULL_PROB = 0.08

# Cells, (m + 1) * n per pair, in a block: EM holds a few arrays this size.
_BLOCK_CELLS = 1 << 16


@dataclass
class AlignmentModel:
    """t(f|e) at the ascending keys e * (len(tgt_ids) + 1) + f, and the
    diagonal tension. The + 1 leaves target id len(tgt_ids) in no key."""

    src_ids: dict[str, int]
    tgt_ids: dict[str, int]
    keys: np.ndarray
    probs: np.ndarray
    diagonal_tension: float
    null_prob: float
    log_likelihoods: tuple[float, ...] = ()


def _blocks(pairs: Sequence[Pair], src_ids: dict[str, int], tgt_ids: dict[str, int], grow: bool):
    """Pairs with a target side as (shape, corpus rows, (b, m+1) source ids
    led by the null word, (b, n) target ids) blocks, shapes in first-seen
    order. With `grow` new words join the vocabularies; without, they get
    the first unused id, which is in no key."""
    intern = dict.setdefault if grow else dict.get
    groups: dict[tuple[int, int], list] = {}
    for row, (src, tgt) in enumerate(pairs):
        if tgt:
            s = [0] + [intern(src_ids, w, len(src_ids)) for w in src]
            t = [intern(tgt_ids, w, len(tgt_ids)) for w in tgt]
            groups.setdefault((len(src), len(tgt)), []).append((row, s, t))
    out = []
    for (m, n), members in groups.items():
        size = max(1, _BLOCK_CELLS // ((m + 1) * n))
        for at in range(0, len(members), size):
            rows, src, tgt = zip(*members[at : at + size])
            out.append(((m, n), rows, np.array(src, dtype=np.int32), np.array(tgt, dtype=np.int32)))
    return out


def _cell_keys(src: np.ndarray, tgt: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys e * width + f of a block's cells, ascending, and
    each (b, m+1, n) cell's index into them."""
    cells = src.astype(np.int64)[:, :, None] * width + tgt[:, None, :]
    distinct, inverse = np.unique(cells, return_inverse=True)
    return distinct, inverse.reshape(cells.shape)


def _distance_matrix(m: int, n: int) -> np.ndarray:
    i = np.arange(1, m + 1, dtype=np.int64)[:, None] * n
    j = np.arange(1, n + 1, dtype=np.int64)[None, :] * m
    return np.abs(i - j) / float(m * n)


def _prior(m: int, n: int, tension: float, p0: float, dmat: np.ndarray) -> np.ndarray:
    """(m+1) x n matrix: row 0 is the null prior, rows 1..m the renormalized
    diagonal preference."""
    out = np.empty((m + 1, n), dtype=np.float64)
    out[0] = p0
    if m:
        w = np.exp(-tension * dmat)
        out[1:] = (1.0 - p0) * w / w.sum(axis=0)
    return out


def train_ibm2(
    pairs: Sequence[Pair],
    iterations: int = DEFAULT_ITERATIONS,
    tension: float = DEFAULT_TENSION,
    null_prob: float = DEFAULT_NULL_PROB,
) -> AlignmentModel:
    """EM over a parallel corpus, generating target words from source words.

    Returns the model with one data log likelihood per iteration (computed
    before that iteration's update; the sequence is non-decreasing).
    """
    if not pairs:
        raise ValueError("empty parallel corpus")
    if not (0.0 < null_prob < 1.0):
        raise ValueError(f"null probability must lie in (0, 1), got {null_prob}")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    src_ids = {NULL_WORD: 0}
    tgt_ids: dict[str, int] = {}
    blocks = _blocks(pairs, src_ids, tgt_ids, grow=True)
    width = len(tgt_ids) + 1

    # Uniform initialization over co-occurring words; the null word co-occurs
    # with every target word.
    keys = np.unique(np.concatenate(
        [np.empty(0, dtype=np.int64)] + [_cell_keys(s, t, width)[0] for _, _, s, t in blocks]
    ))
    e_of_key = keys // width
    probs = 1.0 / np.bincount(e_of_key)[e_of_key]

    # The tension is fixed, so each shape's prior is the same at every iteration.
    priors = {
        (m, n): _prior(m, n, tension, null_prob, _distance_matrix(m, n)) if m else np.ones((1, n))
        for (m, n), _, _, _ in blocks
    }
    history: list[float] = []

    for _ in range(iterations):
        counts = np.zeros(keys.size, dtype=np.float64)
        ll = 0.0
        for shape, _, src, tgt in blocks:
            prior = priors[shape]
            distinct, inverse = _cell_keys(src, tgt, width)
            at = np.searchsorted(keys, distinct)
            joint = prior * probs[at][inverse]
            z = joint.sum(axis=1, keepdims=True)
            ll += float(np.log(z).sum())
            gamma = joint / z
            # A bincount over the block's own keys costs what the block does,
            # not what the whole table does.
            counts[at] += np.bincount(inverse.ravel(), gamma.ravel(), at.size)
        history.append(ll)
        probs = counts / np.bincount(e_of_key, counts)[e_of_key]

    return AlignmentModel(src_ids, tgt_ids, keys, probs, float(tension), null_prob, tuple(history))


def align_corpus(model: AlignmentModel, pairs: Sequence[Pair]) -> list[set[Link]]:
    """Best source link per target word of each pair; a target word whose
    best is the null word gets no link, and a tie goes to null and then to
    the smaller source index. A word pair absent from the model has t = 0."""
    out: list[set[Link]] = [set() for _ in pairs]
    # A last key above every cell's keeps each position valid; it reads 0.
    keys, probs = np.append(model.keys, np.iinfo(np.int64).max), np.append(model.probs, 0.0)
    for (m, n), rows, src, tgt in _blocks(pairs, model.src_ids, model.tgt_ids, grow=False):
        distinct, inverse = _cell_keys(src, tgt, len(model.tgt_ids) + 1)
        at = np.searchsorted(keys, distinct)
        t = np.where(keys[at] == distinct, probs[at], 0.0)[inverse]
        prior = _prior(m, n, model.diagonal_tension, model.null_prob, _distance_matrix(m, n))
        best = (prior * t).argmax(axis=1)
        for row, sources in zip(rows, best.tolist()):
            out[row] = {(i - 1, j) for j, i in enumerate(sources) if i}
    return out


def grow_diag_final_and(forward: set[Link], reverse: set[Link]) -> set[Link]:
    """Symmetrize two directional link sets (both in source-target
    orientation).

    Starts from the intersection; grow-diag repeatedly scans the remaining
    union points in row-major order, adding any point 8-adjacent to a
    current point whose source or target word is still uncovered, until a
    full scan adds nothing; final-and then adds remaining union points whose
    endpoints are both uncovered (one pass reaches the fixpoint, since every
    addition only shrinks the eligible set).
    """
    current = set(forward & reverse)
    union = forward | reverse
    cov_src = {i for i, _ in current}
    cov_tgt = {j for _, j in current}
    changed = True
    while changed:
        changed = False
        for i, j in sorted(union - current):
            if i in cov_src and j in cov_tgt:
                continue
            neighbors = (
                (i - 1, j - 1), (i - 1, j), (i - 1, j + 1),
                (i, j - 1), (i, j + 1),
                (i + 1, j - 1), (i + 1, j), (i + 1, j + 1),
            )
            if any(p in current for p in neighbors):
                current.add((i, j))
                cov_src.add(i)
                cov_tgt.add(j)
                changed = True
    for i, j in sorted(union - current):
        if i not in cov_src and j not in cov_tgt:
            current.add((i, j))
            cov_src.add(i)
            cov_tgt.add(j)
    return current


def write_links(link_sets: Sequence[set[Link]], path) -> None:
    """One sentence per line: space-separated "i-j" pairs, sorted."""
    with atomic_write(path) as fh:
        for links in link_sets:
            fh.write(" ".join(f"{i}-{j}" for i, j in sorted(links)) + "\n")


def read_links(path) -> list[set[Link]]:
    out: list[set[Link]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            links: set[Link] = set()
            for item in line.split():
                left, sep, right = item.partition("-")
                if not sep:
                    raise ValueError(f"{path}: line {lineno}: malformed link {item!r}")
                links.add(
                    (parse_number(int, left, path, lineno), parse_number(int, right, path, lineno))
                )
            out.append(links)
    return out
