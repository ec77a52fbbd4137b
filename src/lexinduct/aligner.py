"""Word alignment: IBM-2 expectation maximization with a log-linear
diagonal position prior, Viterbi link extraction, and grow-diag-final-and
symmetrization.

Each target position j (1-based, sentence lengths m source / n target)
aligns to the null word with probability p0 or to source position i with
probability (1 - p0) * exp(-lambda * |i/m - j/n|), renormalized over the
source positions of that target position. EM re-estimates the word
translation table in closed form and improves lambda with a few projected
gradient steps on the expected complete-data log likelihood, which keeps
the data log likelihood monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .fileio import atomic_write

NULL_WORD = "<null>"

Link = tuple[int, int]

DEFAULT_ITERATIONS = 5
DEFAULT_TENSION = 4.0
DEFAULT_NULL_PROB = 0.08
DEFAULT_GRAD_STEPS = 8


@dataclass
class AlignmentModel:
    """Word translation table plus the fitted diagonal tension."""

    translation: dict[str, dict[str, float]]
    diagonal_tension: float
    null_prob: float
    log_likelihoods: tuple[float, ...] = ()

    def row(self, word: str) -> dict[str, float]:
        return self.translation.get(word, {})


def _distance_matrix(m: int, n: int) -> np.ndarray:
    i = np.arange(1, m + 1, dtype=np.float64)[:, None] / m
    j = np.arange(1, n + 1, dtype=np.float64)[None, :] / n
    return np.abs(i - j)


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
    pairs: Sequence[tuple[Sequence[str], Sequence[str]]],
    iterations: int = DEFAULT_ITERATIONS,
    tension: float = DEFAULT_TENSION,
    null_prob: float = DEFAULT_NULL_PROB,
    grad_steps: int = DEFAULT_GRAD_STEPS,
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
    corpus = [(tuple(s), tuple(t)) for s, t in pairs]

    # Uniform initialization over co-occurring words; the null word co-occurs
    # with every target word.
    support: dict[str, set[str]] = {NULL_WORD: set()}
    for src, tgt in corpus:
        support[NULL_WORD].update(tgt)
        for e in src:
            support.setdefault(e, set()).update(tgt)
    table: dict[str, dict[str, float]] = {
        e: {f: 1.0 / len(fs) for f in sorted(fs)} for e, fs in support.items() if fs
    }

    dmats: dict[tuple[int, int], np.ndarray] = {}
    lam = float(tension)
    history: list[float] = []

    for _ in range(iterations):
        counts: dict[str, dict[str, float]] = {}
        a_total = 0.0
        shape_mass: dict[tuple[int, int], np.ndarray] = {}
        priors: dict[tuple[int, int], np.ndarray] = {}
        ll = 0.0
        for src, tgt in corpus:
            m, n = len(src), len(tgt)
            if n == 0:
                continue
            key = (m, n)
            if key not in dmats:
                dmats[key] = _distance_matrix(m, n)
            if key not in priors:
                if m:
                    priors[key] = _prior(m, n, lam, null_prob, dmats[key])
                else:
                    priors[key] = np.ones((1, n), dtype=np.float64)
            prior = priors[key]
            t_mat = np.empty((m + 1, n), dtype=np.float64)
            rows = [table[NULL_WORD]] + [table[e] for e in src]
            for r, row in enumerate(rows):
                t_mat[r] = [row.get(f, 0.0) for f in tgt]
            joint = prior * t_mat
            z = joint.sum(axis=0)
            ll += float(np.log(z).sum())
            gamma = joint / z
            words = (NULL_WORD,) + src
            for r, e in enumerate(words):
                ce = counts.setdefault(e, {})
                row = gamma[r]
                for c, f in enumerate(tgt):
                    ce[f] = ce.get(f, 0.0) + row[c]
            if m:
                a_total += float((gamma[1:] * dmats[key]).sum())
                mass = gamma[1:].sum(axis=0)
                if key in shape_mass:
                    shape_mass[key] += mass
                else:
                    shape_mass[key] = mass.copy()
        history.append(ll)

        table = {
            e: {f: c / total for f, c in sorted(row.items())}
            for e, row in counts.items()
            if (total := sum(row.values())) > 0.0
        }
        lam = _update_tension(lam, a_total, shape_mass, dmats, grad_steps)

    return AlignmentModel(table, lam, null_prob, tuple(history))


def _tension_objective(
    lam: float,
    a_total: float,
    shape_mass: dict[tuple[int, int], np.ndarray],
    dmats: dict[tuple[int, int], np.ndarray],
) -> tuple[float, float]:
    """Expected complete-data log likelihood in lambda (up to constants) and
    its gradient."""
    q = -lam * a_total
    grad = -a_total
    for key, mass in shape_mass.items():
        d = dmats[key]
        w = np.exp(-lam * d)
        z = w.sum(axis=0)
        q += float((mass * -np.log(z)).sum())
        grad += float((mass * (w * d).sum(axis=0) / z).sum())
    return q, grad


def _update_tension(
    lam: float,
    a_total: float,
    shape_mass: dict[tuple[int, int], np.ndarray],
    dmats: dict[tuple[int, int], np.ndarray],
    grad_steps: int,
) -> float:
    """Projected gradient ascent on the tension: fixed step budget, step
    halved on non-improvement, lambda clamped at zero.

    A step whose objective or gradient is not finite is rejected like a
    non-improving one: past the point where exp(-lambda * d) underflows for
    a whole column the objective reads +inf, which is no improvement.
    """
    if not shape_mass:
        return lam
    step = 1.0
    q_cur, g_cur = _tension_objective(lam, a_total, shape_mass, dmats)
    for _ in range(grad_steps):
        cand = max(0.0, lam + step * g_cur)
        with np.errstate(divide="ignore", invalid="ignore"):
            q_cand, g_cand = _tension_objective(cand, a_total, shape_mass, dmats)
        if math.isfinite(q_cand) and math.isfinite(g_cand) and q_cand > q_cur:
            lam, q_cur, g_cur = cand, q_cand, g_cand
        else:
            step *= 0.5
    return lam


def viterbi_align(
    model: AlignmentModel, src: Sequence[str], tgt: Sequence[str]
) -> set[Link]:
    """Best source link per target word; a null-best word gets no link.

    The null hypothesis is scanned first and real sources in ascending
    order, each replacing the incumbent only on a strictly better score, so
    ties resolve to null and then to the smaller source index.
    """
    m, n = len(src), len(tgt)
    links: set[Link] = set()
    if m == 0 or n == 0:
        return links
    prior = _prior(m, n, model.diagonal_tension, model.null_prob, _distance_matrix(m, n))
    null_row = model.row(NULL_WORD)
    for j, f in enumerate(tgt):
        best_score = prior[0, j] * null_row.get(f, 0.0)
        best_i = -1
        for i, e in enumerate(src):
            score = prior[i + 1, j] * model.row(e).get(f, 0.0)
            if score > best_score:
                best_score = score
                best_i = i
        if best_i >= 0:
            links.add((best_i, j))
    return links


def align_corpus(
    model: AlignmentModel, pairs: Iterable[tuple[Sequence[str], Sequence[str]]]
) -> list[set[Link]]:
    return [viterbi_align(model, s, t) for s, t in pairs]


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
                links.add((int(left), int(right)))
            out.append(links)
    return out
