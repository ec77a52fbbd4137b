"""Phrase-table induction from cross-lingual phrase embeddings.

The inventory per language is every vocabulary word plus the most frequent
bigrams and trigrams (capped). Each phrase embeds as the renormalized mean
of its unit word vectors. For each source phrase the k nearest target
phrases by cosine form its candidate set, scored with a softmax at a
temperature fitted by maximum likelihood against a top-1 dictionary induced
in the opposite direction. Each table entry carries four probabilities:
softmax scores in both directions plus lexical weights built from a
word-level table the same way (each generated word explained by the
generating-side word most likely to produce it).

`induce_tables` computes all of this on arrays. Each direction's candidate
sets are one `Neighbors` result, an (n, k) matrix of target indices and one
of cosines, and every later step works on whole matrices: row-wise floored
softmaxes give phi_fwd; phi_bwd and the word-level probabilities are looked
up in sorted (row, target) key arrays by binary search; lexical weights are
a max over generating words and a product over generated words of such
lookups on the phrases' word ids. Each direction's result is a
`PhraseTable`, the one table type: held in CSR form (source phrases, the
target-phrase vocabulary, row offsets, target ids and an (N, 4) probability
array), written by the tables stage, parsed by `PhraseTable.read` and
decoded from. Entry-by-entry dict forms of the induction live in
`tests/oracles.py`; the test suite checks that this module matches them
exactly.
"""

from __future__ import annotations

import logging
import math
import random
from array import array
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .corpus import NGramCounts, build_vocabulary
from .embeddings import EmbeddingStore, Neighbors, k_nearest, unit_normalize
from .fileio import atomic_write

log = logging.getLogger(__name__)

Phrase = tuple[str, ...]

DEFAULT_CANDIDATES = 100
DEFAULT_NGRAM_CAP = 400_000
DEFAULT_VOCAB_SIZE = 200_000
DEFAULT_REVERSE_SAMPLE = 10_000
PROB_FLOOR = 1e-7
TAU_LO = 1e-3
TAU_HI = 10.0
TAU_ITERATIONS = 64
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class TemperatureParam:
    """Fitted softmax temperature."""

    tau: float

    def __post_init__(self) -> None:
        if self.tau <= 0:
            raise ValueError(f"temperature must be positive, got {self.tau}")


@dataclass
class PhraseInventory:
    """Phrases (token tuples) with their corpus frequencies."""

    phrases: dict[Phrase, int]

    def __len__(self) -> int:
        return len(self.phrases)


def build_phrase_inventory(
    counts: dict[int, NGramCounts],
    vocab_size: int = DEFAULT_VOCAB_SIZE,
    ngram_cap: int = DEFAULT_NGRAM_CAP,
) -> PhraseInventory:
    """Select the phrase inventory from n-gram counts of orders 1..3.

    Every word of the truncated vocabulary is a phrase; bigrams and trigrams
    are kept up to `ngram_cap` each, most frequent first, ties broken by
    ascending token tuple.
    """
    for order in (1, 2, 3):
        if order not in counts:
            raise ValueError(f"missing n-gram counts for order {order}")
    phrases: dict[Phrase, int] = {}
    for word in build_vocabulary(counts[1], vocab_size):
        phrases[(word,)] = counts[1].counts[(word,)]
    for order in (2, 3):
        ranked = sorted(counts[order].counts.items(), key=lambda kv: (-kv[1], kv[0]))
        for gram, freq in ranked[:ngram_cap]:
            phrases[gram] = freq
    return PhraseInventory(phrases)


def phrase_key(phrase: Phrase) -> str:
    return " ".join(phrase)


def build_phrase_store(inventory: PhraseInventory, words: EmbeddingStore) -> EmbeddingStore:
    """Embed every inventory phrase whose words all have embeddings.

    Phrases with out-of-vocabulary words (or a zero centroid, which cannot
    be normalized) are dropped with a tally in the log. Store order is the
    sorted space-joined phrase key.
    """
    if not words.normalized:
        words = unit_normalize(words)
    kept: list[Phrase] = []
    skipped = 0
    for phrase in inventory.phrases:
        if all(w in words for w in phrase):
            kept.append(phrase)
        else:
            skipped += 1
    if skipped:
        log.info("dropped %d phrases with out-of-vocabulary words", skipped)
    if not kept:
        raise ValueError("no inventory phrase is covered by the word embeddings")
    kept.sort(key=phrase_key)
    vectors = np.empty((len(kept), words.dim), dtype=np.float64)
    for length in sorted({len(p) for p in kept}):
        rows = [i for i, p in enumerate(kept) if len(p) == length]
        idx = np.array([words.indices(kept[i]) for i in rows], dtype=np.int64)
        vectors[rows] = words.vectors[idx].astype(np.float64).mean(axis=1)
    norms = np.sqrt((vectors**2).sum(axis=1))
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        keep_mask = norms > 0.0
        log.warning("dropped %d phrases with zero centroids", int(zero.size))
        kept = [p for p, ok in zip(kept, keep_mask) if ok]
        vectors = vectors[keep_mask]
        norms = norms[keep_mask]
    vectors = (vectors / norms[:, None]).astype(np.float32)
    return EmbeddingStore(tuple(phrase_key(p) for p in kept), vectors, normalized=True)


def word_store(phrases: EmbeddingStore) -> EmbeddingStore:
    """The single-word slice of a phrase store (their vectors are exactly
    the unit word vectors)."""
    keep = [i for i, key in enumerate(phrases.vocab) if " " not in key]
    if not keep:
        raise ValueError("phrase store contains no single-word phrases")
    rows = phrases.vectors[np.array(keep, dtype=np.int64)]
    return EmbeddingStore(tuple(phrases.vocab[i] for i in keep), rows, normalized=True)


def softmax_scores(cosines: np.ndarray, tau: float) -> np.ndarray:
    """Stable softmax of cosines/tau along the last axis (max subtracted
    before exponentiation), so a (n, k) array gives n row softmaxes."""
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    scaled = np.asarray(cosines, dtype=np.float64) / tau
    scaled = scaled - scaled.max(axis=-1, keepdims=True)
    weights = np.exp(scaled)
    return weights / weights.sum(axis=-1, keepdims=True)


def floored_probs(probs: np.ndarray, floor: float = PROB_FLOOR) -> np.ndarray:
    """Clamp probabilities to at least `floor`, then renormalize along the
    last axis.

    Keeps every stored probability strictly positive even when the fitted
    temperature is small enough for the softmax tail to underflow to 0.0,
    while preserving the sum-to-one invariant.
    """
    clamped = np.maximum(probs, floor)
    return clamped / clamped.sum(axis=-1, keepdims=True)


def _sample_rows(n: int, sample_size: int, seed: int) -> Sequence[int]:
    """Ascending row numbers of the seeded top-1 sample out of n rows."""
    if sample_size < n:
        return sorted(random.Random(seed).sample(range(n), sample_size))
    return range(n)


def golden_min(
    fn, lo: float, hi: float, iterations: int
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Golden-section minimization of `fn` over [lo, hi]: the final bracket
    and the best evaluated point with its value. Of the two first points
    the lower one wins ties; a later point replaces the best only when it
    is strictly lower."""
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    best = (c, fc) if fc <= fd else (d, fd)
    for _ in range(iterations):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = fn(c)
            if fc < best[1]:
                best = (c, fc)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = fn(d)
            if fd < best[1]:
                best = (d, fd)
    return (a, b), best


def _fit_temperature(cos: np.ndarray, gold: np.ndarray, skipped: int) -> TemperatureParam:
    """Maximum-likelihood temperature via golden-section search on log tau
    over [TAU_LO, TAU_HI], given each usable pair's candidate cosines (one
    row each) and the cosine of its generated phrase; the fit is the final
    bracket's midpoint."""
    if skipped:
        log.warning("temperature fit: skipped %d pairs outside candidate sets", skipped)
    if not gold.size:
        raise ValueError("no dictionary pair falls inside the candidate sets")

    def nll(log_tau: float) -> float:
        tau = math.exp(log_tau)
        scaled = cos / tau
        top = scaled.max(axis=1)
        lse = top + np.log(np.exp(scaled - top[:, None]).sum(axis=1))
        return float((lse - gold / tau).sum())

    (a, b), _ = golden_min(nll, math.log(TAU_LO), math.log(TAU_HI), TAU_ITERATIONS)
    return TemperatureParam(math.exp((a + b) / 2.0))


def _fit_to_opposite(
    near: Neighbors, opposite: Neighbors, sample_size: int, seed: int
) -> TemperatureParam:
    """The fit of `near`'s temperature against the top-1 sample of
    `opposite`, on arrays (`tests/oracles.py` has the dict form).

    Each result's rows must be its query store in order, so that a row
    number of one is a target index of the other.
    """
    generated = np.asarray(_sample_rows(len(opposite), sample_size, seed), dtype=np.int64)
    generator = opposite.idx[generated, 0]
    hit = near.idx[generator] == generated[:, None]
    usable = hit.any(axis=1)
    cos = near.scores[generator]
    return _fit_temperature(cos[usable], cos[hit], int(generated.size - usable.sum()))


_PROB_FIELDS = ("phi_fwd", "phi_bwd", "lex_fwd", "lex_bwd")
# One table line: source, target and the four probabilities.
_TABLE_LINE = "%s ||| %s ||| %.6g %.6g %.6g %.6g\n"
# Source phrases per block when computing lexical weights and writing. It
# bounds the temporaries at any table size. Larger blocks leave more freed
# but resident heap behind the stage: at 1,024 rows the peak RSS of the tune
# stage that follows rose by up to 8 MiB on the cipher benchmark.
_ROW_BLOCK = 64


class PhraseTableEntry(NamedTuple):
    """One entry of the `PhraseTable.entries` view."""

    src: str
    tgt: str
    phi_fwd: float
    phi_bwd: float
    lex_fwd: float
    lex_bwd: float


def _out_of_range(probs: np.ndarray) -> tuple[int, str] | None:
    """The first entry (row of an (N, 4) array) holding a probability
    outside (0, 1], with a message that names the field and its value."""
    bad = ~((probs > 0.0) & (probs <= 1.0))
    if not bad.any():
        return None
    e, f = (int(x) for x in np.argwhere(bad)[0])
    return e, f"{_PROB_FIELDS[f]}={float(probs[e, f])} outside (0, 1]"


@dataclass(eq=False)
class PhraseTable:
    """Candidate target phrases per source phrase, in CSR form.

    Source phrase src[i] owns entries start[i] to start[i + 1] - 1; entry e
    is target phrase tgt[idx[e]] with probs[e] = (phi_fwd, phi_bwd,
    lex_fwd, lex_bwd), each in (0, 1]. An induced table holds k entries per
    source, best phi_fwd first (ties by target); a read table holds each
    source's lines in file order. Tables are immutable once built:
    `log_options` is the decoder's view of one source phrase, built once
    per phrase, and `entries` a read-only PhraseTableEntry view, built on
    first access.
    """

    src: tuple[str, ...]
    tgt: tuple[str, ...]
    start: np.ndarray
    idx: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        bad = _out_of_range(self.probs)
        if bad is not None:
            e, message = bad
            row = int(np.searchsorted(self.start, e, side="right")) - 1
            raise ValueError(f"{message} for {self.src[row]!r}")
        self._row = dict(zip(self.src, range(len(self.src))))
        self._max_src = max((s.count(" ") + 1 for s in self.src), default=1)
        self._log_options: dict[str, tuple] = {}

    def __len__(self) -> int:
        return len(self.idx)

    @cached_property
    def entries(self) -> Mapping[str, tuple[PhraseTableEntry, ...]]:
        """Each source phrase's entries, in table order."""
        start = self.start.tolist()
        srcs = [src for i, src in enumerate(self.src) for _ in range(start[i], start[i + 1])]
        tgts = [self.tgt[j] for j in self.idx.tolist()]
        entries = list(map(PhraseTableEntry._make, zip(srcs, tgts, *self.probs.T.tolist())))
        return MappingProxyType(
            {src: tuple(entries[start[i] : start[i + 1]]) for i, src in enumerate(self.src)}
        )

    def log_options(self, src: str) -> tuple[tuple[str, tuple[str, ...], tuple[float, ...]], ...]:
        """(target phrase, its words, log phi_fwd, phi_bwd, lex_fwd, lex_bwd)
        per entry of source phrase `src`, in table order."""
        hit = self._log_options.get(src)
        if hit is None:
            row = self._row.get(src)
            if row is None:
                return ()
            a, b = self.start[row : row + 2].tolist()
            log = math.log
            tgt = self.tgt
            hit = self._log_options[src] = tuple([
                (tgt[j], tuple(tgt[j].split(" ")), (log(pf), log(pb), log(lf), log(lb)))
                for j, (pf, pb, lf, lb) in zip(self.idx[a:b].tolist(), self.probs[a:b].tolist())
            ])
        return hit

    def max_source_words(self) -> int:
        """Longest source phrase, in words."""
        return self._max_src

    def write(self, path: str | Path) -> None:
        """One "src ||| tgt ||| phi_fwd phi_bwd lex_fwd lex_bwd" line per
        entry, sources sorted, each source's entries in table order;
        probabilities carry 6 significant digits and round-trip bit-exactly.
        Lines are formatted a block of sources at a time."""
        order = sorted(range(len(self.src)), key=self.src.__getitem__)
        start = self.start.tolist()
        with atomic_write(path) as fh:
            for first in range(0, len(order), _ROW_BLOCK):
                rows = order[first : first + _ROW_BLOCK]
                at = [e for i in rows for e in range(start[i], start[i + 1])]
                srcs = [self.src[i] for i in rows for _ in range(start[i], start[i + 1])]
                tgts = [self.tgt[j] for j in self.idx[at].tolist()]
                probs = self.probs[at].T.tolist()
                fh.writelines([_TABLE_LINE % line for line in zip(srcs, tgts, *probs)])

    @classmethod
    def read(cls, path: str | Path) -> "PhraseTable":
        """Parse a table written by `write`; every probability must lie in
        (0, 1]. A source's lines need not be adjacent: its entries keep
        their file order. Errors name the file and line."""
        srcs: list[str] = []
        tgts: list[str] = []
        lines: list[int] = []
        # A flat C array: parsing holds no float object per value.
        probs = array("d")
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                parts = line.split(" ||| ")
                if len(parts) != 3:
                    if not line.strip():
                        continue
                    raise ValueError(f"{path}: line {lineno}: expected 3 '|||' fields")
                src, tgt, rest = parts
                fields = rest.split()
                if len(fields) != 4:
                    raise ValueError(f"{path}: line {lineno}: expected 4 probabilities")
                try:
                    probs.extend(map(float, fields))
                except ValueError:
                    raise ValueError(f"{path}: line {lineno}: non-numeric probability") from None
                srcs.append(src)
                tgts.append(tgt)
                lines.append(lineno)
        values = np.frombuffer(probs, dtype=np.float64).reshape(-1, 4)
        bad = _out_of_range(values)
        if bad is not None:
            e, message = bad
            raise ValueError(f"{path}: line {lines[e]}: {message} for {srcs[e]!r}")
        src, row = _intern(srcs)
        tgt, idx = _intern(tgts)
        order = np.argsort(row, kind="stable")
        start = np.zeros(len(src) + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=len(src)), out=start[1:])
        return cls(src, tgt, start, idx[order], values[order])


def _intern(items: list[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct items in first-seen order, and each item's index among
    them."""
    index = {item: i for i, item in enumerate(dict.fromkeys(items))}
    return tuple(index), np.fromiter(map(index.__getitem__, items), np.int64, len(items))


def _row_probs(near: Neighbors, tau: TemperatureParam) -> np.ndarray:
    """Floored softmax over each query's candidates."""
    return floored_probs(softmax_scores(near.scores, tau.tau), PROB_FLOOR)


class _PairTable:
    """Values keyed by (query row, target index) of a Neighbors result, as
    sorted int64 keys for vectorized binary-search lookup."""

    def __init__(self, near: Neighbors, values: np.ndarray):
        self.width = len(near.targets)
        keys = (np.arange(len(near), dtype=np.int64)[:, None] * self.width + near.idx).ravel()
        order = np.argsort(keys)
        self.keys = keys[order]
        self.values = values.ravel()[order]

    def get(self, row: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Values at the broadcast (row, target) index pairs; absent pairs
        and negative indices read 0.0."""
        key = row * self.width + target
        pos = np.minimum(np.searchsorted(self.keys, key), self.keys.size - 1)
        found = (self.keys[pos] == key) & (row >= 0) & (target >= 0)
        return np.where(found, self.values[pos], 0.0)


# Word ids of a phrase that the word store lacks, and past the phrase's end.
_ABSENT = -1
_PAD = -2


def _phrase_word_ids(phrases: Sequence[str], words: EmbeddingStore) -> np.ndarray:
    """(n, longest phrase) indices into `words` of each phrase's words,
    _ABSENT for a word the store lacks and _PAD past the phrase's end."""
    index = dict(zip(words.vocab, range(len(words))))
    split = [p.split(" ") for p in phrases]
    width = max(map(len, split))
    return np.array(
        [[index.get(w, _ABSENT) for w in ws] + [_PAD] * (width - len(ws)) for ws in split],
        dtype=np.int64,
    )


def _lexical_weights(generating: np.ndarray, generated: np.ndarray, table: _PairTable) -> np.ndarray:
    """Lexical weights for broadcast arrays of phrase word ids (..., L),
    with `table` keyed by (generating word, generated word): per generated
    word the best probability from any generating word (the floor if none
    covers it), multiplied over generated words left to right."""
    best = table.get(generating[..., :, None], generated[..., None, :]).max(axis=-2)
    best = np.where(best > 0.0, best, PROB_FLOOR)
    best = np.where(generated == _PAD, 1.0, best)
    weight = best[..., 0]
    for col in range(1, best.shape[-1]):
        weight = weight * best[..., col]
    return weight


def _induced_table(
    near: Neighbors,
    phi: np.ndarray,
    opposite_phi: _PairTable,
    src_ids: np.ndarray,
    tgt_ids: np.ndarray,
    words: _PairTable,
    opposite_words: _PairTable,
    tgt_lexrank: np.ndarray,
) -> PhraseTable:
    """One direction's table from its candidates and forward
    probabilities `phi`, the opposite direction's phrase and word
    probabilities, and both sides' phrase word ids. Rows are put in table
    order first; the other probabilities are then filled in by row blocks,
    so the (rows, k, L, L) lookups stay small."""
    order = np.lexsort((tgt_lexrank[near.idx], -phi), axis=1)
    idx = np.take_along_axis(near.idx, order, axis=1)
    probs = np.empty(idx.shape + (4,), dtype=np.float64)
    probs[..., 0] = np.take_along_axis(phi, order, axis=1)
    rows = np.arange(len(idx), dtype=np.int64)[:, None]
    for start in range(0, len(idx), _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        phi_bwd = opposite_phi.get(idx[block], rows[block])
        probs[block, :, 1] = np.where(phi_bwd > 0.0, phi_bwd, PROB_FLOOR)
        gen = src_ids[block, None, :]
        out = tgt_ids[idx[block]]
        probs[block, :, 2] = _lexical_weights(gen, out, words)
        probs[block, :, 3] = _lexical_weights(out, gen, opposite_words)
    n, k = idx.shape
    return PhraseTable(
        near.queries, near.targets, k * np.arange(n + 1), idx.ravel(), probs.reshape(-1, 4)
    )


@dataclass
class TableInduction:
    """Both directions' tables and fitted temperatures."""

    table_fwd: PhraseTable
    table_rev: PhraseTable
    tau_fwd: TemperatureParam
    tau_rev: TemperatureParam


def induce_tables(
    src_phrases: EmbeddingStore,
    tgt_phrases: EmbeddingStore,
    src_words: EmbeddingStore,
    tgt_words: EmbeddingStore,
    k: int = DEFAULT_CANDIDATES,
    reverse_sample: int = DEFAULT_REVERSE_SAMPLE,
    seed: int = 13,
) -> TableInduction:
    """Run the full two-direction induction: candidate sets, temperature
    fits, word-level tables, and both phrase tables."""
    fwd = k_nearest(src_phrases, tgt_phrases, src_phrases.vocab, k)
    rev = k_nearest(tgt_phrases, src_phrases, tgt_phrases.vocab, k)
    tau_fwd = _fit_to_opposite(fwd, rev, reverse_sample, seed)
    tau_rev = _fit_to_opposite(rev, fwd, reverse_sample, seed)
    word_k = min(k, len(tgt_words), len(src_words))
    words_fwd = k_nearest(src_words, tgt_words, src_words.vocab, word_k)
    words_rev = k_nearest(tgt_words, src_words, tgt_words.vocab, word_k)
    wt_fwd = _PairTable(words_fwd, _row_probs(words_fwd, tau_fwd))
    wt_rev = _PairTable(words_rev, _row_probs(words_rev, tau_rev))
    phi_fwd = _row_probs(fwd, tau_fwd)
    phi_rev = _row_probs(rev, tau_rev)
    src_ids = _phrase_word_ids(src_phrases.vocab, src_words)
    tgt_ids = _phrase_word_ids(tgt_phrases.vocab, tgt_words)
    table_fwd = _induced_table(
        fwd, phi_fwd, _PairTable(rev, phi_rev), src_ids, tgt_ids, wt_fwd, wt_rev,
        tgt_phrases.lexrank(),
    )
    table_rev = _induced_table(
        rev, phi_rev, _PairTable(fwd, phi_fwd), tgt_ids, src_ids, wt_rev, wt_fwd,
        src_phrases.lexrank(),
    )
    return TableInduction(table_fwd, table_rev, tau_fwd, tau_rev)
