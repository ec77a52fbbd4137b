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
lookups on the phrases' word ids. The result is an `InducedTable` per
direction, written straight from its arrays. The dict-based functions
(`candidate_sets`, `word_translation_table`, `lexical_weight`,
`build_phrase_table`, `top1_sample`) compute the same tables entry by entry
and are kept as test oracles; the columnar path must match them exactly.
"""

from __future__ import annotations

import logging
import math
import random
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .corpus import NGramCounts, build_vocabulary
from .embeddings import EmbeddingStore, Neighbors, ScoredCandidates, k_nearest, unit_normalize
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


def phrase_embedding(phrase: Phrase, words: EmbeddingStore) -> np.ndarray:
    """Test oracle: renormalized mean of the phrase's unit word vectors,
    one phrase at a time; `build_phrase_store` computes the same vectors in
    bulk."""
    if not phrase:
        raise ValueError("empty phrase")
    if not words.normalized:
        words = unit_normalize(words)
    missing = [w for w in phrase if w not in words]
    if missing:
        raise ValueError(f"word {missing[0]!r} has no embedding")
    mean = words.vectors[words.indices(phrase)].astype(np.float64).mean(axis=0)
    norm = float(np.sqrt((mean**2).sum()))
    if norm == 0.0:
        raise ValueError(f"zero centroid for phrase {phrase_key(phrase)!r}")
    return (mean / norm).astype(np.float32)


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


def _fit_temperature(
    cos: np.ndarray, gold: np.ndarray, skipped: int, lo: float, hi: float, iterations: int
) -> TemperatureParam:
    """Maximum-likelihood temperature via golden-section search on log tau,
    given each usable pair's candidate cosines (one row each) and the
    cosine of its generated phrase."""
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

    a, b = math.log(lo), math.log(hi)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = nll(c), nll(d)
    for _ in range(iterations):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = nll(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = nll(d)
    return TemperatureParam(math.exp((a + b) / 2.0))


def _fit_to_opposite(
    near: Neighbors, opposite: Neighbors, sample_size: int, seed: int
) -> TemperatureParam:
    """`estimate_temperature(near, top1_sample(opposite))` on arrays.

    Each result's rows must be its query store in order, so that a row
    number of one is a target index of the other.
    """
    generated = np.asarray(_sample_rows(len(opposite), sample_size, seed), dtype=np.int64)
    generator = opposite.idx[generated, 0]
    hit = near.idx[generator] == generated[:, None]
    usable = hit.any(axis=1)
    cos = near.scores[generator]
    return _fit_temperature(
        cos[usable], cos[hit], int(generated.size - usable.sum()), TAU_LO, TAU_HI, TAU_ITERATIONS
    )


def candidate_sets(
    src: EmbeddingStore, tgt: EmbeddingStore, k: int = DEFAULT_CANDIDATES
) -> dict[str, ScoredCandidates]:
    """Test oracle: k nearest target phrases for every source phrase, keyed
    by source."""
    return {r.query: r for r in k_nearest(src, tgt, src.vocab, k)}


def top1_sample(
    cands: dict[str, ScoredCandidates], sample_size: int = DEFAULT_REVERSE_SAMPLE, seed: int = 13
) -> list[tuple[str, str]]:
    """Test oracle: seeded sample of (query, nearest neighbor) pairs from
    candidate sets, the induced dictionary that the opposite direction's
    temperature is fitted against."""
    keys = list(cands)
    return [(keys[i], cands[keys[i]].best()) for i in _sample_rows(len(keys), sample_size, seed)]


def _pair_matrices(
    cands: dict[str, ScoredCandidates], pairs: Sequence[tuple[str, str]]
) -> tuple[np.ndarray, np.ndarray, int]:
    """Cosine rows (padded with -inf), gold scores and the skipped count for
    MLE pairs."""
    rows: list[np.ndarray] = []
    gold: list[float] = []
    skipped = 0
    width = 0
    for generated, generator in pairs:
        cand = cands.get(generator)
        if cand is None:
            skipped += 1
            continue
        scores = {t: s for t, s in cand.candidates}
        if generated not in scores:
            skipped += 1
            continue
        row = np.array([s for _, s in cand.candidates], dtype=np.float64)
        rows.append(row)
        gold.append(scores[generated])
        width = max(width, row.shape[0])
    padded = np.full((len(rows), width), -np.inf)
    for i, row in enumerate(rows):
        padded[i, : row.shape[0]] = row
    return padded, np.array(gold, dtype=np.float64), skipped


def estimate_temperature(
    cands: dict[str, ScoredCandidates],
    reverse_pairs: Sequence[tuple[str, str]],
    lo: float = TAU_LO,
    hi: float = TAU_HI,
    iterations: int = TAU_ITERATIONS,
) -> TemperatureParam:
    """Maximum-likelihood temperature via golden-section search on log tau.

    reverse_pairs are (generated phrase, generating phrase) pairs induced in
    the opposite direction; pairs whose generated phrase is missing from the
    generating phrase's candidate set are skipped with a warning. This is
    the dict form of the fit that `induce_tables` runs on arrays.
    """
    return _fit_temperature(*_pair_matrices(cands, reverse_pairs), lo, hi, iterations)


def word_translation_table(
    cands: dict[str, ScoredCandidates], tau: TemperatureParam, floor: float = PROB_FLOOR
) -> dict[str, dict[str, float]]:
    """Test oracle: word-level softmax translation probabilities over each
    word's candidate set, w(generated | generating)."""
    table: dict[str, dict[str, float]] = {}
    for word, cand in cands.items():
        probs = floored_probs(
            softmax_scores(np.array([s for _, s in cand.candidates]), tau.tau), floor
        )
        table[word] = {t: float(p) for (t, _), p in zip(cand.candidates, probs)}
    return table


def lexical_weight(
    generating: Phrase,
    generated: Phrase,
    table: dict[str, dict[str, float]],
    floor: float = PROB_FLOOR,
) -> float:
    """Test oracle: product over generated words of the best word-level
    probability from any generating word; words no generating word covers
    contribute `floor`."""
    weight = 1.0
    for out_word in generated:
        best = 0.0
        for in_word in generating:
            best = max(best, table.get(in_word, {}).get(out_word, 0.0))
        weight *= best if best > 0.0 else floor
    return weight


_PROB_FIELDS = ("phi_fwd", "phi_bwd", "lex_fwd", "lex_bwd")
# A PhraseTable row: target phrase and its four probabilities.
_Row = tuple[str, float, float, float, float]
# One table line, shared by both table writers so that their bytes agree.
_TABLE_LINE = "%s ||| %s ||| %.6g %.6g %.6g %.6g\n"


@dataclass(frozen=True)
class PhraseTableEntry:
    src: str
    tgt: str
    phi_fwd: float
    phi_bwd: float
    lex_fwd: float
    lex_bwd: float

    def __post_init__(self) -> None:
        for name in _PROB_FIELDS:
            value = getattr(self, name)
            if not (0.0 < value <= 1.0):
                raise ValueError(f"{name}={value} outside (0, 1] for {self.src!r}")


class PhraseTable:
    """Candidate target phrases per source phrase, best phi_fwd first.

    Held as rows, (tgt, phi_fwd, phi_bwd, lex_fwd, lex_bwd) per entry, or
    as the PhraseTableEntry mapping it was built from; each form is built
    from the other on first access. `log_options` is the decoder's view of
    one source phrase, built once per phrase (tables are immutable once
    decoded from).
    """

    def __init__(self, entries: dict[str, Sequence[PhraseTableEntry]]):
        self.entries = entries
        self._max_src: int | None = None
        self._log_options: dict[str, tuple] = {}

    @classmethod
    def _of_rows(cls, rows: dict[str, list[_Row]]) -> "PhraseTable":
        table = cls.__new__(cls)
        table._rows = rows
        table._max_src = None
        table._log_options = {}
        return table

    @cached_property
    def entries(self) -> dict[str, tuple[PhraseTableEntry, ...]]:
        return {
            src: tuple(PhraseTableEntry(src, *row) for row in rows)
            for src, rows in self._rows.items()
        }

    @cached_property
    def _rows(self) -> dict[str, list[_Row]]:
        return {
            src: [(e.tgt, e.phi_fwd, e.phi_bwd, e.lex_fwd, e.lex_bwd) for e in entries]
            for src, entries in self.entries.items()
        }

    def __len__(self) -> int:
        return sum(len(v) for v in self._rows.values())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PhraseTable) and self._rows == other._rows

    def options(self, phrase: Sequence[str]) -> tuple[PhraseTableEntry, ...]:
        return self.entries.get(" ".join(phrase), ())

    def log_options(self, src: str) -> tuple[tuple[str, tuple[str, ...], tuple[float, ...]], ...]:
        """(target phrase, its words, log phi_fwd, phi_bwd, lex_fwd, lex_bwd)
        per entry of source phrase `src`, in table order."""
        hit = self._log_options.get(src)
        if hit is None:
            rows = self._rows.get(src)
            if rows is None:
                return ()
            log = math.log
            hit = self._log_options[src] = tuple(
                (tgt, tuple(tgt.split(" ")), (log(pf), log(pb), log(lf), log(lb)))
                for tgt, pf, pb, lf, lb in rows
            )
        return hit

    def max_source_words(self) -> int:
        """Longest source phrase, in words (tables are immutable once built)."""
        if self._max_src is None:
            self._max_src = max((k.count(" ") + 1 for k in self._rows), default=1)
        return self._max_src

    def write(self, path: str | Path) -> None:
        """One "src ||| tgt ||| phi_fwd phi_bwd lex_fwd lex_bwd" line per
        entry, sources sorted, entries by descending phi_fwd; probabilities
        carry 6 significant digits and round-trip bit-exactly."""
        with atomic_write(path) as fh:
            for src in sorted(self.entries):
                for e in self.entries[src]:
                    fh.write(
                        _TABLE_LINE % (e.src, e.tgt, e.phi_fwd, e.phi_bwd, e.lex_fwd, e.lex_bwd)
                    )

    @classmethod
    def read(cls, path: str | Path) -> "PhraseTable":
        """Parse a table written by `write`; every probability must lie in
        (0, 1]. Errors name the file and line."""
        rows: dict[str, list[_Row]] = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                parts = line.split(" ||| ")
                if len(parts) != 3:
                    if not line.strip():
                        continue
                    raise ValueError(f"{path}: line {lineno}: expected 3 '|||' fields")
                src, tgt, values = parts
                probs = values.split()
                if len(probs) != 4:
                    raise ValueError(f"{path}: line {lineno}: expected 4 probabilities")
                try:
                    pf, pb, lf, lb = map(float, probs)
                except ValueError:
                    raise ValueError(f"{path}: line {lineno}: non-numeric probability") from None
                if not (0.0 < pf <= 1.0 and 0.0 < pb <= 1.0
                        and 0.0 < lf <= 1.0 and 0.0 < lb <= 1.0):
                    for name, value in zip(_PROB_FIELDS, (pf, pb, lf, lb)):
                        if not 0.0 < value <= 1.0:
                            raise ValueError(
                                f"{path}: line {lineno}: {name}={value} outside (0, 1] for {src!r}"
                            )
                row = rows.get(src)
                if row is None:
                    row = rows[src] = []
                row.append((tgt, pf, pb, lf, lb))
        return cls._of_rows(rows)


def build_phrase_table(
    cands: dict[str, ScoredCandidates],
    opposite_cands: dict[str, ScoredCandidates],
    tau: TemperatureParam,
    opposite_tau: TemperatureParam,
    word_table: dict[str, dict[str, float]],
    opposite_word_table: dict[str, dict[str, float]],
    floor: float = PROB_FLOOR,
) -> PhraseTable:
    """Test oracle: one direction's phrase table from both directions'
    candidate sets, entry by entry. Backward probabilities are looked up in
    the opposite direction's softmax map and floored when the reversed pair
    is absent."""
    forward = word_translation_table(cands, tau, floor)
    backward = word_translation_table(opposite_cands, opposite_tau, floor)
    entries: dict[str, tuple[PhraseTableEntry, ...]] = {}
    for src, cand in cands.items():
        src_words = tuple(src.split(" "))
        fwd = forward[src]
        rows = []
        for tgt, _ in cand.candidates:
            tgt_words = tuple(tgt.split(" "))
            rows.append(
                PhraseTableEntry(
                    src,
                    tgt,
                    phi_fwd=fwd[tgt],
                    phi_bwd=backward.get(tgt, {}).get(src, floor),
                    lex_fwd=lexical_weight(src_words, tgt_words, word_table, floor),
                    lex_bwd=lexical_weight(tgt_words, src_words, opposite_word_table, floor),
                )
            )
        rows.sort(key=lambda e: (-e.phi_fwd, e.tgt))
        entries[src] = tuple(rows)
    return PhraseTable(entries)


def _row_probs(near: Neighbors, tau: TemperatureParam, floor: float) -> np.ndarray:
    """Floored softmax over each query's candidates: `word_translation_table`
    on arrays."""
    return floored_probs(softmax_scores(near.scores, tau.tau), floor)


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
# Source phrases per block when computing lexical weights and writing. It
# bounds the temporaries at any table size. Larger blocks leave more freed
# but resident heap behind the stage: at 1,024 rows the peak RSS of the tune
# stage that follows rose by up to 8 MiB on the cipher benchmark.
_ROW_BLOCK = 64


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


def _lexical_weights(
    generating: np.ndarray, generated: np.ndarray, table: _PairTable, floor: float
) -> np.ndarray:
    """`lexical_weight` for broadcast arrays of phrase word ids (..., L),
    with `table` keyed by (generating word, generated word). The product
    runs over generated words left to right, as the oracle's does."""
    best = table.get(generating[..., :, None], generated[..., None, :]).max(axis=-2)
    best = np.where(best > 0.0, best, floor)
    best = np.where(generated == _PAD, 1.0, best)
    weight = best[..., 0]
    for col in range(1, best.shape[-1]):
        weight = weight * best[..., col]
    return weight


class _TableRow(Sequence):
    """One source phrase's entries of an InducedTable, built on access."""

    def __init__(self, src: str, targets: tuple[str, ...], idx: np.ndarray, probs: np.ndarray):
        self.src = src
        self.targets = targets
        self.idx = idx
        self.probs = probs

    def __len__(self) -> int:
        return len(self.idx)

    def __getitem__(self, j: int) -> PhraseTableEntry:
        return PhraseTableEntry(self.src, self.targets[self.idx[j]], *self.probs[j].tolist())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sequence) and tuple(self) == tuple(other)


@dataclass(eq=False)
class InducedTable:
    """One direction's induced phrase table, held as arrays.

    Row i holds source phrase src[i]'s candidates tgt[idx[i, j]] in
    PhraseTable order (descending phi_fwd, then target), and probs[i, j]
    their (phi_fwd, phi_bwd, lex_fwd, lex_bwd). Every probability must lie
    in (0, 1]. `entries` and `options` give the PhraseTable view.
    """

    src: tuple[str, ...]
    tgt: tuple[str, ...]
    idx: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        bad = ~((self.probs > 0.0) & (self.probs <= 1.0))
        if bad.any():
            i, j, f = (int(x) for x in np.argwhere(bad)[0])
            value = float(self.probs[i, j, f])
            raise ValueError(f"{_PROB_FIELDS[f]}={value} outside (0, 1] for {self.src[i]!r}")

    def __len__(self) -> int:
        return self.idx.size

    @cached_property
    def entries(self) -> dict[str, _TableRow]:
        return {
            src: _TableRow(src, self.tgt, self.idx[i], self.probs[i])
            for i, src in enumerate(self.src)
        }

    def options(self, phrase: Sequence[str]) -> Sequence[PhraseTableEntry]:
        return self.entries.get(" ".join(phrase), ())

    def write(self, path: str | Path) -> None:
        """The PhraseTable.write format, straight from the arrays, a block
        of source phrases at a time."""
        order = sorted(range(len(self.src)), key=self.src.__getitem__)
        k = self.idx.shape[1]
        with atomic_write(path) as fh:
            for start in range(0, len(order), _ROW_BLOCK):
                rows = order[start : start + _ROW_BLOCK]
                srcs = [self.src[i] for i in rows for _ in range(k)]
                tgts = [self.tgt[j] for j in self.idx[rows].ravel().tolist()]
                probs = self.probs[rows].reshape(-1, 4).T.tolist()
                fh.writelines([_TABLE_LINE % line for line in zip(srcs, tgts, *probs)])


def _induced_table(
    near: Neighbors,
    phi: np.ndarray,
    opposite_phi: _PairTable,
    src_ids: np.ndarray,
    tgt_ids: np.ndarray,
    words: _PairTable,
    opposite_words: _PairTable,
    tgt_lexrank: np.ndarray,
    floor: float,
) -> InducedTable:
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
        probs[block, :, 1] = np.where(phi_bwd > 0.0, phi_bwd, floor)
        gen = src_ids[block, None, :]
        out = tgt_ids[idx[block]]
        probs[block, :, 2] = _lexical_weights(gen, out, words, floor)
        probs[block, :, 3] = _lexical_weights(out, gen, opposite_words, floor)
    return InducedTable(near.queries, near.targets, idx, probs)


@dataclass
class TableInduction:
    """Both directions' tables and fitted temperatures."""

    table_fwd: InducedTable
    table_rev: InducedTable
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
    floor: float = PROB_FLOOR,
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
    wt_fwd = _PairTable(words_fwd, _row_probs(words_fwd, tau_fwd, floor))
    wt_rev = _PairTable(words_rev, _row_probs(words_rev, tau_rev, floor))
    phi_fwd = _row_probs(fwd, tau_fwd, floor)
    phi_rev = _row_probs(rev, tau_rev, floor)
    src_ids = _phrase_word_ids(src_phrases.vocab, src_words)
    tgt_ids = _phrase_word_ids(tgt_phrases.vocab, tgt_words)
    table_fwd = _induced_table(
        fwd, phi_fwd, _PairTable(rev, phi_rev), src_ids, tgt_ids, wt_fwd, wt_rev,
        tgt_phrases.lexrank(), floor,
    )
    table_rev = _induced_table(
        rev, phi_rev, _PairTable(fwd, phi_fwd), tgt_ids, src_ids, wt_rev, wt_fwd,
        src_phrases.lexrank(), floor,
    )
    return TableInduction(table_fwd, table_rev, tau_fwd, tau_rev)
