"""Interpolated Kneser-Ney n-gram language model with a fixed discount.

Every order discounts the same absolute amount D from each observed count
and redistributes it through interpolation with the next-lower order; the
base case interpolates with the uniform distribution over the prediction
vocabulary, which is where the unknown symbol receives its leftover mass.
All log values are natural logs.

Sentences are padded with order - 1 begin symbols and one end symbol; the
begin symbol is context only and is never predicted, so conditional
distributions over vocab + {end, unk} sum to one. Because of the padding
every n-gram below the top order is the suffix of one at the next order
up, so each lower order's continuation counts (distinct predecessors)
count the n-grams of the order above by their suffix, as lmplz does
(Heafield et al. 2013), and the lower-order probability an n-gram
interpolates with is its suffix's stored entry.

Training works on integer arrays. Tokens become ids in string order, the
reserved symbols included, so sorting id tuples sorts the n-grams exactly
as Python sorts string tuples: the sorted rows of each order are the
order in which `save_lm` writes them, and no keyed sort is needed. Logs
and exps go through `math` one value at a time, because numpy's `log` and
`exp` differ from libm's in the last bit for some inputs; the arithmetic
between them is numpy's, which rounds exactly like Python's floats.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .fileio import atomic_write, parse_number

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"
RESERVED = (BOS, EOS, UNK)

FORMAT_TAG = "lexinduct-lm"
FORMAT_VERSION = 1

NGram = tuple[str, ...]


@dataclass
class NGramModel:
    """Probability and backoff tables queried ARPA-style.

    logprob maps an observed n-gram to log p(last | rest); backoff maps an
    observed context to its log backoff weight. An n-gram absent at one
    order scores as backoff(context) + score at the next-shorter context,
    bottoming out at log_unseen for unseen unigrams. `vocab` is derived
    here: the unigram keys plus the unknown symbol, sorted.

    Scoring goes through `step`, a KenLM-style state transition (Heafield
    2011). A state stands for the longest suffix of the context that is a
    prefix of a logprob key or of a backoff key (the set is prefix-closed),
    since a longer context adds only zero backoffs to any score. States are
    small ints; `transitions[state]` memoises `step` per vocabulary word as
    (log p(word | state), next state), so the memo is bounded by the model,
    not by how much text was scored. Both are filled lazily on first use.
    """

    order: int
    discount: float
    logprob: dict[NGram, float]
    backoff: dict[NGram, float]
    log_unseen: float
    vocab: tuple[str, ...] = field(init=False)
    transitions: list[dict[str, tuple[float, int]]] = field(
        default_factory=list, repr=False, compare=False
    )
    _grams: list[NGram] = field(default_factory=list, repr=False, compare=False)
    _ids: dict[NGram, int] = field(default_factory=dict, repr=False, compare=False)
    # Every key of both tables in file order, when `train_lm` built the
    # model; `save_lm` sorts the keys of any other model itself.
    _file_order: list[NGram] = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.vocab = tuple(sorted({g[0] for g in self.logprob if len(g) == 1} | {UNK}))

    def normalize_token(self, token: str) -> str:
        """Map out-of-vocabulary tokens to the unknown symbol."""
        return token if (token,) in self.logprob else UNK

    @cached_property
    def _contexts(self) -> frozenset[NGram]:
        """The prefix-closed set of contexts that can change a score."""
        closed = {()}
        for gram in itertools.chain(self.backoff, (g[:-1] for g in self.logprob)):
            while gram not in closed:
                closed.add(gram)
                gram = gram[:-1]
        return frozenset(closed)

    @cached_property
    def step_bound(self) -> float:
        """An upper bound on every `step` score. A score is a log
        probability (or log_unseen) plus at most order - 1 backoff weights,
        each the largest weight or 0 for an absent one, added in
        `_transition`'s order, so rounding cannot take a score above it."""
        bound = max(self.logprob.values(), default=self.log_unseen)
        bound = max(bound, self.log_unseen)
        weight = max(self.backoff.values(), default=0.0)
        if weight > 0:
            for _ in range(self.order - 1):
                bound = weight + bound
        return bound

    def _state(self, context: NGram) -> int:
        """The state of a context of at most order - 1 tokens."""
        contexts = self._contexts
        while context not in contexts:
            context = context[1:]
        state = self._ids.get(context)
        if state is None:
            state = self._ids[context] = len(self._grams)
            self._grams.append(context)
            self.transitions.append({})
        return state

    def _transition(self, state: int, word: str) -> tuple[float, int]:
        """`step` for a normalized word. The score is the longest observed
        n-gram's log probability plus the backoffs of the longer contexts,
        added right-nested (innermost first) like the ARPA recursion."""
        context = self._grams[state]
        backoffs = []
        rest = context
        while True:
            value = self.logprob.get(rest + (word,))
            if value is not None:
                break
            if not rest:
                value = self.log_unseen
                break
            backoffs.append(self.backoff.get(rest, 0.0))
            rest = rest[1:]
        for weight in reversed(backoffs):
            value = weight + value
        keep = self.order - 1
        shifted = (context + (word,))[max(0, len(context) + 1 - keep) :] if keep else ()
        return value, self._state(shifted)

    def initial_state(self) -> int:
        """The begin-of-sentence state."""
        return self._state(self.initial_context())

    def step(self, state: int, word: str) -> tuple[float, int]:
        """(log p(word | state), the state after word); word is
        vocabulary-normalized here."""
        row = self.transitions[state]
        hit = row.get(word)
        if hit is None:
            word = self.normalize_token(word)
            hit = row.get(word)
            if hit is None:
                hit = row[word] = self._transition(state, word)
        return hit

    def initial_context(self) -> NGram:
        """The begin-of-sentence context: order - 1 begin symbols."""
        return (BOS,) * (self.order - 1)

    def log_prob(self, sentence: Sequence[str]) -> float:
        """Natural-log probability of the sentence including the end symbol."""
        total = 0.0
        state = self.initial_state()
        for token in sentence:
            value, state = self.step(state, token)
            total += value
        return total + self.step(state, EOS)[0]


def train_lm(corpus: Iterable[Sequence[str]], order: int = 5, discount: float = 0.75) -> NGramModel:
    """Estimate the model from a tokenized corpus.

    The padded sentences become one id array. For each order n, the
    distinct n-token tuples that are n-grams or contexts of the order above
    are numbered in sorted order, each coded by its first id and its tail's
    number one order down; counts, context groups, backoffs and suffix
    probabilities are array operations over those numbers. The tables are
    then keyed by string tuples, each built from its first token and its
    tail's tuple, and the numbering is kept as the model's file order.

    Raises on an empty corpus, a non-positive order, a discount outside
    (0, 1), or training tokens that collide with the reserved symbols.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not (0.0 < discount < 1.0):
        raise ValueError(f"discount must lie in (0, 1), got {discount}")
    tokens: list[str] = []
    ends: list[int] = []
    for sentence in corpus:
        tokens.extend(sentence)
        ends.append(len(tokens))
    if not ends:
        raise ValueError("empty training corpus")
    types = set(tokens)
    for symbol in RESERVED:
        if symbol in types:
            raise ValueError(f"training token collides with reserved symbol {symbol!r}")
    words = sorted(types | {BOS, EOS})
    index = {w: i for i, w in enumerate(words)}
    bos = index[BOS]

    # The padded sentences as one id array; sentence i's first token lands
    # at its flat offset plus shift[i].
    end = np.array(ends)
    shift = order * np.arange(len(ends)) + order - 1
    padded = np.full(len(tokens) + order * len(ends), bos, dtype=np.int64)
    padded[np.arange(len(tokens)) + np.repeat(shift, np.diff(end, prepend=0))] = np.fromiter(
        map(index.__getitem__, tokens), np.int64, len(tokens)
    )
    padded[end + shift] = index[EOS]
    del tokens

    # The n-grams of every order end on a token or an end symbol; the
    # contexts of the order above end one position earlier. Level n numbers
    # the distinct n-token tuples of both kinds in sorted order by coding
    # each as first id * (size of level n - 1) + its tail's number there.
    is_gram = padded != bos
    is_end = is_gram.copy()
    is_end[:-1] |= is_gram[1:]
    end_pos = np.flatnonzero(is_end)
    gram_at = np.flatnonzero(is_gram[end_pos])
    codes: list[np.ndarray] = []
    # Per level, the tuple at each end position (at the top, each gram's).
    ranks: list[np.ndarray] = []
    for n in range(1, order + 1):
        top = n == order
        code = padded[(end_pos[gram_at] if top else end_pos) - n + 1]
        if ranks:
            code = code * len(codes[-1]) + (ranks[-1][gram_at] if top else ranks[-1])
        uniq, rank = np.unique(code, return_inverse=True)
        codes.append(uniq)
        ranks.append(rank)

    # Adjusted counts, 0 for tuples that are contexts only: raw at the top,
    # below it the number of distinct n-grams of the order above that have
    # the tuple as suffix (Heafield et al. 2013).
    counts = [np.bincount(ranks[-1], minlength=len(codes[-1]))]
    for n in range(order - 1, 0, -1):
        above = codes[n][counts[0] > 0]
        counts.insert(0, np.bincount(above % len(codes[n - 1]), minlength=len(codes[n - 1])))

    logprob: dict[NGram, float] = {}
    backoff: dict[NGram, float] = {}
    file_order: list[NGram] = []
    keys: list[NGram] = []
    for n in range(1, order + 1):
        below, size = keys, len(keys)
        if n == 1:
            keys = [(w,) for w in map(words.__getitem__, codes[0].tolist())]
        else:
            firsts = (codes[n - 1] // size).tolist()
            tails = (codes[n - 1] % size).tolist()
            keys = [(words[w],) + below[t] for w, t in zip(firsts, tails)]
        file_order += keys
        grams = np.flatnonzero(counts[n - 1])
        c = counts[n - 1][grams]
        if n == 1:
            cc_total = int(c.sum())
            # The predicted words and the unknown symbol, which training never sees.
            uniform = 1.0 / (len(c) + 1)
            base_bow = discount * len(c) / cc_total
            log_unseen = math.log(base_bow * uniform)
            p = (c - discount) / cc_total + base_bow * uniform
        else:
            # Each n-gram's context, as a tuple of the level below; in sorted
            # order the n-grams of one context are contiguous.
            context = np.empty(len(keys), dtype=np.intp)
            context[ranks[n - 1] if n == order else ranks[n - 1][gram_at]] = ranks[n - 2][gram_at - 1]
            context = context[grams]
            starts = np.flatnonzero(np.r_[True, context[1:] != context[:-1]])
            successors = np.diff(starts, append=len(grams))
            totals = np.add.reduceat(c, starts)
            bows = discount * successors / totals
            lower = exps[codes[n - 1][grams] % size]
            p = (c - discount) / np.repeat(totals, successors) + np.repeat(bows, successors) * lower
            backoff.update(zip(map(below.__getitem__, context[starts].tolist()), map(math.log, bows.tolist())))
        probs = list(map(math.log, p.tolist()))
        logprob.update(zip(map(keys.__getitem__, grams.tolist()), probs))
        if n < order:
            exps = np.zeros(len(keys))
            exps[grams] = list(map(math.exp, probs))

    return NGramModel(order, discount, logprob, backoff, log_unseen, _file_order=file_order)


def perplexity(model: NGramModel, corpus: Iterable[Sequence[str]]) -> float:
    """exp of the mean per-token negative log probability (end symbols count
    as tokens)."""
    total = 0.0
    tokens = 0
    for sent in corpus:
        total += model.log_prob(sent)
        tokens += len(sent) + 1
    if tokens == 0:
        raise ValueError("empty corpus")
    return math.exp(-total / tokens)


def save_lm(model: NGramModel, path: str | Path) -> None:
    """Versioned text serialization.

    Header: format tag + version, order, discount, and the unseen-unigram
    log probability. Then one line per table entry, orders ascending and
    n-grams sorted: "logp<TAB>ngram<TAB>backoff", with "-" where an entry
    has no probability (context-only rows) or no backoff weight. Values
    round-trip to 9 decimal places.

    A trained model carries its file order from training; any other model
    has its keys sorted here.
    """
    keys = model._file_order or sorted(sorted(model.logprob.keys() | model.backoff.keys()), key=len)
    logprob, backoff = model.logprob.get, model.backoff.get
    with atomic_write(path) as fh:
        fh.write(f"{FORMAT_TAG} {FORMAT_VERSION}\n")
        fh.write(f"order {model.order}\n")
        fh.write(f"discount {model.discount!r}\n")
        fh.write(f"unseen {model.log_unseen:.9f}\n")
        for gram in keys:
            lp, bo = logprob(gram), backoff(gram)
            lp = "-" if lp is None else f"{lp:.9f}"
            bo = "-" if bo is None else f"{bo:.9f}"
            fh.write(f"{lp}\t{' '.join(gram)}\t{bo}\n")


def load_lm(path: str | Path) -> NGramModel:
    """Parse a file written by `save_lm`; a malformed header or entry
    raises ValueError naming the file and line.

    Tokens are shared: as in a trained model, every key holds one `str`
    object per vocabulary word, so the model keeps one copy of each token.
    Entries are parsed in bulk, a block of lines at a time: one `split`
    into fields and tokens, a slice per column of each run of equal-order
    n-grams, a dict that maps each token to its first copy, and `float`
    over the values. Only a malformed file is read again line by line, to
    name the line.
    """
    with open(path, encoding="utf-8") as fh:
        head = fh.readline().split()
        if len(head) != 2 or head[0] != FORMAT_TAG:
            raise ValueError(f"{path}: not a {FORMAT_TAG} file")
        if head[1] != str(FORMAT_VERSION):
            raise ValueError(f"{path}: unsupported version {head[1]}")
        header = []
        for lineno, (name, convert) in enumerate(
            (("order", int), ("discount", float), ("unseen", float)), 2
        ):
            parts = fh.readline().split()
            if len(parts) != 2 or parts[0] != name:
                raise ValueError(f"{path}: line {lineno}: expected '{name} <value>'")
            header.append(parse_number(convert, parts[1], path, lineno))
        if header[0] < 1:
            raise ValueError(f"{path}: line 2: order must be >= 1, got {header[0]}")
        logprob: dict[NGram, float] = {}
        backoff: dict[NGram, float] = {}
        shared: dict[str, str] = {}
        try:
            for block in iter(functools.partial(fh.readlines, _BLOCK_BYTES), []):
                _parse_block(block, shared, logprob, backoff)
        except ValueError:
            _raise_at_bad_line(path)
            raise
    return NGramModel(header[0], header[1], logprob, backoff, header[2])


# Bytes of lm.txt that `load_lm` parses at once: enough lines that the
# per-block calls cost little, few enough that the block's temporary lists
# stay small next to the model (and cheap for the garbage collector). On a
# 3.5 MB lm.txt, 4 KiB blocks load no faster, and 64 KiB blocks load 6%
# slower and hold 1.0 MiB of temporaries against 0.3 MiB (BENCH_15.json).
_BLOCK_BYTES = 1 << 14
# Every byte but tab, newline and space, which delimit fields and tokens.
_NOT_DELIMITERS = bytes(sorted(set(range(256)) - {9, 10, 32}))


def _parse_block(
    lines: list[str],
    shared: dict[str, str],
    logprob: dict[NGram, float],
    backoff: dict[NGram, float],
) -> None:
    """Add the entries of `lines` to the tables, each token replaced by its
    copy in `shared` (added there if new); ValueError, naming no line, on a
    malformed entry.

    The tabs and spaces of a line are its shape: a tab, one space per
    token after the first and a tab, if the line is well formed. Lines of
    equal shape come in runs, as `save_lm` writes the orders ascending, so
    a block holds one run or a few, and each run is a table of cells with
    one column per field and per token.
    """
    lines = list(filter(str.strip, lines))
    if not lines:
        return
    text = "".join(lines)
    shapes = text.encode().translate(None, _NOT_DELIMITERS).split(b"\n")
    del shapes[len(lines) :]
    cells = text.replace("\n", "\t").replace(" ", "\t").split("\t")
    start = 0
    for shape, run in itertools.groupby(shapes):
        # A line of n tokens is n + 2 cells: logp, the tokens, backoff.
        width = len(shape) + 1
        if shape != b"\t" + b" " * (width - 3) + b"\t":
            raise ValueError("an entry without 3 tab fields")
        end = start + width * len(list(run))
        columns = [cells[i:end:width] for i in range(start + 1, start + width - 1)]
        keys = list(zip(*[map(shared.setdefault, tokens, tokens) for tokens in columns]))
        for table, values in (
            (logprob, cells[start:end:width]),
            (backoff, cells[start + width - 1 : end : width]),
        ):
            present = list(map("-".__ne__, values))
            floats = map(float, itertools.compress(values, present))
            table.update(zip(itertools.compress(keys, present), floats))
        start = end


def _raise_at_bad_line(path: str | Path) -> None:
    """Raise ValueError naming the first malformed entry of the file."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if lineno <= 4 or not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}: line {lineno}: expected 3 tab fields")
            for text in (parts[0], parts[2]):
                if text != "-":
                    parse_number(float, text, path, lineno)
