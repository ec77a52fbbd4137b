"""Interpolated Kneser-Ney n-gram language model with a fixed discount.

Every order discounts the same absolute amount D from each observed count
and redistributes it through interpolation with the next-lower order; the
base case interpolates with the uniform distribution over the prediction
vocabulary, which is where the unknown symbol receives its leftover mass.
All log values are natural logs.

Sentences are padded with order - 1 begin symbols and one end symbol; the
begin symbol is context only and is never predicted, so conditional
distributions over vocab + {end, unk} sum to one. Training counts one
table, the top-order n-grams. Because of the padding every shorter n-gram
is the suffix of one at the next order up, so each lower order's
continuation counts (distinct predecessors) count the keys of the order
above by their suffix, as lmplz does (Heafield et al. 2013), and the
lower-order probability an n-gram interpolates with is its suffix's stored
entry.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

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

    def next_word_distribution(self, prefix: Sequence[str]) -> dict[str, float]:
        """p(word | sentence prefix) for every vocabulary word (unk and the
        end symbol included). Sums to one up to float rounding."""
        state = self.initial_state()
        for token in prefix:
            state = self.step(state, token)[1]
        return {w: math.exp(self.step(state, w)[0]) for w in self.vocab}


def train_lm(corpus: Iterable[Sequence[str]], order: int = 5, discount: float = 0.75) -> NGramModel:
    """Estimate the model from a tokenized corpus.

    Raises on an empty corpus, a non-positive order, a discount outside
    (0, 1), or training tokens that collide with the reserved symbols.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not (0.0 < discount < 1.0):
        raise ValueError(f"discount must lie in (0, 1), got {discount}")
    begin = (BOS,) * (order - 1)
    top: Counter = Counter()
    for sentence in map(tuple, corpus):
        for symbol in RESERVED:
            if symbol in sentence:
                raise ValueError(f"training token collides with reserved symbol {symbol!r}")
        padded = begin + sentence + (EOS,)
        top.update(padded[p : p + order] for p in range(len(padded) - order + 1))
    if not top:
        raise ValueError("empty training corpus")

    # counts[n - 1] holds the adjusted counts of order n: raw at the top,
    # continuation counts below, each taken from the keys of the order above.
    counts = [top]
    while len(counts) < order:
        counts.insert(0, Counter(gram[1:] for gram in counts[0]))

    base = counts[0]
    cc_total = sum(base.values())
    # The predicted words and the unknown symbol, which training never sees.
    uniform = 1.0 / (len(base) + 1)
    base_bow = discount * len(base) / cc_total
    log_unseen = math.log(base_bow * uniform)

    logprob: dict[NGram, float] = {}
    backoff: dict[NGram, float] = {}
    for gram, c in base.items():
        logprob[gram] = math.log((c - discount) / cc_total + base_bow * uniform)
    for grams in counts[1:]:
        totals: Counter = Counter()
        successors: Counter = Counter()
        for gram, c in grams.items():
            totals[gram[:-1]] += c
            successors[gram[:-1]] += 1
        bows = {h: discount * successors[h] / totals[h] for h in totals}
        for gram, c in grams.items():
            h = gram[:-1]
            p = (c - discount) / totals[h] + bows[h] * math.exp(logprob[gram[1:]])
            logprob[gram] = math.log(p)
        for h, b in bows.items():
            backoff[h] = math.log(b)

    return NGramModel(order, discount, logprob, backoff, log_unseen)


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
    """
    keys = sorted(set(model.logprob) | set(model.backoff), key=lambda g: (len(g), g))
    with atomic_write(path) as fh:
        fh.write(f"{FORMAT_TAG} {FORMAT_VERSION}\n")
        fh.write(f"order {model.order}\n")
        fh.write(f"discount {model.discount!r}\n")
        fh.write(f"unseen {model.log_unseen:.9f}\n")
        for gram in keys:
            lp = f"{model.logprob[gram]:.9f}" if gram in model.logprob else "-"
            bo = f"{model.backoff[gram]:.9f}" if gram in model.backoff else "-"
            fh.write(f"{lp}\t{' '.join(gram)}\t{bo}\n")


def load_lm(path: str | Path) -> NGramModel:
    """Parse a file written by `save_lm`; a malformed header or entry
    raises ValueError naming the file and line."""
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
        for lineno, line in enumerate(fh, 5):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}: line {lineno}: expected 3 tab fields")
            gram = tuple(parts[1].split(" "))
            if parts[0] != "-":
                logprob[gram] = parse_number(float, parts[0], path, lineno)
            if parts[2] != "-":
                backoff[gram] = parse_number(float, parts[2], path, lineno)
    return NGramModel(header[0], header[1], logprob, backoff, header[2])
