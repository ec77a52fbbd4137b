"""Phrase-based beam-search decoder.

Hypotheses live in coverage-cardinality stacks with histogram pruning and
recombination on (coverage, language-model context, last covered position).
Eight features score a derivation: summed log forward/backward phrase and
lexical probabilities, the language-model log probability of the output
(end symbol included), minus the output length, minus the phrase count, and
minus the total distortion, where each phrase's distortion is
|start - previous_end - 1| with the initial previous_end at -1.

Source tokens without any single-word table entry translate as themselves
(copy-through) with zero translation-model feature contributions. If the
distortion guards prune every complete path, the sentence is deterministically
re-decoded monotone, which always completes.

Pruning is exact: a hypothesis is dropped at insertion only when it could
never be expanded, so the search returns what keeping every hypothesis
would, byte for byte. Each stack tracks the first scores of `beam` distinct
keys (1 for the last stack, whose best hypothesis alone is used). Keys are
never removed and recombination only raises a key's score, so the lowest
tracked score never exceeds the beam-th best score the stack will hold, and
a hypothesis strictly below it is never expanded nor the winner (Koehn
2004, "Pharaoh"). When the LM weight is non-negative and no LM step scores
above 0, an option whose score without the LM is already below that bar is
skipped before the LM scores it.
"""

from __future__ import annotations

import heapq
import math
import multiprocessing
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .fileio import atomic_write, parse_number
from .lm import EOS, NGramModel
from .phrases import PhraseTable

FEATURE_NAMES = (
    "phi_fwd",
    "phi_bwd",
    "lex_fwd",
    "lex_bwd",
    "lm",
    "word_penalty",
    "phrase_penalty",
    "distortion",
)

DEFAULT_BEAM = 50
DEFAULT_DISTORTION_LIMIT = 6
DEFAULT_CORPUS_CAP = 10_000_000


@dataclass(frozen=True)
class FeatureWeights:
    """Log-linear weights, one per feature, in FEATURE_NAMES order."""

    phi_fwd: float = 1.0
    phi_bwd: float = 1.0
    lex_fwd: float = 1.0
    lex_bwd: float = 1.0
    lm: float = 1.0
    word_penalty: float = 0.0
    phrase_penalty: float = 0.0
    distortion: float = 1.0

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, n) for n in FEATURE_NAMES], dtype=np.float64)

    def replace(self, name: str, value: float) -> "FeatureWeights":
        if name not in FEATURE_NAMES:
            raise ValueError(f"unknown feature {name!r}")
        return replace(self, **{name: value})

    def write(self, path: str | Path) -> None:
        """One "name = value" line per feature."""
        with atomic_write(path) as fh:
            for name in FEATURE_NAMES:
                fh.write(f"{name} = {getattr(self, name)!r}\n")

    @classmethod
    def read(cls, path: str | Path) -> "FeatureWeights":
        values: dict[str, float] = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}: line {lineno}: expected 'name = value'")
                name, _, raw = line.partition("=")
                name = name.strip()
                if name not in FEATURE_NAMES:
                    raise ValueError(f"{path}: line {lineno}: unknown feature {name!r}")
                values[name] = parse_number(float, raw.strip(), path, lineno)
        missing = [n for n in FEATURE_NAMES if n not in values]
        if missing:
            raise ValueError(f"{path}: missing weight for {missing[0]!r}")
        return cls(**values)


@dataclass(frozen=True)
class DerivationStep:
    """One phrase application: source span start, both phrase sides, and the
    four log probabilities (zeros for a copied-through token)."""

    start: int
    src: tuple[str, ...]
    tgt: tuple[str, ...]
    log_phi: tuple[float, float, float, float]
    copied: bool = False

    @property
    def end(self) -> int:
        return self.start + len(self.src) - 1


@dataclass
class DecodeResult:
    steps: tuple[DerivationStep, ...]
    output: tuple[str, ...]
    features: np.ndarray
    score: float


class _Hyp:
    """A partial derivation. `step` is (start, end, option, LM score) of
    its last phrase; DerivationSteps and the feature vector are built only
    for the winner, by replaying its steps."""

    __slots__ = ("score", "cov", "ctx", "state", "last_end", "parent", "step")

    def __init__(self, score, cov, ctx, state, last_end, parent, step):
        self.score = score
        self.cov = cov
        self.ctx = ctx
        self.state = state
        self.last_end = last_end
        self.parent = parent
        self.step = step


def _sort_key(h: _Hyp):
    # Total, deterministic: no two distinct recombined states share all four.
    return (-h.score, h.cov, h.last_end, h.ctx)


def _span_options(
    sentence: Sequence[str],
    table: PhraseTable,
    weights: FeatureWeights,
    options_limit: int,
):
    """Translation options per source span, ranked by weighted
    translation-model score (ties by target phrase), plus copy-through
    options wherever a token has no single-word entry. Each option is
    (target words, log probabilities or None, weighted score)."""
    n = len(sentence)
    max_len = table.max_source_words()
    w4 = (weights.phi_fwd, weights.phi_bwd, weights.lex_fwd, weights.lex_bwd)
    spans = []
    for i in range(n):
        for j in range(i + 1, min(i + max_len, n) + 1):
            entries = table.log_options(" ".join(sentence[i:j]))
            if not entries:
                continue
            ranked = [
                (w4[0] * lp[0] + w4[1] * lp[1] + w4[2] * lp[2] + w4[3] * lp[3], tgt, words, lp)
                for tgt, words, lp in entries
            ]
            ranked.sort(key=lambda c: (-c[0], c[1]))
            if options_limit > 0:
                ranked = ranked[:options_limit]
            spans.append(((i, j), [(words, lp, tm) for tm, _, words, lp in ranked]))
    have_single = {i for (i, j), _ in spans if j == i + 1}
    for i in range(n):
        if i not in have_single:
            spans.append(((i, i + 1), [((sentence[i],), None, 0.0)]))
    spans.sort(key=lambda s: s[0])
    return spans


def _replay(sentence: tuple[str, ...], best: _Hyp) -> DecodeResult:
    """The winner's derivation and feature vector, summed root first in the
    order the search added each phrase, so every float is the one the
    search would have carried."""
    path = []
    node = best
    while node.parent is not None:
        path.append(node.step)
        node = node.parent
    path.reverse()
    f0 = f1 = f2 = f3 = f4 = f5 = f6 = f7 = 0.0
    prev_end = -1
    steps = []
    for start, end, (tgt, _, lp, _, _), lm_total in path:
        if lp is not None:
            f0, f1, f2, f3 = f0 + lp[0], f1 + lp[1], f2 + lp[2], f3 + lp[3]
        f4 += lm_total
        f5 -= len(tgt)
        f6 -= 1.0
        f7 -= abs(start - prev_end - 1)
        prev_end = end - 1
        steps.append(
            DerivationStep(start, sentence[start:end], tgt, lp or (0.0,) * 4, lp is None)
        )
    output = tuple(t for step in steps for t in step.tgt)
    feats = np.array((f0, f1, f2, f3, f4, f5, f6, f7))
    return DecodeResult(tuple(steps), output, feats, best.score)


def decode(
    sentence: Sequence[str],
    table: PhraseTable,
    lm: NGramModel,
    weights: FeatureWeights = FeatureWeights(),
    beam: int = DEFAULT_BEAM,
    distortion_limit: int = DEFAULT_DISTORTION_LIMIT,
    options_limit: int = 0,
) -> DecodeResult:
    """Best derivation for one sentence. Deterministic for fixed inputs.

    Hypotheses recombine on the full (order - 1)-word LM context and carry
    the LM state next to it; LM scores come from `lm.step`'s memo.
    `options_limit` keeps the best options of each span; 0 keeps them all.

    Each stack keeps a min-heap of the first-insertion scores of up to
    `beam` distinct keys (1 for the full-coverage stack). Once it is full,
    a new or recombining hypothesis scoring strictly below its root is
    dropped: the root is at most the beam-th best score the stack will
    hold, and equal scores are kept for `_sort_key`'s tie-break, so the
    expanded parents and the winner are those of an unpruned search. With
    `weights.lm >= 0` and `lm.step_bound <= 0`, the LM term of a score is
    at most 0, and IEEE rounding is monotone, so the score is at most the
    same sum without that term; an option whose sum without it is below the
    root is skipped unscored."""
    if beam < 1:
        raise ValueError(f"beam must be >= 1, got {beam}")
    sentence = tuple(sentence)
    n = len(sentence)
    w = weights
    w_lm, w_word, w_phrase, w_dist = w.lm, w.word_penalty, w.phrase_penalty, w.distortion
    full = (1 << n) - 1
    start_state = lm.initial_state()
    if n == 0:
        lg = lm.step(start_state, EOS)[0]
        feats = np.zeros(8)
        feats[4] = lg
        return DecodeResult((), (), feats, lg * w_lm)

    # Per span: (start, end, coverage mask, options); per option: (target
    # words, their LM-normalized form, log probabilities, weighted TM score,
    # weighted word penalty).
    spans = [
        (i, j, ((1 << (j - i)) - 1) << i, [
            (tgt, tuple(map(lm.normalize_token, tgt)), lp, tm, w_word * len(tgt))
            for tgt, lp, tm in options
        ])
        for (i, j), options in _span_options(sentence, table, weights, options_limit)
    ]
    transitions = lm.transitions
    lm_step = lm.step
    # With w_lm >= 0 and no step scoring above 0, the LM can only lower a
    # score, so an option whose score without it misses the bar is skipped
    # unscored.
    skip_unscored = w_lm >= 0 and lm.step_bound <= 0

    stacks: list[dict] = [dict() for _ in range(n + 1)]
    init = _Hyp(0.0, 0, lm.initial_context(), start_state, -1, None, None)
    stacks[0][(0, init.ctx, -1)] = init
    # Per stack, a min-heap of the first-insertion scores of up to `cap`
    # distinct keys; once full, its root is the stack's bar.
    heaps: list[list[float]] = [[] for _ in range(n + 1)]
    caps = [beam] * n + [1]

    for level in range(n):
        if not stacks[level]:
            continue
        parents = heapq.nsmallest(beam, stacks[level].values(), key=_sort_key)
        for hyp in parents:
            cov, base, ctx0, state0, last_end = hyp.cov, hyp.score, hyp.ctx, hyp.state, hyp.last_end
            free = ~cov
            leftmost = (free & -free).bit_length() - 1
            for i, j, mask, options in spans:
                if cov & mask:
                    continue
                jump = abs(i - last_end - 1)
                if distortion_limit >= 0 and (
                    jump > distortion_limit or i > leftmost + distortion_limit
                ):
                    continue
                new_cov = cov | mask
                complete = new_cov == full
                target = level + (j - i)
                bucket, heap, cap = stacks[target], heaps[target], caps[target]
                bar = heap[0] if len(heap) == cap else -math.inf
                distortion = w_dist * jump
                for option in options:
                    tgt, norm, _, tm, word_pen = option
                    if skip_unscored and base + tm - word_pen - w_phrase - distortion < bar:
                        continue
                    state = state0
                    lm_total = 0.0
                    for word in tgt:
                        hit = transitions[state].get(word) or lm_step(state, word)
                        lm_total += hit[0]
                        state = hit[1]
                    if complete:
                        lm_total += (transitions[state].get(EOS) or lm_step(state, EOS))[0]
                    score = base + tm + w_lm * lm_total - word_pen - w_phrase - distortion
                    if score < bar:
                        continue
                    ctx = (ctx0 + norm)[len(norm) :]
                    key = (new_cov, ctx, j - 1)
                    old = bucket.get(key)
                    if old is None:
                        if len(heap) < cap:
                            heapq.heappush(heap, score)
                        else:
                            heapq.heappushpop(heap, score)
                        if len(heap) == cap:
                            bar = heap[0]
                    elif score <= old.score:
                        continue
                    bucket[key] = _Hyp(
                        score, new_cov, ctx, state, j - 1, hyp, (i, j, option, lm_total)
                    )
    if not stacks[n]:
        if distortion_limit != 0:
            return decode(sentence, table, lm, weights, beam, 0, options_limit)
        raise RuntimeError("monotone decoding failed to complete (unreachable)")
    return _replay(sentence, min(stacks[n].values(), key=_sort_key))


@dataclass
class TranslationSystem:
    """A decoder configuration bound to one direction's models.

    `translate` caches whole-sentence translations (safe: decoding is
    pure), which pays off when tuning repeatedly re-translates the same
    inputs; `output` decodes without caching, for one pass over a corpus.
    """

    table: PhraseTable
    lm: NGramModel
    weights: FeatureWeights = FeatureWeights()
    beam: int = DEFAULT_BEAM
    distortion_limit: int = DEFAULT_DISTORTION_LIMIT
    options_limit: int = 0
    _cache: dict = field(default_factory=dict, repr=False)

    def with_weights(self, weights: FeatureWeights) -> "TranslationSystem":
        return TranslationSystem(
            self.table, self.lm, weights, self.beam, self.distortion_limit, self.options_limit
        )

    def translate(self, sentence: Sequence[str]) -> tuple[str, ...]:
        key = tuple(sentence)
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = self.output(key)
        return hit

    def output(self, sentence: Sequence[str]) -> tuple[str, ...]:
        return decode(
            sentence, self.table, self.lm, self.weights, self.beam,
            self.distortion_limit, self.options_limit,
        ).output


_POOL_SYSTEM: TranslationSystem | None = None


def _pool_init(system: TranslationSystem) -> None:
    global _POOL_SYSTEM
    _POOL_SYSTEM = system


def _pool_translate(sentence: tuple[str, ...]) -> tuple[str, ...]:
    assert _POOL_SYSTEM is not None
    return _POOL_SYSTEM.output(sentence)


def translate_corpus(
    sentences: Iterable[Sequence[str]],
    system: TranslationSystem,
    cap: int = DEFAULT_CORPUS_CAP,
    workers: int = 1,
) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Translate the first `cap` sentences into (source, output) pairs.

    workers > 1 fans sentences out over processes; outputs are reassembled
    in order, so results are identical for every worker count. Nothing is
    added to the system's translation cache.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    todo: list[tuple[str, ...]] = []
    for sent in sentences:
        if len(todo) >= cap:
            break
        todo.append(tuple(sent))
    if workers <= 1 or len(todo) < 2:
        return [(s, system.output(s)) for s in todo]
    # Build the LM's context set, initial state and step bound here, so the
    # workers share them copy-on-write instead of each building its own.
    system.lm.initial_state()
    system.lm.step_bound
    ctx = multiprocessing.get_context("fork")
    chunk = max(1, len(todo) // (workers * 4))
    with ctx.Pool(workers, initializer=_pool_init, initargs=(system,)) as pool:
        outputs = pool.map(_pool_translate, todo, chunksize=chunk)
    return list(zip(todo, outputs))
