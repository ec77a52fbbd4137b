"""Unsupervised weight tuning for the decoder.

No references exist, so the objective combines three proxies over a dev
sample: a cyclic consistency loss (one minus the smoothed sentence BLEU of
the round-trip translation against the original), a fluency loss (mean
per-token negative log probability of the forward output under the target
language model, end symbol counted), and a length loss (mean absolute log
ratio of output to input length, lengths floored at 0.5 so empty outputs
stay finite), mixed with fixed weights as in unsupervised SMT. Weights
are tuned coordinate-wise by golden-section search, keeping a new value
only when it strictly improves the combined objective.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .decoder import FEATURE_NAMES, FeatureWeights, TranslationSystem
from .phrases import golden_min


# The mix of the three losses in the combined objective.
CYCLIC_WEIGHT = 1.0
LM_WEIGHT = 0.1
LENGTH_WEIGHT = 0.5
# The range that golden-section search explores for every decoder weight.
WEIGHT_LO = 0.0
WEIGHT_HI = 2.0
DEFAULT_SWEEPS = 3
DEFAULT_GOLDEN_ITERATIONS = 6


@dataclass(frozen=True)
class TuningObjective:
    cyclic: float
    lm: float
    length: float
    combined: float


def sentence_bleu(hypothesis: Sequence[str], reference: Sequence[str], max_order: int = 4) -> float:
    """Smoothed sentence BLEU: every n-gram precision gets +1 on both sides,
    with the usual brevity penalty. Returns a value in [0, 1]."""
    hyp = tuple(hypothesis)
    ref = tuple(reference)
    if not hyp:
        return 0.0
    log_precision = 0.0
    for n in range(1, max_order + 1):
        hyp_grams = Counter(hyp[i : i + n] for i in range(len(hyp) - n + 1))
        ref_grams = Counter(ref[i : i + n] for i in range(len(ref) - n + 1))
        match = sum(min(c, ref_grams[g]) for g, c in hyp_grams.items())
        total = max(0, len(hyp) - n + 1)
        log_precision += math.log((match + 1.0) / (total + 1.0))
    bleu = math.exp(log_precision / max_order)
    if len(hyp) < len(ref):
        bleu *= math.exp(1.0 - len(ref) / len(hyp))
    return bleu


def objective(
    weights: FeatureWeights,
    dev: Sequence[Sequence[str]],
    forward: TranslationSystem,
    backward: TranslationSystem,
) -> TuningObjective:
    """Evaluate the candidate weights on the dev sample.

    `forward` is re-bound to `weights`; `backward` keeps its own fixed
    weights (its translation cache persists across calls by design).
    """
    if not dev:
        raise ValueError("empty dev sample")
    fwd = forward.with_weights(weights)
    cyclic = lm_loss = length = 0.0
    for sent in dev:
        out = fwd.translate(sent)
        back = backward.translate(out)
        cyclic += 1.0 - sentence_bleu(back, sent)
        lm_loss += -forward.lm.log_prob(out) / (len(out) + 1)
        length += abs(math.log(max(len(out), 0.5) / max(len(sent), 0.5)))
    n = len(dev)
    cyclic /= n
    lm_loss /= n
    length /= n
    combined = CYCLIC_WEIGHT * cyclic + LM_WEIGHT * lm_loss + LENGTH_WEIGHT * length
    return TuningObjective(cyclic, lm_loss, length, combined)


def tune(
    initial: FeatureWeights,
    dev: Sequence[Sequence[str]],
    forward: TranslationSystem,
    backward: TranslationSystem,
    sweeps: int = DEFAULT_SWEEPS,
    golden_iterations: int = DEFAULT_GOLDEN_ITERATIONS,
) -> FeatureWeights:
    """Coordinate-wise golden-section tuning over [WEIGHT_LO, WEIGHT_HI].

    Each weight is searched in turn for `sweeps` full passes of
    `golden_iterations` steps each; a candidate value is accepted only when
    it strictly lowers the combined objective, so the result is never worse
    than `initial` on the dev sample. At `sweeps = 0` nothing is decoded.
    """
    if sweeps < 0:
        raise ValueError(f"sweeps must be >= 0, got {sweeps}")
    if sweeps == 0:
        return initial
    dev = [tuple(s) for s in dev]
    cache: dict[tuple, float] = {}

    def combined(weights: FeatureWeights) -> float:
        key = tuple(weights.as_array())
        if key not in cache:
            cache[key] = objective(weights, dev, forward, backward).combined
        return cache[key]

    current = initial
    best = combined(current)
    for _ in range(sweeps):
        for name in FEATURE_NAMES:
            _, (x, fx) = golden_min(
                lambda v: combined(current.replace(name, v)),
                WEIGHT_LO, WEIGHT_HI, golden_iterations,
            )
            if fx < best:
                current = current.replace(name, x)
                best = fx
    return current
