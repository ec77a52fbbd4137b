"""Test oracles, hand-built phrase tables and alignment models.

The library computes phrase embeddings, candidate sets, temperatures,
phrase tables and IBM-2 alignments on whole arrays, and the decoder scores
derivations incrementally. The functions here compute the same things one
phrase, one entry, one cell or one step at a time, from dicts, so that
tests can compare the two exactly; `top_k_indices` selects top-k one score
row at a time and `rank_candidates` ranks every target one query at a time,
with the softmax normaliser (`log_normalizer`) and the CSLS means
(`mean_topk`) reduced over the whole cosine matrix at once.
`train_lm` estimates the Kneser-Ney model from raw counts at every order,
with the backoff recursion in its interpolation, and `next_word_distribution`
reads a model's whole conditional distribution after a prefix through its
`step`. `reference_decode` is the decoder's
search without pruning at insertion. `table_of` and
`single_word_table` build `PhraseTable`s by hand; `model_of` builds an
`AlignmentModel` and `translation_of` reads its t(f|e) back as a dict.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from lexinduct import (
    FEATURE_NAMES,
    AlignmentModel,
    DerivationStep,
    EmbeddingStore,
    FeatureWeights,
    NGramModel,
    PhraseTable,
    PhraseTableEntry,
    RetrievalConfig,
    ScoredCandidates,
    TemperatureParam,
    floored_probs,
    k_nearest,
    softmax_scores,
    unit_normalize,
)
from lexinduct.aligner import (
    DEFAULT_ITERATIONS,
    DEFAULT_NULL_PROB,
    DEFAULT_TENSION,
    NULL_WORD,
    _distance_matrix,
    _prior,
)
from lexinduct.decoder import (
    DEFAULT_BEAM,
    DEFAULT_DISTORTION_LIMIT,
    DecodeResult,
    _Hyp,
    _replay,
    _sort_key,
    _span_options,
)
from lexinduct.phrases import (
    DEFAULT_CANDIDATES,
    DEFAULT_REVERSE_SAMPLE,
    PROB_FLOOR,
    Phrase,
    _fit_temperature,
    _sample_rows,
    phrase_key,
)
from lexinduct.lm import BOS, EOS, RESERVED, UNK


def table_of(entries: Mapping[str, Sequence[PhraseTableEntry]]) -> PhraseTable:
    """A PhraseTable holding `entries`, each source's in the given order."""
    src = tuple(entries)
    flat = [e for s in src for e in entries[s]]
    tgt = tuple(dict.fromkeys(e.tgt for e in flat))
    index = {t: i for i, t in enumerate(tgt)}
    start = np.cumsum([0] + [len(entries[s]) for s in src])
    idx = np.array([index[e.tgt] for e in flat], dtype=np.int64)
    probs = np.array([e[2:] for e in flat], dtype=np.float64).reshape(-1, 4)
    return PhraseTable(src, tgt, start, idx, probs)


def single_word_table(rng, src_words, tgt_words, max_options=4):
    """Random single-word table: 1 to max_options distinct targets per
    source word, probabilities uniform in [0.05, 1), best phi_fwd first."""
    entries = {}
    for s in src_words:
        n_opts = int(rng.integers(1, max_options + 1))
        picks = rng.choice(len(tgt_words), size=n_opts, replace=False)
        rows = []
        for p in picks:
            probs = rng.uniform(0.05, 1.0, size=4)
            rows.append(PhraseTableEntry(s, tgt_words[int(p)], *probs))
        rows.sort(key=lambda e: (-e.phi_fwd, e.tgt))
        entries[s] = tuple(rows)
    return table_of(entries)


def phrase_embedding(phrase: Phrase, words: EmbeddingStore) -> np.ndarray:
    """Renormalized mean of the phrase's unit word vectors, one phrase at a
    time; `build_phrase_store` computes the same vectors in bulk."""
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


def candidate_sets(
    src: EmbeddingStore, tgt: EmbeddingStore, k: int = DEFAULT_CANDIDATES
) -> dict[str, ScoredCandidates]:
    """k nearest target phrases for every source phrase, keyed by source."""
    return {r.query: r for r in k_nearest(src, tgt, src.vocab, k)}


def top1_sample(
    cands: dict[str, ScoredCandidates], sample_size: int = DEFAULT_REVERSE_SAMPLE, seed: int = 13
) -> list[tuple[str, str]]:
    """Seeded sample of (query, nearest neighbor) pairs from candidate sets,
    the induced dictionary that the opposite direction's temperature is
    fitted against."""
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
    cands: dict[str, ScoredCandidates], reverse_pairs: Sequence[tuple[str, str]]
) -> TemperatureParam:
    """Maximum-likelihood temperature via golden-section search on log tau.

    reverse_pairs are (generated phrase, generating phrase) pairs induced in
    the opposite direction; pairs whose generated phrase is missing from the
    generating phrase's candidate set are skipped with a warning.
    """
    return _fit_temperature(*_pair_matrices(cands, reverse_pairs))


def word_translation_table(
    cands: dict[str, ScoredCandidates], tau: TemperatureParam, floor: float = PROB_FLOOR
) -> dict[str, dict[str, float]]:
    """Word-level softmax translation probabilities over each word's
    candidate set, w(generated | generating)."""
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
    """Product over generated words of the best word-level probability from
    any generating word; words no generating word covers contribute
    `floor`."""
    weight = 1.0
    for out_word in generated:
        best = 0.0
        for in_word in generating:
            best = max(best, table.get(in_word, {}).get(out_word, 0.0))
        weight *= best if best > 0.0 else floor
    return weight


def build_phrase_table(
    cands: dict[str, ScoredCandidates],
    opposite_cands: dict[str, ScoredCandidates],
    tau: TemperatureParam,
    opposite_tau: TemperatureParam,
    word_table: dict[str, dict[str, float]],
    opposite_word_table: dict[str, dict[str, float]],
    floor: float = PROB_FLOOR,
) -> PhraseTable:
    """One direction's phrase table from both directions' candidate sets,
    entry by entry. Backward probabilities are looked up in the opposite
    direction's softmax map and floored when the reversed pair is absent."""
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
    return table_of(entries)


def feature_score(
    steps: Sequence[DerivationStep],
    weights: FeatureWeights,
    lm: NGramModel,
    source_length: int | None = None,
) -> tuple[np.ndarray, float]:
    """Recompute the feature vector and model score of a derivation from
    scratch, for checking the decoder's incremental scores. With
    source_length given, verifies the steps cover the source exactly once."""
    if source_length is not None:
        covered: set[int] = set()
        for step in steps:
            span = set(range(step.start, step.end + 1))
            if covered & span:
                raise ValueError(f"derivation covers position {min(covered & span)} twice")
            covered |= span
        if covered != set(range(source_length)):
            raise ValueError("derivation does not cover the source exactly once")
    feats = np.zeros(len(FEATURE_NAMES), dtype=np.float64)
    output: list[str] = []
    prev_end = -1
    for step in steps:
        for i in range(4):
            feats[i] += step.log_phi[i]
        output.extend(step.tgt)
        feats[7] -= abs(step.start - prev_end - 1)
        prev_end = step.end
    feats[4] = lm.log_prob(output)
    feats[5] = -float(len(output))
    feats[6] = -float(len(steps))
    return feats, float(feats @ weights.as_array())


def reference_decode(
    sentence: Sequence[str],
    table: PhraseTable,
    lm: NGramModel,
    weights: FeatureWeights = FeatureWeights(),
    beam: int = DEFAULT_BEAM,
    distortion_limit: int = DEFAULT_DISTORTION_LIMIT,
    options_limit: int = 0,
) -> DecodeResult:
    """`decode` without pruning at insertion: every recombined hypothesis
    stays in its stack and is scored with the LM, and each stack is sorted
    whole before its best `beam` are expanded. The library's decoder must
    return exactly what this returns."""
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

    spans = [
        (i, j, ((1 << (j - i)) - 1) << i, [
            (tgt, tuple(map(lm.normalize_token, tgt)), lp, tm, w_word * len(tgt))
            for tgt, lp, tm in options
        ])
        for (i, j), options in _span_options(sentence, table, weights, options_limit)
    ]

    stacks: list[dict] = [dict() for _ in range(n + 1)]
    init = _Hyp(0.0, 0, lm.initial_context(), start_state, -1, None, None)
    stacks[0][(0, init.ctx, -1)] = init

    for level in range(n):
        if not stacks[level]:
            continue
        parents = sorted(stacks[level].values(), key=_sort_key)[:beam]
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
                bucket = stacks[level + (j - i)]
                distortion = w_dist * jump
                for option in options:
                    tgt, norm, _, tm, word_pen = option
                    state = state0
                    lm_total = 0.0
                    for word in tgt:
                        lg, state = lm.step(state, word)
                        lm_total += lg
                    if complete:
                        lm_total += lm.step(state, EOS)[0]
                    score = base + tm + w_lm * lm_total - word_pen - w_phrase - distortion
                    ctx = (ctx0 + norm)[len(norm) :]
                    key = (new_cov, ctx, j - 1)
                    old = bucket.get(key)
                    if old is None or score > old.score:
                        bucket[key] = _Hyp(
                            score, new_cov, ctx, state, j - 1, hyp, (i, j, option, lm_total)
                        )
    if not stacks[n]:
        if distortion_limit != 0:
            return reference_decode(sentence, table, lm, weights, beam, 0, options_limit)
        raise RuntimeError("monotone decoding failed to complete (unreachable)")
    return _replay(sentence, min(stacks[n].values(), key=_sort_key))


def model_of(
    translation: Mapping[str, Mapping[str, float]], tension: float, null_prob: float
) -> AlignmentModel:
    """An AlignmentModel with t(f|e) = translation[e][f] and the null word
    as source id 0, whether or not `translation` has a row for it."""
    src_ids = {NULL_WORD: 0}
    tgt_ids: dict[str, int] = {}
    cells = {}
    for e, row in translation.items():
        for f, p in row.items():
            key = (src_ids.setdefault(e, len(src_ids)), tgt_ids.setdefault(f, len(tgt_ids)))
            cells[key] = p
    width = len(tgt_ids) + 1
    order = sorted(cells, key=lambda c: c[0] * width + c[1])
    keys = np.array([e * width + f for e, f in order], dtype=np.int64)
    probs = np.array([cells[c] for c in order], dtype=np.float64)
    return AlignmentModel(src_ids, tgt_ids, keys, probs, tension, null_prob)


def translation_of(model: AlignmentModel) -> dict[str, dict[str, float]]:
    """t(f|e) of a model as {e: {f: prob}}, with a row for every source
    word that co-occurred with some target word."""
    src = {i: w for w, i in model.src_ids.items()}
    tgt = {i: w for w, i in model.tgt_ids.items()}
    width = len(model.tgt_ids) + 1
    out: dict[str, dict[str, float]] = {}
    for key, p in zip(model.keys.tolist(), model.probs.tolist()):
        e, f = divmod(key, width)
        out.setdefault(src[e], {})[tgt[f]] = p
    return out


@dataclass
class DictAlignment:
    """An IBM-2 model as a dict of dicts, t(f|e) = translation[e][f]."""

    translation: dict[str, dict[str, float]]
    diagonal_tension: float
    null_prob: float
    log_likelihoods: tuple[float, ...] = ()


def train_ibm2(
    pairs: Sequence[tuple[Sequence[str], Sequence[str]]],
    iterations: int = DEFAULT_ITERATIONS,
    tension: float = DEFAULT_TENSION,
    null_prob: float = DEFAULT_NULL_PROB,
) -> DictAlignment:
    """IBM-2 EM one pair and one (e, f) cell at a time, updating dicts;
    `lexinduct.train_ibm2` computes the same model on arrays, one shape
    bucket at a time."""
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

    priors: dict[tuple[int, int], np.ndarray] = {}
    history: list[float] = []

    for _ in range(iterations):
        counts: dict[str, dict[str, float]] = {}
        ll = 0.0
        for src, tgt in corpus:
            m, n = len(src), len(tgt)
            if n == 0:
                continue
            key = (m, n)
            if key not in priors:
                if m:
                    priors[key] = _prior(m, n, tension, null_prob, _distance_matrix(m, n))
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
        history.append(ll)

        table = {
            e: {f: c / total for f, c in sorted(row.items())}
            for e, row in counts.items()
            if (total := sum(row.values())) > 0.0
        }

    return DictAlignment(table, tension, null_prob, tuple(history))


def viterbi_align(model: DictAlignment, src: Sequence[str], tgt: Sequence[str]) -> set[tuple[int, int]]:
    """Best source link per target word; a null-best word gets no link.

    The null hypothesis is scanned first and real sources in ascending
    order, each replacing the incumbent only on a strictly better score, so
    ties resolve to null and then to the smaller source index.
    """
    m, n = len(src), len(tgt)
    links: set[tuple[int, int]] = set()
    if m == 0 or n == 0:
        return links
    prior = _prior(m, n, model.diagonal_tension, model.null_prob, _distance_matrix(m, n))
    null_row = model.translation.get(NULL_WORD, {})
    for j, f in enumerate(tgt):
        best_score = prior[0, j] * null_row.get(f, 0.0)
        best_i = -1
        for i, e in enumerate(src):
            score = prior[i + 1, j] * model.translation.get(e, {}).get(f, 0.0)
            if score > best_score:
                best_score = score
                best_i = i
        if best_i >= 0:
            links.add((best_i, j))
    return links


def top_k_indices(scores: np.ndarray, lexrank: np.ndarray, k: int) -> np.ndarray:
    """Exact top-k of one score row under (score desc, lexrank asc), the
    per-row reference for `embeddings._top_k_rows`."""
    n = scores.shape[0]
    if k >= n:
        return np.lexsort((lexrank, -scores))
    part = np.argpartition(-scores, k - 1)[:k]
    kth = scores[part].min()
    above = np.nonzero(scores > kth)[0]
    tied = np.nonzero(scores == kth)[0]
    need = k - above.size
    tied = tied[np.argsort(lexrank[tied], kind="stable")][:need]
    chosen = np.concatenate([above, tied])
    return chosen[np.lexsort((lexrank[chosen], -scores[chosen]))]


def mean_topk(matrix: np.ndarray, k: int, axis: int) -> np.ndarray:
    """Mean of the k largest entries along `axis` (k capped at the size),
    over the whole matrix at once."""
    size = matrix.shape[axis]
    k = min(k, size)
    part = np.partition(matrix, size - k, axis=axis)
    if axis == 1:
        return part[:, size - k :].mean(axis=1)
    return part[size - k :, :].mean(axis=0)


def log_normalizer(cos: np.ndarray, t: float) -> np.ndarray:
    """log sum_x exp(t * cos[x, y]) per target column y, shifted by the
    column's largest term, over the whole matrix at once."""
    scaled = t * cos
    col_max = scaled.max(axis=0)
    return col_max + np.log(np.exp(scaled - col_max).sum(axis=0))


def rank_candidates(
    src: EmbeddingStore,
    tgt: EmbeddingStore,
    queries: list[str],
    config: RetrievalConfig,
    top: int | None = None,
) -> list[ScoredCandidates]:
    """The library's `rank_candidates`, one query at a time: each query
    lexsorts every target. Stores must be unit-normalized."""
    present = [q for q in queries if q in src]
    if not present:
        return []

    cos = src.vectors.astype(np.float64) @ tgt.vectors.astype(np.float64).T
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
        log_z = log_normalizer(cos, t)
        for q, row in zip(present, q_rows):
            scores = t * cos[row] - log_z
            order = np.lexsort((lexrank, -scores))
            results.append(_scored(q, tgt, scores, order, top))

    else:  # csls
        r_tgt = mean_topk(cos, config.csls_k, axis=1)
        r_src = mean_topk(cos, config.csls_k, axis=0)
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


def train_lm(corpus: Iterable[Sequence[str]], order: int = 5, discount: float = 0.75) -> NGramModel:
    """Interpolated Kneser-Ney, estimated the long way: a raw count table
    per order, continuation counts from the raw table of the order above,
    interpolation through the full ARPA backoff recursion, and the
    vocabulary taken from the raw unigram types."""
    sentences = [tuple(s) for s in corpus]
    raw: dict[int, Counter] = {n: Counter() for n in range(1, order + 1)}
    for toks in sentences:
        for t in toks:
            if t in RESERVED:
                raise ValueError(f"training token collides with reserved symbol {t!r}")
        padded = [BOS] * (order - 1) + list(toks) + [EOS]
        for p in range(order - 1, len(padded)):
            for n in range(1, order + 1):
                if p - n + 1 >= 0:
                    raw[n][tuple(padded[p - n + 1 : p + 1])] += 1

    adjusted: dict[int, Counter] = {order: raw[order]}
    for k in range(order - 1, 0, -1):
        cont: Counter = Counter()
        for gram in raw[k + 1]:
            cont[gram[1:]] += 1
        adjusted[k] = cont

    vocab_set = {g[0] for g in raw[1]}
    vocab_set.add(UNK)
    base = adjusted[1]
    cc_total = sum(base.values())
    uniform = 1.0 / len(vocab_set)
    base_bow = discount * len(base) / cc_total
    log_unseen = math.log(base_bow * uniform)

    logprob: dict[tuple[str, ...], float] = {}
    backoff: dict[tuple[str, ...], float] = {}
    for (w,), c in base.items():
        logprob[(w,)] = math.log((c - discount) / cc_total + base_bow * uniform)

    def lower_prob(word, context):
        weights = []
        while True:
            key = context + (word,)
            if key in logprob:
                value = math.exp(logprob[key])
                break
            if not context:
                value = math.exp(log_unseen)
                break
            weights.append(math.exp(backoff.get(context, 0.0)))
            context = context[1:]
        for weight in reversed(weights):
            value = weight * value
        return value

    for k in range(2, order + 1):
        counts = adjusted[k]
        totals: Counter = Counter()
        successors: Counter = Counter()
        for gram, c in counts.items():
            totals[gram[:-1]] += c
            successors[gram[:-1]] += 1
        bows = {h: discount * successors[h] / totals[h] for h in totals}
        for gram, c in counts.items():
            h = gram[:-1]
            p = (c - discount) / totals[h] + bows[h] * lower_prob(gram[-1], h[1:])
            logprob[gram] = math.log(p)
        for h, b in bows.items():
            backoff[h] = math.log(b)

    model = NGramModel(order, discount, logprob, backoff, log_unseen)
    # The vocabulary as counted here, so that comparing models also checks
    # the library's derivation of it.
    model.vocab = tuple(sorted(vocab_set))
    return model


def next_word_distribution(model: NGramModel, prefix: Sequence[str]) -> dict[str, float]:
    """p(word | sentence prefix) for every vocabulary word of `model` (unk
    and the end symbol included), read through `model.step`. Sums to one up
    to float rounding."""
    state = model.initial_state()
    for token in prefix:
        state = model.step(state, token)[1]
    return {w: math.exp(model.step(state, w)[0]) for w in model.vocab}
