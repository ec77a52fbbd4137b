"""Workload inputs and pipeline settings for the benchmark.

The generator is the substitution cipher of the test suite
(`tests/conftest.py::make_cipher`), kept here so that later edits to the
test fixture do not move the benchmark: source sentences are random walks
over a seeded bigram grammar, the target side applies a seeded word
substitution, and both languages embed concept c as a shared Gaussian vector
plus independent noise. At that function's defaults both write byte-identical
files (`run.py --self-check` proves it). The seed is the only input that
varies between runs of one workload; the program sees only the files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Cipher:
    src_corpus: Path
    tgt_corpus: Path
    src_embeddings: Path
    tgt_embeddings: Path
    gold: Path
    vocab: int
    sentences: int


def make_cipher(
    root: Path,
    vocab: int = 300,
    sentences: int = 5000,
    dim: int = 24,
    noise: float = 0.01,
    successors: int = 8,
    min_len: int = 6,
    max_len: int = 12,
    seed: int = 7,
    corpus_seed: int | None = None,
) -> Cipher:
    """Write the cipher's corpora, embeddings and gold dictionary under `root`.

    `seed` draws the substitution, the grammar and the embeddings;
    `corpus_seed`, when given, draws the sentences from a stream of its own.
    """
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    root.mkdir(parents=True, exist_ok=True)

    perm = list(range(vocab))
    rng.shuffle(perm)
    src_words = [f"s{c:03d}" for c in range(vocab)]
    tgt_words = [f"t{perm[c]:03d}" for c in range(vocab)]

    followers = [rng.sample(range(vocab), successors) for _ in range(vocab)]
    walk_rng = rng if corpus_seed is None else random.Random(corpus_seed)
    walks: list[list[int]] = []
    for _ in range(sentences):
        length = walk_rng.randint(min_len, max_len)
        word = walk_rng.randrange(vocab)
        walk = [word]
        for _ in range(length - 1):
            word = walk_rng.choice(followers[word])
            walk.append(word)
        walks.append(walk)

    src_corpus = root / "cipher.src.txt"
    tgt_corpus = root / "cipher.tgt.txt"
    with open(src_corpus, "w", encoding="utf-8") as fs, open(tgt_corpus, "w", encoding="utf-8") as ft:
        for walk in walks:
            fs.write(" ".join(src_words[c] for c in walk) + "\n")
            ft.write(" ".join(tgt_words[c] for c in walk) + "\n")

    concepts = nrng.standard_normal((vocab, dim))
    src_vecs = concepts + noise * nrng.standard_normal((vocab, dim))
    tgt_vecs = concepts + noise * nrng.standard_normal((vocab, dim))
    src_embeddings = root / "cipher.src.vec"
    tgt_embeddings = root / "cipher.tgt.vec"
    for path, words, vecs in ((src_embeddings, src_words, src_vecs), (tgt_embeddings, tgt_words, tgt_vecs)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{vocab} {dim}\n")
            for word, row in zip(words, vecs):
                fh.write(word + " " + " ".join(repr(float(v)) for v in row) + "\n")

    gold = root / "cipher.gold.txt"
    with open(gold, "w", encoding="utf-8") as fh:
        for s, t in sorted(zip(src_words, tgt_words)):
            fh.write(f"{s} {t}\n")

    return Cipher(src_corpus, tgt_corpus, src_embeddings, tgt_embeddings, gold, vocab, sentences)


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is in BENCHMARK.json and README.md."""

    name: str
    cipher: dict
    # PipelineConfig settings; None marks the retrieval-only workload.
    pipeline: dict | None = None


# The test suite's `cipher_config` knobs, scaled to the cipher; each
# workload overrides what it stresses.
CIPHER_CONFIG = dict(
    direction="src2tgt",
    workers=2,
    ngram_cap=1500,
    candidates=20,
    reverse_sample=10_000,
    lm_order=5,
    beam=5,
    options_limit=4,
    corpus_cap=2000,
    dev_size=40,
    sweeps=3,
    golden_iterations=5,
)


# Sizes are scaled so that one cold run takes a few seconds on two cores and
# a benchmark run can repeat it; the run then reports medians. Each workload
# keeps the layer mix it was chosen for.
_LARGE = dict(vocab=2000, sentences=2500, dim=48, noise=0.8)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cipher_tuned",
            dict(vocab=300, sentences=1500, dim=24, noise=0.8, min_len=4, max_len=9),
            dict(CIPHER_CONFIG, vocab_size=300, ngram_cap=800, corpus_cap=300,
                 dev_size=16, sweeps=1, golden_iterations=1),
        ),
        Workload(
            "bitext_greedy",
            dict(vocab=300, sentences=1500, dim=24, noise=0.8),
            dict(CIPHER_CONFIG, vocab_size=300, ngram_cap=800, corpus_cap=1500,
                 sweeps=0, beam=1, options_limit=1),
        ),
        Workload(
            "vocab_large",
            _LARGE,
            dict(CIPHER_CONFIG, vocab_size=2000, ngram_cap=1000, corpus_cap=300, sweeps=0),
        ),
        Workload(
            "retrieval_large",
            _LARGE,
        ),
    )
}
