"""Shared fixtures.

The main one is the substitution-cipher benchmark: a bigram-grammar corpus
whose target side is a deterministic word substitution of the source, with
per-concept Gaussian embeddings shared across languages up to small noise.
An unsupervised system that works must recover the substitution table, and
the known table doubles as the gold dictionary. The files come from the
benchmark's generator, `perfbench/workloads.py::make_cipher`, and the
pipeline settings start from its `CIPHER_CONFIG`, so the tests and the
benchmark run one cipher.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from lexinduct import PipelineConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


@dataclass(frozen=True)
class CipherFixture(workloads.Cipher):
    mapping: dict[str, str]


def make_cipher(root: Path, **knobs) -> CipherFixture:
    """Generate the cipher benchmark files under `root` with
    `workloads.make_cipher` and its knobs; `mapping` is the substitution
    table, read back from the gold file."""
    cipher = workloads.make_cipher(root, **knobs)
    with open(cipher.gold, encoding="utf-8") as fh:
        mapping = dict(line.split() for line in fh)
    return CipherFixture(**vars(cipher), mapping=mapping)


def cipher_config(fixture: CipherFixture, work_dir: Path, **overrides) -> PipelineConfig:
    """A pipeline config scaled to the cipher benchmark (fast knobs; the
    library defaults target full-size corpora)."""
    settings = dict(
        workloads.CIPHER_CONFIG,
        src_corpus=str(fixture.src_corpus),
        tgt_corpus=str(fixture.tgt_corpus),
        src_embeddings=str(fixture.src_embeddings),
        tgt_embeddings=str(fixture.tgt_embeddings),
        work_dir=str(work_dir),
        gold_src2tgt=str(fixture.gold),
        vocab_size=fixture.vocab,
    )
    settings.update(overrides)
    return PipelineConfig(**settings)


def make_micro_cipher(root, **kw):
    """A cipher benchmark small enough for per-test pipeline runs."""
    settings = dict(vocab=25, sentences=80, dim=16, successors=5)
    settings.update(kw)
    return make_cipher(root, **settings)


def micro_config(fixture, work_dir, **overrides):
    settings = dict(sweeps=0, workers=1, beam=4, options_limit=4,
                    candidates=10, ngram_cap=300, dev_size=10)
    settings.update(overrides)
    return cipher_config(fixture, work_dir, **settings)


acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance verdicts after the test summary, uncaptured."""
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.line(line)


@pytest.fixture(scope="session")
def cipher_full(tmp_path_factory) -> CipherFixture:
    """The full-size benchmark: 300 words, 5,000 sentences."""
    return make_cipher(tmp_path_factory.mktemp("cipher_full"))


@pytest.fixture(scope="session")
def cipher_small(tmp_path_factory) -> CipherFixture:
    """Reduced benchmark for determinism comparisons: 120 words, 1,000 sentences."""
    return make_cipher(tmp_path_factory.mktemp("cipher_small"), vocab=120, sentences=1000)


@pytest.fixture(scope="session")
def cipher_tiny(tmp_path_factory) -> CipherFixture:
    """Minimal benchmark for pipeline plumbing tests: 40 words, 250 sentences."""
    return make_cipher(tmp_path_factory.mktemp("cipher_tiny"), vocab=40, sentences=250)
