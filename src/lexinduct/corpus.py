"""Monolingual corpus handling: tokenization, n-gram counting, vocabulary
truncation, and deterministic sampling.

All downstream stages consume the token streams produced here, so the rules
are deliberately rigid: NFC normalization, lowercasing, punctuation detached
into standalone tokens, and (optionally) aggressive hyphen splitting.
"""

from __future__ import annotations

import random
import unicodedata
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .fileio import atomic_write

Sentence = tuple[str, ...]
NGram = tuple[str, ...]


def _is_separator(ch: str) -> bool:
    # Unicode punctuation (P*) and symbols (S*) split off; letters, digits,
    # and marks are word characters.
    return unicodedata.category(ch)[0] in ("P", "S")


def _split_chunk(chunk: str, aggressive_hyphens: bool) -> list[str]:
    pieces: list[str] = []
    word: list[str] = []
    last = len(chunk) - 1
    for i, ch in enumerate(chunk):
        if not _is_separator(ch):
            word.append(ch)
            continue
        keep_inline = (
            ch == "-"
            and not aggressive_hyphens
            and 0 < i < last
            and not _is_separator(chunk[i - 1])
            and not _is_separator(chunk[i + 1])
        )
        if keep_inline:
            word.append(ch)
        else:
            if word:
                pieces.append("".join(word))
                word = []
            pieces.append(ch)
    if word:
        pieces.append("".join(word))
    return pieces


def tokenize(text: str, aggressive_hyphens: bool = True, lowercase: bool = True) -> list[str]:
    """Tokenize one sentence.

    Whitespace splits, every punctuation/symbol character becomes its own
    token, and with aggressive_hyphens intra-word hyphens split too
    ("state-of-the-art" -> state - of - the - art). Idempotent: tokenizing a
    space-joined token list reproduces it.
    """
    text = unicodedata.normalize("NFC", text)
    if lowercase:
        text = text.lower()
    tokens: list[str] = []
    for chunk in text.split():
        tokens.extend(_split_chunk(chunk, aggressive_hyphens))
    return tokens


@dataclass(frozen=True)
class Corpus:
    """An ordered list of tokenized sentences."""

    sentences: tuple[Sentence, ...]
    source_path: str = "<memory>"

    @property
    def token_count(self) -> int:
        return sum(len(s) for s in self.sentences)

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)


def load_corpus(path: str | Path, aggressive_hyphens: bool = True, lowercase: bool = True) -> Corpus:
    """Read a UTF-8 text file with one sentence per line and tokenize it."""
    sentences = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            sentences.append(tuple(tokenize(line, aggressive_hyphens, lowercase)))
    return Corpus(tuple(sentences), str(path))


def write_corpus(sentences: Iterable[Sequence[str]], path: str | Path) -> None:
    """One line per sentence, tokens joined by single spaces; a `Corpus`
    or any iterable of token sequences."""
    with atomic_write(path) as fh:
        for sentence in sentences:
            fh.write(" ".join(sentence) + "\n")


def count_ngrams(corpus: Corpus | Iterable[Sequence[str]], max_n: int) -> dict[int, Counter[NGram]]:
    """Count n-grams for every order 1..max_n, keyed by order.

    Windows never cross sentence boundaries and no padding symbols are added;
    a sentence shorter than n contributes no n-grams at that order.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    by_order: dict[int, Counter[NGram]] = {n: Counter() for n in range(1, max_n + 1)}
    for sent in corpus:
        length = len(sent)
        for n in range(1, max_n + 1):
            counts = by_order[n]
            for i in range(length - n + 1):
                counts[tuple(sent[i : i + n])] += 1
    return by_order


def build_vocabulary(unigrams: Counter[NGram], size: int) -> list[str]:
    """The `size` most frequent tokens of the unigram counts, ties broken
    lexicographically."""
    if size < 1:
        raise ValueError(f"vocabulary size must be >= 1, got {size}")
    ranked = sorted(unigrams.items(), key=lambda kv: (-kv[1], kv[0]))
    return [gram[0] for gram, _ in ranked[:size]]


def sample_sentences(corpus: Corpus, count: int, seed: int) -> Corpus:
    """Deterministic uniform sample without replacement, in corpus order.

    If count >= len(corpus) the whole corpus is returned unchanged.
    """
    if count < 0:
        raise ValueError(f"sample count must be >= 0, got {count}")
    n = len(corpus.sentences)
    if count >= n:
        return corpus
    picked = sorted(random.Random(seed).sample(range(n), count))
    return Corpus(tuple(corpus.sentences[i] for i in picked), corpus.source_path)
