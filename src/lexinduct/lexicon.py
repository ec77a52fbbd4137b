"""Phrase-pair extraction from aligned sentence pairs and the bilingual
dictionary distilled from one-to-one links.

A phrase pair is extracted from a span pair when both sides are at most
max_len words, at least one alignment link falls inside, and no link crosses
the span boundary (the standard consistency definition). The minimal target
span is additionally extended over adjacent *unaligned target* words;
source spans are enumerated exhaustively, so no source-side extension pass
is needed. The dictionary reads only pairs of one word on each side, and
such a pair is consistent exactly when its link is the only link of both
words, so `count_extractions` counts those one-to-one links directly.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .fileio import atomic_write, parse_number

Phrase = tuple[str, ...]
Link = tuple[int, int]


@dataclass
class InducedDictionary:
    """Ranked translation candidates per source word (best first)."""

    entries: dict[str, tuple[tuple[str, float], ...]]

    def __post_init__(self) -> None:
        self.entries = {s: tuple(c) for s, c in self.entries.items()}

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, source: str) -> bool:
        return source in self.entries

    def top1(self, source: str) -> str | None:
        cands = self.entries.get(source)
        return cands[0][0] if cands else None

    def write(self, path: str | Path) -> None:
        """"src<TAB>tgt<TAB>score" lines, sources sorted, candidates
        best-first."""
        with atomic_write(path) as fh:
            for src in sorted(self.entries):
                for tgt, score in self.entries[src]:
                    fh.write(f"{src}\t{tgt}\t{score:.6g}\n")

    @classmethod
    def read(cls, path: str | Path) -> "InducedDictionary":
        entries: dict[str, list[tuple[str, float]]] = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                parts = line.rstrip("\n").split("\t")
                if len(parts) != 3:
                    raise ValueError(f"{path}: line {lineno}: expected src<TAB>tgt<TAB>score")
                if not parts[0] or not parts[1]:
                    raise ValueError(f"{path}: line {lineno}: empty source or target word")
                score = parse_number(float, parts[2], path, lineno)
                entries.setdefault(parts[0], []).append((parts[1], score))
        return cls(entries)


def extract_phrases(
    src_tokens: Sequence[str],
    tgt_tokens: Sequence[str],
    links: set[Link],
    max_len: int = 3,
) -> list[tuple[Phrase, Phrase]]:
    """All consistent phrase pairs of one aligned sentence pair.

    Returns one entry per extraction occurrence (duplicates preserved so the
    caller can count). Deterministic order: by source span, then target span.

    Linear in the links plus the source spans: the links are indexed by
    source position, each span keeps the running bounds and count of its
    links as it grows, and a prefix count of links per target position
    tells in one subtraction whether another source word links into the
    span's target span.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    m, n = len(src_tokens), len(tgt_tokens)
    _check_links(links, m, n)
    targets: list[list[int]] = [[] for _ in range(m)]
    per_target = [0] * (n + 1)
    for s, t in links:
        targets[s].append(t)
        per_target[t + 1] += 1
    # before[j]: the number of links whose target lies before position j.
    before = list(itertools.accumulate(per_target))
    aligned_tgt = {t for _, t in links}
    pairs: list[tuple[Phrase, Phrase]] = []
    for i1 in range(m):
        j1, j2, inside = n, -1, 0
        for i2 in range(i1, min(i1 + max_len, m)):
            if targets[i2]:
                j1 = min(j1, *targets[i2])
                j2 = max(j2, *targets[i2])
                inside += len(targets[i2])
            if not inside or before[j2 + 1] - before[j1] != inside:
                continue
            src_phrase = tuple(src_tokens[i1 : i2 + 1])
            # Extend over unaligned boundary words on the target side only.
            jj1 = j1
            while True:
                jj2 = j2
                while True:
                    if jj2 - jj1 + 1 <= max_len:
                        pairs.append((src_phrase, tuple(tgt_tokens[jj1 : jj2 + 1])))
                    jj2 += 1
                    if jj2 >= n or jj2 in aligned_tgt:
                        break
                jj1 -= 1
                if jj1 < 0 or jj1 in aligned_tgt:
                    break
    return pairs


def _check_links(links: set[Link], m: int, n: int) -> None:
    for s, t in links:
        if not (0 <= s < m and 0 <= t < n):
            raise ValueError(f"link {s}-{t} out of range for lengths {m},{n}")


@dataclass
class ExtractedCounts:
    """Occurrence counts of extracted phrase pairs."""

    pairs: Counter = field(default_factory=Counter)


def count_extractions(
    bitext: Iterable[tuple[Sequence[str], Sequence[str]]],
    link_sets: Iterable[set[Link]],
) -> ExtractedCounts:
    """Tally the one-to-one links of a parallel corpus: ((s_i,), (t_j,))
    for each link (i, j) that is the only link of source position i and of
    target position j, which are the one-word pairs `extract_phrases` gives."""
    counts = ExtractedCounts()
    n_pairs = 0
    for (src, tgt), links in zip(bitext, link_sets, strict=True):
        n_pairs += 1
        _check_links(links, len(src), len(tgt))
        per_src = Counter(s for s, _ in links)
        per_tgt = Counter(t for _, t in links)
        for s, t in links:
            if per_src[s] == 1 and per_tgt[t] == 1:
                counts.pairs[((src[s],), (tgt[t],))] += 1
    if n_pairs == 0:
        raise ValueError("empty bitext")
    return counts


def write_extracted_counts(counts: ExtractedCounts, path: str | Path) -> None:
    """One "src ||| tgt ||| count" line per phrase pair, sorted by pair.

    Tokens are whitespace-delimited and single punctuation characters are
    their own tokens, so a space-joined phrase can never contain the
    delimiter.
    """
    with atomic_write(path) as fh:
        for (src, tgt), c in sorted(counts.pairs.items()):
            fh.write(f"{' '.join(src)} ||| {' '.join(tgt)} ||| {c}\n")


def read_extracted_counts(path: str | Path) -> ExtractedCounts:
    counts = ExtractedCounts()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(" ||| ")
            if len(parts) != 3:
                raise ValueError(f"{path}: line {lineno}: expected 3 '|||' fields")
            src, tgt = tuple(parts[0].split(" ")), tuple(parts[1].split(" "))
            if "" in src or "" in tgt:
                raise ValueError(f"{path}: line {lineno}: empty source or target word")
            c = parse_number(int, parts[2], path, lineno)
            if c < 1:
                raise ValueError(f"{path}: line {lineno}: count must be >= 1, got {c}")
            counts.pairs[(src, tgt)] += c
    return counts


def dictionary_from_counts(counts: ExtractedCounts) -> InducedDictionary:
    """Single-word dictionary from extraction counts.

    Keeps only pairs where both phrases are one word, so a counts file that
    also holds multi-word pairs gives the same dictionary. p(tgt|src)
    divides the pair count by the source marginal over the kept pairs, and
    p(src|tgt) divides it by the target marginal. Candidates are ranked by
    the score p(tgt|src) * p(src|tgt), then raw count, then ascending token,
    so a target that many sources share ranks below one that is this
    source's own.
    """
    unigram = {
        (s[0], t[0]): c for (s, t), c in counts.pairs.items() if len(s) == 1 and len(t) == 1
    }
    marginal: Counter = Counter()
    tgt_marginal: Counter = Counter()
    for (s, t), c in unigram.items():
        marginal[s] += c
        tgt_marginal[t] += c
    by_src: dict[str, list[tuple[str, float, int]]] = {}
    for (s, t), c in unigram.items():
        by_src.setdefault(s, []).append((t, c / marginal[s] * (c / tgt_marginal[t]), c))
    entries = {}
    for s, cands in by_src.items():
        cands.sort(key=lambda x: (-x[1], -x[2], x[0]))
        entries[s] = tuple((t, p) for t, p, _ in cands)
    return InducedDictionary(entries)
