"""Phrase extraction against a consistency oracle, and dictionary building."""

import random
import re
from collections import Counter

import numpy as np
import pytest

from lexinduct import (
    ExtractedCounts,
    InducedDictionary,
    count_extractions,
    dictionary_from_counts,
    extract_phrases,
    read_extracted_counts,
    write_extracted_counts,
)


class TestExtractPhrasesByHand:
    def test_two_word_diagonal(self):
        got = extract_phrases(["a", "b"], ["x", "y"], {(0, 0), (1, 1)})
        assert got == [
            (("a",), ("x",)),
            (("a", "b"), ("x", "y")),
            (("b",), ("y",)),
        ]

    def test_unaligned_target_right_extension(self):
        got = extract_phrases(["a"], ["x", "u"], {(0, 0)})
        assert got == [(("a",), ("x",)), (("a",), ("x", "u"))]

    def test_unaligned_target_left_extension(self):
        got = extract_phrases(["a"], ["u", "x"], {(0, 1)})
        assert got == [(("a",), ("x",)), (("a",), ("u", "x"))]

    def test_crossing_link_blocks_subspans(self):
        got = extract_phrases(["a", "b"], ["x"], {(0, 0), (1, 0)})
        assert got == [(("a", "b"), ("x",))]

    def test_no_links_no_extractions(self):
        assert extract_phrases(["a", "b"], ["x"], set()) == []

    def test_max_len_truncates_both_sides(self):
        links = {(i, i) for i in range(4)}
        got = extract_phrases(list("abcd"), list("wxyz"), links, max_len=2)
        assert all(len(s) <= 2 and len(t) <= 2 for s, t in got)
        assert (("a", "b"), ("w", "x")) in got
        assert (("a", "b", "c"), ("w", "x", "y")) not in got

    def test_validation(self):
        with pytest.raises(ValueError):
            extract_phrases(["a"], ["x"], {(0, 0)}, max_len=0)
        with pytest.raises(ValueError):
            extract_phrases(["a"], ["x"], {(1, 0)})
        with pytest.raises(ValueError):
            extract_phrases(["a"], ["x"], {(0, 2)})


def oracle_extractions(src, tgt, links, max_len):
    """Every consistent span pair, found by checking all quadruples."""
    out = Counter()
    m, n = len(src), len(tgt)
    for i1 in range(m):
        for i2 in range(i1, min(i1 + max_len, m)):
            for j1 in range(n):
                for j2 in range(j1, min(j1 + max_len, n)):
                    inside = [
                        (s, t) for s, t in links if i1 <= s <= i2 and j1 <= t <= j2
                    ]
                    if not inside:
                        continue
                    if any((i1 <= s <= i2) != (j1 <= t <= j2) for s, t in links):
                        continue
                    out[(tuple(src[i1 : i2 + 1]), tuple(tgt[j1 : j2 + 1]))] += 1
    return out


def scanned_extractions(src, tgt, links, max_len):
    """The extractions in order, each source span's links found by scanning
    every link and each target span checked against every link."""
    aligned = {t for _, t in links}
    out = []
    for i1 in range(len(src)):
        for i2 in range(i1, min(i1 + max_len, len(src))):
            inside = [t for s, t in links if i1 <= s <= i2]
            if not inside:
                continue
            j1, j2 = min(inside), max(inside)
            if any(not (i1 <= s <= i2) for s, t in links if j1 <= t <= j2):
                continue
            lefts = [j1]
            while lefts[-1] > 0 and lefts[-1] - 1 not in aligned:
                lefts.append(lefts[-1] - 1)
            rights = [j2]
            while rights[-1] < len(tgt) - 1 and rights[-1] + 1 not in aligned:
                rights.append(rights[-1] + 1)
            out += [
                (tuple(src[i1 : i2 + 1]), tuple(tgt[a : b + 1]))
                for a in lefts
                for b in rights
                if b - a < max_len
            ]
    return out


class TestExtractionOracle:
    @pytest.mark.parametrize("max_len", [1, 2, 3])
    def test_matches_consistency_definition(self, max_len):
        rng = random.Random(80 + max_len)
        for _ in range(50):
            m = rng.randint(1, 8)
            n = rng.randint(1, 8)
            src = [f"s{i}" for i in range(m)]
            tgt = [f"t{j}" for j in range(n)]
            links = {
                (rng.randrange(m), rng.randrange(n)) for _ in range(rng.randint(0, m + n))
            }
            got = Counter(extract_phrases(src, tgt, links, max_len))
            assert got == oracle_extractions(src, tgt, links, max_len)

    @pytest.mark.parametrize("max_len", [1, 2, 3])
    def test_order_of_the_link_scan(self, max_len):
        rng = random.Random(95 + max_len)
        for _ in range(300):
            m, n = rng.randint(1, 10), rng.randint(1, 10)
            src = [f"s{i}" for i in range(m)]
            tgt = [f"t{j}" for j in range(n)]
            links = {
                (rng.randrange(m), rng.randrange(n)) for _ in range(rng.randint(0, 2 * (m + n)))
            }
            want = scanned_extractions(src, tgt, links, max_len)
            assert extract_phrases(src, tgt, links, max_len) == want


def random_bitext(rng, size):
    """Sentence pairs and link sets over a small vocabulary, so that pairs
    recur across sentences."""
    bitext, link_sets = [], []
    for _ in range(size):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        bitext.append(([f"s{rng.randrange(4)}" for _ in range(m)],
                       [f"t{rng.randrange(4)}" for _ in range(n)]))
        link_sets.append(
            {(rng.randrange(m), rng.randrange(n)) for _ in range(rng.randint(0, m + n))}
        )
    return bitext, link_sets


def one_word(pairs):
    return Counter({(s, t): c for (s, t), c in pairs.items() if len(s) == len(t) == 1})


class TestCountExtractions:
    @pytest.mark.parametrize("max_len", [1, 2, 3])
    def test_one_word_sources_of_the_oracle(self, max_len):
        # The one-word pairs of extraction at any phrase length bound are
        # the one-to-one links.
        rng = random.Random(90 + max_len)
        bitext, link_sets = random_bitext(rng, 50)
        extracted, oracle = Counter(), Counter()
        for (src, tgt), links in zip(bitext, link_sets):
            extracted += Counter(extract_phrases(src, tgt, links, max_len))
            oracle += oracle_extractions(src, tgt, links, max_len)
        counts = count_extractions(bitext, link_sets)
        assert counts.pairs == one_word(extracted) == one_word(oracle)

    def test_counts_with_multi_word_pairs_give_the_same_dictionary(self, tmp_path):
        # Older versions also wrote pairs of multi-word phrases.
        bitext, link_sets = random_bitext(random.Random(97), 80)
        every = ExtractedCounts(Counter(
            pair for (src, tgt), links in zip(bitext, link_sets)
            for pair in extract_phrases(src, tgt, links)
        ))
        assert any(len(t) > 1 for _, t in every.pairs)
        written = []
        for name, counts in (("old", every), ("new", count_extractions(bitext, link_sets))):
            write_extracted_counts(counts, tmp_path / f"{name}.counts")
            dictionary_from_counts(read_extracted_counts(tmp_path / f"{name}.counts")).write(
                tmp_path / f"{name}.tsv"
            )
            written.append((tmp_path / f"{name}.tsv").read_bytes())
        assert written[0] == written[1] != b""

    def test_out_of_range_link_fatal(self):
        with pytest.raises(ValueError, match="out of range"):
            count_extractions([(["a", "b"], ["x"])], [{(0, 0), (1, 3)}])

    def test_tallies_across_pairs(self):
        bitext = [(["a"], ["x"]), (["a"], ["x"]), (["b"], ["y"])]
        links = [{(0, 0)}, {(0, 0)}, {(0, 0)}]
        counts = count_extractions(bitext, links)
        assert counts.pairs[(("a",), ("x",))] == 2
        assert counts.pairs[(("b",), ("y",))] == 1

    def test_length_mismatch_fatal(self):
        with pytest.raises(ValueError):
            count_extractions([(["a"], ["x"])], [{(0, 0)}, {(0, 0)}])

    def test_empty_bitext_fatal(self):
        with pytest.raises(ValueError):
            count_extractions([], [])


class TestCountsIO:
    def test_round_trip_and_format(self, tmp_path):
        counts = ExtractedCounts(Counter({
            (("b", "c"), ("y",)): 1,
            (("a",), ("x", "z")): 7,
        }))
        path = tmp_path / "counts.txt"
        write_extracted_counts(counts, path)
        assert path.read_text(encoding="utf-8") == "a ||| x z ||| 7\nb c ||| y ||| 1\n"
        assert read_extracted_counts(path).pairs == counts.pairs

    def test_malformed_lines_fatal(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("a ||| x\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_extracted_counts(path)
        path.write_text("a ||| x ||| many\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_extracted_counts(path)
        # A count below 1 would divide by zero or give a negative score.
        for body, lineno in (("a ||| x ||| 0\n", 1), ("a ||| y ||| 2\na ||| x ||| -1\n", 2)):
            path.write_text(body, encoding="utf-8")
            with pytest.raises(ValueError, match=re.escape(f"{path}: line {lineno}: count must be >= 1")):
                read_extracted_counts(path)

    def test_empty_phrase_fatal(self, tmp_path):
        # An empty source would become a dictionary entry for '' and take a
        # share of the target marginal that no real word has.
        path = tmp_path / "counts.txt"
        for body in (" ||| x ||| 3\na ||| x ||| 1\n", "a ||| x ||| 1\nb |||  ||| 2\n",
                     "a ||| x ||| 1\nb  c ||| y ||| 2\n"):
            path.write_text(body, encoding="utf-8")
            lineno = 1 if body.startswith(" ") else 2
            with pytest.raises(ValueError, match=re.escape(f"{path}: line {lineno}: empty source")):
                read_extracted_counts(path)


class TestDictionaryFromCounts:
    def test_probability_ranking(self):
        counts = ExtractedCounts(Counter({
            (("dog",), ("perro",)): 3,
            (("dog",), ("can",)): 1,
        }))
        induced = dictionary_from_counts(counts)
        assert induced.entries["dog"] == (("perro", 0.75), ("can", 0.25))
        assert induced.top1("dog") == "perro"

    def test_hub_target_loses_on_the_product(self):
        # "el" is dog's most frequent target, but most of its links come from
        # another source; "perro" is dog's alone. p(t|s) alone ranks "el" first.
        counts = ExtractedCounts(Counter({
            (("dog",), ("el",)): 3,
            (("dog",), ("perro",)): 2,
            (("cat",), ("el",)): 10,
        }))
        induced = dictionary_from_counts(counts)
        assert [t for t, _ in induced.entries["dog"]] == ["perro", "el"]
        np.testing.assert_allclose(
            [p for _, p in induced.entries["dog"]], [2 / 5 * 2 / 2, 3 / 5 * 3 / 13], rtol=1e-15
        )
        np.testing.assert_allclose(dict(induced.entries["cat"])["el"], 10 / 13, rtol=1e-15)

    def test_multi_word_pairs_excluded(self):
        counts = ExtractedCounts(Counter({
            (("dog",), ("perro",)): 1,
            (("dog", "house"), ("perrera",)): 5,
            (("cat",), ("el", "gato")): 2,
        }))
        induced = dictionary_from_counts(counts)
        assert set(induced.entries) == {"dog"}

    def test_tie_breaks_by_count_then_token(self):
        counts = ExtractedCounts(Counter({
            (("w",), ("y",)): 2,
            (("w",), ("x",)): 2,
        }))
        induced = dictionary_from_counts(counts)
        assert [t for t, _ in induced.entries["w"]] == ["x", "y"]


class TestInducedDictionary:
    def test_top1_and_contains(self):
        induced = InducedDictionary({"a": (("x", 0.9), ("y", 0.1))})
        assert induced.top1("a") == "x"
        assert induced.top1("zz") is None
        assert "a" in induced and "zz" not in induced
        assert len(induced) == 1

    def test_write_read_round_trip(self, tmp_path):
        induced = InducedDictionary({
            "b": (("y", 0.5), ("x", 0.5)),
            "a": (("z", 1.0),),
        })
        path = tmp_path / "dict.tsv"
        induced.write(path)
        back = InducedDictionary.read(path)
        assert back.entries["a"] == (("z", 1.0),)
        assert [t for t, _ in back.entries["b"]] == ["y", "x"]

    def test_read_rejects_malformed(self, tmp_path):
        path = tmp_path / "dict.tsv"
        path.write_text("a x\n", encoding="utf-8")
        with pytest.raises(ValueError):
            InducedDictionary.read(path)

    def test_read_rejects_empty_words(self, tmp_path):
        path = tmp_path / "dict.tsv"
        for body in ("\tx\t0.75\n", "a\tx\t0.5\nb\t\t0.5\n"):
            path.write_text(body, encoding="utf-8")
            lineno = body.count("\n")
            with pytest.raises(ValueError, match=re.escape(f"{path}: line {lineno}: empty source")):
                InducedDictionary.read(path)

    def test_non_numeric_score_names_file_and_line(self, tmp_path):
        path = tmp_path / "dict.tsv"
        path.write_text("a\tx\t0.5\nb\ty\thigh\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            InducedDictionary.read(path)
        assert str(info.value) == f"{path}: line 2: expected a number, got 'high'"
