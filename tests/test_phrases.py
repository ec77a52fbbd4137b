"""Phrase inventories, embeddings, softmax scoring, temperature fitting,
and phrase-table assembly."""

import math

import numpy as np
import pytest

from lexinduct import (
    EmbeddingStore,
    PhraseTable,
    PhraseTableEntry,
    ScoredCandidates,
    TemperatureParam,
    build_phrase_inventory,
    build_phrase_store,
    count_ngrams,
    floored_probs,
    induce_tables,
    softmax_scores,
    unit_normalize,
)
from lexinduct import phrases
from lexinduct.phrases import PROB_FLOOR, word_store
from oracles import (
    build_phrase_table,
    candidate_sets,
    estimate_temperature,
    lexical_weight,
    phrase_embedding,
    table_of,
    top1_sample,
    word_translation_table,
)


def unit_store(n, dim, seed, prefix="w"):
    rng = np.random.default_rng(seed)
    vocab = tuple(f"{prefix}{i:03d}" for i in range(n))
    return unit_normalize(EmbeddingStore(vocab, rng.normal(size=(n, dim)).astype(np.float32)))


class TestInventory:
    def test_words_plus_capped_ngrams(self):
        sents = [["a", "b", "a", "b"], ["a", "b", "c"]]
        counts = count_ngrams(sents, 3)
        inv = build_phrase_inventory(counts, vocab_size=10, ngram_cap=1)
        assert ("a",) in inv and ("c",) in inv
        bigrams = [p for p in inv if len(p) == 2]
        trigrams = [p for p in inv if len(p) == 3]
        assert bigrams == [("a", "b")]
        assert trigrams == [("a", "b", "a")]
        assert inv[("a", "b")] == 3

    def test_ngram_tie_breaks_ascending(self):
        counts = count_ngrams([["b", "z"], ["a", "z"]], 3)
        inv = build_phrase_inventory(counts, vocab_size=10, ngram_cap=1)
        assert [p for p in inv if len(p) == 2] == [("a", "z")]

    def test_missing_order_fatal(self):
        counts = count_ngrams([["a", "b"]], 2)
        with pytest.raises(ValueError):
            build_phrase_inventory(counts)

    def test_vocab_truncation_applies(self):
        counts = count_ngrams([["a", "a", "b", "c"]], 3)
        inv = build_phrase_inventory(counts, vocab_size=2, ngram_cap=0)
        assert set(inv) == {("a",), ("b",)}


class TestPhraseEmbedding:
    def test_single_word_is_its_unit_vector(self):
        words = unit_store(5, 8, 31)
        got = phrase_embedding(("w002",), words)
        np.testing.assert_allclose(got, words.vectors[words.indices(["w002"])[0]], atol=2e-7)

    def test_mean_is_renormalized(self):
        words = unit_store(5, 8, 32)
        got = phrase_embedding(("w000", "w003", "w004"), words)
        mean = words.vectors[words.indices(["w000", "w003", "w004"])].astype(np.float64).mean(0)
        np.testing.assert_allclose(got, mean / np.linalg.norm(mean), atol=2e-7)
        np.testing.assert_allclose(np.linalg.norm(got.astype(np.float64)), 1.0, atol=1e-6)

    def test_errors(self):
        words = unit_store(3, 4, 33)
        with pytest.raises(ValueError):
            phrase_embedding((), words)
        with pytest.raises(ValueError):
            phrase_embedding(("nope",), words)


class TestPhraseStore:
    def test_matches_per_phrase_embedding(self):
        words = unit_store(6, 5, 34)
        inv = {
            ("w000",): 4,
            ("w001",): 3,
            ("w002", "w001"): 2,
            ("w000", "w003", "w005"): 1,
        }
        store = build_phrase_store(inv, words)
        assert store.vocab == tuple(sorted(" ".join(p) for p in inv))
        for phrase in inv:
            np.testing.assert_allclose(
                store.vectors[store.indices([" ".join(phrase)])[0]],
                phrase_embedding(phrase, words),
                atol=2e-7,
            )

    def test_oov_phrases_dropped(self):
        words = unit_store(3, 4, 35)
        inv = {("w000",): 2, ("w000", "zzz"): 1}
        store = build_phrase_store(inv, words)
        assert store.vocab == ("w000",)

    def test_nothing_covered_fatal(self):
        words = unit_store(2, 4, 36)
        with pytest.raises(ValueError):
            build_phrase_store({("zzz",): 1}, words)


class TestSoftmaxScores:
    def test_pinned_two_candidate_value(self):
        probs = softmax_scores(np.array([0.8, 0.4]), 0.2)
        np.testing.assert_allclose(probs[0], 0.8808, atol=1e-4)
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-9)

    def test_sums_to_one_across_shapes_and_temperatures(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            cos = rng.uniform(-1.0, 1.0, size=n)
            tau = float(rng.uniform(0.01, 5.0))
            probs = softmax_scores(cos, tau)
            np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-9)
            assert (probs >= 0.0).all()

    def test_shift_invariance(self):
        cos = np.array([0.3, -0.2, 0.9])
        np.testing.assert_allclose(
            softmax_scores(cos, 0.5), softmax_scores(cos + 123.0, 0.5), atol=1e-12
        )

    def test_extreme_temperature_is_stable(self):
        probs = softmax_scores(np.array([1.0, 0.999, -1.0]), 1e-4)
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-9)

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValueError):
            softmax_scores(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            TemperatureParam(-1.0)


class TestFlooredProbs:
    def test_floor_applied_and_renormalized(self):
        probs = floored_probs(np.array([1.0, 0.0, 0.0]), floor=0.1)
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-12)
        assert (probs >= 0.1 / 1.2 - 1e-12).all()

    def test_noop_above_floor(self):
        probs = np.array([0.6, 0.4])
        np.testing.assert_allclose(floored_probs(probs), probs, atol=1e-12)


def make_candidates(entries):
    """entries: {query: [(target, cosine), ...]} -> candidate-set dict."""
    return {
        q: ScoredCandidates(q, tuple((t, float(s)) for t, s in cands))
        for q, cands in entries.items()
    }


def reference_nll(cands, pairs, tau):
    total = 0.0
    for generated, generator in pairs:
        cand = cands[generator]
        scores = {t: s for t, s in cand.candidates}
        row = np.array([s for _, s in cand.candidates]) / tau
        top = row.max()
        lse = top + math.log(np.exp(row - top).sum())
        total += lse - scores[generated] / tau
    return total


class TestEstimateTemperature:
    def pairs_and_cands(self, seed, n_queries=12, n_cands=8):
        rng = np.random.default_rng(seed)
        entries = {}
        pairs = []
        for i in range(n_queries):
            q = f"q{i:02d}"
            cos = np.sort(rng.uniform(-1.0, 1.0, size=n_cands))[::-1]
            cands = [(f"c{i:02d}_{j}", cos[j]) for j in range(n_cands)]
            entries[q] = cands
            pairs.append((cands[int(rng.integers(0, 3))][0], q))
        return make_candidates(entries), pairs

    def test_nll_matches_dense_grid_minimum(self):
        for seed in (40, 41, 42):
            cands, pairs = self.pairs_and_cands(seed)
            fitted = estimate_temperature(cands, pairs)
            grid = np.exp(np.linspace(math.log(1e-3), math.log(10.0), 2001))
            grid_best = min(reference_nll(cands, pairs, t) for t in grid)
            assert reference_nll(cands, pairs, fitted.tau) <= grid_best + 1e-3

    def test_pairs_outside_candidate_sets_skipped(self, caplog):
        cands, pairs = self.pairs_and_cands(43)
        with caplog.at_level("WARNING"):
            with_junk = estimate_temperature(cands, pairs + [("zz", "q00"), ("c", "nope")])
        clean = estimate_temperature(cands, pairs)
        np.testing.assert_allclose(with_junk.tau, clean.tau, rtol=1e-12)
        assert any("skipped 2 pairs" in rec.message for rec in caplog.records)

    def test_no_usable_pairs_fatal(self):
        cands, _ = self.pairs_and_cands(44)
        with pytest.raises(ValueError):
            estimate_temperature(cands, [("zz", "nope")])


class TestWordTableAndLexicalWeight:
    def test_hand_lexical_weight(self):
        table = {"a": {"x": 0.9, "y": 0.1}, "b": {"x": 0.2, "y": 0.7}}
        got = lexical_weight(("a", "b"), ("x", "y"), table)
        np.testing.assert_allclose(got, 0.63, atol=1e-12)

    def test_uncovered_word_contributes_floor(self):
        table = {"a": {"x": 0.5}}
        got = lexical_weight(("a",), ("x", "unseen"), table, floor=1e-7)
        np.testing.assert_allclose(got, 0.5 * 1e-7, atol=1e-20)

    def test_word_table_rows_are_floored_softmaxes(self):
        cands = make_candidates({"a": [("x", 0.9), ("y", 0.1)]})
        table = word_translation_table(cands, TemperatureParam(0.5))
        want = floored_probs(softmax_scores(np.array([0.9, 0.1]), 0.5))
        np.testing.assert_allclose([table["a"]["x"], table["a"]["y"]], want, atol=1e-12)


class TestTop1Sample:
    def test_full_when_sample_large(self):
        cands = make_candidates({"a": [("x", 0.9)], "b": [("y", 0.8)]})
        assert top1_sample(cands, sample_size=10) == [("a", "x"), ("b", "y")]

    def test_seeded_subsample_is_deterministic(self):
        cands = make_candidates({f"q{i}": [(f"t{i}", 0.5)] for i in range(50)})
        a = top1_sample(cands, sample_size=10, seed=3)
        b = top1_sample(cands, sample_size=10, seed=3)
        assert a == b and len(a) == 10
        assert top1_sample(cands, sample_size=10, seed=4) != a


class TestPhraseTable:
    def entry(self, src="a", tgt="x", **kw):
        values = dict(phi_fwd=0.5, phi_bwd=0.5, lex_fwd=0.5, lex_bwd=0.5)
        values.update(kw)
        return PhraseTableEntry(src, tgt, **values)

    def test_probability_range_enforced(self):
        with pytest.raises(ValueError, match=r"^phi_fwd=0\.0 outside \(0, 1\] for 'a'$"):
            table_of({"a": (self.entry(phi_fwd=0.0),)})
        with pytest.raises(ValueError, match=r"^lex_bwd=1\.5 outside \(0, 1\] for 'b'$"):
            table_of({"a": (self.entry(),), "b": (self.entry(src="b", lex_bwd=1.5),)})
        table_of({"a": (self.entry(phi_fwd=1.0),)})

    def test_options_and_max_source_words(self):
        table = table_of({
            "a": (self.entry(),),
            "b c d": (self.entry(src="b c d", tgt="y z"),),
        })
        assert table.entries["a"] == (self.entry(),)
        assert table.entries["b c d"][0].tgt == "y z"
        assert "nope" not in table.entries and table.log_options("nope") == ()
        assert table.max_source_words() == 3
        assert len(table) == 2
        with pytest.raises(TypeError):
            table.entries["nope"] = ()

    def test_write_read_rewrite_is_byte_stable(self, tmp_path):
        rng = np.random.default_rng(45)
        entries = {}
        for i in range(20):
            src = f"s{i:02d}"
            rows = []
            for j in range(4):
                probs = rng.uniform(1e-7, 1.0, size=4)
                rows.append(PhraseTableEntry(src, f"t{j}", *probs))
            rows.sort(key=lambda e: (-e.phi_fwd, e.tgt))
            entries[src] = tuple(rows)
        table = table_of(entries)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        table.write(p1)
        PhraseTable.read(p1).write(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_read_gives_entries_and_the_decoder_view(self, tmp_path):
        entries = {
            "a": (self.entry(tgt="x", phi_fwd=0.75), self.entry(tgt="y z", phi_fwd=0.25)),
            "b c": (self.entry(src="b c", tgt="w", lex_bwd=1.0),),
        }
        path = tmp_path / "t.txt"
        table_of(entries).write(path)
        table = PhraseTable.read(path)
        assert table.entries == entries
        assert len(table) == 3 and table.max_source_words() == 2
        fields = ("phi_fwd", "phi_bwd", "lex_fwd", "lex_bwd")
        assert table.log_options("a") == tuple(
            (e.tgt, tuple(e.tgt.split(" ")), tuple(math.log(getattr(e, f)) for f in fields))
            for e in entries["a"]
        )
        assert table.log_options("nope") == ()

    def test_sources_with_different_entry_counts_round_trip(self, tmp_path):
        rng = np.random.default_rng(52)
        entries = {}
        for i, count in enumerate((1, 7, 3, 1, 5, 2)):
            src = f"s{5 - i} w{i}" if i % 2 else f"s{5 - i}"
            rows = [PhraseTableEntry(src, f"t{j}", *rng.uniform(1e-7, 1.0, size=4))
                    for j in range(count)]
            entries[src] = tuple(sorted(rows, key=lambda e: (-e.phi_fwd, e.tgt)))
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        table_of(entries).write(p1)
        table = PhraseTable.read(p1)
        table.write(p2)
        assert p1.read_bytes() == p2.read_bytes()
        # Sources sorted, each source's entries in table order.
        lines = [line.split(" ||| ")[:2] for line in p1.read_text(encoding="utf-8").splitlines()]
        assert lines == [[s, e.tgt] for s in sorted(entries) for e in entries[s]]
        assert [len(table.entries[s]) for s in sorted(entries)] == [
            len(entries[s]) for s in sorted(entries)
        ]
        assert sum(len(v) for v in table.entries.values()) == len(table) == 19

    def test_interleaved_sources_read_like_the_grouped_file(self, tmp_path):
        lines = [
            "b ||| y ||| 0.5 0.5 0.5 0.5\n",
            "a ||| x ||| 0.25 0.5 0.5 0.5\n",
            "b ||| x ||| 0.125 0.5 0.5 0.5\n",
            "c d ||| z ||| 1 1 1 1\n",
            "a ||| y z ||| 0.75 0.5 0.5 0.5\n",
            "b ||| w ||| 0.0625 0.5 0.5 0.5\n",
        ]
        grouped = sorted(lines, key=lambda line: line.split(" ||| ")[0])
        (tmp_path / "mixed.txt").write_text("".join(lines), encoding="utf-8")
        (tmp_path / "grouped.txt").write_text("".join(grouped), encoding="utf-8")
        mixed = PhraseTable.read(tmp_path / "mixed.txt")
        assert mixed.entries == PhraseTable.read(tmp_path / "grouped.txt").entries
        assert [e.tgt for e in mixed.entries["a"]] == ["x", "y z"]
        assert [e.tgt for e in mixed.entries["b"]] == ["y", "x", "w"]
        assert [tgt for tgt, _, _ in mixed.log_options("b")] == ["y", "x", "w"]
        assert mixed.log_options("a")[1][2] == (math.log(0.75),) + (math.log(0.5),) * 3
        # Round-robin over six sources of 20 entries each.
        rng = np.random.default_rng(57)
        entries = {
            f"s{i}": tuple(PhraseTableEntry(f"s{i}", f"t{j}", *rng.uniform(0.01, 1.0, size=4))
                           for j in range(20))
            for i in range(6)
        }
        table_of(entries).write(tmp_path / "grouped.txt")
        grouped = (tmp_path / "grouped.txt").read_text(encoding="utf-8").splitlines(True)
        mixed = [grouped[i * 20 + j] for j in range(20) for i in range(6)]
        (tmp_path / "mixed.txt").write_text("".join(mixed), encoding="utf-8")
        back = PhraseTable.read(tmp_path / "mixed.txt")
        assert back.entries == PhraseTable.read(tmp_path / "grouped.txt").entries
        assert [[e.tgt for e in back.entries[s]] for s in entries] == [
            [f"t{j}" for j in range(20)]
        ] * 6

    @pytest.mark.parametrize("line, message", [
        ("a ||| x\n", "expected 3 '|||' fields"),
        ("a ||| x ||| 0.5 0.5 0.5\n", "expected 4 probabilities"),
        ("a ||| x ||| 0.5 abc 0.5 0.5\n", "non-numeric probability"),
        ("a ||| x ||| 0.5 0.5 1.5 0.5\n", "lex_fwd=1.5 outside (0, 1] for 'a'"),
        ("a ||| x ||| 0 0.5 0.5 0.5\n", "phi_fwd=0.0 outside (0, 1] for 'a'"),
        ("a ||| x ||| 0.5 nan 0.5 0.5\n", "phi_bwd=nan outside (0, 1] for 'a'"),
    ])
    def test_read_errors_name_the_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "t.txt"
        path.write_text("b ||| y ||| 0.5 0.5 0.5 0.5\n\n" + line, encoding="utf-8")
        with pytest.raises(ValueError) as info:
            PhraseTable.read(path)
        assert str(info.value) == f"{path}: line 3: {message}"


class TestBuildPhraseTable:
    def test_probabilities_and_fallbacks(self):
        tau = TemperatureParam(0.5)
        fwd = make_candidates({"a": [("x", 0.9), ("y", 0.3)]})
        rev = make_candidates({"x": [("a", 0.9)], "y": [("b", 0.4)]})
        wt_fwd = word_translation_table(fwd, tau)
        wt_rev = word_translation_table(rev, tau)
        table = build_phrase_table(fwd, rev, tau, tau, wt_fwd, wt_rev)
        opts = table.entries["a"]
        assert [e.tgt for e in opts] == ["x", "y"]
        want = floored_probs(softmax_scores(np.array([0.9, 0.3]), 0.5))
        np.testing.assert_allclose([e.phi_fwd for e in opts], want, atol=1e-12)
        # x's reverse candidates include a; y's do not, so it falls to the floor.
        assert opts[0].phi_bwd > PROB_FLOOR
        np.testing.assert_allclose(opts[1].phi_bwd, PROB_FLOOR, atol=1e-15)

    def test_forward_probs_sum_to_one_per_source(self):
        tau = TemperatureParam(1.0)
        fwd = make_candidates({"a": [("x", 0.8), ("y", 0.2), ("z", -0.5)]})
        rev = make_candidates({"x": [("a", 0.8)]})
        wt = word_translation_table(fwd, tau)
        table = build_phrase_table(fwd, rev, tau, tau, wt, word_translation_table(rev, tau))
        np.testing.assert_allclose(
            sum(e.phi_fwd for e in table.entries["a"]), 1.0, atol=1e-9
        )


class TestInduceTables:
    def test_end_to_end_shapes_and_normalization(self):
        src = unit_store(12, 6, 46, "s")
        tgt = unit_store(12, 6, 47, "t")
        result = induce_tables(src, tgt, src, tgt, k=5, reverse_sample=8, seed=2)
        assert result.tau_fwd.tau > 0 and result.tau_rev.tau > 0
        assert set(result.table_fwd.entries) == set(src.vocab)
        assert set(result.table_rev.entries) == set(tgt.vocab)
        for phrase in src.vocab:
            opts = result.table_fwd.entries[phrase]
            assert len(opts) == 5
            np.testing.assert_allclose(sum(e.phi_fwd for e in opts), 1.0, atol=1e-9)

    def test_entry_views_count_every_entry(self, tmp_path):
        src = unit_store(12, 6, 53, "s")
        tgt = unit_store(9, 6, 54, "t")
        result = induce_tables(src, tgt, src, tgt, k=4, reverse_sample=8, seed=2)
        for table in (result.table_fwd, result.table_rev):
            table.write(tmp_path / "t.txt")
            back = PhraseTable.read(tmp_path / "t.txt")
            for t in (table, back):
                assert sum(len(v) for v in t.entries.values()) == len(t) == 4 * len(t.src)

    def test_write_then_read_gives_the_written_log_options(self, tmp_path):
        src = unit_store(12, 6, 55, "s")
        tgt = unit_store(10, 6, 56, "t")
        table = induce_tables(src, tgt, src, tgt, k=5, reverse_sample=8, seed=2).table_fwd
        table.write(tmp_path / "t.txt")
        back = PhraseTable.read(tmp_path / "t.txt")
        assert set(back.src) == set(table.src) and back.max_source_words() == 1
        for phrase in src.vocab:
            got, written = back.log_options(phrase), table.log_options(phrase)
            assert [o[:2] for o in got] == [o[:2] for o in written]
            # The file keeps 6 significant digits of each probability.
            rounded = [
                tuple(math.log(float("%.6g" % p)) for p in e[2:]) for e in table.entries[phrase]
            ]
            assert [o[2] for o in got] == rounded
            np.testing.assert_allclose([o[2] for o in got], [o[2] for o in written], atol=1e-5)

    def test_deterministic(self):
        src = unit_store(10, 5, 48, "s")
        tgt = unit_store(10, 5, 49, "t")
        a = induce_tables(src, tgt, src, tgt, k=4, reverse_sample=6, seed=3)
        b = induce_tables(src, tgt, src, tgt, k=4, reverse_sample=6, seed=3)
        assert a.tau_fwd.tau == b.tau_fwd.tau
        assert a.table_fwd.entries == b.table_fwd.entries


def oracle_tables(src, tgt, src_words, tgt_words, k, reverse_sample, seed, floor=PROB_FLOOR):
    """Both directions' tables and temperatures, entry by entry from dicts."""
    fwd = candidate_sets(src, tgt, k)
    rev = candidate_sets(tgt, src, k)
    tau_fwd = estimate_temperature(fwd, top1_sample(rev, reverse_sample, seed))
    tau_rev = estimate_temperature(rev, top1_sample(fwd, reverse_sample, seed))
    word_k = min(k, len(tgt_words), len(src_words))
    wt_fwd = word_translation_table(candidate_sets(src_words, tgt_words, word_k), tau_fwd, floor)
    wt_rev = word_translation_table(candidate_sets(tgt_words, src_words, word_k), tau_rev, floor)
    table_fwd = build_phrase_table(fwd, rev, tau_fwd, tau_rev, wt_fwd, wt_rev, floor)
    table_rev = build_phrase_table(rev, fwd, tau_rev, tau_fwd, wt_rev, wt_fwd, floor)
    return table_fwd, table_rev, tau_fwd, tau_rev


def random_phrase_store(rng, n_words, dim, prefix):
    """Phrase store over random word vectors: every word but the last as a
    phrase of its own, plus 2- and 3-word phrases, some using the last word,
    which the single-word slice then lacks."""
    words = unit_store(n_words, dim, int(rng.integers(1 << 30)), prefix)
    phrases = {(w,): 1 for w in words.vocab[:-1]}
    for length, count in ((2, 2 * n_words), (3, n_words)):
        for _ in range(count):
            phrases[tuple(rng.choice(words.vocab, size=length))] = 1
    return build_phrase_store(phrases, words)


class TestColumnarInduction:
    def test_matches_the_dict_oracle_exactly(self, tmp_path):
        rng = np.random.default_rng(50)
        # The last case has more source phrases than one row block holds.
        for n_words, k, reverse_sample in ((9, 3, 10), (9, 6, 1000), (40, 4, 50)):
            src = random_phrase_store(rng, n_words, 4, "s")
            tgt = random_phrase_store(rng, n_words - 1, 4, "t")
            src_words, tgt_words = word_store(src), word_store(tgt)
            got = induce_tables(src, tgt, src_words, tgt_words, k, reverse_sample, seed=5)
            want_fwd, want_rev, tau_fwd, tau_rev = oracle_tables(
                src, tgt, src_words, tgt_words, k, reverse_sample, seed=5
            )
            assert (got.tau_fwd, got.tau_rev) == (tau_fwd, tau_rev)
            for table, want in ((got.table_fwd, want_fwd), (got.table_rev, want_rev)):
                assert len(table) == len(want)
                assert table.entries.keys() == want.entries.keys()
                for source, rows in want.entries.items():
                    assert tuple(table.entries[source]) == rows
                table.write(tmp_path / "got.txt")
                want.write(tmp_path / "want.txt")
                assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()
            entries = [e for rows in got.table_fwd.entries.values() for e in rows]
            # An absent backward pair reads the floor; an uncovered or
            # unknown generated word puts a floor factor in the product.
            assert any(e.phi_bwd == PROB_FLOOR for e in entries)
            assert any(e.lex_fwd <= PROB_FLOOR for e in entries)
            assert any(e.lex_bwd <= PROB_FLOOR for e in entries)

    def test_out_of_range_probability_names_the_source(self, monkeypatch):
        rng = np.random.default_rng(51)
        src = random_phrase_store(rng, 9, 4, "s")
        tgt = random_phrase_store(rng, 8, 4, "t")
        args = (src, tgt, word_store(src), word_store(tgt), 3, 10, 5)
        with pytest.raises(ValueError) as oracle:
            oracle_tables(*args, floor=0.0)
        # Induction reads the floor from the module constant.
        monkeypatch.setattr(phrases, "PROB_FLOOR", 0.0)
        with pytest.raises(ValueError, match=r"outside \(0, 1\] for '") as columnar:
            induce_tables(*args)
        assert str(columnar.value).split(" for ")[1] == str(oracle.value).split(" for ")[1]
