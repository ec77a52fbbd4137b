"""Retrieval methods against slow reference rankings and a hub fixture."""

import math
import tracemalloc

import numpy as np
import pytest

from lexinduct import (
    EmbeddingStore,
    RetrievalConfig,
    cosine_matrix,
    induce_dictionary,
    rank_candidates,
    unit_normalize,
)
from lexinduct import retrieval
from lexinduct.retrieval import _DEPTH, METHODS, _inv_nn_rows, _log_normalizer, _mean_topk
from lexinduct.retrieval import _neg_column_ranks as neg_column_ranks
from oracles import log_normalizer, mean_topk
from oracles import rank_candidates as rank_per_query


def normalized_store(vectors, prefix):
    vectors = np.asarray(vectors, dtype=np.float32)
    vocab = tuple(f"{prefix}{i:03d}" for i in range(vectors.shape[0]))
    return unit_normalize(EmbeddingStore(vocab, vectors))


def reference_order(cos, query_row, vocab_t, config):
    """Slow plain-python ranking for one query row."""
    n_src, n_tgt = cos.shape
    row = cos[query_row]
    if config.method == "nn":
        keyed = [(-row[y], vocab_t[y], y) for y in range(n_tgt)]
    elif config.method == "inv_nn":
        keyed = []
        for y in range(n_tgt):
            rank = 1 + sum(1 for x in range(n_src) if cos[x, y] > row[y])
            keyed.append((rank, -row[y], vocab_t[y], y))
    elif config.method == "inv_softmax":
        t = config.softmax_temperature
        keyed = []
        for y in range(n_tgt):
            log_z = math.log(sum(math.exp(t * cos[x, y]) for x in range(n_src)))
            keyed.append((-(t * row[y] - log_z), vocab_t[y], y))
    else:
        k = config.csls_k
        r_t = sorted(row, reverse=True)
        r_t = sum(r_t[: min(k, n_tgt)]) / min(k, n_tgt)
        keyed = []
        for y in range(n_tgt):
            col = sorted(cos[:, y], reverse=True)
            r_s = sum(col[: min(k, n_src)]) / min(k, n_src)
            keyed.append((-(2.0 * row[y] - r_t - r_s), vocab_t[y], y))
    keyed.sort()
    return [entry[-1] for entry in keyed]


class TestAgainstReference:
    @pytest.mark.parametrize("method", METHODS)
    def test_full_ranking_matches(self, method):
        rng = np.random.default_rng(21)
        config = RetrievalConfig(method=method, softmax_temperature=5.0, csls_k=3)
        for _ in range(6):
            src = normalized_store(rng.normal(size=(9, 5)), "s")
            tgt = normalized_store(rng.normal(size=(14, 5)), "t")
            cos = src.vectors.astype(np.float64) @ tgt.vectors.astype(np.float64).T
            results = rank_candidates(src, tgt, list(src.vocab), config)
            for row, res in enumerate(results):
                want = reference_order(cos, row, tgt.vocab, config)
                assert [t for t, _ in res.candidates] == [tgt.vocab[y] for y in want]

    @pytest.mark.parametrize("method", METHODS)
    def test_unnormalized_input_handled(self, method):
        rng = np.random.default_rng(22)
        vectors_s = rng.normal(size=(6, 4)).astype(np.float32) * 3.0
        vectors_t = rng.normal(size=(8, 4)).astype(np.float32) * 0.2
        raw_s = EmbeddingStore(tuple(f"s{i}" for i in range(6)), vectors_s)
        raw_t = EmbeddingStore(tuple(f"t{i}" for i in range(8)), vectors_t)
        config = RetrievalConfig(method=method, csls_k=2)
        raw = rank_candidates(raw_s, raw_t, list(raw_s.vocab), config)
        norm = rank_candidates(
            unit_normalize(raw_s), unit_normalize(raw_t), list(raw_s.vocab), config
        )
        assert [[t for t, _ in r.candidates] for r in raw] == [
            [t for t, _ in r.candidates] for r in norm
        ]


class TestAgainstPerQueryOracle:
    @pytest.mark.parametrize("method", METHODS)
    def test_every_candidate_and_score_equal_with_ties_at_the_kth_place(self, method):
        rng = np.random.default_rng(25)
        src = normalized_store(rng.normal(size=(170, 6)), "s")
        # Targets repeat some vectors under other tokens, so their scores tie
        # exactly under every method; shuffled names make the token order
        # differ from the row order.
        base = rng.normal(size=(30, 6))
        vectors = np.vstack([base, base[:12], base[3:8], base[3:8]])
        names = rng.permutation(len(vectors))
        tgt = unit_normalize(EmbeddingStore(
            tuple(f"t{i:03d}" for i in names), vectors.astype(np.float32)
        ))
        queries = list(src.vocab) + ["absent", "s004"]
        config = RetrievalConfig(method=method, softmax_temperature=10.0, csls_k=4)
        for top in (None, 1, 3, len(tgt) + 5):
            got = rank_candidates(src, tgt, queries, config, top=top)
            want = rank_per_query(src, tgt, queries, config, top=top)
            assert len(got) == len(want) == len(src) + 1
            for g, w in zip(got, want):
                assert g.query == w.query
                assert g.candidates == w.candidates
        full = rank_per_query(src, tgt, queries, config)
        assert sum(r.candidates[2][1] == r.candidates[3][1] for r in full) >= 10
        if method == "inv_nn":
            # Some rank tie at places k and k + 1 goes to the higher cosine
            # against token order, so the cosine key decides the top k.
            cos = cosine_matrix(src, tgt)

            def cosine(query, token):
                return cos[src.indices([query])[0], tgt.indices([token])[0]]

            decided = [
                r for r in full for k in (1, 3)
                if r.candidates[k - 1][1] == r.candidates[k][1]
                and r.candidates[k - 1][0] > r.candidates[k][0]
                and cosine(r.query, r.candidates[k - 1][0]) > cosine(r.query, r.candidates[k][0])
            ]
            assert decided


def repeated_sources(rng, base_rows, dim):
    """Source vectors repeated under other, shuffled tokens, so several
    sources have the exact same cosine to every target."""
    base = rng.normal(size=(base_rows, dim))
    vectors = np.vstack([base, base[:8], base[4:10], base[4:7]])
    names = rng.permutation(len(vectors))
    return unit_normalize(EmbeddingStore(
        tuple(f"s{i:03d}" for i in names), vectors.astype(np.float32)
    ))


def has_column_ties(src, tgt):
    cos = cosine_matrix(src, tgt)
    return any(len(np.unique(col)) < len(col) for col in cos.T)


class TestTiesWithinColumns:
    """Sources that tie on a target share its best rank: inv_nn counts only
    the cosines strictly above theirs."""

    @pytest.mark.parametrize("method", METHODS)
    def test_every_candidate_and_score_equal_across_column_blocks(self, method):
        rng = np.random.default_rng(26)
        src = repeated_sources(rng, 40, 6)
        tgt = normalized_store(rng.normal(size=(650, 6)), "t")
        assert has_column_ties(src, tgt)
        queries = list(src.vocab) + ["absent"]
        config = RetrievalConfig(method=method, softmax_temperature=10.0, csls_k=4)
        for top in (None, 1, 10):
            got = rank_candidates(src, tgt, queries, config, top=top)
            want = rank_per_query(src, tgt, queries, config, top=top)
            assert len(got) == len(want) == len(src)
            for g, w in zip(got, want):
                assert g.query == w.query
                assert g.candidates == w.candidates

    @pytest.mark.parametrize("method", METHODS)
    def test_small_case_matches_reference_order(self, method):
        rng = np.random.default_rng(27)
        config = RetrievalConfig(method=method, softmax_temperature=5.0, csls_k=3)
        for _ in range(4):
            src = repeated_sources(rng, 12, 4)
            tgt = normalized_store(rng.normal(size=(9, 4)), "t")
            assert has_column_ties(src, tgt)
            cos = cosine_matrix(src, tgt)
            results = rank_candidates(src, tgt, list(src.vocab), config)
            for row, res in enumerate(results):
                want = reference_order(cos, row, tgt.vocab, config)
                assert [t for t, _ in res.candidates] == [tgt.vocab[y] for y in want]
                if method == "inv_nn":
                    for y, (_, score) in zip(want, res.candidates):
                        assert score == -1.0 - np.count_nonzero(cos[:, y] > cos[row, y])


def graded_sources(rng, n_src, n_tgt, dim):
    """Targets around one axis, and sources whose angle to it runs from 0
    to pi: the far sources rank low in every target column (anti-hubs)."""
    theta = np.linspace(0.0, np.pi, n_src)
    src = 0.2 * rng.normal(size=(n_src, dim))
    src[:, 0] += np.cos(theta)
    src[:, 1] += np.sin(theta)
    tgt = 0.5 * rng.normal(size=(n_tgt, dim))
    tgt[:, 0] += 1.0
    return normalized_store(src, "s"), normalized_store(tgt, "t")


def assert_matches_oracle(src, tgt, queries, config, tops):
    for top in tops:
        got = rank_candidates(src, tgt, queries, config, top=top)
        want = rank_per_query(src, tgt, queries, config, top=top)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.query == w.query
            assert g.candidates == w.candidates


def ranks_within(ranking, depth):
    """Per query, how many targets give it a rank of at most `depth`."""
    return np.array([sum(score >= -depth for _, score in r.candidates) for r in ranking])


def counting_rank_tables(monkeypatch):
    """Record the shape of every rank table `rank_candidates` builds."""
    built = []

    def counted(cos):
        built.append(cos.shape)
        return neg_column_ranks(cos)

    monkeypatch.setattr(retrieval, "_neg_column_ranks", counted)
    return built


class TestInvNnDepth:
    """For top up to _DEPTH, inv_nn computes ranks only within each target
    column's largest cosines; queries short of top take their rows of a
    rank table built once per call."""

    config = RetrievalConfig(method="inv_nn")

    def test_anti_hubs_short_of_top_ranks_take_the_rank_table(self, monkeypatch):
        rng = np.random.default_rng(31)
        src, tgt = graded_sources(rng, 300, 200, 6)
        queries = list(src.vocab)
        full = rank_per_query(src, tgt, queries, self.config)
        best = -np.array([r.candidates[0][1] for r in full])
        # Some best ranks lie past the depth, so with top 10 some queries
        # have fewer than 10 ranks within it.
        assert (best > _DEPTH).any()
        assert (ranks_within(full, _DEPTH) < 10).any()
        built = counting_rank_tables(monkeypatch)
        tops = (1, 10, _DEPTH - 1, _DEPTH, _DEPTH + 1, None)
        assert_matches_oracle(src, tgt, queries, self.config, tops)
        assert built == [(300, 200)] * len(tops)

    def test_no_rank_table_when_every_query_has_top_ranks(self, monkeypatch):
        rng = np.random.default_rng(30)
        src = normalized_store(rng.normal(size=(200, 6)), "s")
        tgt = normalized_store(rng.normal(size=(400, 6)), "t")
        built = counting_rank_tables(monkeypatch)
        assert_matches_oracle(src, tgt, list(src.vocab), self.config, (1, 10, _DEPTH))
        assert built == []

    @pytest.mark.parametrize("n_tgt, top", [(20, None), (12, 10), (_DEPTH, _DEPTH)])
    def test_small_target_store_builds_one_rank_table(self, monkeypatch, n_tgt, top):
        # Almost every query wants nearly every target, so almost every
        # query is short of top ranks within the depth.
        rng = np.random.default_rng(29)
        src = normalized_store(rng.normal(size=(3000, 6)), "s")
        tgt = normalized_store(rng.normal(size=(n_tgt, 6)), "t")
        built = counting_rank_tables(monkeypatch)
        assert_matches_oracle(src, tgt, list(src.vocab), self.config, (top,))
        assert built == [(3000, n_tgt)]

    def test_source_store_shorter_than_the_depth(self):
        rng = np.random.default_rng(32)
        src = normalized_store(rng.normal(size=(_DEPTH - 12, 5)), "s")
        tgt = normalized_store(rng.normal(size=(70, 5)), "t")
        assert_matches_oracle(src, tgt, list(src.vocab), self.config, (1, 10, _DEPTH, None))

    def test_ties_at_a_columns_depth_th_cosine(self):
        rng = np.random.default_rng(33)
        src = repeated_sources(rng, 60, 5)
        tgt = normalized_store(rng.normal(size=(300, 5)), "t")
        cos = cosine_matrix(src, tgt)
        ordered = -np.sort(-cos, axis=0)
        tied = ordered[_DEPTH - 1] == ordered[_DEPTH]
        assert tied.sum() >= 10
        # Every cosine at or above its column's _DEPTH-th largest, ties
        # included, gets its exact rank key; the others are either exact or
        # below every rank.
        ranks = 1 + (cos[None, :, :] > cos[:, None, :]).sum(axis=1)
        neg_rank, block = _inv_nn_rows(cos, 10)(np.arange(len(src)))
        assert np.array_equal(block, cos)
        computed = neg_rank >= -len(src)
        assert computed[cos >= ordered[_DEPTH - 1]].all()
        assert np.array_equal(neg_rank[computed], -ranks[computed])
        queries = list(src.vocab)
        assert_matches_oracle(src, tgt, queries, self.config, (1, 10, _DEPTH - 1, _DEPTH, _DEPTH + 1, None))


class TestBlockedReductions:
    """The softmax normaliser and the CSLS means, reduced a block of lines at
    a time, equal the whole-matrix reductions bit for bit."""

    @staticmethod
    def matrices():
        rng = np.random.default_rng(34)
        # Widths of one, one past a block and one past two blocks leave a
        # last block one column wide; the repeated rows and columns tie.
        for n_src, n_tgt in ((1, 1), (7, 1), (1, 9), (40, 65), (130, 129), (300, 200)):
            yield rng.uniform(-1.0, 1.0, size=(n_src, n_tgt))
        base = rng.uniform(-1.0, 1.0, size=(50, 70))
        yield np.vstack([base, base[:20]])[:, list(range(70)) + list(range(0, 70, 3))]
        yield np.round(rng.uniform(-1.0, 1.0, size=(90, 97)), 1)

    @staticmethod
    def same_bits(got, want):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("k", [1, 3, 10, 400])
    def test_csls_means(self, k):
        for cos in self.matrices():
            for axis in (0, 1):
                self.same_bits(_mean_topk(cos, k, axis), mean_topk(cos, k, axis))

    @pytest.mark.parametrize("t", [1.0, 30.0])
    def test_softmax_normaliser(self, t):
        for cos in self.matrices():
            self.same_bits(_log_normalizer(cos, t), log_normalizer(cos, t))


class TestMemory:
    @pytest.mark.parametrize("method", METHODS)
    def test_peak_below_one_and_three_quarter_cosine_matrices(self, method):
        rng = np.random.default_rng(35)
        src = normalized_store(rng.normal(size=(2000, 48)), "s")
        tgt = normalized_store(rng.normal(size=(2000, 48)), "t")
        tracemalloc.start()
        try:
            rank_candidates(src, tgt, list(src.vocab), RetrievalConfig(method=method), top=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.45 * len(src) * len(tgt) * 8

    def test_anti_hub_store_peak_below_three_cosine_matrices(self):
        # Anti-hubs make inv_nn build the rank table: the matrix, the table,
        # one column block's sort buffers and one query block's keys.
        rng = np.random.default_rng(36)
        src, tgt = graded_sources(rng, 2100, 2000, 6)
        tracemalloc.start()
        try:
            rank_candidates(src, tgt, list(src.vocab), RetrievalConfig(method="inv_nn"), top=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * len(src) * len(tgt) * 8


class TestHubFixture:
    """Two sources, a hub target, and a de-hubbed alternative.

    The hub h is closest by raw cosine to both queries. Rank- and
    softmax-inverted scoring give the second query to the alternative t
    because h is even closer to the first query.
    """

    def setup_method(self):
        self.src = normalized_store([[1.0, 0.0], [0.95, 0.31225]], "x")
        self.tgt = unit_normalize(
            EmbeddingStore(("h", "t"), np.array([[0.99, 0.14], [0.31, 0.95]], dtype=np.float32))
        )
        self.queries = ["x000", "x001"]

    def top1(self, method, **kw):
        config = RetrievalConfig(method=method, **kw)
        return [r.best() for r in rank_candidates(self.src, self.tgt, self.queries, config)]

    def test_nn_sends_both_to_hub(self):
        assert self.top1("nn") == ["h", "h"]

    def test_inverted_nn_dehubs_second_query(self):
        assert self.top1("inv_nn") == ["h", "t"]

    def test_inverted_softmax_dehubs_second_query(self):
        assert self.top1("inv_softmax", softmax_temperature=30.0) == ["h", "t"]

    def test_csls_keeps_hub_here(self):
        assert self.top1("csls", csls_k=1) == ["h", "h"]

    def test_inv_softmax_scores_are_log_probabilities(self):
        config = RetrievalConfig(method="inv_softmax", softmax_temperature=30.0)
        results = rank_candidates(self.src, self.tgt, self.queries, config)
        cos = self.src.vectors.astype(np.float64) @ self.tgt.vectors.astype(np.float64).T
        for res in results:
            for token, score in res.candidates:
                y = self.tgt.vocab.index(token)
                x = self.queries.index(res.query)
                log_z = np.log(np.exp(30.0 * cos[:, y]).sum())
                np.testing.assert_allclose(score, 30.0 * cos[x, y] - log_z, atol=1e-12)

    def test_csls_scores(self):
        config = RetrievalConfig(method="csls", csls_k=1)
        results = rank_candidates(self.src, self.tgt, self.queries, config)
        scores = {(r.query, t): s for r in results for t, s in r.candidates}
        np.testing.assert_allclose(scores[("x000", "h")], 0.0, atol=1e-12)
        np.testing.assert_allclose(scores[("x000", "t")], -0.9613, atol=5e-4)
        np.testing.assert_allclose(scores[("x001", "h")], -0.0058, atol=5e-4)
        np.testing.assert_allclose(scores[("x001", "t")], -0.3928, atol=5e-4)


class TestCslsIdentity:
    def test_exact_match_scores_zero_with_k1(self):
        rng = np.random.default_rng(23)
        base = rng.normal(size=(5, 6))
        src = normalized_store(base, "s")
        tgt = normalized_store(np.vstack([base[0], rng.normal(size=(4, 6))]), "t")
        config = RetrievalConfig(method="csls", csls_k=1)
        res = rank_candidates(src, tgt, ["s000"], config)[0]
        # The copied vector is its own nearest neighbor on both sides, so
        # 2*cos - r_T - r_S collapses to 2*1 - 1 - 1 = 0 and wins.
        assert res.best() == "t000"
        np.testing.assert_allclose(res.candidates[0][1], 0.0, atol=1e-6)


class TestEdgeCases:
    def setup_method(self):
        rng = np.random.default_rng(24)
        self.src = normalized_store(rng.normal(size=(4, 3)), "s")
        self.tgt = normalized_store(rng.normal(size=(5, 3)), "t")

    def test_missing_queries_dropped_with_warning(self, caplog):
        with caplog.at_level("WARNING"):
            results = rank_candidates(self.src, self.tgt, ["s000", "nope"], RetrievalConfig())
        assert [r.query for r in results] == ["s000"]
        assert any("nope" in rec.message for rec in caplog.records)

    def test_all_missing_returns_empty(self):
        assert list(rank_candidates(self.src, self.tgt, ["zz"], RetrievalConfig())) == []

    def test_induce_dictionary_round_trip(self, tmp_path):
        induced = induce_dictionary(self.src, self.tgt, list(self.src.vocab), RetrievalConfig())
        assert len(induced) == 4
        for q in self.src.vocab:
            assert induced.top1(q) is not None
        path = tmp_path / "dict.tsv"
        induced.write(path)
        back = type(induced).read(path)
        assert {s: induced.top1(s) for s in induced.entries} == {
            s: back.top1(s) for s in back.entries
        }

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RetrievalConfig(method="bogus")
        with pytest.raises(ValueError):
            RetrievalConfig(softmax_temperature=0.0)
        with pytest.raises(ValueError):
            RetrievalConfig(csls_k=0)
