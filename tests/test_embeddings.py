"""Embedding stores, text and binary IO, and exact k-nearest retrieval."""

import io

import numpy as np
import pytest

from lexinduct import (
    EmbeddingStore,
    cosine_matrix,
    k_nearest,
    load_cache,
    load_embeddings,
    save_cache,
    unit_normalize,
)
from lexinduct.embeddings import _top_k_rows
from oracles import top_k_indices


def write_embeddings(store, path):
    """The text format `load_embeddings` reads, float32 values printed via repr."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(store.vocab)} {store.dim}\n")
        for tok, row in zip(store.vocab, store.vectors):
            fh.write(tok + " " + " ".join(repr(float(v)) for v in row) + "\n")


def random_store(rng, n, dim, prefix="w"):
    vocab = tuple(f"{prefix}{i:03d}" for i in range(n))
    vectors = rng.normal(size=(n, dim)).astype(np.float32)
    return EmbeddingStore(vocab, vectors)


class TestEmbeddingStore:
    def test_basic_accessors(self):
        store = EmbeddingStore(("a", "b"), np.eye(2, dtype=np.float32))
        assert len(store) == 2
        assert store.dim == 2
        assert "a" in store and "z" not in store
        np.testing.assert_allclose(store.vectors[store.indices(["b"])[0]], [0.0, 1.0])
        np.testing.assert_array_equal(store.indices(["b", "a"]), [1, 0])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            EmbeddingStore(("a",), np.zeros(3, dtype=np.float32))
        with pytest.raises(ValueError):
            EmbeddingStore(("a", "b"), np.zeros((1, 3), dtype=np.float32))

    def test_duplicate_vocab_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingStore(("a", "a"), np.zeros((2, 2), dtype=np.float32))

    def test_float64_input_downcast(self):
        store = EmbeddingStore(("a",), np.ones((1, 2)))
        assert store.vectors.dtype == np.float32

    def test_lexrank_orders_vocab(self):
        store = EmbeddingStore(("c", "a", "b"), np.zeros((3, 2), dtype=np.float32))
        np.testing.assert_array_equal(store.lexrank(), [2, 0, 1])


class TestTextFormat:
    def test_parse_small_file(self):
        text = "2 3\nfoo 1.0 0.0 0.5\nbar -1.0 2.0 0.25\n"
        store = load_embeddings(io.StringIO(text))
        assert store.vocab == ("foo", "bar")
        np.testing.assert_allclose(store.vectors[store.indices(["bar"])[0]], [-1.0, 2.0, 0.25])

    def test_trailing_space_tolerated(self):
        store = load_embeddings(io.StringIO("1 2\nfoo 1.0 2.0 \n"))
        np.testing.assert_allclose(store.vectors[store.indices(["foo"])[0]], [1.0, 2.0])

    def test_duplicate_token_keeps_first(self, caplog):
        text = "2 1\nfoo 1.0\nfoo 2.0\n"
        with caplog.at_level("WARNING"):
            store = load_embeddings(io.StringIO(text))
        assert store.vocab == ("foo",)
        np.testing.assert_allclose(store.vectors[store.indices(["foo"])[0]], [1.0])

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "2\nfoo 1.0\n",
            "x y\nfoo 1.0\n",
            "0 2\n",
            "1 2\nfoo 1.0\n",
            "1 1\nfoo abc\n",
            "1 1\nfoo 1.0\nbar 2.0\n",
        ],
    )
    def test_malformed_inputs_fatal(self, text):
        with pytest.raises(ValueError):
            load_embeddings(io.StringIO(text))

    def test_write_read_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        store = random_store(rng, 20, 7)
        path = tmp_path / "vecs.txt"
        write_embeddings(store, path)
        back = load_embeddings(path)
        assert back.vocab == store.vocab
        np.testing.assert_array_equal(back.vectors, store.vectors)


class TestBinaryCache:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        store = unit_normalize(random_store(rng, 15, 5))
        path = tmp_path / "store.npz"
        save_cache(store, path)
        back = load_cache(path)
        assert back.vocab == store.vocab
        assert back.normalized is True
        np.testing.assert_array_equal(back.vectors, store.vectors)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "store.npz"
        np.savez(
            path,
            version=np.int64(999),
            vocab=np.array(["a"]),
            vectors=np.zeros((1, 2), dtype=np.float32),
            normalized=np.bool_(False),
        )
        with pytest.raises(ValueError):
            load_cache(path)


class TestUnitNormalize:
    def test_rows_become_unit_length(self):
        rng = np.random.default_rng(2)
        store = unit_normalize(random_store(rng, 30, 6))
        norms = np.linalg.norm(store.vectors.astype(np.float64), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)
        assert store.normalized is True

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        once = unit_normalize(random_store(rng, 10, 4))
        twice = unit_normalize(once)
        np.testing.assert_allclose(twice.vectors, once.vectors, atol=2e-7)

    def test_zero_vector_fatal(self):
        vectors = np.zeros((2, 3), dtype=np.float32)
        vectors[0, 0] = 1.0
        with pytest.raises(ValueError):
            unit_normalize(EmbeddingStore(("a", "b"), vectors))


class TestCosineMatrix:
    def test_matches_manual_product(self):
        rng = np.random.default_rng(4)
        src = unit_normalize(random_store(rng, 8, 5, "s"))
        tgt = unit_normalize(random_store(rng, 9, 5, "t"))
        got = cosine_matrix(src, tgt)
        want = src.vectors.astype(np.float64) @ tgt.vectors.astype(np.float64).T
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)

    def test_row_subset(self):
        rng = np.random.default_rng(5)
        src = unit_normalize(random_store(rng, 8, 5, "s"))
        tgt = unit_normalize(random_store(rng, 9, 5, "t"))
        full = cosine_matrix(src, tgt)
        rows = np.array([5, 1])
        np.testing.assert_array_equal(cosine_matrix(src, tgt, rows), full[rows])


def oracle_top_k(scores, vocab, k):
    """Reference ranking: full sort on (score descending, token ascending)."""
    order = sorted(range(len(vocab)), key=lambda j: (-scores[j], vocab[j]))
    return order[:k]


class TestKNearest:
    def test_matches_oracle_on_random_stores(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            src = unit_normalize(random_store(rng, 12, 4, "s"))
            tgt = unit_normalize(random_store(rng, 25, 4, "t"))
            k = int(rng.integers(1, 6))
            results = k_nearest(src, tgt, list(src.vocab), k)
            scores = cosine_matrix(src, tgt)
            for qi, res in enumerate(results):
                want = [tgt.vocab[j] for j in oracle_top_k(scores[qi], tgt.vocab, k)]
                assert [t for t, _ in res.candidates] == want
                assert res.best() == want[0]

    def test_exact_ties_break_by_token(self):
        vectors = np.array([[1.0, 0.0]], dtype=np.float32)
        src = EmbeddingStore(("q",), vectors, normalized=True)
        same = np.repeat(vectors, 3, axis=0)
        tgt = EmbeddingStore(("zz", "aa", "mm"), same, normalized=True)
        res = k_nearest(src, tgt, ["q"], 2)[0]
        assert [t for t, _ in res.candidates] == ["aa", "mm"]

    def test_k_larger_than_vocab_returns_all(self, caplog):
        rng = np.random.default_rng(8)
        src = unit_normalize(random_store(rng, 3, 4, "s"))
        tgt = unit_normalize(random_store(rng, 4, 4, "t"))
        with caplog.at_level("WARNING"):
            res = k_nearest(src, tgt, ["s000"], 10)[0]
        assert len(res.candidates) == 4

    def test_errors(self):
        rng = np.random.default_rng(9)
        src = unit_normalize(random_store(rng, 3, 4, "s"))
        tgt = unit_normalize(random_store(rng, 3, 4, "t"))
        with pytest.raises(ValueError):
            k_nearest(src, tgt, ["s000"], 0)
        with pytest.raises(KeyError):
            k_nearest(src, tgt, ["absent"], 1)


class TestTopKIndices:
    def test_partial_selection_matches_full_sort(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(4, 40))
            # Quantized scores force plenty of exact ties.
            scores = np.round(rng.normal(size=n), 1)
            vocab = tuple(f"t{i:02d}" for i in range(n))
            lexrank = np.arange(n, dtype=np.int64)
            k = int(rng.integers(1, n + 1))
            got = list(top_k_indices(scores, lexrank, k))
            want = oracle_top_k(scores, vocab, k)
            assert got == want


def quantized_store(rng, n, dim, prefix):
    """Unit vectors of small integer directions, so exact cosine ties abound."""
    vectors = rng.integers(-1, 2, size=(n, dim)).astype(np.float32)
    vectors[~vectors.any(axis=1), 0] = 1.0
    return unit_normalize(EmbeddingStore(tuple(f"{prefix}{i:03d}" for i in range(n)), vectors))


class TestTopKRows:
    def test_matches_per_row_oracle_with_ties_at_the_kth_score(self):
        rng = np.random.default_rng(11)
        split_ties = second_decides = 0
        for _ in range(100):
            rows, n = int(rng.integers(1, 12)), int(rng.integers(2, 40))
            scores = np.round(rng.normal(size=(rows, n)), 1)
            second = np.round(rng.normal(size=(rows, n)))
            lexrank = rng.permutation(n).astype(np.int64)
            for k in (1, int(rng.integers(1, n + 1)), n):
                got = _top_k_rows((scores,), lexrank, k)
                got2 = _top_k_rows((scores, second), lexrank, k)
                for r in range(rows):
                    assert list(got[r]) == list(top_k_indices(scores[r], lexrank, k))
                    want = np.lexsort((lexrank, -second[r], -scores[r]))[:k]
                    assert list(got2[r]) == list(want)
                    kth = np.sort(scores[r])[::-1][k - 1]
                    split_ties += int((scores[r] >= kth).sum() > k)
                    # The second key changes which columns make the top k.
                    second_decides += int(set(want) != set(got[r]))
        assert split_ties > 50
        assert second_decides >= 50

    def test_k_nearest_on_tied_cosines_matches_oracle(self):
        rng = np.random.default_rng(12)
        # 600 queries cross the boundary of a 512-row cosine block.
        for n_src in (5, 17, 29, 150, 200, 600):
            src = quantized_store(rng, n_src, 3, "s")
            tgt = quantized_store(rng, int(rng.integers(3, 25)), 3, "t")
            scores = cosine_matrix(src, tgt)
            for k in (1, 2, len(tgt) - 1, len(tgt), len(tgt) + 2):
                want = [top_k_indices(row, tgt.lexrank(), min(k, len(tgt))) for row in scores]
                got = k_nearest(src, tgt, list(src.vocab), k)
                assert len(got) == len(src)
                np.testing.assert_array_equal(got.idx, want)
                np.testing.assert_array_equal(
                    got.scores, np.take_along_axis(scores, got.idx, axis=1)
                )
