"""IBM-2 EM training, Viterbi links, symmetrization, and link file IO."""

import itertools
import random

import numpy as np
import pytest

import oracles
from conftest import make_cipher
from lexinduct import (
    align_corpus,
    grow_diag_final_and,
    read_links,
    train_ibm2,
    write_links,
)
from lexinduct import aligner
from lexinduct.aligner import (
    NULL_WORD,
    _distance_matrix,
    _prior,
)
from oracles import model_of, translation_of


def cipher_pairs(n_sentences, vocab_size=15, seed=0, noise=0.0):
    """Parallel corpus where each source word maps to one target word."""
    rng = random.Random(seed)
    src_words = [f"s{i}" for i in range(vocab_size)]
    tgt_words = [f"t{i}" for i in range(vocab_size)]
    pairs = []
    for _ in range(n_sentences):
        src = [rng.choice(src_words) for _ in range(rng.randint(2, 7))]
        tgt = [
            tgt_words[src_words.index(w)] if rng.random() >= noise else rng.choice(tgt_words)
            for w in src
        ]
        pairs.append((src, tgt))
    return pairs


class TestPriors:
    def test_distance_matrix_values(self):
        d = _distance_matrix(2, 3)
        want = np.abs(np.array([[1 / 2], [2 / 2]]) - np.array([[1 / 3, 2 / 3, 3 / 3]]))
        np.testing.assert_allclose(d, want, atol=1e-15)

    def test_prior_columns_sum_to_one(self):
        for m, n, lam, p0 in ((3, 4, 4.0, 0.08), (1, 1, 0.0, 0.5), (5, 2, 7.0, 0.2)):
            prior = _prior(m, n, lam, p0, _distance_matrix(m, n))
            np.testing.assert_allclose(prior.sum(axis=0), 1.0, atol=1e-12)
            np.testing.assert_allclose(prior[0], p0, atol=1e-15)

    def test_zero_tension_is_uniform_over_sources(self):
        prior = _prior(4, 3, 0.0, 0.08, _distance_matrix(4, 3))
        np.testing.assert_allclose(prior[1:], (1.0 - 0.08) / 4.0, atol=1e-15)


class TestExactDistances:
    def test_equal_distances_are_bitwise_equal(self):
        for m in range(1, 40):
            for n in range(1, 40):
                d = _distance_matrix(m, n)
                exact = np.abs(
                    np.arange(1, m + 1)[:, None] * n - np.arange(1, n + 1)[None, :] * m
                )
                for j in range(n):
                    _, first = np.unique(exact[:, j], return_index=True)
                    _, rounded = np.unique(d[:, j], return_index=True)
                    assert np.array_equal(first, rounded)


class TestTrainIbm2:
    def test_single_pair_closed_form(self):
        model = train_ibm2([(("a",), ("x",))], iterations=2)
        table = translation_of(model)
        np.testing.assert_allclose(table["a"]["x"], 1.0, atol=1e-15)
        np.testing.assert_allclose(table[NULL_WORD]["x"], 1.0, atol=1e-15)
        np.testing.assert_allclose(model.log_likelihoods, (0.0, 0.0), atol=1e-12)
        assert align_corpus(model, [(["a"], ["x"])]) == [{(0, 0)}]

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_log_likelihood_non_decreasing(self, noise):
        pairs = cipher_pairs(40, seed=1, noise=noise)
        model = train_ibm2(pairs, iterations=5)
        ll = model.log_likelihoods
        assert len(ll) == 5
        for a, b in zip(ll, ll[1:]):
            assert b >= a - 1e-9

    def test_log_likelihood_strictly_improves_on_learnable_data(self):
        model = train_ibm2(cipher_pairs(40, seed=2), iterations=5)
        assert model.log_likelihoods[-1] > model.log_likelihoods[0]

    def test_learns_the_word_mapping(self):
        pairs = cipher_pairs(60, seed=3)
        table = translation_of(train_ibm2(pairs, iterations=5))
        for i in range(15):
            row = table.get(f"s{i}", {})
            if row:
                assert max(row, key=row.get) == f"t{i}"

    def test_rows_are_distributions(self):
        model = train_ibm2(cipher_pairs(20, seed=4), iterations=3)
        for row in translation_of(model).values():
            np.testing.assert_allclose(sum(row.values()), 1.0, atol=1e-9)

    def test_tension_stays_non_negative(self):
        model = train_ibm2(cipher_pairs(20, seed=5), iterations=3, tension=0.5)
        assert model.diagonal_tension == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            train_ibm2([])
        with pytest.raises(ValueError):
            train_ibm2([(("a",), ("x",))], null_prob=0.0)
        with pytest.raises(ValueError):
            train_ibm2([(("a",), ("x",))], iterations=0)


class TestCopyCorpus:
    def test_identity_alignment_rate(self):
        rng = random.Random(6)
        words = [f"w{i}" for i in range(20)]
        sentences = [
            [rng.choice(words) for _ in range(rng.randint(3, 8))] for _ in range(60)
        ]
        pairs = [(s, list(s)) for s in sentences]
        model = train_ibm2(pairs, iterations=5)
        total = identical = 0
        for links, (src, _) in zip(align_corpus(model, pairs), pairs):
            total += len(src)
            identical += sum(1 for i, j in links if i == j)
        assert identical / total >= 0.99


class TestNoisySwappedCipher:
    """Each target word is replaced by a random target word with probability
    one half, and then each adjacent pair of target positions is swapped, so
    source position i truly links to its swap partner. A diagonal prior that
    pulls too hard links the diagonal instead."""

    @staticmethod
    def precision(link_sets, pairs):
        def partner(i, n):
            return i ^ 1 if i ^ 1 < n else i

        right = sum(1 for ls, (_, t) in zip(link_sets, pairs) for i, j in ls if j == partner(i, len(t)))
        return right / sum(map(len, link_sets))

    def test_link_precision_at_300_pairs(self, tmp_path):
        cipher = make_cipher(tmp_path, vocab=300, sentences=6000, dim=24, noise=0.8, seed=7)
        targets = sorted(cipher.mapping.values())
        rng = random.Random(1)
        pairs = []
        with open(cipher.src_corpus, encoding="utf-8") as fs, open(cipher.tgt_corpus, encoding="utf-8") as ft:
            # The first 300 pairs: the pipeline aligns bitexts of this size.
            for src, tgt in itertools.islice(zip(fs, ft), 300):
                t = [rng.choice(targets) if rng.random() < 0.5 else w for w in tgt.split()]
                for j in range(0, len(t) - 1, 2):
                    t[j], t[j + 1] = t[j + 1], t[j]
                pairs.append((src.split(), t))
        flipped = [(t, s) for s, t in pairs]
        forward = align_corpus(train_ibm2(pairs), pairs)
        reverse = align_corpus(train_ibm2(flipped), flipped)
        symmetrized = [grow_diag_final_and(f, {(i, j) for j, i in r}) for f, r in zip(forward, reverse)]
        # A tension learned by maximum likelihood reads 0.418 and 0.370 here.
        assert self.precision(forward, pairs) > 0.55
        assert self.precision(symmetrized, pairs) > 0.5


def links(model, src, tgt):
    return align_corpus(model, [(src, tgt)])[0]


class TestViterbi:
    def test_exact_null_tie_gives_no_link(self):
        model = model_of({NULL_WORD: {"x": 1.0}, "a": {"x": 1.0}}, 0.0, 0.5)
        assert links(model, ["a"], ["x"]) == set()

    def test_source_tie_resolves_to_smaller_index(self):
        model = model_of({NULL_WORD: {}, "a": {"x": 1.0}}, 0.0, 0.08)
        # Zero tension makes both source positions equally likely.
        assert links(model, ["a", "a"], ["x"]) == {(0, 0)}

    def test_mirror_position_tie_resolves_to_smaller_index(self):
        # Source positions 1 and 9 are both 4/9 from target position 5; in
        # floats, 1/9 - 5/9 and 9/9 - 5/9 differ in their last bit.
        model = model_of({NULL_WORD: {"y": 1.0}, "a": {"x": 1.0}, "b": {"y": 1.0}}, 4.0, 0.08)
        src = "a b b b b b b b a".split()
        tgt = "y y y y x y y y y".split()
        assert (0, 4) in links(model, src, tgt)
        assert (8, 4) not in links(model, src, tgt)

    def test_empty_sides(self):
        model = model_of({NULL_WORD: {"x": 1.0}}, 4.0, 0.08)
        assert align_corpus(model, [([], ["x"]), (["a"], [])]) == [set(), set()]

    def test_unknown_target_word_unlinked(self):
        model = model_of({NULL_WORD: {}, "a": {"x": 1.0}}, 4.0, 0.08)
        assert links(model, ["a"], ["never-seen"]) == set()

    def test_unknown_words_read_no_neighboring_key(self):
        # Unknown words read no entry of a neighboring source row, in either
        # direction, and no entry at all in an empty table.
        model = model_of({NULL_WORD: {"x": 0.5, "y": 0.5}, "a": {"x": 1.0}}, 4.0, 0.08)
        assert links(model, ["a"], ["never-seen"]) == set()
        model = model_of({NULL_WORD: {}, "a": {"y": 1.0}, "b": {"x": 1.0}}, 4.0, 0.08)
        assert links(model, ["a", "never-seen"], ["never-seen", "x"]) == set()
        assert links(model_of({}, 4.0, 0.08), ["a"], ["x"]) == set()

    def test_unknown_source_word_unlinked(self):
        model = model_of({NULL_WORD: {}, "a": {"x": 1.0}}, 4.0, 0.08)
        assert links(model, ["never-seen", "a"], ["x", "x"]) == {(1, 0), (1, 1)}
        assert links(model, ["never-seen"], ["x"]) == set()

    def test_links_follow_the_input_order_across_shapes(self):
        model = model_of({NULL_WORD: {}, "a": {"x": 1.0}, "b": {"y": 1.0}}, 4.0, 0.08)
        pairs = [(["a", "b"], ["y", "x"]), (["b"], ["y"]), ([], []), (["a", "b"], ["x", "y"])]
        assert align_corpus(model, pairs) == [{(1, 0), (0, 1)}, {(0, 0)}, set(), {(0, 0), (1, 1)}]


def oracle_pairs(noise, seed=9):
    """Cipher pairs of many shapes, with empty sides, single words and
    repeated words among them."""
    pairs = cipher_pairs(60, vocab_size=6, seed=seed, noise=noise)
    pairs += [
        ([], ["t1", "t2"]), (["s1", "s2"], []), ([], []), (["s3"], ["t3"]),
        (["s4", "s4", "s4"], ["t4", "t4"]), (["s5"] * 6, ["t5"] * 6),
        (["s0", "s1", "s0"], ["t0"]), (["s2"], ["t2", "t2", "t0", "t2"]),
    ]
    random.Random(seed).shuffle(pairs)
    return pairs


def assert_matches_oracle(pairs, **kwargs):
    model = train_ibm2(pairs, **kwargs)
    want = oracles.train_ibm2(pairs, **kwargs)
    np.testing.assert_allclose(model.log_likelihoods, want.log_likelihoods, rtol=1e-12, atol=0)
    np.testing.assert_allclose(model.diagonal_tension, want.diagonal_tension, rtol=1e-12, atol=0)
    table = translation_of(model)
    assert {e: set(row) for e, row in table.items()} == {
        e: set(row) for e, row in want.translation.items()
    }
    for e, row in table.items():
        for f, p in row.items():
            assert abs(p - want.translation[e][f]) <= 1e-12
    assert align_corpus(model, pairs) == [oracles.viterbi_align(want, s, t) for s, t in pairs]


class TestMatchesDictOracle:
    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_model_and_links_match(self, noise):
        assert_matches_oracle(oracle_pairs(noise), iterations=5)

    def test_low_tension_start(self):
        assert_matches_oracle(oracle_pairs(0.3, seed=10), iterations=4, tension=0.5)

    @pytest.mark.parametrize("cells", [1, 7, 40])
    def test_bucket_spanning_several_blocks(self, monkeypatch, cells):
        pairs = oracle_pairs(0.3) + [(["s1", "s2"], ["t1", "t2"])] * 30
        monkeypatch.setattr(aligner, "_BLOCK_CELLS", cells)
        shapes = [shape for shape, *_ in aligner._blocks(pairs, {NULL_WORD: 0}, {}, grow=True)]
        assert len(shapes) > len(set(shapes))
        assert_matches_oracle(pairs, iterations=3)

    def test_block_accumulation_scales_with_the_block(self, monkeypatch):
        # Every E-step block adds its counts through a bincount; over its own
        # keys, all of them together produce at most one value per cell.
        pairs = cipher_pairs(200, vocab_size=40, seed=11, noise=0.5)
        monkeypatch.setattr(aligner, "_BLOCK_CELLS", 1)
        produced = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def bincount(*args, **kwargs):
                out = np.bincount(*args, **kwargs)
                produced.append(out.size)
                return out

        monkeypatch.setattr(aligner, "np", CountingNumpy())
        model = train_ibm2(pairs, iterations=2)
        cells = sum((len(s) + 1) * len(t) for s, t in pairs)
        blocks = sum(1 for _, t in pairs if t)
        assert model.keys.size * blocks > 20 * cells
        assert sum(produced) <= 2 * cells + 3 * len(model.src_ids)


class TestGrowDiagFinalAnd:
    def test_grow_adds_adjacent_uncovered_point(self):
        got = grow_diag_final_and({(0, 0), (1, 2)}, {(0, 0), (1, 1)})
        assert got == {(0, 0), (1, 1), (1, 2)}

    def test_final_and_requires_both_endpoints_uncovered(self):
        got = grow_diag_final_and({(0, 0), (2, 2), (2, 0)}, {(0, 0), (2, 2)})
        assert got == {(0, 0), (2, 2)}

    def test_final_and_adds_isolated_point(self):
        got = grow_diag_final_and({(0, 0), (3, 3)}, {(0, 0)})
        assert got == {(0, 0), (3, 3)}

    def test_empty_inputs(self):
        assert grow_diag_final_and(set(), set()) == set()
        assert grow_diag_final_and({(0, 0)}, set()) == {(0, 0)}

    def test_bounded_by_intersection_and_union(self):
        rng = random.Random(7)
        for _ in range(50):
            fwd = {(rng.randrange(5), rng.randrange(5)) for _ in range(rng.randint(0, 8))}
            rev = {(rng.randrange(5), rng.randrange(5)) for _ in range(rng.randint(0, 8))}
            got = grow_diag_final_and(fwd, rev)
            assert fwd & rev <= got <= fwd | rev


class TestLinkIO:
    def test_round_trip(self, tmp_path):
        link_sets = [{(0, 0), (2, 1)}, set(), {(1, 3)}]
        path = tmp_path / "links.txt"
        write_links(link_sets, path)
        assert read_links(path) == link_sets
        assert path.read_text(encoding="utf-8") == "0-0 2-1\n\n1-3\n"

    def test_malformed_link_fatal(self, tmp_path):
        path = tmp_path / "links.txt"
        path.write_text("0:0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_links(path)

    def test_non_integer_link_names_file_and_line(self, tmp_path):
        path = tmp_path / "links.txt"
        path.write_text("0-0\n1-x\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            read_links(path)
        assert str(info.value) == f"{path}: line 2: expected an integer, got 'x'"
