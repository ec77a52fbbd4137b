"""Smoothed BLEU, the unsupervised objective, and coordinate tuning."""

import math

import numpy as np
import pytest

from lexinduct import (
    FeatureWeights,
    PhraseTableEntry,
    TranslationSystem,
    objective,
    sentence_bleu,
    train_lm,
    tune,
)
from lexinduct import tuner
from lexinduct.phrases import GOLDEN, golden_min
from lexinduct.tuner import CYCLIC_WEIGHT, LENGTH_WEIGHT, LM_WEIGHT
from oracles import table_of


class TestSentenceBleu:
    def test_identity_scores_one(self):
        assert sentence_bleu(["a", "b", "c"], ["a", "b", "c"]) == 1.0

    def test_empty_hypothesis_scores_zero(self):
        assert sentence_bleu([], ["a"]) == 0.0

    def test_brevity_penalty(self):
        got = sentence_bleu(["a", "b"], ["a", "b", "c"])
        np.testing.assert_allclose(got, math.exp(1.0 - 3.0 / 2.0), atol=1e-12)

    def test_no_overlap_smoothed_value(self):
        got = sentence_bleu(["x", "y"], ["a", "b"])
        np.testing.assert_allclose(got, (1.0 / 6.0) ** 0.25, atol=1e-12)

    def test_clipping_repeated_hypothesis_grams(self):
        got = sentence_bleu(["a", "a"], ["a"])
        np.testing.assert_allclose(got, (2.0 / 3.0 * 0.5) ** 0.25, atol=1e-12)

    def test_range_on_random_pairs(self):
        rng = np.random.default_rng(70)
        vocab = [f"w{i}" for i in range(6)]
        for _ in range(50):
            hyp = [vocab[int(i)] for i in rng.integers(0, 6, size=int(rng.integers(0, 8)))]
            ref = [vocab[int(i)] for i in rng.integers(0, 6, size=int(rng.integers(1, 8)))]
            score = sentence_bleu(hyp, ref)
            assert 0.0 <= score <= 1.0


def identity_system(words, **kw):
    # Monotone decoding keeps the round trip literal; otherwise the language
    # model may legitimately reorder the copied words.
    kw.setdefault("distortion_limit", 0)
    table = table_of({w: (PhraseTableEntry(w, w, 1.0, 1.0, 1.0, 1.0),) for w in words})
    lm = train_lm([list(words)] * 2, order=2)
    return TranslationSystem(table, lm, **kw)


class TestObjective:
    def test_identity_round_trip_has_zero_cyclic_and_length_loss(self):
        words = ("a", "b", "c")
        forward = identity_system(words)
        backward = identity_system(words)
        dev = [["a", "b"], ["c", "a", "b"]]
        result = objective(FeatureWeights(), dev, forward, backward)
        np.testing.assert_allclose(result.cyclic, 0.0, atol=1e-12)
        np.testing.assert_allclose(result.length, 0.0, atol=1e-12)
        assert result.lm > 0.0

    def test_combined_is_weighted_sum(self):
        # The mix is fixed: cyclic 1.0, fluency 0.1, length 0.5.
        assert (CYCLIC_WEIGHT, LM_WEIGHT, LENGTH_WEIGHT) == (1.0, 0.1, 0.5)
        forward = identity_system(("a", "b"))
        # The way back swaps the two words, so the round trip loses.
        table = table_of({
            "a": (PhraseTableEntry("a", "b", 1.0, 1.0, 1.0, 1.0),),
            "b": (PhraseTableEntry("b", "a", 1.0, 1.0, 1.0, 1.0),),
        })
        backward = TranslationSystem(table, train_lm([["a", "b"]] * 2, order=2), distortion_limit=0)
        result = objective(FeatureWeights(), [["a"], ["b", "a"]], forward, backward)
        assert result.cyclic > 0.0 and result.lm > 0.0
        want = 1.0 * result.cyclic + 0.1 * result.lm + 0.5 * result.length
        np.testing.assert_allclose(result.combined, want, atol=1e-12)

    def test_empty_dev_fatal(self):
        forward = identity_system(("a",))
        with pytest.raises(ValueError):
            objective(FeatureWeights(), [], forward, forward)


class TestGoldenMin:
    def test_convex_quadratic(self):
        calls = []

        def f(x):
            calls.append(x)
            return (x - 0.7) ** 2

        (a, b), (x, fx) = golden_min(f, 0.0, 2.0, iterations=40)
        np.testing.assert_allclose(x, 0.7, atol=1e-6)
        np.testing.assert_allclose(fx, min((c - 0.7) ** 2 for c in calls), atol=0)
        assert a <= 0.7 <= b and b - a < 1e-7
        assert len(calls) == 42

    def test_returns_best_evaluated_point_even_if_not_unimodal(self):
        def f(x):
            return math.sin(9.0 * x) + 0.1 * x

        _, (x, fx) = golden_min(f, 0.0, 2.0, iterations=25)
        np.testing.assert_allclose(fx, f(x), atol=0)
        assert fx <= f(2.0 - (math.sqrt(5) - 1) / 2 * 2.0) + 1e-12

    def test_ties_keep_the_first_lower_point(self):
        # On a flat function the left point wins every comparison, so the
        # bracket shrinks from the right and the best stays the first point.
        (a, b), (x, fx) = golden_min(lambda v: 1.0, 0.0, 1.0, iterations=5)
        assert (x, fx) == (1.0 - GOLDEN, 1.0)
        assert a == 0.0 and b == pytest.approx(GOLDEN**5, rel=1e-12)


def misleading_fixture():
    """Forward options tie at zero TM weight and the tie-break picks garbage;
    any positive translation-model weight fixes the round trip."""
    sources = ("s0", "s1", "s2")
    correct = {s: f"c{i}" for i, s in enumerate(sources)}
    fwd_entries = {}
    for s in sources:
        good = PhraseTableEntry(s, correct[s], 0.9, 0.9, 0.9, 0.9)
        bad = PhraseTableEntry(s, "a", 0.1, 0.1, 0.1, 0.1)
        fwd_entries[s] = tuple(sorted((good, bad), key=lambda e: (-e.phi_fwd, e.tgt)))
    bwd_entries = {c: (PhraseTableEntry(c, s, 0.9, 0.9, 0.9, 0.9),) for s, c in correct.items()}
    tgt_corpus = [[correct[s] for s in sources]] * 3
    forward = TranslationSystem(
        table_of(fwd_entries), train_lm(tgt_corpus, order=2), beam=5, distortion_limit=0
    )
    backward = TranslationSystem(
        table_of(bwd_entries), train_lm([list(sources)] * 3, order=2), beam=5,
        distortion_limit=0,
    )
    dev = [list(sources), ["s1", "s0"], ["s2", "s2", "s0"]]
    return forward, backward, dev


ZERO_TM = FeatureWeights(phi_fwd=0.0, phi_bwd=0.0, lex_fwd=0.0, lex_bwd=0.0,
                         lm=0.0, word_penalty=0.0, phrase_penalty=0.0, distortion=1.0)


class TestTune:
    def test_never_worse_than_initial(self):
        forward, backward, dev = misleading_fixture()
        for initial in (FeatureWeights(), ZERO_TM):
            tuned = tune(initial, dev, forward, backward, sweeps=1, golden_iterations=4)
            before = objective(initial, dev, forward, backward).combined
            after = objective(tuned, dev, forward, backward).combined
            assert after <= before + 1e-12

    def test_strict_improvement_when_initial_is_misleading(self):
        forward, backward, dev = misleading_fixture()
        tuned = tune(ZERO_TM, dev, forward, backward, sweeps=1, golden_iterations=5)
        before = objective(ZERO_TM, dev, forward, backward)
        after = objective(tuned, dev, forward, backward)
        assert after.combined < before.combined
        np.testing.assert_allclose(after.cyclic, 0.0, atol=1e-12)

    def test_deterministic(self):
        results = []
        for _ in range(2):
            forward, backward, dev = misleading_fixture()
            results.append(tune(ZERO_TM, dev, forward, backward, sweeps=2, golden_iterations=4))
        assert results[0] == results[1]

    def test_zero_sweeps_returns_initial(self, monkeypatch):
        # Nothing is evaluated or decoded: the result is known beforehand.
        class Undecodable:
            def with_weights(self, weights):
                raise AssertionError("decoded at sweeps = 0")

            translate = with_weights

        def no_objective(*args):
            raise AssertionError("objective evaluated at sweeps = 0")

        monkeypatch.setattr(tuner, "objective", no_objective)
        _, _, dev = misleading_fixture()
        tuned = tune(ZERO_TM, dev, Undecodable(), Undecodable(), sweeps=0)
        assert tuned == ZERO_TM

    def test_config_validation(self):
        forward, backward, dev = misleading_fixture()
        with pytest.raises(ValueError, match="sweeps must be >= 0"):
            tune(ZERO_TM, dev, forward, backward, sweeps=-1)
