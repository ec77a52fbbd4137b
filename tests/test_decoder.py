"""Beam decoder: feature bookkeeping, oracle comparisons, and parallel runs."""

import math

import numpy as np
import pytest

from conftest import make_micro_cipher, micro_config
from lexinduct import (
    DecodeResult,
    DerivationStep,
    FEATURE_NAMES,
    FeatureWeights,
    NGramModel,
    PhraseTable,
    PhraseTableEntry,
    TranslationSystem,
    decode,
    load_corpus,
    load_lm,
    run_pipeline,
    sample_sentences,
    train_lm,
    translate_corpus,
)
from oracles import feature_score, reference_decode, single_word_table, table_of


def uniform_lm(v_size=16):
    """Every conditional is the same constant, so the model never reorders."""
    return NGramModel(
        order=1, discount=0.5, logprob={}, backoff={}, log_unseen=math.log(1.0 / v_size)
    )


def identity_table(words):
    return table_of({w: (PhraseTableEntry(w, w, 1.0, 1.0, 1.0, 1.0),) for w in words})


class TestFeatureWeights:
    def test_array_order_matches_names(self):
        w = FeatureWeights(phi_fwd=1, phi_bwd=2, lex_fwd=3, lex_bwd=4,
                           lm=5, word_penalty=6, phrase_penalty=7, distortion=8)
        np.testing.assert_array_equal(w.as_array(), np.arange(1.0, 9.0))
        assert len(FEATURE_NAMES) == 8

    def test_replace(self):
        w = FeatureWeights().replace("lm", 0.25)
        assert w.lm == 0.25 and w.phi_fwd == 1.0
        with pytest.raises(ValueError):
            FeatureWeights().replace("nope", 1.0)

    def test_file_round_trip(self, tmp_path):
        w = FeatureWeights(phi_fwd=0.125, lm=1.75, distortion=0.0625)
        path = tmp_path / "weights.txt"
        w.write(path)
        assert FeatureWeights.read(path) == w

    def test_read_errors(self, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("phi_fwd = 1.0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            FeatureWeights.read(path)
        path.write_text("bogus = 1.0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            FeatureWeights.read(path)
        path.write_text("no separator\n", encoding="utf-8")
        with pytest.raises(ValueError):
            FeatureWeights.read(path)

    def test_non_numeric_weight_names_file_and_line(self, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("phi_fwd = 1.0\n\nlm = heavy\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            FeatureWeights.read(path)
        assert str(info.value) == f"{path}: line 3: expected a number, got 'heavy'"


class TestFeatureScore:
    def step(self, start, src, tgt, lp=(-0.1, -0.2, -0.3, -0.4)):
        return DerivationStep(start, src, tgt, lp)

    def test_reordered_derivation_distortion(self):
        # Cover position 1 first (jump 1), then position 0 (jump 2).
        steps = (self.step(1, ("b",), ("X",)), self.step(0, ("a",), ("Y",)))
        feats, _ = feature_score(steps, FeatureWeights(), uniform_lm(), source_length=2)
        np.testing.assert_allclose(feats[7], -3.0, atol=1e-15)
        np.testing.assert_allclose(feats[0], -0.2, atol=1e-15)
        np.testing.assert_allclose(feats[5], -2.0, atol=1e-15)
        np.testing.assert_allclose(feats[6], -2.0, atol=1e-15)

    def test_coverage_validation(self):
        with pytest.raises(ValueError):
            feature_score(
                (self.step(0, ("a",), ("x",)), self.step(0, ("a",), ("y",))),
                FeatureWeights(), uniform_lm(), source_length=2,
            )
        with pytest.raises(ValueError):
            feature_score((self.step(0, ("a",), ("x",)),), FeatureWeights(),
                          uniform_lm(), source_length=2)

    def test_score_is_weighted_feature_sum(self):
        steps = (self.step(0, ("a", "b"), ("x",)),)
        w = FeatureWeights(phi_fwd=2.0, lm=0.5, word_penalty=0.25)
        feats, score = feature_score(steps, w, uniform_lm())
        np.testing.assert_allclose(score, float(feats @ w.as_array()), atol=1e-15)


class TestDecodeBasics:
    def test_identity_table_copies_input(self):
        lm = train_lm([["a", "b", "c"]] * 3, order=2)
        table = identity_table(["a", "b", "c"])
        assert decode(["a", "b", "c"], table, lm).output == ("a", "b", "c")

    def test_oov_token_copied_through(self):
        lm = train_lm([["x"]], order=2)
        table = identity_table(["a"])
        result = decode(["a", "zzz"], table, lm)
        assert result.output == ("a", "zzz")
        copied = [s for s in result.steps if s.copied]
        assert len(copied) == 1 and copied[0].src == ("zzz",)
        assert copied[0].log_phi == (0.0, 0.0, 0.0, 0.0)

    def test_empty_sentence(self):
        lm = train_lm([["a"]], order=2)
        result = decode([], identity_table(["a"]), lm)
        assert result.output == () and result.steps == ()
        np.testing.assert_allclose(result.score, lm.log_prob([]))

    def test_beam_validation(self):
        with pytest.raises(ValueError):
            decode(["a"], identity_table(["a"]), uniform_lm(), beam=0)

    def test_multi_word_phrase_used_when_better(self):
        lm = uniform_lm()
        entries = {
            "a": (PhraseTableEntry("a", "x", 0.1, 0.1, 0.1, 0.1),),
            "b": (PhraseTableEntry("b", "y", 0.1, 0.1, 0.1, 0.1),),
            "a b": (PhraseTableEntry("a b", "z z", 0.9, 0.9, 0.9, 0.9),),
        }
        result = decode(["a", "b"], table_of(entries), lm)
        assert result.output == ("z", "z")
        assert len(result.steps) == 1


class TestScoreRecompute:
    def test_decode_features_match_recomputation(self):
        rng = np.random.default_rng(60)
        tgt_vocab = [f"t{i}" for i in range(10)]
        lm = train_lm(
            [[tgt_vocab[int(i)] for i in rng.integers(0, 10, size=6)] for _ in range(30)],
            order=3,
        )
        src_vocab = [f"s{i}" for i in range(8)]
        for trial in range(15):
            table = single_word_table(rng, src_vocab, tgt_vocab)
            sent = [src_vocab[int(i)] for i in rng.integers(0, 8, size=int(rng.integers(1, 7)))]
            weights = FeatureWeights(
                phi_fwd=float(rng.uniform(0.2, 2.0)),
                lm=float(rng.uniform(0.2, 2.0)),
                word_penalty=float(rng.uniform(0.0, 0.5)),
                distortion=float(rng.uniform(0.2, 2.0)),
            )
            result = decode(sent, table, lm, weights, beam=20, distortion_limit=3)
            feats, score = feature_score(result.steps, weights, lm, source_length=len(sent))
            np.testing.assert_allclose(feats, result.features, atol=1e-9)
            np.testing.assert_allclose(score, result.score, atol=1e-9)


def enumerate_best(sentence, table, lm, weights):
    """Exhaustive search over segmentations, orderings, and options."""
    n = len(sentence)
    options = []
    have_single = set()
    for i in range(n):
        for j in range(i + 1, n + 1):
            for e in table.entries.get(" ".join(sentence[i:j]), ()):
                lp = (math.log(e.phi_fwd), math.log(e.phi_bwd),
                      math.log(e.lex_fwd), math.log(e.lex_bwd))
                options.append((i, j, tuple(e.tgt.split(" ")), lp, False))
                if j == i + 1:
                    have_single.add(i)
    for i in range(n):
        if i not in have_single:
            options.append((i, i + 1, (sentence[i],), (0.0,) * 4, True))

    best = [-math.inf]

    def go(cov, steps):
        if cov == (1 << n) - 1:
            _, score = feature_score(steps, weights, lm)
            best[0] = max(best[0], score)
            return
        for i, j, tgt, lp, copied in options:
            mask = ((1 << (j - i)) - 1) << i
            if cov & mask:
                continue
            go(cov | mask, steps + [DerivationStep(i, tuple(sentence[i:j]), tgt, lp, copied)])

    go(0, [])
    return best[0]


class TestExhaustiveOracle:
    def test_unlimited_distortion_matches_full_search(self):
        rng = np.random.default_rng(61)
        tgt_vocab = [f"t{i}" for i in range(6)]
        lm = train_lm(
            [[tgt_vocab[int(i)] for i in rng.integers(0, 6, size=5)] for _ in range(20)],
            order=2,
        )
        src_vocab = ["s0", "s1", "s2", "s3"]
        for trial in range(10):
            table = single_word_table(rng, src_vocab, tgt_vocab, max_options=2)
            if trial % 2:
                # Add one bigram entry so segmentation choices matter.
                probs = rng.uniform(0.3, 1.0, size=4)
                bigram = PhraseTableEntry("s0 s1", "t0 t1", *probs)
                table = table_of({**table.entries, "s0 s1": (bigram,)})
            sent = [src_vocab[int(i)] for i in rng.integers(0, 4, size=int(rng.integers(2, 5)))]
            result = decode(sent, table, lm, beam=1000, distortion_limit=-1)
            want = enumerate_best(sent, table, lm, FeatureWeights())
            np.testing.assert_allclose(result.score, want, atol=1e-9)


class TestPerTokenArgmaxOracle:
    def test_monotone_single_word_decoding_is_per_token_argmax(self):
        rng = np.random.default_rng(62)
        lm = uniform_lm()
        weights = FeatureWeights(phi_fwd=1.0, phi_bwd=0.5, lex_fwd=0.25, lex_bwd=0.75,
                                 lm=0.3, word_penalty=0.1, phrase_penalty=0.2, distortion=1.0)
        w4 = np.array([1.0, 0.5, 0.25, 0.75])
        src_vocab = [f"s{i}" for i in range(12)]
        tgt_vocab = [f"t{i}" for i in range(15)]
        for _ in range(30):
            table = single_word_table(rng, src_vocab[: int(rng.integers(6, 13))], tgt_vocab)
            sent = [
                src_vocab[int(i)] for i in rng.integers(0, 12, size=int(rng.integers(1, 9)))
            ]
            got = list(decode(sent, table, lm, weights, beam=5, distortion_limit=0).output)
            want = []
            for tok in sent:
                opts = table.entries.get(tok, ())
                if not opts:
                    want.append(tok)
                    continue
                scored = [
                    (-float(w4 @ np.log([e.phi_fwd, e.phi_bwd, e.lex_fwd, e.lex_bwd])), e.tgt)
                    for e in opts
                ]
                want.append(min(scored)[1])
            assert got == want


class TestBeamAndOptionLimits:
    def test_wider_beam_never_hurts_on_fixtures(self):
        rng = np.random.default_rng(63)
        tgt_vocab = [f"t{i}" for i in range(8)]
        lm = train_lm(
            [[tgt_vocab[int(i)] for i in rng.integers(0, 8, size=6)] for _ in range(25)],
            order=2,
        )
        src_vocab = [f"s{i}" for i in range(6)]
        for _ in range(8):
            table = single_word_table(rng, src_vocab, tgt_vocab)
            sent = [src_vocab[int(i)] for i in rng.integers(0, 6, size=5)]
            narrow = decode(sent, table, lm, beam=1, distortion_limit=2)
            wide = decode(sent, table, lm, beam=200, distortion_limit=2)
            assert wide.score >= narrow.score - 1e-12

    def test_options_limit_one_keeps_best_option(self):
        rng = np.random.default_rng(64)
        lm = uniform_lm()
        table = single_word_table(rng, ["s0", "s1"], [f"t{i}" for i in range(6)])
        full = decode(["s0", "s1"], table, lm, distortion_limit=0)
        limited = decode(["s0", "s1"], table, lm, distortion_limit=0, options_limit=1)
        assert limited.output == full.output


class TestTranslationSystem:
    def make_system(self, **kw):
        lm = train_lm([["x", "y"]] * 2, order=2)
        table = table_of({
            "a": (PhraseTableEntry("a", "x", 0.9, 0.9, 0.9, 0.9),),
            "b": (PhraseTableEntry("b", "y", 0.9, 0.9, 0.9, 0.9),),
        })
        return TranslationSystem(table, lm, **kw)

    def test_translation_cached(self):
        system = self.make_system()
        first = system.translate(["a", "b"])
        assert system.translate(("a", "b")) is first

    def test_with_weights_changes_behavior_not_original(self):
        system = self.make_system()
        other = system.with_weights(FeatureWeights(lm=0.0))
        assert other.weights.lm == 0.0 and system.weights.lm == 1.0
        assert other._cache == {}

    def test_translate_corpus_worker_independence(self):
        system = self.make_system()
        sents = [["a"], ["b", "a"], ["a", "b"], ["b"]] * 3
        serial = translate_corpus(sents, system, workers=1)
        parallel = translate_corpus(sents, self.make_system(), workers=2)
        assert serial == parallel
        assert [s for s, _ in serial] == [tuple(s) for s in sents]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_translate_corpus_leaves_the_cache_empty(self, workers):
        system = self.make_system()
        sents = [["a"], ["b", "a"], ["a", "b"], ["b"]] * 3
        pairs = translate_corpus(sents, system, workers=workers)
        assert system._cache == {}
        assert [out for _, out in pairs] == [system.translate(s) for s in sents]

    def test_translate_corpus_cap(self):
        system = self.make_system()
        assert len(translate_corpus([["a"]] * 10, system, cap=4)) == 4
        assert translate_corpus([["a"]] * 10, system, cap=0) == []
        with pytest.raises(ValueError):
            translate_corpus([["a"]], system, cap=-1)


def same_result(got, want):
    """Exact equality of two DecodeResults, features and score to the bit."""
    return (
        got.output == want.output
        and got.steps == want.steps
        and got.features.tobytes() == want.features.tobytes()
        and got.score.hex() == want.score.hex()
    )


def fresh_copy(lm):
    """The same model with an empty memo."""
    return NGramModel(lm.order, lm.discount, dict(lm.logprob), dict(lm.backoff), lm.log_unseen)


def random_fixture(rng, coarse=False):
    """An order-3 LM on random target text, and a table with 1 to 4 options
    per source word plus two-word phrases of one or two target words. With
    `coarse`, every probability is 1/4 or 1/2, so that scores tie."""
    tgt_vocab = [f"t{i}" for i in range(9)]
    lm = train_lm(
        [[tgt_vocab[int(i)] for i in rng.integers(0, 9, size=int(rng.integers(2, 8)))]
         for _ in range(30)],
        order=3,
    )

    def probs():
        return rng.choice([0.25, 0.5], size=4) if coarse else rng.uniform(0.05, 1.0, size=4)

    src_vocab = [f"s{i}" for i in range(7)]
    entries = {}
    # The last source word has no entry, so it is copied through.
    for s in src_vocab[:-1]:
        picks = rng.choice(9, size=int(rng.integers(1, 5)), replace=False)
        entries[s] = tuple(PhraseTableEntry(s, tgt_vocab[int(t)], *probs()) for t in picks)
    for _ in range(4):
        a, b = (src_vocab[int(i)] for i in rng.integers(0, 7, size=2))
        words = [tgt_vocab[int(i)] for i in rng.integers(0, 9, size=int(rng.integers(1, 3)))]
        entries[f"{a} {b}"] = (PhraseTableEntry(f"{a} {b}", " ".join(words), *probs()),)
    return lm, table_of(entries), src_vocab


def weight_draws(rng):
    """Positive weights, then LM weight 0, a negative LM weight, a negative
    word penalty, and unit TM weights with no LM or distortion (many ties)."""
    draws = []
    for lm_weight, word_penalty in ((None, None), (0.0, None), (-0.5, None), (None, -0.7)):
        w = FeatureWeights(*rng.uniform(0.0, 2.0, size=8))
        if lm_weight is not None:
            w = w.replace("lm", lm_weight)
        if word_penalty is not None:
            w = w.replace("word_penalty", word_penalty)
        draws.append(w)
    draws.append(FeatureWeights(lm=0.0, distortion=0.0))
    return draws


class TestExactPruning:
    @pytest.mark.parametrize("distortion_limit", [-1, 0, 2, 6])
    @pytest.mark.parametrize("options_limit", [0, 1, 4])
    @pytest.mark.parametrize("beam", [1, 2, 5])
    def test_decode_equals_unpruned_reference(self, beam, options_limit, distortion_limit):
        rng = np.random.default_rng([70, beam, options_limit, distortion_limit + 1])
        for coarse in (False, False, True, True):
            lm, table, src_vocab = random_fixture(rng, coarse)
            for weights in weight_draws(rng):
                sent = [src_vocab[int(i)] for i in rng.integers(0, 7, size=int(rng.integers(0, 8)))]
                args = (sent, table, lm, weights, beam, distortion_limit, options_limit)
                assert same_result(decode(*args), reference_decode(*args))

    def test_positive_backoff_scores_every_option(self):
        # From context "x", the unseen bigram "x x" scores 0.6 + -0.1 > 0.
        lm = NGramModel(
            order=2, discount=0.5,
            logprob={("x",): -0.1, ("y",): -0.5, ("</s>",): -1.0,
                     ("<s>", "x"): -0.7, ("x", "y"): -0.2},
            backoff={("<s>",): -0.3, ("x",): 0.6},
            log_unseen=-3.0,
        )
        assert lm.step_bound > 0
        assert lm.step(lm.step(lm.initial_state(), "x")[1], "x")[0] > 0
        rng = np.random.default_rng(71)
        table = single_word_table(rng, ["a", "b", "c"], ["x", "y", "z"], max_options=3)
        for weights in weight_draws(rng):
            for _ in range(5):
                sent = [["a", "b", "c"][int(i)] for i in rng.integers(0, 3, size=6)]
                pruned, unpruned = fresh_copy(lm), fresh_copy(lm)
                got = decode(sent, table, pruned, weights, beam=2)
                assert same_result(got, reference_decode(sent, table, unpruned, weights, beam=2))
                # Every option of every expanded parent was scored with the LM.
                assert pruned.transitions == unpruned.transitions


@pytest.fixture(scope="module")
def micro_run(tmp_path_factory):
    """The micro cipher, its config and the work dir of one pipeline run."""
    root = tmp_path_factory.mktemp("micro")
    fx = make_micro_cipher(root / "data")
    config = micro_config(fx, root / "work")
    run_pipeline(config)
    return fx, config, root / "work"


class TestLanguageModelMemo:
    def dev_and_system(self, micro_run, lm):
        fx, config, work = micro_run
        dev = sample_sentences(load_corpus(fx.src_corpus), config.dev_size, config.dev_seed)

        def fresh_system():
            table = PhraseTable.read(work / "src2tgt" / "phrase_table.txt")
            return TranslationSystem(table, lm, beam=config.beam, options_limit=config.options_limit)

        return dev.sentences, fresh_system

    def test_second_pass_with_fresh_systems_adds_no_memo_entries(self, micro_run):
        lm = load_lm(micro_run[2] / "tgt" / "lm.txt")
        sentences, fresh_system = self.dev_and_system(micro_run, lm)
        first = [fresh_system().translate(s) for s in sentences]
        size = sum(len(row) for row in lm.transitions)
        assert size > 0
        assert [fresh_system().translate(s) for s in sentences] == first
        assert sum(len(row) for row in lm.transitions) == size

    def test_memoised_steps_lie_under_the_bound(self, micro_run):
        lm = load_lm(micro_run[2] / "tgt" / "lm.txt")
        sentences, fresh_system = self.dev_and_system(micro_run, lm)
        unpruned = fresh_copy(lm)
        system = fresh_system()
        for s in sentences:
            got = decode(s, system.table, lm, system.weights, system.beam,
                         system.distortion_limit, system.options_limit)
            want = reference_decode(s, system.table, unpruned, system.weights, system.beam,
                                    system.distortion_limit, system.options_limit)
            assert same_result(got, want)
        assert lm.step_bound <= 0
        assert all(value <= lm.step_bound for row in lm.transitions for value, _ in row.values())
        # The bound let the decoder leave options unscored.
        memo = sum(map(len, lm.transitions))
        assert 0 < memo < sum(map(len, unpruned.transitions))
