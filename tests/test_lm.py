"""Kneser-Ney language model: hand values, normalization, invariances, IO."""

import gc
import itertools
import math
import random
import re

import numpy as np
import pytest

import oracles
from conftest import cipher_config, make_cipher
from lexinduct import NGramModel, load_lm, perplexity, save_lm, train_lm
from lexinduct.corpus import load_corpus
from lexinduct.lm import BOS, EOS, UNK
from lexinduct.pipeline import lm_stage


def chain_corpus(n_sentences, vocab_size=12, seed=0):
    """Deterministic-successor word chains, so order matters a lot."""
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(vocab_size)]
    successor = {w: words[(i * 5 + 3) % vocab_size] for i, w in enumerate(words)}
    corpus = []
    for _ in range(n_sentences):
        cur = rng.choice(words)
        sent = [cur]
        for _ in range(rng.randint(3, 8)):
            cur = successor[cur] if rng.random() < 0.9 else rng.choice(words)
            sent.append(cur)
        corpus.append(sent)
    return corpus


class TestHandValues:
    """Single sentence "a a a", order 2, discount 0.75, worked by hand."""

    def setup_method(self):
        self.model = train_lm([["a", "a", "a"]], order=2, discount=0.75)

    def test_unigram_probabilities(self):
        np.testing.assert_allclose(math.exp(self.model.logprob[("a",)]), 7 / 12, atol=1e-12)
        np.testing.assert_allclose(math.exp(self.model.logprob[(EOS,)]), 1 / 4, atol=1e-12)
        np.testing.assert_allclose(math.exp(self.model.log_unseen), 1 / 6, atol=1e-12)

    def test_bigram_probabilities(self):
        begin = self.model.initial_state()
        after_a = self.model.step(begin, "a")[1]
        for state, word, want in (
            (after_a, "a", 17 / 24), (after_a, EOS, 5 / 24), (after_a, "zz", 1 / 12),
            (begin, "a", 11 / 16),
        ):
            np.testing.assert_allclose(math.exp(self.model.step(state, word)[0]), want, atol=1e-12)

    def test_conditional_sums_to_one(self):
        total = sum(oracles.next_word_distribution(self.model, ["a"]).values())
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_sentence_log_prob_decomposes(self):
        want = math.log(11 / 16) + 2 * math.log(17 / 24) + math.log(5 / 24)
        np.testing.assert_allclose(self.model.log_prob(["a", "a", "a"]), want, atol=1e-12)


class TestNormalization:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_random_contexts_sum_to_one(self, order):
        corpus = chain_corpus(40, seed=order)
        model = train_lm(corpus, order=order, discount=0.75)
        rng = random.Random(100 + order)
        flat = [w for s in corpus for w in s]
        for _ in range(25):
            length = rng.randint(0, order)
            prefix = [rng.choice(flat) for _ in range(length)]
            if rng.random() < 0.3 and prefix:
                prefix[-1] = "never-seen"
            total = sum(oracles.next_word_distribution(model, prefix).values())
            np.testing.assert_allclose(total, 1.0, atol=1e-9)


class TestDoublingInvariance:
    """Repeating the corpus doubles raw counts but no continuation (distinct
    predecessor) count, so everything below the top order is unchanged."""

    def test_lower_orders_unchanged_top_order_not(self):
        corpus = chain_corpus(25, seed=9)
        once = train_lm(corpus, order=3, discount=0.75)
        twice = train_lm(corpus + corpus, order=3, discount=0.75)
        for gram, lp in once.logprob.items():
            if len(gram) < 3:
                np.testing.assert_allclose(twice.logprob[gram], lp, atol=1e-12)
        changed = [
            g
            for g, lp in once.logprob.items()
            if len(g) == 3 and abs(twice.logprob[g] - lp) > 1e-9
        ]
        assert changed


class TestPerplexity:
    def test_structure_beats_shuffled_tokens(self):
        corpus = chain_corpus(80, seed=4)
        model = train_lm(corpus, order=3)
        flat = [w for s in corpus for w in s]
        random.Random(5).shuffle(flat)
        shuffled, pos = [], 0
        for s in corpus:
            shuffled.append(flat[pos : pos + len(s)])
            pos += len(s)
        assert perplexity(model, corpus) < perplexity(model, shuffled)

    def test_empty_corpus_fatal(self):
        model = train_lm([["a"]], order=1)
        with pytest.raises(ValueError):
            perplexity(model, [])


class TestIncrementalScoring:
    def test_context_stepping_matches_log_prob(self):
        corpus = chain_corpus(30, seed=6)
        model = train_lm(corpus, order=4)
        rng = random.Random(7)
        flat = [w for s in corpus for w in s]
        for _ in range(20):
            sent = [rng.choice(flat + ["oov-token"]) for _ in range(rng.randint(1, 9))]
            state = model.initial_state()
            total = 0.0
            for word in sent:
                value, state = model.step(state, word)
                total += value
            total += model.step(state, EOS)[0]
            np.testing.assert_allclose(total, model.log_prob(sent), atol=1e-12)

    def test_unigram_model_ignores_context(self):
        model = train_lm([["a", "b"]], order=1)
        assert model.initial_context() == ()
        begin = model.initial_state()
        after_bb = model.step(model.step(begin, "b")[1], "b")[1]
        assert after_bb == begin
        assert model.step(after_bb, "a")[0] == model.step(begin, "a")[0]


class TestVocabulary:
    def test_normalize_token(self):
        model = train_lm([["a", "b"]], order=2)
        assert model.normalize_token("a") == "a"
        assert model.normalize_token("zz") == UNK

    def test_vocab_contains_end_and_unk_not_begin(self):
        model = train_lm([["a"]], order=3)
        assert EOS in model.vocab and UNK in model.vocab
        assert BOS not in model.vocab


class TestTrainingMemory:
    def test_training_leaves_no_reference_cycle(self):
        # A cycle would keep the model's tables alive after the model is
        # dropped, until the next full garbage collection.
        gc.collect()
        gc.disable()
        try:
            model = train_lm(chain_corpus(10, seed=2), order=3)
            del model
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestTrainingErrors:
    def test_reserved_tokens_rejected(self):
        for bad in (BOS, EOS, UNK):
            with pytest.raises(ValueError):
                train_lm([["a", bad]], order=2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            train_lm([["a"]], order=0)
        with pytest.raises(ValueError):
            train_lm([["a"]], order=2, discount=1.0)
        with pytest.raises(ValueError):
            train_lm([["a"]], order=2, discount=0.0)
        with pytest.raises(ValueError):
            train_lm([], order=2)


class TestSerialization:
    def test_round_trip_scores(self, tmp_path):
        corpus = chain_corpus(30, seed=8)
        model = train_lm(corpus, order=4)
        path = tmp_path / "model.lm"
        save_lm(model, path)
        back = load_lm(path)
        assert back.order == model.order
        assert back.discount == model.discount
        assert set(back.logprob) == set(model.logprob)
        rng = random.Random(9)
        flat = [w for s in corpus for w in s]
        for _ in range(30):
            sent = [rng.choice(flat) for _ in range(rng.randint(1, 6))]
            np.testing.assert_allclose(back.log_prob(sent), model.log_prob(sent), atol=1e-8)

    def test_rewrite_is_byte_stable(self, tmp_path):
        model = train_lm(chain_corpus(10, seed=10), order=3)
        p1, p2 = tmp_path / "a.lm", tmp_path / "b.lm"
        save_lm(model, p1)
        save_lm(load_lm(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_files_rejected(self, tmp_path):
        path = tmp_path / "bad.lm"
        path.write_text("not-a-model 1\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_lm(path)
        path.write_text("lexinduct-lm 999\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_lm(path)
        path.write_text("lexinduct-lm 1\nwrong header\n\n\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_lm(path)

    @pytest.mark.parametrize("text, line", [
        ("lexinduct-lm 1\norder\ndiscount 0.75\nunseen -1.0\n", 2),
        ("lexinduct-lm 1\norder x\ndiscount 0.75\nunseen -1.0\n", 2),
        ("lexinduct-lm 1\norder 0\ndiscount 0.75\nunseen -1.0\n", 2),
        ("lexinduct-lm 1\norder 2\ndiscount\nunseen -1.0\n", 3),
        ("lexinduct-lm 1\norder 2\ndiscount 0.75\nunseen minus\n", 4),
        ("lexinduct-lm 1\norder 2\ndiscount 0.75\n", 4),
        ("lexinduct-lm 1\norder 2\ndiscount 0.75\nunseen -1.0\n-0.5\ta\t-\nhalf\tb\t-\n", 6),
        ("lexinduct-lm 1\norder 2\ndiscount 0.75\nunseen -1.0\n-0.5\ta\tnone\n", 5),
        ("lexinduct-lm 1\norder 2\ndiscount 0.75\nunseen -1.0\n-0.5\ta\t-\n-0.6\tb\n-0.7\tc\t-\n", 6),
        ("lexinduct-lm 1\norder 2\ndiscount 0.75\nunseen -1.0\n-0.5\ta\t-\n-0.6\tb\t-\t-\n-0.7\tc\t-\n", 6),
        # A long line and a short one keep the file's field count; shifted by
        # one field, the second line's fields would still parse.
        ("lexinduct-lm 1\norder 2\ndiscount 0.75\nunseen -1.0\n-0.5\ta b\t-\t-0.1\n-0.7\t-\n", 5),
        ("lexinduct-lm 1\norder 2\ndiscount 0.75\nunseen -1.0\n-0.5\ta\n\n-0.6\tb\t-\t-\n", 5),
        ("lexinduct-lm 1\norder 2\ndiscount 0.75\nunseen -1.0\n\n-0.5\ta\t-\n \n-0.5\tb c\tx\n", 8),
    ], ids=[
        "order-without-value", "order-not-integer", "order-zero", "discount-without-value",
        "unseen-not-number", "unseen-missing", "logprob-not-number", "backoff-not-number",
        "two-tab-fields", "four-tab-fields", "four-then-two-fields", "two-then-four-fields",
        "after-blank-lines",
    ])
    def test_malformed_header_or_value_names_file_and_line(self, tmp_path, text, line):
        path = tmp_path / "bad.lm"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line {line}: "):
            load_lm(path)

    def test_malformed_line_deep_in_the_file_is_named(self, tmp_path):
        # The loader parses a file in blocks; these lines lie far past the first.
        path = tmp_path / "model.lm"
        save_lm(train_lm(chain_corpus(300, vocab_size=40, seed=14), order=5), path)
        lines = path.read_text(encoding="utf-8").split("\n")
        assert len(lines) > 1900
        for index, bad in ((1500, "-0.5\tx"), (1800, "-0.5\ta b\t-\t-"), (1900, "-0.5\ta b\tnan?")):
            path.write_text("\n".join(lines[:index] + [bad] + lines[index + 1 :]), encoding="utf-8")
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line {index + 1}: "):
                load_lm(path)

    def test_blank_lines_between_entries_are_skipped(self, tmp_path):
        path = tmp_path / "model.lm"
        save_lm(train_lm(chain_corpus(10, seed=15), order=3), path)
        want = load_lm(path)
        lines = path.read_text(encoding="utf-8").split("\n")
        fillers = itertools.cycle(["", "\n", "\n \t\n", "\n\t\t"])
        spaced = lines[:4] + [""] + [line + filler for line, filler in zip(lines[4:], fillers)]
        path.write_text("\n".join(spaced), encoding="utf-8")
        got = load_lm(path)
        assert (got.order, got.discount, got.log_unseen) == (want.order, want.discount, want.log_unseen)
        assert list(got.logprob.items()) == list(want.logprob.items())
        assert list(got.backoff.items()) == list(want.backoff.items())

    def test_token_without_a_unigram_row_loads(self, tmp_path):
        model = NGramModel(
            order=3,
            discount=0.75,
            logprob={("a",): -0.5, ("b", "c"): -0.25, ("x", "y", "a"): -0.75},
            backoff={("b",): -0.1, ("x", "y"): -0.2},
            log_unseen=-3.0,
        )
        path = tmp_path / "model.lm"
        save_lm(model, path)
        back = load_lm(path)
        assert back.logprob == model.logprob
        assert back.backoff == model.backoff
        assert back.vocab == (UNK, "a")

    def test_tokens_are_shared_and_rewrite_is_byte_stable(self, tmp_path):
        p1, p2 = tmp_path / "a.lm", tmp_path / "b.lm"
        save_lm(train_lm(chain_corpus(300, seed=16), order=5), p1)
        model = load_lm(p1)
        assert any(key[0] == BOS for key in model.backoff)
        first: dict[str, str] = {}
        for key in itertools.chain(model.logprob, model.backoff):
            for token in key:
                assert first.setdefault(token, token) is token
        save_lm(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_non_numeric_version_names_the_file(self, tmp_path):
        path = tmp_path / "bad.lm"
        path.write_text("lexinduct-lm one\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: unsupported version"):
            load_lm(path)


def reference_corpus(rng, order):
    """Random sentences over a small vocabulary, with at least one empty
    sentence and one shorter than the order."""
    words = [f"w{i}" for i in range(rng.randint(1, 9))]
    corpus = [
        [rng.choice(words) for _ in range(rng.randint(0, order + 4))]
        for _ in range(rng.randint(1, 30))
    ]
    corpus.insert(rng.randint(0, len(corpus)), [])
    corpus.insert(rng.randint(0, len(corpus)), [rng.choice(words)] * rng.randint(0, order - 1))
    return corpus


class TestAgainstReferenceEstimator:
    """Training from top-order counts alone equals `oracles.train_lm`, which
    counts every order raw and interpolates through the backoff recursion."""

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_tables_vocab_and_file_bytes_are_equal(self, order, tmp_path):
        rng = random.Random(400 + order)
        for _ in range(8):
            corpus = reference_corpus(rng, order)
            discount = rng.choice([0.1, 0.5, 0.75, 0.9])
            got = train_lm(corpus, order, discount)
            want = oracles.train_lm(corpus, order, discount)
            assert got.logprob == want.logprob
            assert got.backoff == want.backoff
            assert got.log_unseen == want.log_unseen
            assert got.vocab == want.vocab
            save_lm(got, tmp_path / "got.lm")
            save_lm(want, tmp_path / "want.lm")
            assert (tmp_path / "got.lm").read_bytes() == (tmp_path / "want.lm").read_bytes()

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_tokens_that_sort_around_the_reserved_symbols(self, order, tmp_path):
        # Python orders "</s>" < "<s>" < "<unk>"; these tokens fall before,
        # between and after them, so ids out of string order would reorder
        # the file and the context groups.
        words = ["!", "0", ";", "<", "<r", "<s>x", "<t", "=", "A", "a", "ab", "é", "中"]
        rng = random.Random(500 + order)
        for _ in range(6):
            vocab = rng.sample(words, rng.randint(1, len(words)))
            corpus = [
                [rng.choice(vocab) for _ in range(rng.randint(0, order + 4))]
                for _ in range(rng.randint(1, 30))
            ]
            discount = rng.choice([0.1, 0.5, 0.75, 0.9])
            got = train_lm(corpus, order, discount)
            want = oracles.train_lm(corpus, order, discount)
            assert (got.logprob, got.backoff, got.vocab) == (want.logprob, want.backoff, want.vocab)
            save_lm(got, tmp_path / "got.lm")
            save_lm(want, tmp_path / "want.lm")
            assert (tmp_path / "got.lm").read_bytes() == (tmp_path / "want.lm").read_bytes()

    def test_lm_stage_on_a_cipher_corpus(self, tmp_path):
        fixture = make_cipher(tmp_path / "cipher", sentences=300)
        config = cipher_config(fixture, tmp_path / "work", lm_order=5)
        corpus = load_corpus(fixture.tgt_corpus)
        lm_stage(config, corpus, tmp_path / "got.lm")
        save_lm(oracles.train_lm(corpus, 5, config.lm_discount), tmp_path / "want.lm")
        assert (tmp_path / "got.lm").read_bytes() == (tmp_path / "want.lm").read_bytes()

    def test_chain_corpus_with_generator_input(self):
        corpus = chain_corpus(40, seed=13)
        got = train_lm((tuple(s) for s in corpus), order=5)
        want = oracles.train_lm(corpus, order=5)
        assert (got.logprob, got.backoff, got.vocab) == (want.logprob, want.backoff, want.vocab)


def test_direct_model_construction_backs_off():
    model = NGramModel(
        order=2,
        discount=0.75,
        logprob={("a",): math.log(0.6), (UNK,): math.log(0.1)},
        backoff={("a",): math.log(0.5)},
        log_unseen=math.log(0.1),
    )
    after_a = model.step(model.initial_state(), "a")[1]
    np.testing.assert_allclose(
        model.step(after_a, "a")[0], math.log(0.5) + math.log(0.6), atol=1e-12
    )
    assert model.vocab == (UNK, "a")


def arpa_cond(model, word, context):
    """Reference for `step`: the ARPA backoff recursion on string contexts,
    log p(word | context) with backoffs added right-nested."""
    key = context + (word,)
    if key in model.logprob:
        return model.logprob[key]
    if not context:
        return model.log_unseen
    return model.backoff.get(context, 0.0) + arpa_cond(model, word, context[1:])


def hand_built_models():
    """The hand-built models of the test suite, plus one whose contexts are
    not closed under suffixes and one that conditions on <unk>."""
    direct = NGramModel(
        order=2,
        discount=0.75,
        logprob={("a",): math.log(0.6), (UNK,): math.log(0.1)},
        backoff={("a",): math.log(0.5)},
        log_unseen=math.log(0.1),
    )
    uniform = NGramModel(
        order=1, discount=0.5, logprob={}, backoff={}, log_unseen=math.log(1.0 / 16)
    )
    gapped = NGramModel(
        order=3,
        discount=0.75,
        logprob={
            ("a",): math.log(0.3), ("b",): math.log(0.2), ("c",): math.log(0.1),
            (EOS,): math.log(0.2), (UNK,): math.log(0.05),
            ("c", "a", "b"): math.log(0.7), (UNK, "a"): math.log(0.4),
        },
        backoff={("a", "b"): math.log(0.45), ("c",): math.log(0.8)},
        log_unseen=math.log(0.01),
    )
    return [direct, uniform, gapped]


def assert_steps_match_the_recursion(model, sentence):
    """Chain `step` over the sentence and its end symbol; every score must
    equal the string recursion exactly, the sum log_prob."""
    state = model.initial_state()
    context = model.initial_context()
    total = 0.0
    for token in list(sentence) + [EOS]:
        value, state = model.step(state, token)
        assert value == arpa_cond(model, model.normalize_token(token), context)
        total += value
        if context:
            context = context[1:] + (model.normalize_token(token),)
    assert total == model.log_prob(sentence)


class TestStep:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_chained_steps_equal_log_prob_and_the_recursion(self, order):
        corpus = chain_corpus(40, seed=20 + order)
        model = train_lm(corpus, order=order, discount=0.75)
        rng = random.Random(order)
        flat = [w for s in corpus for w in s]
        for _ in range(40):
            sentence = [rng.choice(flat + ["oov-a", "oov-b"]) for _ in range(rng.randint(0, 9))]
            assert_steps_match_the_recursion(model, sentence)
        for sentence in corpus[:10]:
            assert_steps_match_the_recursion(model, sentence)

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_hand_built_models(self, index):
        model = hand_built_models()[index]
        for sentence in (
            [], ["a"], ["a", "a"], ["c", "a", "b", "a", "b"], ["zz", "a", "b", "c"],
            ["b", "zz", "a"], ["c", "a", "b", "c", "a", "b", "zz"],
        ):
            assert_steps_match_the_recursion(model, sentence)

    @pytest.mark.parametrize("order", [1, 2, 3, 5])
    def test_raw_and_all_begin_contexts(self, order):
        # Every word, raw or normalized, from states reached by stepping over
        # raw prefixes (the empty prefix is the all-begin context).
        model = train_lm(chain_corpus(30, seed=order), order=order)
        for model in [model] + hand_built_models():
            k = model.order - 1
            for prefix in ((), ("w1",), ("w1", "oov", "w3"), ("c", "a", "b"), ("oov", "a")):
                state = model.initial_state()
                context = model.initial_context()
                for token in prefix:
                    state = model.step(state, token)[1]
                    context = (context + (model.normalize_token(token),))[1:] if k else ()
                for word in model.vocab + ("oov", BOS):
                    want = arpa_cond(model, model.normalize_token(word), context)
                    assert model.step(state, word)[0] == want

    def test_next_word_distribution_is_built_on_step(self):
        model = train_lm(chain_corpus(30, seed=3), order=3)
        prefix = ["w1", "oov", "w4"]
        context = (model.normalize_token("oov"), "w4")
        dist = oracles.next_word_distribution(model, prefix)
        assert dist == {w: math.exp(arpa_cond(model, w, context)) for w in model.vocab}

    def test_memo_is_bounded_by_the_model(self):
        corpus = chain_corpus(60, seed=11)
        model = train_lm(corpus, order=4)
        rng = random.Random(12)
        flat = [w for s in corpus for w in s]
        sentences = [[rng.choice(flat + ["oov"]) for _ in range(rng.randint(1, 9))] for _ in range(200)]
        first = [model.log_prob(s) for s in sentences]
        size = sum(len(row) for row in model.transitions)
        assert [model.log_prob(s) for s in sentences] == first
        assert sum(len(row) for row in model.transitions) == size
        # Rows are keyed by states (model contexts) and vocabulary words only.
        assert len(model.transitions) <= len(model._contexts)
        assert all(set(row) <= set(model.vocab) for row in model.transitions)
