"""Tokenization, n-gram counting, vocabulary, and sampling."""

import random
import unicodedata

import pytest

from lexinduct import (
    Corpus,
    build_vocabulary,
    count_ngrams,
    load_corpus,
    sample_sentences,
    tokenize,
    write_corpus,
)
from lexinduct.corpus import NGramCounts


class TestTokenize:
    def test_punctuation_detaches(self):
        assert tokenize("Hello, world!") == ["hello", ",", "world", "!"]

    def test_aggressive_hyphens_split(self):
        assert tokenize("state-of-the-art") == ["state", "-", "of", "-", "the", "-", "art"]

    def test_inline_hyphen_kept_when_not_aggressive(self):
        assert tokenize("state-of-the-art", aggressive_hyphens=False) == ["state-of-the-art"]

    def test_boundary_hyphens_always_split(self):
        assert tokenize("-x", aggressive_hyphens=False) == ["-", "x"]
        assert tokenize("x-", aggressive_hyphens=False) == ["x", "-"]

    def test_double_hyphen_not_inline(self):
        # The second hyphen has a separator on its left, so neither is inline.
        assert tokenize("a--b", aggressive_hyphens=False) == ["a", "-", "-", "b"]

    def test_lowercase_flag(self):
        assert tokenize("Hello", lowercase=False) == ["Hello"]

    def test_symbols_detach(self):
        assert tokenize("$5 + 3%") == ["$", "5", "+", "3", "%"]

    def test_nfc_normalization(self):
        decomposed = unicodedata.normalize("NFD", "café")
        assert tokenize(decomposed) == ["café"]

    def test_digits_and_marks_are_word_characters(self):
        assert tokenize("abc123") == ["abc123"]

    def test_idempotent_on_random_token_streams(self):
        rng = random.Random(5)
        alphabet = ["word", "a1", ",", ".", "-", "x", "über"]
        for _ in range(50):
            toks = [rng.choice(alphabet) for _ in range(rng.randint(1, 12))]
            joined = " ".join(toks)
            once = tokenize(joined)
            assert tokenize(" ".join(once)) == once


class TestCorpus:
    def test_token_count_and_len(self):
        c = Corpus((("a", "b"), ("c",)))
        assert len(c) == 2
        assert c.token_count == 3

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("Hello, world!\nsecond line\n", encoding="utf-8")
        corpus = load_corpus(path)
        assert corpus.sentences[0] == ("hello", ",", "world", "!")
        out = tmp_path / "out.txt"
        write_corpus(corpus, out)
        assert load_corpus(out).sentences == corpus.sentences


class TestCountNgrams:
    def test_hand_counts(self):
        counts = count_ngrams([["a", "b", "a"]], 2)
        assert counts[1].counts == {("a",): 2, ("b",): 1}
        assert counts[2].counts == {("a", "b"): 1, ("b", "a"): 1}

    def test_no_cross_sentence_windows(self):
        counts = count_ngrams([["a"], ["b"]], 2)
        assert counts[2].counts == {}

    def test_short_sentences_skip_high_orders(self):
        counts = count_ngrams([["a", "b"]], 3)
        assert counts[3].counts == {}

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            count_ngrams([["a"]], 0)
        with pytest.raises(ValueError):
            NGramCounts(0)


class TestVocabulary:
    def test_frequency_then_lexicographic(self):
        counts = count_ngrams([["b", "b", "c", "a", "a", "d"]], 1)
        assert build_vocabulary(counts[1], 3) == ["a", "b", "c"]

    def test_truncation(self):
        counts = count_ngrams([["a", "b", "c"]], 1)
        assert build_vocabulary(counts[1], 2) == ["a", "b"]

    def test_errors(self):
        counts = count_ngrams([["a", "b"]], 2)
        with pytest.raises(ValueError):
            build_vocabulary(counts[1], 0)
        with pytest.raises(ValueError):
            build_vocabulary(counts[2], 5)


class TestSampleSentences:
    def _corpus(self, n=50):
        return Corpus(tuple((f"w{i}",) for i in range(n)))

    def test_deterministic_and_ordered(self):
        corpus = self._corpus()
        a = sample_sentences(corpus, 10, seed=3)
        b = sample_sentences(corpus, 10, seed=3)
        assert a.sentences == b.sentences
        positions = [int(s[0][1:]) for s in a.sentences]
        assert positions == sorted(positions)

    def test_subset_of_corpus(self):
        corpus = self._corpus()
        sample = sample_sentences(corpus, 10, seed=4)
        assert len(sample) == 10
        assert set(sample.sentences) <= set(corpus.sentences)

    def test_count_at_least_corpus_returns_corpus(self):
        corpus = self._corpus(5)
        assert sample_sentences(corpus, 5, seed=1) is corpus
        assert sample_sentences(corpus, 9, seed=1) is corpus

    def test_seed_changes_sample(self):
        corpus = self._corpus(200)
        a = sample_sentences(corpus, 20, seed=1)
        b = sample_sentences(corpus, 20, seed=2)
        assert a.sentences != b.sentences

    def test_negative_count(self):
        with pytest.raises(ValueError):
            sample_sentences(self._corpus(), -1, seed=0)


def test_corpus_is_immutable():
    corpus = Corpus((("a",),))
    with pytest.raises(AttributeError):
        corpus.sentences = ()


def test_corpus_iterates_sentences():
    corpus = Corpus((("a",), ("b", "c")))
    assert list(corpus) == [("a",), ("b", "c")]
