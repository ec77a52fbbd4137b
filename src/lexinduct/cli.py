"""Command-line interface.

One subcommand per pipeline stage plus the end-to-end `pipeline` driver.
Every subcommand accepts --config; explicit flags override config values,
which override the built-in defaults. Exit code 0 on success, 1 on failure
(pipeline failures name the failing stage).
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .aligner import align_corpus, grow_diag_final_and, read_links, train_ibm2, write_links
from .corpus import count_ngrams, load_corpus, sample_sentences
from .decoder import FeatureWeights, TranslationSystem, translate_corpus
from .embeddings import load_embeddings, unit_normalize
from .evaluation import precision_at_1, read_gold
from .lexicon import (
    InducedDictionary,
    count_extractions,
    dictionary_from_counts,
    write_extracted_counts,
)
from .lm import load_lm, save_lm, train_lm
from .phrases import (
    PhraseTable,
    build_phrase_inventory,
    build_phrase_store,
    induce_tables,
    word_store,
)
from .pipeline import PipelineConfig, PipelineStageError, read_config, run_pipeline
from .retrieval import METHODS, RetrievalConfig, induce_dictionary
from .tuner import TunerConfig, tune

log = logging.getLogger(__name__)


def _base_config(args: argparse.Namespace) -> PipelineConfig:
    """The defaults a subcommand falls back to: the --config file when
    given, otherwise the built-in PipelineConfig defaults."""
    if getattr(args, "config", None):
        return read_config(args.config)
    return PipelineConfig()


def _pick(flag_value, base: PipelineConfig, field: str):
    return flag_value if flag_value is not None else getattr(base, field)


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


def _tokenized_corpus(path: str, base: PipelineConfig):
    return load_corpus(path, base.aggressive_hyphens, base.lowercase)


def _cmd_induce(args: argparse.Namespace) -> int:
    # --config is accepted for interface uniformity; retrieval has no
    # pipeline-config knobs.
    config = RetrievalConfig(
        method=args.method.replace("-", "_"),
        softmax_temperature=args.temperature,
        csls_k=args.csls_k,
    )
    src = load_embeddings(args.src_emb)
    tgt = load_embeddings(args.tgt_emb)
    queries = _read_lines(args.queries)
    top = args.top if args.top > 0 else None
    induced = induce_dictionary(src, tgt, queries, config, top=top)
    induced.write(args.out)
    log.info("wrote %d ranked entries to %s", len(induced), args.out)
    return 0


def _cmd_phrase_table(args: argparse.Namespace) -> int:
    base = _base_config(args)
    vocab_size = _pick(args.vocab_size, base, "vocab_size")
    ngram_cap = _pick(args.ngram_cap, base, "ngram_cap")
    candidates = _pick(args.candidates, base, "candidates")
    reverse_sample = _pick(args.reverse_sample, base, "reverse_sample")
    seed = _pick(args.seed, base, "phrase_seed")

    stores = {}
    for side, corpus_path, emb_path in (
        ("src", args.src_corpus, args.src_emb),
        ("tgt", args.tgt_corpus, args.tgt_emb),
    ):
        corpus = _tokenized_corpus(corpus_path, base)
        counts = count_ngrams(corpus, 3)
        inventory = build_phrase_inventory(counts, vocab_size, ngram_cap)
        words = unit_normalize(load_embeddings(emb_path))
        phrases = build_phrase_store(inventory, words)
        stores[side] = (phrases, word_store(phrases))
    induced = induce_tables(
        stores["src"][0], stores["tgt"][0], stores["src"][1], stores["tgt"][1],
        k=candidates, reverse_sample=reverse_sample, seed=seed,
    )
    induced.table_fwd.write(args.out_fwd)
    induced.table_rev.write(args.out_rev)
    if args.out_tau:
        Path(args.out_tau).write_text(
            f"src2tgt {induced.tau_fwd.tau!r}\ntgt2src {induced.tau_rev.tau!r}\n",
            encoding="utf-8",
        )
    log.info(
        "tables written: %s (tau %.4f), %s (tau %.4f)",
        args.out_fwd, induced.tau_fwd.tau, args.out_rev, induced.tau_rev.tau,
    )
    return 0


def _cmd_train_lm(args: argparse.Namespace) -> int:
    base = _base_config(args)
    order = _pick(args.order, base, "lm_order")
    discount = _pick(args.discount, base, "lm_discount")
    corpus = _tokenized_corpus(args.input, base)
    save_lm(train_lm(corpus, order, discount), args.out)
    return 0


def _decoder_args(args: argparse.Namespace, base: PipelineConfig):
    beam = _pick(args.beam, base, "beam")
    distortion_limit = _pick(args.distortion_limit, base, "distortion_limit")
    options_limit = _pick(args.options_limit, base, "options_limit") or None
    return beam, distortion_limit, options_limit


def _cmd_tune(args: argparse.Namespace) -> int:
    base = _base_config(args)
    beam, distortion_limit, options_limit = _decoder_args(args, base)
    forward = TranslationSystem(
        PhraseTable.read(args.table), load_lm(args.lm), FeatureWeights(),
        beam, distortion_limit, options_limit,
    )
    backward = TranslationSystem(
        PhraseTable.read(args.rev_table), load_lm(args.rev_lm), FeatureWeights(),
        beam, distortion_limit, options_limit,
    )
    dev = sample_sentences(
        _tokenized_corpus(args.input, base),
        _pick(args.dev_size, base, "dev_size"),
        _pick(args.seed, base, "dev_seed"),
    )
    tuner_config = TunerConfig(
        cyclic_weight=base.cyclic_weight,
        lm_weight=base.lm_weight,
        length_weight=base.length_weight,
        sweeps=_pick(args.sweeps, base, "sweeps"),
        golden_iterations=_pick(args.golden_iterations, base, "golden_iterations"),
        weight_lo=base.weight_lo,
        weight_hi=base.weight_hi,
    )
    tuned = tune(FeatureWeights(), list(dev.sentences), forward, backward, tuner_config)
    tuned.write(args.out)
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    base = _base_config(args)
    beam, distortion_limit, options_limit = _decoder_args(args, base)
    weights = FeatureWeights.read(args.weights) if args.weights else FeatureWeights()
    system = TranslationSystem(
        PhraseTable.read(args.table), load_lm(args.lm), weights,
        beam, distortion_limit, options_limit,
    )
    corpus = _tokenized_corpus(args.input, base)
    pairs = translate_corpus(
        corpus.sentences, system,
        _pick(args.cap, base, "corpus_cap"),
        _pick(args.workers, base, "workers"),
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        for _, output in pairs:
            fh.write(" ".join(output) + "\n")
    log.info("translated %d sentences to %s", len(pairs), args.out)
    return 0


def _cmd_align(args: argparse.Namespace) -> int:
    base = _base_config(args)
    if not (args.out_fwd or args.out_rev or args.out_sym):
        raise ValueError("align: give at least one of --out-fwd, --out-rev, --out-sym")
    if args.out_sym and args.symmetrize == "none":
        raise ValueError("align: --out-sym requires --symmetrize gdfa")
    iterations = _pick(args.iterations, base, "align_iterations")
    tension = _pick(args.tension, base, "align_tension")
    null_prob = _pick(args.null_prob, base, "align_null_prob")
    grad_steps = _pick(args.grad_steps, base, "align_grad_steps")

    src = _tokenized_corpus(args.src, base)
    tgt = _tokenized_corpus(args.tgt, base)
    if len(src) != len(tgt):
        raise ValueError(f"align: {args.src} has {len(src)} lines, {args.tgt} has {len(tgt)}")
    pairs = list(zip(src.sentences, tgt.sentences))
    forward = align_corpus(train_ibm2(pairs, iterations, tension, null_prob, grad_steps), pairs)
    if args.out_fwd:
        write_links(forward, args.out_fwd)
    reverse = None
    if args.out_rev or args.out_sym:
        flipped = [(t, s) for s, t in pairs]
        raw = align_corpus(train_ibm2(flipped, iterations, tension, null_prob, grad_steps), flipped)
        reverse = [{(j, i) for i, j in links} for links in raw]
        if args.out_rev:
            write_links(reverse, args.out_rev)
    if args.out_sym:
        write_links([grow_diag_final_and(a, b) for a, b in zip(forward, reverse)], args.out_sym)
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    base = _base_config(args)
    src = _tokenized_corpus(args.src, base)
    tgt = _tokenized_corpus(args.tgt, base)
    bitext = list(zip(src.sentences, tgt.sentences))
    counts = count_extractions(
        bitext, read_links(args.links), _pick(args.max_phrase_len, base, "max_phrase_len")
    )
    if args.counts:
        write_extracted_counts(counts, args.counts)
    dictionary = dictionary_from_counts(counts, _pick(args.denominator, base, "denominator"))
    dictionary.write(args.out)
    log.info("dictionary with %d source words written to %s", len(dictionary), args.out)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    induced = InducedDictionary.read(args.pred)
    gold = read_gold(args.gold)
    score, oov = precision_at_1(induced, gold)
    print(f"P@1 {score:.6f} OOV {oov:.6f}")
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    config = read_config(args.config)
    result = run_pipeline(config)
    for direction, summary in result.directions.items():
        if summary.p_at_1 is not None:
            print(f"{direction} P@1 {summary.p_at_1:.6f} OOV {summary.oov_rate:.6f}")
        else:
            print(f"{direction} dictionary {summary.dictionary_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexinduct",
        description="Bilingual lexicon induction: retrieval baselines and the MT-based pipeline.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="pipeline config file supplying defaults")
        p.set_defaults(handler=handler)
        return p

    p = add("induce", _cmd_induce, "retrieval-based dictionary from cross-lingual embeddings")
    p.add_argument("--method", required=True, choices=[m.replace("_", "-") for m in METHODS])
    p.add_argument("--src-emb", required=True, help="source embedding text file")
    p.add_argument("--tgt-emb", required=True, help="target embedding text file")
    p.add_argument("--queries", required=True, help="source words, one per line")
    p.add_argument("--out", required=True, help="output tsv (src, tgt, score)")
    p.add_argument("--temperature", type=float, default=30.0, help="inverted-softmax temperature")
    p.add_argument("--csls-k", type=int, default=10, help="csls neighborhood size")
    p.add_argument("--top", type=int, default=10, help="candidates kept per query (0 = all)")

    p = add("phrase-table", _cmd_phrase_table, "induce both phrase tables from embeddings")
    p.add_argument("--src-corpus", required=True)
    p.add_argument("--tgt-corpus", required=True)
    p.add_argument("--src-emb", required=True)
    p.add_argument("--tgt-emb", required=True)
    p.add_argument("--out-fwd", required=True, help="source-to-target table file")
    p.add_argument("--out-rev", required=True, help="target-to-source table file")
    p.add_argument("--out-tau", help="optional fitted-temperature report")
    p.add_argument("--vocab-size", type=int)
    p.add_argument("--ngram-cap", type=int)
    p.add_argument("--candidates", type=int)
    p.add_argument("--reverse-sample", type=int)
    p.add_argument("--seed", type=int)

    p = add("train-lm", _cmd_train_lm, "train the Kneser-Ney language model")
    p.add_argument("--input", required=True, help="training text, one sentence per line")
    p.add_argument("--out", required=True)
    p.add_argument("--order", type=int)
    p.add_argument("--discount", type=float)

    p = add("tune", _cmd_tune, "tune decoder weights on a dev sample")
    p.add_argument("--table", required=True, help="forward phrase table")
    p.add_argument("--rev-table", required=True, help="reverse phrase table")
    p.add_argument("--lm", required=True, help="target-language model")
    p.add_argument("--rev-lm", required=True, help="source-language model")
    p.add_argument("--input", required=True, help="source corpus to sample the dev set from")
    p.add_argument("--out", required=True, help="tuned weights file")
    p.add_argument("--dev-size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--sweeps", type=int)
    p.add_argument("--golden-iterations", type=int)
    p.add_argument("--beam", type=int)
    p.add_argument("--distortion-limit", type=int)
    p.add_argument("--options-limit", type=int)

    p = add("translate", _cmd_translate, "translate a corpus with the beam decoder")
    p.add_argument("--table", required=True)
    p.add_argument("--lm", required=True)
    p.add_argument("--weights", help="weights file (defaults when omitted)")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--cap", type=int, help="max sentences to translate")
    p.add_argument("--beam", type=int)
    p.add_argument("--distortion-limit", type=int)
    p.add_argument("--options-limit", type=int)
    p.add_argument("--workers", type=int)

    p = add("align", _cmd_align, "IBM-2 word alignment and symmetrization")
    p.add_argument("--src", required=True, help="source side of the parallel corpus")
    p.add_argument("--tgt", required=True, help="target side of the parallel corpus")
    p.add_argument("--out-fwd", help="forward links output")
    p.add_argument("--out-rev", help="reverse links output (source-target orientation)")
    p.add_argument("--out-sym", help="symmetrized links output")
    p.add_argument("--symmetrize", choices=("gdfa", "none"), default="gdfa")
    p.add_argument("--iterations", type=int)
    p.add_argument("--tension", type=float)
    p.add_argument("--null-prob", type=float)
    p.add_argument("--grad-steps", type=int)

    p = add("extract", _cmd_extract, "extract phrase pairs and build the dictionary")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--links", required=True, help="symmetrized link file")
    p.add_argument("--out", required=True, help="dictionary tsv output")
    p.add_argument("--counts", help="optional phrase-pair count dump")
    p.add_argument("--max-phrase-len", type=int)
    p.add_argument("--denominator", choices=("filtered", "full"))

    p = add("evaluate", _cmd_evaluate, "precision@1 of a dictionary against gold")
    p.add_argument("--pred", required=True, help="induced dictionary tsv")
    p.add_argument("--gold", required=True, help="gold pairs, 'src tgt' per line")

    p = add("pipeline", _cmd_pipeline, "run the full cached pipeline from a config file")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "pipeline" and not args.config:
        parser.error("pipeline requires --config")
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.handler(args)
    except PipelineStageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
