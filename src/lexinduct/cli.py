"""Command-line interface.

The `induce` retrieval route, one subcommand per pipeline stage, and the
end-to-end `pipeline` driver. A stage subcommand calls the `*_stage`
function that the pipeline runs, and nothing else; it only parses flags and
picks the optional outputs. The subcommands that read pipeline settings
accept --config (`pipeline` requires it); explicit flags override config
values, which override the built-in defaults. A subcommand names the
PipelineConfig fields it exposes, and `_add_settings` builds their flags
from the fields, so flags pass the config's range checks. Exit code 0 on
success, 1 on failure (pipeline failures name the failing stage).
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys

from .embeddings import load_embeddings
from .lexicon import InducedDictionary, read_extracted_counts
from .pipeline import (
    PipelineConfig,
    align_stage,
    dictionary_stage,
    evaluate_stage,
    inventory_stage,
    lm_stage,
    phrases_stage,
    read_config,
    run_pipeline,
    tables_stage,
    tokenized,
    translate_stage,
    tune_stage,
)
from .retrieval import METHODS, RetrievalConfig, induce_dictionary

log = logging.getLogger(__name__)

_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(PipelineConfig)}


def _config(args: argparse.Namespace) -> PipelineConfig:
    """The --config file (or the built-in defaults) with every flag that was
    given and names a config field laid over it. The result passes the same
    range checks as a config file."""
    base = read_config(args.config) if args.config else PipelineConfig()
    flags = {k: v for k, v in vars(args).items() if k in _CONFIG_FIELDS and v is not None}
    return dataclasses.replace(base, **flags)


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


def _cmd_induce(args: argparse.Namespace) -> int:
    config = RetrievalConfig(
        method=args.method.replace("-", "_"),
        softmax_temperature=args.temperature,
        csls_k=args.csls_k,
    )
    src = load_embeddings(args.src_emb)
    tgt = load_embeddings(args.tgt_emb)
    queries = _read_lines(args.queries)
    top = None if args.top == 0 else args.top
    induced = induce_dictionary(src, tgt, queries, config, top=top)
    induced.write(args.out)
    log.info("wrote %d ranked entries to %s", len(induced), args.out)
    return 0


def _cmd_phrase_table(args: argparse.Namespace) -> int:
    config = _config(args)
    stores = [
        phrases_stage(inventory_stage(config, tokenized(config, corpus)), embeddings)
        for corpus, embeddings in ((args.src_corpus, args.src_emb), (args.tgt_corpus, args.tgt_emb))
    ]
    induced = tables_stage(config, *stores, args.out_fwd, args.out_rev, args.out_tau)
    log.info(
        "tables written: %s (tau %.4f), %s (tau %.4f)",
        args.out_fwd, induced.tau_fwd.tau, args.out_rev, induced.tau_rev.tau,
    )
    return 0


def _cmd_train_lm(args: argparse.Namespace) -> int:
    config = _config(args)
    lm_stage(config, tokenized(config, args.input), args.out)
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    config = _config(args)
    tune_stage(
        config, args.table, args.rev_table, args.lm, args.rev_lm,
        tokenized(config, args.input), args.out,
    )
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    config = _config(args)
    count = translate_stage(
        config, args.table, args.lm, args.weights, tokenized(config, args.input),
        args.out, args.out_src,
    )
    log.info("translated %d sentences to %s", count, args.out)
    return 0


def _cmd_align(args: argparse.Namespace) -> int:
    config = _config(args)
    align_stage(config, tokenized(config, args.src), tokenized(config, args.tgt), args.out, args.counts)
    return 0


def _cmd_dictionary(args: argparse.Namespace) -> int:
    dictionary = dictionary_stage(read_extracted_counts(args.counts), args.out)
    log.info("dictionary with %d source words written to %s", len(dictionary), args.out)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    print(evaluate_stage(InducedDictionary.read(args.pred), args.gold))
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


def _add_settings(parser: argparse.ArgumentParser, *names: str) -> None:
    """One flag per named PipelineConfig field: `--` and its `flag` (or its
    config key) with dashes, typed as its default, with the field as
    `dest`."""
    for name in names:
        f = _CONFIG_FIELDS[name]
        flag = f.metadata["flag"] or f.metadata["key"] or name
        parser.add_argument("--" + flag.replace("_", "-"), dest=name, type=type(f.default))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexinduct",
        description="Bilingual lexicon induction: retrieval baselines and the MT-based pipeline.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, config: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        if config:
            p.add_argument("--config", help="pipeline config file supplying defaults")
        p.set_defaults(handler=handler)
        return p

    p = add("induce", _cmd_induce, "retrieval-based dictionary from cross-lingual embeddings")
    p.add_argument("--method", required=True, choices=[m.replace("_", "-") for m in METHODS])
    p.add_argument("--src-emb", required=True, help="source embedding text file")
    p.add_argument("--tgt-emb", required=True, help="target embedding text file")
    p.add_argument("--queries", required=True, help="source words, one per line")
    p.add_argument("--out", required=True, help="output tsv (src, tgt, score)")
    p.add_argument("--temperature", type=float, default=RetrievalConfig.softmax_temperature,
                   help="inverted-softmax temperature")
    p.add_argument("--csls-k", type=int, default=RetrievalConfig.csls_k,
                   help="csls neighborhood size")
    p.add_argument("--top", type=int, default=10, help="candidates kept per query (0 = all)")

    p = add("phrase-table", _cmd_phrase_table, "induce both phrase tables from embeddings",
            config=True)
    p.add_argument("--src-corpus", required=True)
    p.add_argument("--tgt-corpus", required=True)
    p.add_argument("--src-emb", required=True)
    p.add_argument("--tgt-emb", required=True)
    p.add_argument("--out-fwd", required=True, help="source-to-target table file")
    p.add_argument("--out-rev", required=True, help="target-to-source table file")
    p.add_argument("--out-tau", help="optional fitted-temperature report")
    _add_settings(p, "vocab_size", "ngram_cap", "candidates", "reverse_sample", "phrase_seed")

    p = add("train-lm", _cmd_train_lm, "train the Kneser-Ney language model", config=True)
    p.add_argument("--input", required=True, help="training text, one sentence per line")
    p.add_argument("--out", required=True)
    _add_settings(p, "lm_order", "lm_discount")

    p = add("tune", _cmd_tune, "tune decoder weights on a dev sample", config=True)
    p.add_argument("--table", required=True, help="forward phrase table")
    p.add_argument("--rev-table", required=True, help="reverse phrase table")
    p.add_argument("--lm", required=True, help="target-language model")
    p.add_argument("--rev-lm", required=True, help="source-language model")
    p.add_argument("--input", required=True, help="source corpus to sample the dev set from")
    p.add_argument("--out", required=True, help="tuned weights file")
    _add_settings(
        p, "dev_size", "dev_seed", "sweeps", "golden_iterations", "beam", "distortion_limit", "options_limit"
    )

    p = add("translate", _cmd_translate, "translate a corpus with the beam decoder", config=True)
    p.add_argument("--table", required=True)
    p.add_argument("--lm", required=True)
    p.add_argument("--weights", help="weights file (defaults when omitted)")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--out-src", help="also write the source sentences that were translated")
    _add_settings(p, "corpus_cap", "beam", "distortion_limit", "options_limit", "workers")

    p = add("align", _cmd_align, "IBM-2 word alignment, symmetrization and one-to-one link counts",
            config=True)
    p.add_argument("--src", required=True, help="source side of the parallel corpus")
    p.add_argument("--tgt", required=True, help="target side of the parallel corpus")
    p.add_argument("--out", required=True, help="symmetrized links output")
    p.add_argument("--counts", help="optional dump of the one-to-one link counts")
    _add_settings(p, "align_iterations", "align_tension", "align_null_prob")

    p = add("dictionary", _cmd_dictionary, "rank the word dictionary from pair counts")
    p.add_argument("--counts", required=True, help="pair counts written by align --counts")
    p.add_argument("--out", required=True, help="dictionary tsv output")

    p = add("evaluate", _cmd_evaluate, "precision@1 of a dictionary against gold")
    p.add_argument("--pred", required=True, help="induced dictionary tsv")
    p.add_argument("--gold", required=True, help="gold pairs, 'src tgt' per line")

    p = add("pipeline", _cmd_pipeline, "run the full cached pipeline from a config file")
    p.add_argument("--config", required=True, help="pipeline config file")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.handler(args)
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
