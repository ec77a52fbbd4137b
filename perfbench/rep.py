"""One repetition of a workload, in a fresh process on a fresh work dir.

    python3 perfbench/rep.py SPEC.json RESULT.json

SPEC names the workload kind, the generated inputs, the work dir, the
pipeline settings, whether to trace, and where to dump spans. RESULT gets
the repetition's timings, peak RSS, output digests, check outcomes and, when
traced, the per-layer values. run.py starts one of these per repetition, so
peak RSS and worker RSS belong to that repetition alone.
"""

from __future__ import annotations

import hashlib
import json
import logging
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from tracing import Tracer, install

LAYERS = ("corpus", "embeddings", "retrieval", "phrases", "lm", "decoder", "tuner",
          "aligner", "lexicon", "evaluation", "pipeline")
STAGES = ("corpus", "inventory", "phrases", "lm", "tables", "tune", "translate",
          "align", "symmetrize", "extract", "dictionary", "evaluate")
METHODS = ("nn", "inv_nn", "inv_softmax", "csls")
SETUP_REPEATS = 5


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def line_count(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def mib(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class StageLog(logging.Handler):
    """Collects the runner's `stage <name>: running|cached` records."""

    def __init__(self):
        super().__init__()
        self.records: list[tuple[float, str, str]] = []

    def emit(self, record):
        words = record.getMessage().split()
        if len(words) == 3 and words[0] == "stage":
            self.records.append((perf_counter(), words[1].rstrip(":"), words[2]))

    def intervals(self, end: float) -> list[tuple[str, float, float]]:
        """(stage, start, end) per record so far; a stage ends where the next
        one is logged, the last one at `end`."""
        ends = [t for t, _, _ in self.records[1:]] + [end]
        return [(name, t, e) for (t, name, _), e in zip(self.records, ends)]


def pipeline_rep(spec: dict, tracer: Tracer | None) -> dict:
    from lexinduct import InducedDictionary, PipelineConfig, precision_at_1, read_gold, run_pipeline
    from lexinduct.corpus import load_corpus
    from lexinduct.lm import load_lm, perplexity

    work = Path(spec["work_dir"])
    config = PipelineConfig(**spec["inputs"], work_dir=str(work), **spec["config"])
    stage_log = StageLog()
    logger = logging.getLogger("lexinduct.pipeline")
    logger.setLevel(logging.INFO)
    logger.addHandler(stage_log)
    root = None

    t0 = perf_counter()
    if tracer is None:
        result = run_pipeline(config)
    else:
        with tracer.span("pipeline.run_pipeline", "pipeline") as root_span:
            result = run_pipeline(config)
        root = tracer.spans.index(root_span)
    t1 = perf_counter()
    wall = t1 - t0
    self_rss, worker_rss = mib(resource.RUSAGE_SELF), mib(resource.RUSAGE_CHILDREN)
    stages = stage_log.intervals(t1)
    cold_ran = all(status == "running" for _, _, status in stage_log.records)
    setup = next(start for name, start, _ in stages if name.startswith("tune:")) - t0
    if tracer is not None:
        tracer.stop()
        for name, start, end in stages:
            tracer.add_span(f"pipeline.stage.{name}", "pipeline", start, end, root)

    t2 = perf_counter()
    rerun = run_pipeline(config)
    cached_rerun = perf_counter() - t2

    direction = result.directions[config.direction]
    ddir = work / config.direction
    synthetic = ddir / "synthetic.target.txt"
    corpus_lines = line_count(Path(config.src_corpus))
    recomputed, _ = precision_at_1(InducedDictionary.read(direction.dictionary_path), read_gold(config.gold_src2tgt))
    checks = {
        "every stage ran on the cold run": cold_ran,
        "cached re-run ran nothing": rerun.ran() == [],
        "synthetic corpus has min(corpus_cap, corpus) lines": (
            line_count(synthetic) == line_count(ddir / "synthetic.source.txt")
            == min(config.corpus_cap, corpus_lines)
        ),
        "p_at_1 equals precision_at_1 of the written dictionary": f"{recomputed:.6f}" == f"{direction.p_at_1:.6f}",
    }

    per_stage = dict.fromkeys(STAGES, 0.0)
    for name, start, end in stages:
        per_stage[name.split(":")[0]] += end - start
    layer = {f"stage.{k}_s": v for k, v in per_stage.items()}
    layer["stage.remainder_s"] = wall - sum(per_stage.values())
    layer["pipeline.cached_rerun_s"] = cached_rerun
    layer["decoder.worker_rss_mib"] = worker_rss
    if tracer is not None:
        layer.update(pipeline_layers(tracer))
        lm_path = work / "tgt" / "lm.txt"
        sentences = load_corpus(work / "tgt" / "corpus.txt").sentences
        lm = load_lm(lm_path)
        t_loaded = perf_counter()
        perplexity(lm, sentences)
        t_scored = perf_counter()
        layer["lm.score_tokens_per_s"] = sum(len(s) + 1 for s in sentences) / (t_scored - t_loaded)

    return {
        "wall_s": wall,
        "setup_s": setup,
        "self_rss_mib": self_rss,
        "worker_rss_mib": worker_rss,
        "p_at_1": direction.p_at_1,
        "digests": {"dictionary.tsv": sha256(direction.dictionary_path), "synthetic.target.txt": sha256(synthetic)},
        "checks": checks,
        "operations": 2,
        "layer": layer,
    }


def pipeline_layers(tracer: Tracer) -> dict:
    spans = tracer.spans

    def seconds(name):
        return sum(s.seconds for s in tracer.named(name))

    def count(name, key):
        return sum(s.counters[key] for s in tracer.named(name))

    def first(name, key):
        found = tracer.named(name)
        return found[0].counters[key] if found else 0.0

    decodes = tracer.named("decoder.decode")
    top = [s for s in decodes if s.parent is None or spans[s.parent].name != "decoder.decode"]
    decode_ms = sorted(s.seconds * 1e3 for s in top)
    translate_calls = len(tracer.named("decoder.TranslationSystem.translate"))
    misses = sum(1 for s in top if s.parent is not None and spans[s.parent].name == "decoder.TranslationSystem.translate")
    objective_ms = [s.seconds * 1e3 for s in tracer.named("tuner.objective")]

    def pct(values, q):
        return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else sum(values)

    train_s = seconds("aligner.train_ibm2")
    tables_s = seconds("phrases.induce_tables")
    knn_s = seconds("embeddings.k_nearest")
    lm_train_s = seconds("lm.train_lm")
    entries = first("phrases.induce_tables", "entries")
    own = tracer.self_seconds()
    out = {
        "corpus.tokens_per_s": ratio(count("corpus.load_corpus", "tokens"), seconds("corpus.load_corpus")),
        "corpus.count_ngrams_s": seconds("corpus.count_ngrams"),
        "embeddings.load_s": seconds("embeddings.load_embeddings"),
        "embeddings.k_nearest_s": knn_s,
        "embeddings.k_nearest_queries_per_s": ratio(count("embeddings.k_nearest", "queries"), knn_s),
        "phrases.induce_tables_s": tables_s,
        "phrases.table_entries": entries,
        "phrases.table_entries_per_s": ratio(entries, tables_s),
        "phrases.tau_fwd": first("phrases.induce_tables", "tau_fwd"),
        "phrases.tau_rev": first("phrases.induce_tables", "tau_rev"),
        "lm.train_s": lm_train_s,
        "lm.train_tokens_per_s": ratio(count("lm.train_lm", "tokens"), lm_train_s),
        "lm.entries": count("lm.train_lm", "entries"),
        "lm.load_s": seconds("lm.load_lm"),
        "decoder.sentences_per_s": ratio(count("decoder.translate_corpus", "sentences"), seconds("decoder.translate_corpus")),
        "decoder.decode_ms.p50": pct(decode_ms, 50),
        "decoder.decode_ms.p99": pct(decode_ms, 99),
        "decoder.decode_ms.samples": len(decode_ms),
        "decoder.decode_calls": len(decodes),
        "decoder.monotone_fallbacks": len(decodes) - len(top),
        "decoder.translate_cache_hit_ratio": 1.0 - ratio(misses, translate_calls) if translate_calls else 0.0,
        "tuner.objective_evals": len(objective_ms),
        "tuner.objective_ms.p50": statistics.median(objective_ms) if objective_ms else 0.0,
        "aligner.train_s": train_s,
        "aligner.pair_iterations_per_s": ratio(count("aligner.train_ibm2", "pair_iterations"), train_s),
        "aligner.viterbi_s": seconds("aligner.align_corpus"),
        "aligner.symmetrize_s": seconds("aligner.grow_diag_final_and"),
        "aligner.final_tension": first("aligner.train_ibm2", "tension"),
        "aligner.log_likelihood": first("aligner.train_ibm2", "log_likelihood"),
        "lexicon.count_extractions_s": seconds("lexicon.count_extractions"),
        "lexicon.extracted_pairs": count("lexicon.count_extractions", "occurrences"),
        "lexicon.dictionary_entries": first("lexicon.dictionary_from_counts", "entries"),
        "evaluation.oov_rate": first("evaluation.precision_at_1", "oov_rate"),
        "trace.spans": len(spans),
    }
    out.update({f"self.{name}_s": own.get(name, 0.0) for name in LAYERS})
    return out


def retrieval_rep(spec: dict, tracer: Tracer | None) -> dict:
    from contextlib import nullcontext

    from lexinduct import (InducedDictionary, RetrievalConfig, induce_dictionary, load_embeddings,
                           precision_at_1, read_gold, unit_normalize)

    def span(name, layer):
        return nullcontext() if tracer is None else tracer.span(name, layer)

    inputs = spec["inputs"]
    work = Path(spec["work_dir"])
    work.mkdir(parents=True)
    gold = read_gold(inputs["gold_src2tgt"])
    queries = sorted(gold.entries)

    # Set-up takes about 0.1 s, so it is repeated and its median kept.
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        with span("embeddings.load", "embeddings"):
            src = unit_normalize(load_embeddings(inputs["src_embeddings"]))
            tgt = unit_normalize(load_embeddings(inputs["tgt_embeddings"]))
        setups.append(perf_counter() - t0)
    setup = statistics.median(setups)

    seconds, ranked = {}, {}
    for method in METHODS:
        t = perf_counter()
        with span(f"retrieval.{method}", "retrieval"):
            ranked[method] = induce_dictionary(src, tgt, queries, RetrievalConfig(method=method), top=10)
        seconds[method] = perf_counter() - t
    if tracer is not None:
        tracer.stop()

    p_at_1, digests, checks = {}, {}, {}
    for method, induced in ranked.items():
        path = work / f"{method}.tsv"
        induced.write(path)
        p_at_1[method], _ = precision_at_1(induced, gold)
        digests[path.name] = sha256(path)
        checks[f"{method}: one ranking of 10 per query"] = (
            len(induced) == len(queries) and all(len(c) == 10 for c in induced.entries.values())
        )
        checks[f"{method}: p_at_1 equals precision_at_1 of the written dictionary"] = (
            precision_at_1(InducedDictionary.read(path), gold)[0] == p_at_1[method]
        )
    wall = sum(seconds.values())

    layer = {f"retrieval.{m}_s": s for m, s in seconds.items()}
    layer["retrieval.queries_per_s"] = len(METHODS) * len(queries) / wall
    layer["embeddings.load_s"] = setup
    if tracer is not None:
        own = tracer.self_seconds()
        layer.update({f"self.{name}_s": own.get(name, 0.0) for name in LAYERS})
        layer["trace.spans"] = len(tracer.spans)
    return {
        "wall_s": wall,
        "setup_s": setup,
        "self_rss_mib": mib(resource.RUSAGE_SELF),
        "worker_rss_mib": 0.0,
        "p_at_1": statistics.fmean(p_at_1.values()),
        "p_at_1_by_method": p_at_1,
        "digests": digests,
        "checks": checks,
        "operations": len(METHODS),
        "layer": layer,
    }


def main(spec_path: str, result_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    tracer = None
    if spec["traced"]:
        tracer = Tracer()
        install(tracer)
    run = pipeline_rep if spec["kind"] == "pipeline" else retrieval_rep
    result = run(spec, tracer)
    if tracer is not None:
        Path(spec["spans"]).write_text(json.dumps(tracer.dump()), encoding="utf-8")
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:3])
