"""End-to-end dictionary induction pipeline with cached stages.

Stage graph (language stages run for both languages, direction stages per
requested direction):

    corpus -> phrase embeddings -\\
    corpus -> language model      > tables -> tune -> translate
                                        -> align, with symmetrization and
                                           counts of one-to-one links
                                        -> dictionary -> evaluate

Every stage's inputs are content-addressed: the stage digest is a sha256
over the stage name, its code version (`STAGE_VERSIONS`), its parameters,
and the digests of its input files.
A stage whose manifest matches the current digest (and whose outputs are
still intact) is skipped, so a re-run with unchanged inputs recomputes
nothing and a change anywhere upstream invalidates exactly the stages that
depend on it. A lock on a file in the work dir keeps two pipeline runs out
of one work dir; the run that takes it deletes the temporary files that a
killed run's writers left.

Every stage is defined once, as a module-level function of the config, its
in-memory inputs and its output paths (`tokenized` reads and tokenizes a
raw corpus; `phrases_stage` through `evaluate_stage` do the rest), and the
matching CLI subcommand calls the same function. `run_pipeline` is one flat
list of `run(name, inputs, outputs, fn)` calls: the runner passes `fn` the
input and output paths, and a short lambda reads the inputs and hands them
to the stage function.

Outputs are deterministic for fixed config, inputs, and seeds; the worker
count only affects wall-clock time, never bytes.
"""

from __future__ import annotations

import configparser
import fcntl
import hashlib
import json
import logging
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Sequence

from .aligner import (
    DEFAULT_ITERATIONS,
    DEFAULT_NULL_PROB,
    DEFAULT_TENSION,
    align_corpus,
    grow_diag_final_and,
    read_links,  # not called here: perfbench/tracing.py wraps it on this module
    train_ibm2,
    write_links,
)
from .corpus import Corpus, count_ngrams, load_corpus, sample_sentences, write_corpus
from .decoder import (
    DEFAULT_BEAM,
    DEFAULT_CORPUS_CAP,
    DEFAULT_DISTORTION_LIMIT,
    FeatureWeights,
    TranslationSystem,
    translate_corpus,
)
from .embeddings import EmbeddingStore, load_cache, load_embeddings, save_cache, unit_normalize
from .evaluation import read_gold, precision_at_1
from .fileio import atomic_write, remove_stale_temps
from .lexicon import (
    ExtractedCounts,
    InducedDictionary,
    count_extractions,
    dictionary_from_counts,
    read_extracted_counts,
    write_extracted_counts,
)
from .lm import load_lm, save_lm, train_lm
from .phrases import (
    DEFAULT_CANDIDATES,
    DEFAULT_NGRAM_CAP,
    DEFAULT_REVERSE_SAMPLE,
    DEFAULT_VOCAB_SIZE,
    PhraseTable,
    TableInduction,
    build_phrase_inventory,
    build_phrase_store,
    induce_tables,
    word_store,
)
from .tuner import DEFAULT_GOLDEN_ITERATIONS, DEFAULT_SWEEPS, tune

log = logging.getLogger(__name__)

MANIFEST_VERSION = 1
# Code version per stage kind, part of every stage digest. A change that
# alters the bytes a stage writes for the same inputs and parameters must
# bump that stage's version, so work dirs built by older code re-run it.
# Downstream stages re-run only if the re-run changes their input bytes.
STAGE_VERSIONS = {
    "corpus": 1,
    "phrases": 1,
    "lm": 1,
    "tables": 1,
    "tune": 1,
    "translate": 1,
    "align": 5,
    "dictionary": 2,
    "evaluate": 1,
}
# The config fields in each stage kind's digest, under their field names.
# The worker count is execution detail, not behavior: it is in no digest.
_DECODER_PARAMS = ("beam", "distortion_limit", "options_limit")
STAGE_PARAMS: dict[str, tuple[str, ...]] = {
    "corpus": ("lowercase", "aggressive_hyphens"),
    "phrases": ("vocab_size", "ngram_cap"),
    "lm": ("lm_order", "lm_discount"),
    "tables": ("candidates", "reverse_sample", "phrase_seed"),
    "tune": _DECODER_PARAMS + ("dev_size", "dev_seed", "sweeps", "golden_iterations"),
    "translate": _DECODER_PARAMS + ("corpus_cap",),
    "align": ("align_iterations", "align_tension", "align_null_prob"),
    "dictionary": (),
    "evaluate": (),
}
WORK_DIR_ENV = "LEXINDUCT_WORK_DIR"
LOCK_NAME = ".lock"

DIRECTIONS = ("src2tgt", "tgt2src")


def _setting(section: str, default, key: str | None = None, flag: str | None = None):
    """A config field stored in the config file as option `key` (the field
    name unless given) of `[section]`, and set on the command line by
    `--flag` (the key, with dashes, unless given); the type of `default` is
    its kind."""
    return field(default=default, metadata={"section": section, "key": key, "flag": flag})


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a pipeline run needs, round-trippable through a flat
    "key = value" config file with one section per module. Each field
    declares its section and option, and the file lists them in field
    order."""

    src_corpus: str = _setting("paths", "")
    tgt_corpus: str = _setting("paths", "")
    src_embeddings: str = _setting("paths", "")
    tgt_embeddings: str = _setting("paths", "")
    work_dir: str = _setting("paths", "")
    gold_src2tgt: str = _setting("paths", "")
    gold_tgt2src: str = _setting("paths", "")
    direction: str = _setting("pipeline", "src2tgt")
    workers: int = _setting("pipeline", 1)
    lowercase: bool = _setting("corpus", True)
    aggressive_hyphens: bool = _setting("corpus", True)
    vocab_size: int = _setting("corpus", DEFAULT_VOCAB_SIZE)
    ngram_cap: int = _setting("phrases", DEFAULT_NGRAM_CAP)
    candidates: int = _setting("phrases", DEFAULT_CANDIDATES)
    reverse_sample: int = _setting("phrases", DEFAULT_REVERSE_SAMPLE)
    phrase_seed: int = _setting("phrases", 13, key="seed")
    lm_order: int = _setting("lm", 5, key="order")
    lm_discount: float = _setting("lm", 0.75, key="discount")
    beam: int = _setting("decoder", DEFAULT_BEAM)
    distortion_limit: int = _setting("decoder", DEFAULT_DISTORTION_LIMIT)
    options_limit: int = _setting("decoder", 0)
    corpus_cap: int = _setting("decoder", DEFAULT_CORPUS_CAP, flag="cap")
    dev_size: int = _setting("tuner", 2000)
    dev_seed: int = _setting("tuner", 42, flag="seed")
    sweeps: int = _setting("tuner", DEFAULT_SWEEPS)
    golden_iterations: int = _setting("tuner", DEFAULT_GOLDEN_ITERATIONS)
    align_iterations: int = _setting("aligner", DEFAULT_ITERATIONS, key="iterations")
    align_tension: float = _setting("aligner", DEFAULT_TENSION, key="tension")
    align_null_prob: float = _setting("aligner", DEFAULT_NULL_PROB, key="null_prob")

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS + ("both",):
            raise ValueError(f"direction must be src2tgt, tgt2src, or both, got {self.direction!r}")
        for name in (
            "workers", "vocab_size", "ngram_cap", "candidates", "reverse_sample",
            "lm_order", "beam", "corpus_cap", "dev_size", "golden_iterations",
            "align_iterations",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.sweeps < 0:
            raise ValueError(f"sweeps must be >= 0, got {self.sweeps}")
        if not (math.isfinite(self.align_tension) and self.align_tension >= 0):
            raise ValueError(f"align_tension must be a finite number >= 0, got {self.align_tension}")
        if self.options_limit < 0:
            raise ValueError(f"options_limit must be >= 0 (0 = unlimited), got {self.options_limit}")
        if self.distortion_limit < -1:
            raise ValueError(f"distortion_limit must be >= -1 (-1 = unlimited), got {self.distortion_limit}")
        if not (0.0 < self.lm_discount < 1.0):
            raise ValueError(f"lm_discount must lie in (0, 1), got {self.lm_discount}")
        if not (0.0 < self.align_null_prob < 1.0):
            raise ValueError(f"align_null_prob must lie in (0, 1), got {self.align_null_prob}")

    def directions(self) -> tuple[str, ...]:
        return DIRECTIONS if self.direction == "both" else (self.direction,)


# (section, option) -> field, in field order: the config file layout.
_OPTIONS = {(f.metadata["section"], f.metadata["key"] or f.name): f for f in fields(PipelineConfig)}


def _parse_value(text: str, kind: type, where: str):
    if kind is bool:
        if text not in ("true", "false"):
            raise ValueError(f"{where}: expected true or false, got {text!r}")
        return text == "true"
    try:
        return kind(text)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ValueError(f"{where}: expected {expected}, got {text!r}") from None


def write_config(config: PipelineConfig, path: str | Path) -> None:
    """Canonical config file: every key explicit, floats in their shortest
    round-trip form, so read_config(write_config(c)) == c exactly."""
    sections: dict[str, list[str]] = {}
    for (section, option), f in _OPTIONS.items():
        value = getattr(config, f.name)
        text = ("true" if value else "false") if type(f.default) is bool else str(value)
        sections.setdefault(section, []).append(f"{option} = {text}")
    lines = [line for section, options in sections.items() for line in (f"[{section}]", *options, "")]
    with atomic_write(path) as fh:
        fh.write("\n".join(lines))


def read_config(path: str | Path) -> PipelineConfig:
    """Parse a config file; unknown sections or keys and malformed files
    are fatal, missing keys fall back to the defaults."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    with open(path, encoding="utf-8") as fh:
        try:
            parser.read_file(fh, source=str(path))
        except configparser.Error as exc:
            # configparser names the file; its messages may span lines.
            raise ValueError(" ".join(str(exc).split())) from None
    known_sections = {section for section, _ in _OPTIONS}
    kwargs = {}
    for section in parser.sections():
        if section not in known_sections:
            raise ValueError(f"{path}: unknown section [{section}]")
        for opt, text in parser.items(section):
            f = _OPTIONS.get((section, opt))
            if f is None:
                raise ValueError(f"{path}: unknown key {opt!r} in section [{section}]")
            kwargs[f.name] = _parse_value(text, type(f.default), f"{path}: [{section}] {opt}")
    return PipelineConfig(**kwargs)


class PipelineStageError(RuntimeError):
    """A stage failed; carries the stage name and its input digests."""

    def __init__(self, stage: str, input_digests: dict[str, str], message: str):
        self.stage = stage
        self.input_digests = dict(input_digests)
        noted = ", ".join(f"{k}={v[:12]}" for k, v in sorted(input_digests.items())) or "none"
        super().__init__(f"stage {stage!r} failed: {message} [input digests: {noted}]")


@dataclass(frozen=True)
class StageRecord:
    name: str
    digest: str
    cached: bool


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class _Runner:
    """Executes stages, skipping any whose manifest already matches the
    digest of its inputs and parameters."""

    def __init__(self, work_dir: Path, config: PipelineConfig):
        self.work_dir = work_dir
        self.config = config
        self.manifest_dir = work_dir / "manifests"
        self.manifest_dir.mkdir(parents=True, exist_ok=True)
        self.records: list[StageRecord] = []

    def _manifest_path(self, name: str) -> Path:
        return self.manifest_dir / (name.replace(":", ".") + ".json")

    def run(
        self,
        name: str,
        inputs: Sequence[Path],
        outputs: Sequence[Path],
        fn: Callable[..., object],
    ) -> bool:
        """Run (or skip) one stage, calling `fn(*inputs, *outputs)`; returns
        True when it actually ran."""
        kind = name.partition(":")[0]
        digests: dict[str, str] = {}
        ordered: list[str] = []
        for p in inputs:
            if not p.exists():
                digests[str(p)] = "missing"
                raise PipelineStageError(name, digests, f"input file not found: {p}")
            d = _sha256_file(p)
            digests[str(p)] = d
            ordered.append(d)
        payload = json.dumps(
            {
                "stage": name,
                "format": MANIFEST_VERSION,
                "version": STAGE_VERSIONS[kind],
                "params": {f: getattr(self.config, f) for f in STAGE_PARAMS[kind]},
                "inputs": ordered,
            },
            sort_keys=True,
        )
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()

        manifest_path = self._manifest_path(name)
        if manifest_path.exists():
            try:
                manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            except json.JSONDecodeError:
                manifest = {}
            if manifest.get("digest") == digest and self._outputs_intact(manifest, outputs):
                log.info("stage %s: cached", name)
                self.records.append(StageRecord(name, digest, cached=True))
                return False

        log.info("stage %s: running", name)
        for out in outputs:
            out.parent.mkdir(parents=True, exist_ok=True)
        try:
            fn(*inputs, *outputs)
        except PipelineStageError:
            raise
        except Exception as exc:
            raise PipelineStageError(name, digests, str(exc)) from exc
        missing = [str(o) for o in outputs if not o.exists()]
        if missing:
            raise PipelineStageError(name, digests, f"stage did not produce {missing[0]}")
        manifest = {
            "stage": name,
            "digest": digest,
            "outputs": {self._key(o): _sha256_file(o) for o in outputs},
        }
        with atomic_write(manifest_path) as fh:
            fh.write(json.dumps(manifest, sort_keys=True, indent=1))
        self.records.append(StageRecord(name, digest, cached=False))
        return True

    def _key(self, out: Path) -> str:
        """An output's manifest key: its path within the work dir, so that a
        moved or copied work dir keeps its cache."""
        return out.relative_to(self.work_dir).as_posix()

    def _outputs_intact(self, manifest: dict, outputs: Sequence[Path]) -> bool:
        recorded = manifest.get("outputs", {})
        for out in outputs:
            want = recorded.get(self._key(out))
            if want is None or not out.exists() or _sha256_file(out) != want:
                return False
        return True


class _WorkDirLock:
    """One pipeline run per work dir: the run holds an exclusive `flock` on
    the lock file until it ends. The kernel drops the lock when its holder
    dies, so a lock file left by a killed run does not block the next one."""

    def __init__(self, work_dir: Path):
        self.path = work_dir / LOCK_NAME
        self.fd: int | None = None

    def __enter__(self) -> "_WorkDirLock":
        while True:
            fd = os.open(self.path, os.O_CREAT | os.O_WRONLY, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                os.close(fd)
                raise RuntimeError(
                    f"work dir {self.path.parent} is locked by another pipeline run"
                ) from None
            # A holder unlinks the file before it unlocks, so the lock taken
            # may be on a file that no longer has this name: open it again.
            try:
                held = os.fstat(fd)
                named = os.stat(self.path)
                if (held.st_dev, held.st_ino) == (named.st_dev, named.st_ino):
                    break
            except FileNotFoundError:
                pass
            os.close(fd)
        os.ftruncate(fd, 0)
        os.write(fd, f"{os.getpid()}\n".encode("ascii"))
        self.fd = fd
        return self

    def __exit__(self, *exc_info) -> None:
        self.path.unlink(missing_ok=True)
        os.close(self.fd)


@dataclass
class DirectionResult:
    direction: str
    dictionary_path: Path
    dictionary: InducedDictionary
    p_at_1: float | None = None
    oov_rate: float | None = None
    report_path: Path | None = None


@dataclass
class PipelineResult:
    directions: dict[str, DirectionResult]
    stages: tuple[StageRecord, ...]

    def ran(self) -> list[str]:
        return [r.name for r in self.stages if not r.cached]

    def cached(self) -> list[str]:
        return [r.name for r in self.stages if r.cached]


def _read_tokenized(path: Path) -> Corpus:
    with open(path, encoding="utf-8") as fh:
        sentences = tuple(tuple(line.split()) for line in fh)
    return Corpus(sentences, str(path))


def _system(
    config: PipelineConfig, table: str | Path, lm: str | Path, weights: FeatureWeights
) -> TranslationSystem:
    return TranslationSystem(
        PhraseTable.read(table), load_lm(lm), weights,
        config.beam, config.distortion_limit, config.options_limit,
    )


def _train_aligner(config: PipelineConfig, pairs):
    return train_ibm2(pairs, config.align_iterations, config.align_tension, config.align_null_prob)


def tokenized(config: PipelineConfig, path: str | Path) -> Corpus:
    """Read a raw corpus file and tokenize it by the config's rules."""
    return load_corpus(path, config.aggressive_hyphens, config.lowercase)


def phrases_stage(
    config: PipelineConfig, corpus: Corpus, embeddings: str | Path, out: str | Path | None = None
) -> EmbeddingStore:
    """Count the n-grams of `corpus`, keep its phrase inventory and embed
    every phrase of it from the word embeddings file; with `out`, write the
    phrase store as a cache."""
    inventory = build_phrase_inventory(count_ngrams(corpus, 3), config.vocab_size, config.ngram_cap)
    # Free the corpus before the embeddings load (the counts are gone
    # already), so the stage never holds both.
    del corpus
    store = build_phrase_store(inventory, unit_normalize(load_embeddings(embeddings)))
    if out:
        save_cache(store, out)
    return store


def lm_stage(config: PipelineConfig, corpus: Corpus, out: str | Path) -> None:
    """Train the Kneser-Ney language model on `corpus` and write it."""
    save_lm(train_lm(corpus, config.lm_order, config.lm_discount), out)


def tables_stage(
    config: PipelineConfig,
    src_phrases: EmbeddingStore,
    tgt_phrases: EmbeddingStore,
    out_fwd: str | Path,
    out_rev: str | Path,
    out_tau: str | Path | None = None,
) -> TableInduction:
    """Induce both phrase tables from the two phrase stores and write them;
    with `out_tau`, also write the fitted temperatures."""
    induced = induce_tables(
        src_phrases,
        tgt_phrases,
        word_store(src_phrases),
        word_store(tgt_phrases),
        k=config.candidates,
        reverse_sample=config.reverse_sample,
        seed=config.phrase_seed,
    )
    induced.table_fwd.write(out_fwd)
    induced.table_rev.write(out_rev)
    if out_tau:
        with atomic_write(out_tau) as fh:
            fh.write(f"src2tgt {induced.tau_fwd.tau!r}\ntgt2src {induced.tau_rev.tau!r}\n")
    return induced


def tune_stage(
    config: PipelineConfig,
    table: str | Path,
    opposite_table: str | Path,
    lm: str | Path,
    opposite_lm: str | Path,
    corpus: Corpus,
    out: str | Path,
) -> None:
    """Tune the decoder weights on a dev sample of the source `corpus` and
    write them. `table` and `lm` translate into the target language,
    `opposite_table` and `opposite_lm` back; at `sweeps = 0` the initial
    weights are written without decoding."""
    if config.sweeps == 0:
        FeatureWeights().write(out)
        return
    forward = _system(config, table, lm, FeatureWeights())
    backward = _system(config, opposite_table, opposite_lm, FeatureWeights())
    dev = sample_sentences(corpus, config.dev_size, config.dev_seed)
    tune(FeatureWeights(), list(dev.sentences), forward, backward,
         config.sweeps, config.golden_iterations).write(out)


def translate_stage(
    config: PipelineConfig,
    table: str | Path,
    lm: str | Path,
    weights: str | Path | None,
    corpus: Corpus,
    out_tgt: str | Path,
    out_src: str | Path | None = None,
) -> int:
    """Translate the first `corpus_cap` sentences of `corpus` (default
    weights when `weights` is None), write the output and, with `out_src`,
    the source sentences it came from; returns the sentence count."""
    system = _system(
        config, table, lm, FeatureWeights.read(weights) if weights else FeatureWeights()
    )
    pairs = translate_corpus(corpus.sentences, system, config.corpus_cap, config.workers)
    write_corpus((output for _, output in pairs), out_tgt)
    if out_src:
        write_corpus((source for source, _ in pairs), out_src)
    return len(pairs)


def align_stage(
    config: PipelineConfig,
    src: Corpus,
    tgt: Corpus,
    out: str | Path,
    out_counts: str | Path | None = None,
) -> None:
    """Align a parallel corpus with IBM-2 in both directions and write the
    grow-diag-final-and symmetrization of the links in source-target
    orientation; with `out_counts`, also write the counts of its one-to-one
    links, the one-word phrase pairs that the dictionary reads."""
    if len(src) != len(tgt):
        raise ValueError(
            f"align: {src.source_path} has {len(src)} lines, {tgt.source_path} has {len(tgt)} lines"
        )
    pairs = list(zip(src.sentences, tgt.sentences))
    forward = align_corpus(_train_aligner(config, pairs), pairs)
    flipped = [(t, s) for s, t in pairs]
    reverse = align_corpus(_train_aligner(config, flipped), flipped)
    link_sets = [grow_diag_final_and(a, {(j, i) for i, j in b}) for a, b in zip(forward, reverse)]
    write_links(link_sets, out)
    if out_counts:
        write_extracted_counts(count_extractions(pairs, link_sets), out_counts)


def dictionary_stage(counts: ExtractedCounts, out: str | Path) -> InducedDictionary:
    """Build the ranked word dictionary from extraction counts and write it."""
    dictionary = dictionary_from_counts(counts)
    dictionary.write(out)
    return dictionary


def evaluate_stage(dictionary: InducedDictionary, gold: str | Path) -> str:
    """The report line of `dictionary` against the gold file: precision at
    one and the out-of-dictionary rate."""
    score, oov = precision_at_1(dictionary, read_gold(gold))
    return f"P@1 {score:.6f} OOV {oov:.6f}"


def _read_report(path: Path) -> tuple[float, float]:
    """(P@1, OOV rate) from a report file holding an `evaluate_stage` line."""
    parts = path.read_text(encoding="utf-8").split()
    return float(parts[1]), float(parts[3])


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Execute every stage the configured direction needs, reusing cached
    stage outputs, and return the induced dictionaries plus evaluation."""
    work_dir_text = os.environ.get(WORK_DIR_ENV) or config.work_dir
    if not work_dir_text:
        raise ValueError(f"config: work_dir is required (or set {WORK_DIR_ENV})")
    for name in ("src_corpus", "tgt_corpus", "src_embeddings", "tgt_embeddings"):
        if not getattr(config, name):
            raise ValueError(f"config: {name} is required")
    work_dir = Path(work_dir_text)
    work_dir.mkdir(parents=True, exist_ok=True)

    with _WorkDirLock(work_dir):
        for stale in remove_stale_temps(work_dir):
            log.info("removed %s, left by a killed writer", stale)
        runner = _Runner(work_dir, config)
        run = runner.run

        for lang, raw_corpus, raw_embeddings in (
            ("src", config.src_corpus, config.src_embeddings),
            ("tgt", config.tgt_corpus, config.tgt_embeddings),
        ):
            ldir = work_dir / lang
            tok = ldir / "corpus.txt"
            run(f"corpus:{lang}", [Path(raw_corpus)], [tok],
                lambda raw, out: write_corpus(tokenized(config, raw), out))
            run(f"phrases:{lang}", [tok, Path(raw_embeddings)], [ldir / "phrases.npz"],
                lambda corpus, emb, out: phrases_stage(config, _read_tokenized(corpus), emb, out))
            run(f"lm:{lang}", [tok], [ldir / "lm.txt"],
                lambda corpus, out: lm_stage(config, _read_tokenized(corpus), out))

        tables = {d: work_dir / d / "phrase_table.txt" for d in DIRECTIONS}
        run("tables", [work_dir / "src" / "phrases.npz", work_dir / "tgt" / "phrases.npz"],
            [tables["src2tgt"], tables["tgt2src"], work_dir / "temperatures.txt"],
            lambda src, tgt, *outs: tables_stage(config, load_cache(src), load_cache(tgt), *outs))

        results: dict[str, DirectionResult] = {}
        for direction in config.directions():
            source_lang, target_lang = ("src", "tgt") if direction == "src2tgt" else ("tgt", "src")
            source, target = work_dir / source_lang, work_dir / target_lang
            opposite = "tgt2src" if direction == "src2tgt" else "src2tgt"
            ddir = work_dir / direction
            weights_path, counts_path, dict_path = (
                ddir / "weights.txt", ddir / "extract_counts.txt", ddir / "dictionary.tsv"
            )
            syn_src, syn_tgt = ddir / "synthetic.source.txt", ddir / "synthetic.target.txt"

            run(f"tune:{direction}",
                [tables[direction], tables[opposite], target / "lm.txt", source / "lm.txt",
                 source / "corpus.txt"], [weights_path],
                lambda table, opposite_table, lm, opposite_lm, corpus, out: tune_stage(
                    config, table, opposite_table, lm, opposite_lm, _read_tokenized(corpus), out))
            run(f"translate:{direction}",
                [tables[direction], target / "lm.txt", weights_path, source / "corpus.txt"],
                [syn_src, syn_tgt],
                lambda table, lm, weights, corpus, out_src, out_tgt: translate_stage(
                    config, table, lm, weights, _read_tokenized(corpus), out_tgt, out_src))
            run(f"align:{direction}", [syn_src, syn_tgt], [ddir / "links.txt", counts_path],
                lambda src, tgt, *outs: align_stage(
                    config, _read_tokenized(src), _read_tokenized(tgt), *outs))
            run(f"dictionary:{direction}", [counts_path], [dict_path],
                lambda counts, out: dictionary_stage(read_extracted_counts(counts), out))

            gold_path = config.gold_src2tgt if direction == "src2tgt" else config.gold_tgt2src
            report_path = ddir / "report.txt" if gold_path else None
            p_at_1 = oov_rate = None
            if gold_path:

                def evaluate(pred, gold, out):
                    with atomic_write(out) as fh:
                        fh.write(evaluate_stage(InducedDictionary.read(pred), gold) + "\n")

                run(f"evaluate:{direction}", [dict_path, Path(gold_path)], [report_path], evaluate)
                p_at_1, oov_rate = _read_report(report_path)

            dictionary = InducedDictionary.read(dict_path)
            results[direction] = DirectionResult(
                direction, dict_path, dictionary, p_at_1, oov_rate, report_path
            )

        return PipelineResult(directions=results, stages=tuple(runner.records))
