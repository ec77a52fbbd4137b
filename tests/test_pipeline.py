"""Pipeline plumbing: config files, stage caching, invalidation, locking,
and the names the benchmark tracer wraps."""

import dataclasses
import fcntl
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import make_micro_cipher as micro, micro_config
from lexinduct import (
    PipelineConfig,
    PipelineStageError,
    read_config,
    run_pipeline,
    write_config,
)
from lexinduct.pipeline import LOCK_NAME, STAGE_PARAMS, STAGE_VERSIONS, WORK_DIR_ENV, _WorkDirLock



class TestConfigFile:
    def sample(self):
        return PipelineConfig(
            src_corpus="/data/a.txt", tgt_corpus="/data/b.txt",
            src_embeddings="/data/a.vec", tgt_embeddings="/data/b.vec",
            work_dir="/work", gold_src2tgt="/data/gold.txt",
            direction="both", workers=3, lowercase=False, vocab_size=77,
            ngram_cap=123, candidates=9, lm_order=4, lm_discount=0.7,
            beam=11, distortion_limit=-1, options_limit=2, dev_size=17,
            sweeps=1, golden_iterations=4, align_tension=3.5,
        )

    # write_config(PipelineConfig()), written out: a key that moves to
    # another section or changes its name fails here, not in the round trip.
    DEFAULT_FILE = (
        "[paths]\nsrc_corpus = \ntgt_corpus = \nsrc_embeddings = \ntgt_embeddings = \n"
        "work_dir = \ngold_src2tgt = \ngold_tgt2src = \n\n"
        "[pipeline]\ndirection = src2tgt\nworkers = 1\n\n"
        "[corpus]\nlowercase = true\naggressive_hyphens = true\nvocab_size = 200000\n\n"
        "[phrases]\nngram_cap = 400000\ncandidates = 100\nreverse_sample = 10000\nseed = 13\n\n"
        "[lm]\norder = 5\ndiscount = 0.75\n\n"
        "[decoder]\nbeam = 50\ndistortion_limit = 6\noptions_limit = 0\ncorpus_cap = 10000000\n\n"
        "[tuner]\ndev_size = 2000\ndev_seed = 42\nsweeps = 3\ngolden_iterations = 6\n\n"
        "[aligner]\niterations = 5\ntension = 1.0\nnull_prob = 0.08\n"
    )

    def test_default_file_layout(self, tmp_path):
        path = tmp_path / "run.cfg"
        write_config(PipelineConfig(), path)
        assert path.read_text(encoding="utf-8") == self.DEFAULT_FILE

    def test_round_trip_is_exact(self, tmp_path):
        config = self.sample()
        path = tmp_path / "run.cfg"
        write_config(config, path)
        assert read_config(path) == config

    def test_missing_keys_fall_back_to_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[lm]\norder = 3\n", encoding="utf-8")
        config = read_config(path)
        assert config.lm_order == 3
        assert config.lm_discount == 0.75
        assert config.beam == 50

    def test_unknown_section_fatal(self, tmp_path):
        path = tmp_path / "run.cfg"
        # [lexicon] held the extraction settings of older versions; the
        # dictionary now counts one-to-one links, and the section is gone.
        for body in ("[mystery]\nx = 1\n", "[lexicon]\nmax_phrase_len = 3\n"):
            path.write_text(body, encoding="utf-8")
            with pytest.raises(ValueError, match="unknown section"):
                read_config(path)

    def test_unknown_key_fatal(self, tmp_path):
        path = tmp_path / "run.cfg"
        # grad_steps set the tension's gradient steps in older versions, and
        # the [tuner] weights set the tuning objective's mix and range; the
        # tension and the objective are now fixed, and the keys are unknown
        # like any other.
        for body in ("[lm]\nbogus = 1\n", "[aligner]\ngrad_steps = 8\n",
                     "[tuner]\nlm_weight = 0.1\n", "[tuner]\nweight_hi = 2.0\n"):
            path.write_text(body, encoding="utf-8")
            with pytest.raises(ValueError, match="unknown key"):
                read_config(path)

    @pytest.mark.parametrize(
        "body",
        ["[lm]\norder = three\n", "[lm]\ndiscount = x\n", "[corpus]\nlowercase = yes\n",
         # A file configparser cannot read: no section header, a duplicate key.
         "order = 3\n", "[lm]\norder = 3\norder = 4\n"],
    )
    def test_bad_values_fatal(self, tmp_path, body):
        path = tmp_path / "run.cfg"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_config(path)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"direction": "sideways"},
            {"workers": 0},
            {"sweeps": -1},
            {"options_limit": -1},
            {"distortion_limit": -2},
            {"lm_discount": 1.0},
            {"align_null_prob": 0.0},
        ],
    )
    def test_rejected(self, kw):
        with pytest.raises(ValueError):
            PipelineConfig(**kw)

    def test_directions(self):
        assert PipelineConfig(direction="src2tgt").directions() == ("src2tgt",)
        assert PipelineConfig(direction="tgt2src").directions() == ("tgt2src",)
        assert PipelineConfig(direction="both").directions() == ("src2tgt", "tgt2src")


class TestStageDigests:
    """Every config field that can change an output is in some stage's
    digest, so a cached stage never outlives a change of its settings."""

    FIELDS = {f.name for f in dataclasses.fields(PipelineConfig)}
    HASHED = {name for params in STAGE_PARAMS.values() for name in params}
    # Paths enter digests through their files' contents, `direction` picks
    # the stages that run and `workers` changes only the speed.
    UNHASHED = {"src_corpus", "tgt_corpus", "src_embeddings", "tgt_embeddings", "work_dir",
                "gold_src2tgt", "gold_tgt2src", "direction", "workers"}

    def test_versions_and_params_name_the_same_stages(self):
        assert set(STAGE_VERSIONS) == set(STAGE_PARAMS)

    def test_params_are_config_fields(self):
        assert self.HASHED <= self.FIELDS

    def test_every_other_field_is_in_a_digest(self):
        assert self.FIELDS - self.UNHASHED - self.HASHED == set()


LANG_STAGES = [f"{s}:{l}" for l in ("src", "tgt") for s in ("corpus", "inventory", "phrases", "lm")]


class TestRunAndCache:
    def test_cold_run_produces_dictionary_and_report(self, tmp_path):
        fx = micro(tmp_path / "data")
        result = run_pipeline(micro_config(fx, tmp_path / "work"))
        r = result.directions["src2tgt"]
        assert r.dictionary_path.exists() and r.report_path.exists()
        assert r.p_at_1 is not None and r.p_at_1 >= 0.9
        assert r.oov_rate == 0.0
        assert len(result.ran()) == 14 and result.cached() == []
        for word, translation in list(fx.mapping.items())[:5]:
            assert r.dictionary.top1(word) == translation

    def test_warm_run_skips_everything(self, tmp_path):
        fx = micro(tmp_path / "data")
        config = micro_config(fx, tmp_path / "work")
        run_pipeline(config)
        again = run_pipeline(config)
        assert again.ran() == []
        assert len(again.cached()) == 14
        assert again.directions["src2tgt"].p_at_1 is not None

    def test_copied_work_dir_stays_cached(self, tmp_path):
        fx = micro(tmp_path / "data")
        run_pipeline(micro_config(fx, tmp_path / "work"))
        shutil.copytree(tmp_path / "work", tmp_path / "copy")
        again = run_pipeline(micro_config(fx, tmp_path / "copy"))
        assert again.ran() == []
        assert len(again.cached()) == 14

    def test_mtime_change_alone_stays_cached(self, tmp_path):
        fx = micro(tmp_path / "data")
        config = micro_config(fx, tmp_path / "work")
        run_pipeline(config)
        os.utime(fx.src_corpus)
        os.utime(fx.tgt_embeddings)
        assert run_pipeline(config).ran() == []

    def test_input_content_change_invalidates_one_language_side(self, tmp_path):
        fx = micro(tmp_path / "data")
        config = micro_config(fx, tmp_path / "work")
        run_pipeline(config)
        with open(fx.tgt_corpus, "a", encoding="utf-8") as fh:
            fh.write("t000 t001 t002 t003 t004 t005\n")
        result = run_pipeline(config)
        ran = set(result.ran())
        assert {"corpus:tgt", "inventory:tgt", "phrases:tgt", "lm:tgt", "tables"} <= ran
        cached = set(result.cached())
        assert {"corpus:src", "inventory:src", "phrases:src", "lm:src"} <= cached

    def test_param_change_invalidates_dependent_stages_only(self, tmp_path):
        fx = micro(tmp_path / "data")
        run_pipeline(micro_config(fx, tmp_path / "work"))
        result = run_pipeline(micro_config(fx, tmp_path / "work", lm_order=4))
        ran = set(result.ran())
        assert {"lm:src", "lm:tgt", "tune:src2tgt", "translate:src2tgt"} <= ran
        cached = set(result.cached())
        assert {"corpus:src", "corpus:tgt", "inventory:src", "inventory:tgt",
                "phrases:src", "phrases:tgt", "tables"} <= cached

    def test_stage_version_bump_reruns_that_stage_only(self, tmp_path, monkeypatch):
        fx = micro(tmp_path / "data")
        config = micro_config(fx, tmp_path / "work")
        run_pipeline(config)
        # Same output bytes, so every stage downstream of the bumped one stays
        # cached. A bumped `align` is also how a work dir from older code,
        # with its separate extract stage, upgrades.
        for kind, stage in (("tables", "tables"), ("align", "align:src2tgt")):
            monkeypatch.setitem(STAGE_VERSIONS, kind, STAGE_VERSIONS[kind] + 1)
            result = run_pipeline(config)
            assert result.ran() == [stage]
            assert len(result.cached()) == 13
        assert run_pipeline(config).ran() == []

    def test_damaged_output_is_rebuilt(self, tmp_path):
        fx = micro(tmp_path / "data")
        config = micro_config(fx, tmp_path / "work")
        first = run_pipeline(config)
        first.directions["src2tgt"].dictionary_path.unlink()
        result = run_pipeline(config)
        assert result.ran() == ["dictionary:src2tgt"]
        # The rebuilt dictionary is byte-identical, so evaluation stays cached.
        assert "evaluate:src2tgt" in result.cached()

    def test_align_stage_writes_the_symmetrized_links(self, tmp_path):
        fx = micro(tmp_path / "data")
        config = micro_config(fx, tmp_path / "work")
        run_pipeline(config)
        ddir = tmp_path / "work" / "src2tgt"
        outputs = [ddir / "links.txt", ddir / "extract_counts.txt"]
        written = [p.read_bytes() for p in outputs]
        for p in outputs:
            p.unlink()
        result = run_pipeline(config)
        # Rebuilt with the same bytes, so the dictionary stays cached.
        assert result.ran() == ["align:src2tgt"]
        assert [p.read_bytes() for p in outputs] == written

    def test_work_dir_env_override(self, tmp_path, monkeypatch):
        fx = micro(tmp_path / "data")
        ignored = tmp_path / "ignored"
        actual = tmp_path / "actual"
        monkeypatch.setenv(WORK_DIR_ENV, str(actual))
        result = run_pipeline(micro_config(fx, ignored))
        assert (actual / "src2tgt" / "dictionary.tsv").exists()
        assert not ignored.exists()
        assert str(result.directions["src2tgt"].dictionary_path).startswith(str(actual))

    def test_both_directions_with_both_golds(self, tmp_path):
        fx = micro(tmp_path / "data")
        reverse_gold = tmp_path / "gold_rev.txt"
        with open(reverse_gold, "w", encoding="utf-8") as fh:
            for s, t in sorted(fx.mapping.items(), key=lambda kv: kv[1]):
                fh.write(f"{t} {s}\n")
        config = micro_config(
            fx, tmp_path / "work", direction="both", gold_tgt2src=str(reverse_gold)
        )
        result = run_pipeline(config)
        assert set(result.directions) == {"src2tgt", "tgt2src"}
        for direction in ("src2tgt", "tgt2src"):
            assert result.directions[direction].p_at_1 >= 0.9

    def test_fresh_work_dirs_and_worker_counts_agree_byte_for_byte(self, tmp_path):
        fx = micro(tmp_path / "data")
        one = run_pipeline(micro_config(fx, tmp_path / "w1", workers=1))
        two = run_pipeline(micro_config(fx, tmp_path / "w2", workers=2))
        d1 = one.directions["src2tgt"]
        d2 = two.directions["src2tgt"]
        assert d1.dictionary_path.read_bytes() == d2.dictionary_path.read_bytes()
        assert d1.report_path.read_bytes() == d2.report_path.read_bytes()


class TestFailureHandling:
    def test_missing_input_file_names_the_stage(self, tmp_path):
        fx = micro(tmp_path / "data")
        config = micro_config(fx, tmp_path / "work", src_corpus=str(tmp_path / "absent.txt"))
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(config)
        assert info.value.stage == "corpus:src"
        assert "input file not found" in str(info.value)
        assert "corpus:src" in str(info.value)

    def test_stage_exception_is_wrapped_with_stage_name(self, tmp_path):
        fx = micro(tmp_path / "data")
        broken = tmp_path / "broken.vec"
        broken.write_text("not a header\n", encoding="utf-8")
        config = micro_config(fx, tmp_path / "work", src_embeddings=str(broken))
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(config)
        assert info.value.stage == "phrases:src"
        assert info.value.input_digests

    def test_missing_required_paths_rejected_before_any_stage(self, tmp_path, monkeypatch):
        monkeypatch.delenv(WORK_DIR_ENV, raising=False)
        fx = micro(tmp_path / "data")
        with pytest.raises(ValueError):
            run_pipeline(micro_config(fx, tmp_path / "work", tgt_corpus=""))
        with pytest.raises(ValueError):
            run_pipeline(micro_config(fx, ""))

    def test_failure_releases_the_lock(self, tmp_path):
        fx = micro(tmp_path / "data")
        work = tmp_path / "work"
        config = micro_config(fx, work, src_corpus=str(tmp_path / "absent.txt"))
        with pytest.raises(PipelineStageError):
            run_pipeline(config)
        assert not (work / LOCK_NAME).exists()
        assert run_pipeline(micro_config(fx, work)).directions["src2tgt"].p_at_1 is not None


class TestLocking:
    def test_existing_lock_blocks_a_second_run(self, tmp_path):
        fx = micro(tmp_path / "data")
        work = tmp_path / "work"
        work.mkdir()
        # A live holder: this test's own descriptor keeps the flock.
        with open(work / LOCK_NAME, "w") as holder:
            fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)
            with pytest.raises(RuntimeError, match="locked"):
                run_pipeline(micro_config(fx, work))
            assert (work / LOCK_NAME).exists()

    def test_leftover_lock_file_without_holder_does_not_block(self, tmp_path):
        fx = micro(tmp_path / "data")
        work = tmp_path / "work"
        work.mkdir()
        # What a killed run leaves: the file, but no process holding the lock.
        (work / LOCK_NAME).write_text("12345\n", encoding="utf-8")
        assert run_pipeline(micro_config(fx, work)).directions["src2tgt"].p_at_1 is not None
        assert not (work / LOCK_NAME).exists()

    def test_lock_on_a_file_unlinked_meanwhile_is_taken_again(self, tmp_path, monkeypatch):
        work = tmp_path / "work"
        work.mkdir()
        calls = []
        real_flock = fcntl.flock

        def flock(fd, operation):
            calls.append(operation)
            if len(calls) == 1:
                # The previous holder removes the file between our open and our lock.
                (work / LOCK_NAME).unlink()
            real_flock(fd, operation)

        monkeypatch.setattr(fcntl, "flock", flock)
        with _WorkDirLock(work) as lock:
            assert len(calls) == 2
            assert os.fstat(lock.fd).st_ino == os.stat(work / LOCK_NAME).st_ino
        assert not (work / LOCK_NAME).exists()

    def test_temporary_file_of_a_killed_writer_is_removed(self, tmp_path):
        fx = micro(tmp_path / "data")
        work = tmp_path / "work"
        config = micro_config(fx, work)
        first = run_pipeline(config).directions["src2tgt"]
        outputs = {p: p.read_bytes() for p in (first.dictionary_path, first.report_path)}
        # What SIGKILL leaves mid-write: atomic_write's temporary, never renamed.
        planted = work / "src2tgt" / f".{first.dictionary_path.name}.99999.tmp"
        planted.write_text("s000\tt0", encoding="utf-8")
        unrelated = work / "notes.tmp"
        unrelated.write_text("kept", encoding="utf-8")
        again = run_pipeline(config)
        assert not planted.exists()
        assert unrelated.exists()
        assert again.ran() == []
        assert {p: p.read_bytes() for p in outputs} == outputs

    def test_lock_removed_after_success(self, tmp_path):
        fx = micro(tmp_path / "data")
        work = tmp_path / "work"
        run_pipeline(micro_config(fx, work))
        assert not (work / LOCK_NAME).exists()


class TestTracerContract:
    """`perfbench/tracing.py` wraps the pipeline's public functions by name;
    a traced, tuned micro run must still work and record the spans that
    `perfbench/rep.py` reads."""

    SCRIPT = (
        "import json, sys\n"
        "from tracing import Tracer, install\n"
        "from lexinduct import read_config, run_pipeline\n"
        "tracer = Tracer()\n"
        "install(tracer)\n"
        "run_pipeline(read_config(sys.argv[1]))\n"
        "print(json.dumps(sorted({span.name for span in tracer.spans})))\n"
    )

    def test_traced_pipeline_records_the_tail(self, tmp_path):
        fx = micro(tmp_path / "data")
        cfg = tmp_path / "run.cfg"
        write_config(micro_config(fx, tmp_path / "work", sweeps=1, golden_iterations=1), cfg)
        root = Path(__file__).resolve().parent.parent
        path = [str(root / "perfbench"), str(root / "src"), os.environ.get("PYTHONPATH", "")]
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(cfg)], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)},
        )
        assert proc.returncode == 0, proc.stderr
        spans = set(json.loads(proc.stdout))
        # perfbench/rep.py reads `aligner.viterbi_s` from `align_corpus`,
        # `tuner.objective_evals` from the objective's spans and
        # `decoder.translate_cache_hit_ratio` from those of `translate`.
        assert {"tuner.tune", "tuner.objective", "decoder.TranslationSystem.translate",
                "aligner.train_ibm2", "aligner.align_corpus", "aligner.grow_diag_final_and",
                "lexicon.count_extractions", "lexicon.write_extracted_counts",
                "lexicon.read_extracted_counts"} <= spans
