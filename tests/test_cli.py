"""Command-line interface: argument handling, exit codes, output formats."""

import argparse
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import make_micro_cipher, micro_config
from lexinduct import (
    InducedDictionary, PipelineConfig, load_lm, read_extracted_counts, read_links, run_pipeline,
    write_config,
)
from lexinduct.cli import build_parser, main


def run_cli(argv):
    return main(list(argv))


class TestParser:
    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            run_cli([])
        assert info.value.code == 2

    def test_pipeline_requires_config(self):
        with pytest.raises(SystemExit) as info:
            run_cli(["pipeline"])
        assert info.value.code == 2

    def test_unknown_method_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run_cli(["induce", "--method", "psychic", "--src-emb", "a", "--tgt-emb", "b",
                     "--queries", "q", "--out", str(tmp_path / "o")])
        assert info.value.code == 2

    def test_console_script_help(self):
        # Run the [project.scripts] entry the way pip's generated wrapper does,
        # so the test needs no installed wrapper on PATH.
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10; pytest depends on tomli there
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with pyproject.open("rb") as handle:
            entry = tomllib.load(handle)["project"]["scripts"]["lexinduct"]
        module, attr = entry.split(":")
        code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        proc = subprocess.run([sys.executable, "-c", code, "--help"], capture_output=True)
        assert proc.returncode == 0
        assert b"usage" in proc.stdout

    def test_module_invocation(self, tmp_path):
        pred = tmp_path / "pred.tsv"
        pred.write_text("a\tx\t0.9\n", encoding="utf-8")
        gold = tmp_path / "gold.txt"
        gold.write_text("a x\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "lexinduct.cli", "evaluate",
             "--pred", str(pred), "--gold", str(gold)],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == b"P@1 1.000000 OOV 0.000000\n"


def write_embeddings(path, rows):
    dim = len(next(iter(rows.values())))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(rows)} {dim}\n")
        for token, vector in rows.items():
            fh.write(token + " " + " ".join(repr(v) for v in vector) + "\n")


class TestInduce:
    @pytest.fixture()
    def hub_files(self, tmp_path):
        write_embeddings(tmp_path / "src.vec", {"x000": [1.0, 0.0], "x001": [0.95, 0.31225]})
        write_embeddings(tmp_path / "tgt.vec", {"hub": [0.99, 0.14], "tail": [0.31, 0.95]})
        (tmp_path / "queries.txt").write_text("x000\nx001\n", encoding="utf-8")
        return tmp_path

    def run_method(self, root, method, *extra):
        out = root / f"{method}.tsv"
        code = run_cli(["induce", "--method", method,
                        "--src-emb", str(root / "src.vec"),
                        "--tgt-emb", str(root / "tgt.vec"),
                        "--queries", str(root / "queries.txt"),
                        "--out", str(out), *extra])
        assert code == 0
        return InducedDictionary.read(out)

    def test_inverted_nn_splits_the_hub(self, hub_files):
        induced = self.run_method(hub_files, "inv-nn", "--top", "1")
        assert induced.top1("x000") == "hub"
        assert induced.top1("x001") == "tail"
        assert all(len(cands) == 1 for cands in induced.entries.values())

    def test_csls_small_k_keeps_the_hub(self, hub_files):
        induced = self.run_method(hub_files, "csls", "--csls-k", "1")
        assert induced.top1("x000") == "hub"
        assert induced.top1("x001") == "hub"

    def test_top_zero_keeps_all_candidates(self, hub_files):
        induced = self.run_method(hub_files, "nn", "--top", "0")
        assert all(len(cands) == 2 for cands in induced.entries.values())

    def test_negative_top_fails(self, hub_files, capsys):
        out = hub_files / "o.tsv"
        code = run_cli(["induce", "--method", "nn",
                        "--src-emb", str(hub_files / "src.vec"),
                        "--tgt-emb", str(hub_files / "tgt.vec"),
                        "--queries", str(hub_files / "queries.txt"),
                        "--out", str(out), "--top", "-3"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: top must be >= 1")
        assert not out.exists()

    def test_nan_temperature_exits_1(self, hub_files, capsys):
        out = hub_files / "o.tsv"
        code = run_cli(["induce", "--method", "inv-softmax",
                        "--src-emb", str(hub_files / "src.vec"),
                        "--tgt-emb", str(hub_files / "tgt.vec"),
                        "--queries", str(hub_files / "queries.txt"),
                        "--out", str(out), "--temperature", "nan"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: softmax_temperature must be a finite number > 0, got nan\n"
        )
        assert not out.exists()

    def test_missing_embedding_file_exits_1(self, hub_files, capsys):
        code = run_cli(["induce", "--method", "nn",
                        "--src-emb", str(hub_files / "absent.vec"),
                        "--tgt-emb", str(hub_files / "tgt.vec"),
                        "--queries", str(hub_files / "queries.txt"),
                        "--out", str(hub_files / "o.tsv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


class TestTrainLm:
    def test_order_flag_overrides_default(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a b a b\nb a b a\n", encoding="utf-8")
        out = tmp_path / "lm.txt"
        assert run_cli(["train-lm", "--input", str(corpus), "--out", str(out),
                        "--order", "2"]) == 0
        model = load_lm(out)
        assert model.order == 2
        assert "a" in model.vocab

    def test_config_supplies_order(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[lm]\norder = 3\n", encoding="utf-8")
        corpus = tmp_path / "c.txt"
        corpus.write_text("a b c a b c\n", encoding="utf-8")
        out = tmp_path / "lm.txt"
        assert run_cli(["train-lm", "--config", str(cfg),
                        "--input", str(corpus), "--out", str(out)]) == 0
        assert load_lm(out).order == 3

    def test_empty_corpus_exits_1(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("", encoding="utf-8")
        code = run_cli(["train-lm", "--input", str(corpus), "--out", str(tmp_path / "lm.txt")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestTranslate:
    def test_malformed_lm_header_exits_1_naming_file_and_line(self, tmp_path, capsys):
        table = tmp_path / "table.txt"
        table.write_text("a ||| x ||| 0.5 0.5 0.5 0.5\n", encoding="utf-8")
        lm = tmp_path / "lm.txt"
        lm.write_text("lexinduct-lm 1\norder\ndiscount 0.75\nunseen -1.0\n", encoding="utf-8")
        corpus = tmp_path / "in.txt"
        corpus.write_text("a\n", encoding="utf-8")
        code = run_cli(["translate", "--table", str(table), "--lm", str(lm),
                        "--input", str(corpus), "--out", str(tmp_path / "out.txt")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {lm}: line 2: ")


class TestEvaluate:
    def test_report_format_is_exact(self, tmp_path, capsys):
        (tmp_path / "pred.tsv").write_text("a\tx\t0.9\nb\tz\t0.8\n", encoding="utf-8")
        (tmp_path / "gold.txt").write_text("a x\nb y\n", encoding="utf-8")
        assert run_cli(["evaluate", "--pred", str(tmp_path / "pred.tsv"),
                        "--gold", str(tmp_path / "gold.txt")]) == 0
        assert capsys.readouterr().out == "P@1 0.500000 OOV 0.000000\n"

    def test_missing_pred_exits_1(self, tmp_path, capsys):
        (tmp_path / "gold.txt").write_text("a x\n", encoding="utf-8")
        code = run_cli(["evaluate", "--pred", str(tmp_path / "absent.tsv"),
                        "--gold", str(tmp_path / "gold.txt")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_space_in_word_exits_1(self, tmp_path, capsys):
        pred = tmp_path / "pred.tsv"
        pred.write_text(" \tx\t0.75\na b\ty\t0.5\n", encoding="utf-8")
        (tmp_path / "gold.txt").write_text("a x\n", encoding="utf-8")
        code = run_cli(["evaluate", "--pred", str(pred), "--gold", str(tmp_path / "gold.txt")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {pred}: line 1: space in source")


class TestDictionary:
    def test_empty_source_in_counts_exits_1(self, tmp_path, capsys):
        counts = tmp_path / "counts.txt"
        counts.write_text(" ||| x ||| 3\na ||| x ||| 1\n", encoding="utf-8")
        out = tmp_path / "dict.tsv"
        code = run_cli(["dictionary", "--counts", str(counts), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {counts}: line 1: empty source")
        assert not out.exists()


class TestAlign:
    def copy_corpus(self, tmp_path, lines=30):
        text = "\n".join("w%d w%d w%d" % (i % 7, (i + 2) % 7, (i + 5) % 7)
                         for i in range(lines)) + "\n"
        src = tmp_path / "src.txt"
        tgt = tmp_path / "tgt.txt"
        src.write_text(text, encoding="utf-8")
        tgt.write_text(text, encoding="utf-8")
        return src, tgt

    def test_links_and_counts(self, tmp_path):
        src, tgt = self.copy_corpus(tmp_path)
        sym, counts = tmp_path / "s.txt", tmp_path / "c.txt"
        assert run_cli(["align", "--src", str(src), "--tgt", str(tgt),
                        "--out", str(sym), "--counts", str(counts)]) == 0
        links = read_links(sym)
        assert len(links) == 30
        # Copying a corpus onto itself aligns on the diagonal, which licenses
        # each word with itself once per occurrence and nothing else.
        assert links[0] == {(0, 0), (1, 1), (2, 2)}
        words = Counter(src.read_text(encoding="utf-8").split())
        assert read_extracted_counts(counts).pairs == {((w,), (w,)): c for w, c in words.items()}

    def test_missing_out_exits_2(self, tmp_path):
        src, tgt = self.copy_corpus(tmp_path)
        with pytest.raises(SystemExit) as info:
            run_cli(["align", "--src", str(src), "--tgt", str(tgt)])
        assert info.value.code == 2

    def test_length_mismatch_exits_1(self, tmp_path, capsys):
        src, tgt = self.copy_corpus(tmp_path)
        with open(tgt, "a", encoding="utf-8") as fh:
            fh.write("w0 w1\n")
        code = run_cli(["align", "--src", str(src), "--tgt", str(tgt),
                        "--out", str(tmp_path / "s.txt")])
        assert code == 1
        assert "lines" in capsys.readouterr().err

    def test_infinite_tension_exits_1(self, tmp_path, capsys):
        src, tgt = self.copy_corpus(tmp_path)
        links, counts = tmp_path / "s.txt", tmp_path / "c.txt"
        code = run_cli(["align", "--src", str(src), "--tgt", str(tgt),
                        "--out", str(links), "--counts", str(counts), "--tension", "inf"])
        assert code == 1
        assert "align_tension must be a finite number >= 0, got inf" in capsys.readouterr().err
        assert not links.exists() and not counts.exists()


class TestStageChain:
    """Drive every stage subcommand over the micro cipher benchmark."""

    def test_end_to_end(self, tmp_path, capsys):
        fx = make_micro_cipher(tmp_path / "data")
        fwd, rev = tmp_path / "fwd.txt", tmp_path / "rev.txt"
        tau = tmp_path / "tau.txt"
        assert run_cli(["phrase-table",
                        "--src-corpus", str(fx.src_corpus),
                        "--tgt-corpus", str(fx.tgt_corpus),
                        "--src-emb", str(fx.src_embeddings),
                        "--tgt-emb", str(fx.tgt_embeddings),
                        "--out-fwd", str(fwd), "--out-rev", str(rev),
                        "--out-tau", str(tau),
                        "--vocab-size", "25", "--ngram-cap", "300",
                        "--candidates", "10"]) == 0
        assert fwd.exists() and rev.exists()
        assert tau.read_text(encoding="utf-8").startswith("src2tgt ")

        lm_tgt, lm_src = tmp_path / "lm_tgt.txt", tmp_path / "lm_src.txt"
        assert run_cli(["train-lm", "--input", str(fx.tgt_corpus), "--out", str(lm_tgt)]) == 0
        assert run_cli(["train-lm", "--input", str(fx.src_corpus), "--out", str(lm_src)]) == 0

        weights = tmp_path / "weights.txt"
        assert run_cli(["tune", "--table", str(fwd), "--rev-table", str(rev),
                        "--lm", str(lm_tgt), "--rev-lm", str(lm_src),
                        "--input", str(fx.src_corpus), "--out", str(weights),
                        "--dev-size", "10", "--sweeps", "0",
                        "--beam", "4", "--options-limit", "4"]) == 0
        assert weights.exists()

        synthetic = tmp_path / "synthetic.txt"
        assert run_cli(["translate", "--table", str(fwd), "--lm", str(lm_tgt),
                        "--weights", str(weights),
                        "--input", str(fx.src_corpus), "--out", str(synthetic),
                        "--beam", "4", "--options-limit", "4", "--workers", "1"]) == 0
        produced = synthetic.read_text(encoding="utf-8").splitlines()
        assert len(produced) == 80

        links, counts = tmp_path / "links.txt", tmp_path / "counts.txt"
        assert run_cli(["align", "--src", str(fx.src_corpus), "--tgt", str(synthetic),
                        "--out", str(links), "--counts", str(counts)]) == 0

        dictionary = tmp_path / "dict.tsv"
        assert run_cli(["dictionary", "--counts", str(counts), "--out", str(dictionary)]) == 0

        assert run_cli(["evaluate", "--pred", str(dictionary), "--gold", str(fx.gold)]) == 0
        report = capsys.readouterr().out.strip().split()
        assert report[0] == "P@1" and float(report[1]) >= 0.9

    def test_translate_cap_limits_output(self, tmp_path):
        fx = make_micro_cipher(tmp_path / "data")
        fwd, rev = tmp_path / "fwd.txt", tmp_path / "rev.txt"
        assert run_cli(["phrase-table",
                        "--src-corpus", str(fx.src_corpus),
                        "--tgt-corpus", str(fx.tgt_corpus),
                        "--src-emb", str(fx.src_embeddings),
                        "--tgt-emb", str(fx.tgt_embeddings),
                        "--out-fwd", str(fwd), "--out-rev", str(rev),
                        "--vocab-size", "25", "--ngram-cap", "300",
                        "--candidates", "10"]) == 0
        lm = tmp_path / "lm.txt"
        assert run_cli(["train-lm", "--input", str(fx.tgt_corpus), "--out", str(lm)]) == 0
        out = tmp_path / "capped.txt"
        assert run_cli(["translate", "--table", str(fwd), "--lm", str(lm),
                        "--input", str(fx.src_corpus), "--out", str(out),
                        "--cap", "3", "--beam", "4", "--workers", "1"]) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 3

    def test_capped_translation_with_its_source_side_aligns(self, tmp_path):
        fx = make_micro_cipher(tmp_path / "data")
        fwd, rev = tmp_path / "fwd.txt", tmp_path / "rev.txt"
        assert run_cli(["phrase-table",
                        "--src-corpus", str(fx.src_corpus),
                        "--tgt-corpus", str(fx.tgt_corpus),
                        "--src-emb", str(fx.src_embeddings),
                        "--tgt-emb", str(fx.tgt_embeddings),
                        "--out-fwd", str(fwd), "--out-rev", str(rev),
                        "--vocab-size", "25", "--ngram-cap", "300",
                        "--candidates", "10"]) == 0
        lm = tmp_path / "lm.txt"
        assert run_cli(["train-lm", "--input", str(fx.tgt_corpus), "--out", str(lm)]) == 0
        out, out_src = tmp_path / "syn.txt", tmp_path / "syn.src.txt"
        assert run_cli(["translate", "--table", str(fwd), "--lm", str(lm),
                        "--input", str(fx.src_corpus), "--out", str(out),
                        "--out-src", str(out_src),
                        "--cap", "3", "--beam", "4", "--workers", "1"]) == 0
        first = fx.src_corpus.read_text(encoding="utf-8").splitlines()[:3]
        assert out_src.read_text(encoding="utf-8").splitlines() == first
        links = tmp_path / "links.txt"
        assert run_cli(["align", "--src", str(out_src), "--tgt", str(out),
                        "--out", str(links)]) == 0
        assert len(read_links(links)) == 3


class TestPipelineCommand:
    def test_success_prints_one_line_per_direction(self, tmp_path, capsys):
        fx = make_micro_cipher(tmp_path / "data")
        config_path = tmp_path / "run.cfg"
        write_config(micro_config(fx, tmp_path / "work"), config_path)
        assert run_cli(["pipeline", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("src2tgt P@1 ")
        assert float(out.split()[2]) >= 0.9

    def test_without_gold_prints_dictionary_path(self, tmp_path, capsys):
        fx = make_micro_cipher(tmp_path / "data")
        config_path = tmp_path / "run.cfg"
        write_config(micro_config(fx, tmp_path / "work", gold_src2tgt=""), config_path)
        assert run_cli(["pipeline", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("src2tgt dictionary ")
        assert "dictionary.tsv" in out

    def test_stage_failure_exits_1_and_names_the_stage(self, tmp_path, capsys):
        fx = make_micro_cipher(tmp_path / "data")
        config_path = tmp_path / "run.cfg"
        write_config(
            micro_config(fx, tmp_path / "work", src_corpus=str(tmp_path / "absent.txt")),
            config_path,
        )
        assert run_cli(["pipeline", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "corpus:src" in err

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        assert run_cli(["pipeline", "--config", str(tmp_path / "absent.cfg")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "body", ["order = 3\n", "[lm]\norder = 3\norder = 4\n"],
        ids=["no_section_header", "duplicate_key"],
    )
    def test_malformed_config_exits_1_without_a_traceback(self, tmp_path, body):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(body, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "lexinduct.cli", "pipeline", "--config", str(cfg)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and str(cfg) in proc.stderr
        assert "Traceback" not in proc.stderr


class TestPipelineParity:
    """The stage subcommands, fed the pipeline's config file, write the
    same bytes as the cached pipeline's work dir."""

    @pytest.mark.parametrize("tuning", [{"sweeps": 0}, {"sweeps": 1, "golden_iterations": 1}])
    def test_subcommand_chain_matches_the_work_dir(self, tmp_path, capsys, tuning):
        fx = make_micro_cipher(tmp_path / "data")
        config = micro_config(fx, tmp_path / "work", **tuning)
        run_pipeline(config)
        cfg = tmp_path / "run.cfg"
        write_config(config, cfg)
        out = tmp_path / "cli"
        out.mkdir()

        def cli(*argv):
            # `dictionary` and `evaluate` read no pipeline settings.
            config = [] if argv[0] in ("dictionary", "evaluate") else ["--config", str(cfg)]
            assert run_cli([argv[0], *config, *argv[1:]]) == 0

        cli("phrase-table", "--src-corpus", str(fx.src_corpus), "--tgt-corpus", str(fx.tgt_corpus),
            "--src-emb", str(fx.src_embeddings), "--tgt-emb", str(fx.tgt_embeddings),
            "--out-fwd", str(out / "fwd.txt"), "--out-rev", str(out / "rev.txt"),
            "--out-tau", str(out / "tau.txt"))
        cli("train-lm", "--input", str(fx.src_corpus), "--out", str(out / "lm_src.txt"))
        cli("train-lm", "--input", str(fx.tgt_corpus), "--out", str(out / "lm_tgt.txt"))
        cli("tune", "--table", str(out / "fwd.txt"), "--rev-table", str(out / "rev.txt"),
            "--lm", str(out / "lm_tgt.txt"), "--rev-lm", str(out / "lm_src.txt"),
            "--input", str(fx.src_corpus), "--out", str(out / "weights.txt"))
        cli("translate", "--table", str(out / "fwd.txt"), "--lm", str(out / "lm_tgt.txt"),
            "--weights", str(out / "weights.txt"), "--input", str(fx.src_corpus),
            "--out", str(out / "synthetic.txt"))
        cli("align", "--src", str(fx.src_corpus), "--tgt", str(out / "synthetic.txt"),
            "--out", str(out / "links.txt"), "--counts", str(out / "counts.txt"))
        cli("dictionary", "--counts", str(out / "counts.txt"), "--out", str(out / "dict.tsv"))

        work = tmp_path / "work"
        pairs = {
            "fwd.txt": "src2tgt/phrase_table.txt",
            "rev.txt": "tgt2src/phrase_table.txt",
            "tau.txt": "temperatures.txt",
            "lm_src.txt": "src/lm.txt",
            "lm_tgt.txt": "tgt/lm.txt",
            "weights.txt": "src2tgt/weights.txt",
            "synthetic.txt": "src2tgt/synthetic.target.txt",
            "links.txt": "src2tgt/links.txt",
            "counts.txt": "src2tgt/extract_counts.txt",
            "dict.tsv": "src2tgt/dictionary.tsv",
        }
        for mine, theirs in pairs.items():
            assert (out / mine).read_bytes() == (work / theirs).read_bytes(), mine
        capsys.readouterr()
        cli("evaluate", "--pred", str(out / "dict.tsv"), "--gold", str(fx.gold))
        assert capsys.readouterr().out.encode("utf-8") == (work / "src2tgt/report.txt").read_bytes()


class TestConfigChecks:
    def test_flags_obey_the_config_range_checks(self, tmp_path, capsys):
        fx = make_micro_cipher(tmp_path / "data")
        fwd, rev, lm = tmp_path / "fwd.txt", tmp_path / "rev.txt", tmp_path / "lm.txt"
        assert run_cli(["phrase-table",
                        "--src-corpus", str(fx.src_corpus), "--tgt-corpus", str(fx.tgt_corpus),
                        "--src-emb", str(fx.src_embeddings), "--tgt-emb", str(fx.tgt_embeddings),
                        "--out-fwd", str(fwd), "--out-rev", str(rev),
                        "--vocab-size", "25", "--ngram-cap", "300", "--candidates", "10"]) == 0
        assert run_cli(["train-lm", "--input", str(fx.tgt_corpus), "--out", str(lm)]) == 0
        weights = tmp_path / "weights.txt"
        code = run_cli(["tune", "--table", str(fwd), "--rev-table", str(rev),
                        "--lm", str(lm), "--rev-lm", str(lm),
                        "--input", str(fx.src_corpus), "--out", str(weights),
                        "--dev-size", "5", "--sweeps", "1", "--beam", "4", "--options-limit", "4",
                        "--golden-iterations", "0"])
        assert code == 1
        assert "golden_iterations must be >= 1" in capsys.readouterr().err
        assert not weights.exists()

    @pytest.mark.parametrize(
        "flag, name, value", [("--tension", "align_tension", -2.0)]
    )
    def test_aligner_settings_must_not_be_negative(self, tmp_path, capsys, flag, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a finite number >= 0"):
            PipelineConfig(**{name: value})
        PipelineConfig(**{name: type(value)(0)})
        src = tmp_path / "src.txt"
        src.write_text("a b\nb a\n", encoding="utf-8")
        links = tmp_path / "links.txt"
        code = run_cli(["align", "--src", str(src), "--tgt", str(src), "--out", str(links),
                        flag, str(value)])
        assert code == 1
        assert f"{name} must be a finite number >= 0, got {value}" in capsys.readouterr().err
        assert not links.exists()


# Every subcommand's flags: option strings, dest, type and whether required.
# The PipelineConfig flags are built from the config's fields, so a field
# whose key, flag name or type changes shows here.
FLAGS = {
    "induce": [
        ("--method", "method", None, True),
        ("--src-emb", "src_emb", None, True),
        ("--tgt-emb", "tgt_emb", None, True),
        ("--queries", "queries", None, True),
        ("--out", "out", None, True),
        ("--temperature", "temperature", float, False),
        ("--csls-k", "csls_k", int, False),
        ("--top", "top", int, False),
    ],
    "phrase-table": [
        ("--config", "config", None, False),
        ("--src-corpus", "src_corpus", None, True),
        ("--tgt-corpus", "tgt_corpus", None, True),
        ("--src-emb", "src_emb", None, True),
        ("--tgt-emb", "tgt_emb", None, True),
        ("--out-fwd", "out_fwd", None, True),
        ("--out-rev", "out_rev", None, True),
        ("--out-tau", "out_tau", None, False),
        ("--vocab-size", "vocab_size", int, False),
        ("--ngram-cap", "ngram_cap", int, False),
        ("--candidates", "candidates", int, False),
        ("--reverse-sample", "reverse_sample", int, False),
        ("--seed", "phrase_seed", int, False),
    ],
    "train-lm": [
        ("--config", "config", None, False),
        ("--input", "input", None, True),
        ("--out", "out", None, True),
        ("--order", "lm_order", int, False),
        ("--discount", "lm_discount", float, False),
    ],
    "tune": [
        ("--config", "config", None, False),
        ("--table", "table", None, True),
        ("--rev-table", "rev_table", None, True),
        ("--lm", "lm", None, True),
        ("--rev-lm", "rev_lm", None, True),
        ("--input", "input", None, True),
        ("--out", "out", None, True),
        ("--dev-size", "dev_size", int, False),
        ("--seed", "dev_seed", int, False),
        ("--sweeps", "sweeps", int, False),
        ("--golden-iterations", "golden_iterations", int, False),
        ("--beam", "beam", int, False),
        ("--distortion-limit", "distortion_limit", int, False),
        ("--options-limit", "options_limit", int, False),
    ],
    "translate": [
        ("--config", "config", None, False),
        ("--table", "table", None, True),
        ("--lm", "lm", None, True),
        ("--weights", "weights", None, False),
        ("--input", "input", None, True),
        ("--out", "out", None, True),
        ("--out-src", "out_src", None, False),
        ("--cap", "corpus_cap", int, False),
        ("--beam", "beam", int, False),
        ("--distortion-limit", "distortion_limit", int, False),
        ("--options-limit", "options_limit", int, False),
        ("--workers", "workers", int, False),
    ],
    "align": [
        ("--config", "config", None, False),
        ("--src", "src", None, True),
        ("--tgt", "tgt", None, True),
        ("--out", "out", None, True),
        ("--counts", "counts", None, False),
        ("--iterations", "align_iterations", int, False),
        ("--tension", "align_tension", float, False),
        ("--null-prob", "align_null_prob", float, False),
    ],
    "dictionary": [
        ("--counts", "counts", None, True),
        ("--out", "out", None, True),
    ],
    "evaluate": [
        ("--pred", "pred", None, True),
        ("--gold", "gold", None, True),
    ],
    "pipeline": [
        ("--config", "config", None, True),
    ],
}


class TestFlags:
    @staticmethod
    def subparsers():
        action = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices

    def test_subcommands(self):
        assert list(self.subparsers()) == list(FLAGS)

    @pytest.mark.parametrize("command", list(FLAGS))
    def test_flags(self, command):
        got = [
            (*a.option_strings, a.dest, a.type, a.required)
            for a in self.subparsers()[command]._actions if a.dest != "help"
        ]
        assert got == FLAGS[command]
