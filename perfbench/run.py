"""Benchmark for lexinduct: end-to-end time, memory and P@1 per workload,
and per-layer figures from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run it from the root of a checkout: it imports the program from `src/` and
reads the metric list from `BENCHMARK.json`. It generates the workload's
inputs from the seed, then repeats one cold run of the workload, each in a
fresh process on a fresh work dir, until `--seconds` have passed (at least
three repetitions), and reports medians. With `--trace 1` the repetitions
alternate between untraced and traced; the traced ones give the per-layer
metrics, and the difference between the two medians of `wall_s` is the
tracing overhead. Every exception and every failed output check counts as a
failed operation. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from rep import METHODS
from workloads import WORKLOADS, make_cipher

HERE = Path(__file__).resolve().parent
MIN_REPS = 3
# On the pipeline workloads the substitution, grammar and embeddings come
# from this seed and `--seed` draws the corpus, so P@1 moves across seeds
# only as much as a new corpus sample moves it. The retrieval workload reads
# no corpus; there `--seed` draws the embeddings.
LANGUAGE_SEED = 7
RUN_BUDGET_S = 165.0  # a run must end within 180 s


def run_rep(spec: dict, rep_dir: Path, timeout: float) -> dict:
    """Run rep.py in its own process group; kill the group on timeout."""
    spec_path = rep_dir / "spec.json"
    result_path = rep_dir / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), str(spec_path), str(result_path)],
        stdout=sys.stderr, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code is None:
        raise RuntimeError(f"repetition timed out after {timeout:.0f} s")
    if code != 0:
        raise RuntimeError(f"repetition exited with code {code}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def probe_ms() -> float:
    """Time of a fixed pure-Python loop: how fast the shared machine runs now."""
    t = perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return (perf_counter() - t) * 1e3


def median(values):
    return statistics.median(values) if values else 0.0


def self_check(work: Path) -> int:
    """Compare this generator with tests/conftest.py::make_cipher at its defaults."""
    spec = importlib.util.spec_from_file_location("conftest", "tests/conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    sys.modules["conftest"] = conftest
    spec.loader.exec_module(conftest)
    ours = make_cipher(work / "perfbench")
    theirs = conftest.make_cipher(work / "tests")
    same = True
    for field in ("src_corpus", "tgt_corpus", "src_embeddings", "tgt_embeddings", "gold"):
        a, b = getattr(ours, field), getattr(theirs, field)
        equal = a.read_bytes() == b.read_bytes()
        same &= equal
        print(f"{'same' if equal else 'DIFFERENT'} {a.name}")
    print("generator matches tests/conftest.py::make_cipher" if same else "generator differs")
    return 0 if same else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    # On SIGTERM, unwind through the `finally` blocks that kill the current
    # repetition's process group and remove the work dir.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    src = root / "src"
    if not (src / "lexinduct" / "__init__.py").is_file():
        print(f"error: no lexinduct sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.self_check:
        work = root / ".bench_work" / f"self-check-{os.getpid()}"
        try:
            return self_check(work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    if args.workload is None:
        parser.error("--workload is required")
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = WORKLOADS[args.workload]
    kind = "pipeline" if workload.pipeline is not None else "retrieval"
    base = root / ".bench_work" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    spans = root / ".bench_work" / "spans" / f"{workload.name}-seed{args.seed}.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    began = perf_counter()
    attempted = failed = 0
    checks: dict[str, list[bool]] = {}

    def repetition(name: str, kind: str, traced: bool) -> dict | None:
        """One repetition, with its operations and checks tallied."""
        nonlocal attempted, failed
        rep_dir = base / name
        rep_dir.mkdir()
        rep_spec = {
            "kind": kind, "traced": traced, "src": str(src), "inputs": inputs,
            "work_dir": str(rep_dir / "work"), "config": workload.pipeline, "spans": str(spans),
        }
        try:
            rep = run_rep(rep_spec, rep_dir, RUN_BUDGET_S - (perf_counter() - began))
        except (RuntimeError, OSError, ValueError) as exc:
            print(f"repetition {name} failed: {exc}", file=sys.stderr)
            attempted += 1
            failed += 1
            return None
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)
        rep["traced"] = traced
        attempted += rep["operations"] + len(rep["checks"])
        for check, ok in rep["checks"].items():
            checks.setdefault(check, []).append(ok)
            failed += not ok
        return rep

    try:
        language_seed = LANGUAGE_SEED if kind == "pipeline" else args.seed
        cipher = make_cipher(base / "inputs", seed=language_seed, corpus_seed=args.seed, **workload.cipher)
        inputs = {
            "src_corpus": str(cipher.src_corpus),
            "tgt_corpus": str(cipher.tgt_corpus),
            "src_embeddings": str(cipher.src_embeddings),
            "tgt_embeddings": str(cipher.tgt_embeddings),
            "gold_src2tgt": str(cipher.gold),
        }
        # The pipeline workloads report the retrieval methods' P@1 on the
        # same embeddings; that repetition is not timed.
        retrieval = repetition("retrieval", "retrieval", False) if kind == "pipeline" else None
        reps: list[dict] = []
        probes: list[float] = []
        start = perf_counter()
        index = 0
        while True:
            t = perf_counter()
            rep = repetition(f"rep{index}", kind, bool(args.trace) and index % 2 == 1)
            if rep is not None:
                reps.append(rep)
            probes.append(probe_ms())
            index += 1
            now = perf_counter()
            if now - began + (now - t) > RUN_BUDGET_S:
                break
            if index >= MIN_REPS and now - start + (now - t) > args.seconds and not (args.trace and index % 2):
                break

        for name, key in (("output digests identical across repetitions", "digests"),
                          ("p_at_1 identical across repetitions", "p_at_1")):
            same = [rep[key] == reps[0][key] for rep in reps[1:]]
            checks[name] = same
            attempted += len(same)
            failed += same.count(False)
        if not reps or (kind == "pipeline" and retrieval is None):
            print("error: no result to report", file=sys.stderr)
            return 1

        untraced = [r for r in reps if not r["traced"]]
        traced_reps = [r for r in reps if r["traced"]]
        by_method = (retrieval or reps[0])["p_at_1_by_method"]
        values = {
            "wall_s": median([r["wall_s"] for r in untraced]),
            "setup_s": median([r["setup_s"] for r in untraced]),
            "peak_rss_mib": median([max(r["self_rss_mib"], r["worker_rss_mib"]) for r in untraced]),
            "p_at_1": reps[0]["p_at_1"],
            **{f"p_at_1.{m}": by_method[m] for m in METHODS},
        }
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            values.update({n: median([r["layer"].get(n, 0.0) for r in traced_reps]) for n in names})
            values["trace.overhead_s"] = median([r["wall_s"] for r in traced_reps]) - values["wall_s"]
            values["memory.self_rss_mib"] = median([r["self_rss_mib"] for r in traced_reps])

        print(f"workload {workload.name}, seed {args.seed}: {len(untraced)} untraced and "
              f"{len(traced_reps)} traced repetitions in {perf_counter() - start:.1f} s")
        for metric in spec["end_to_end"] + (spec["per_layer"] if args.trace else []):
            print(f"  {metric['name']:<40} {values[metric['name']]:.6g} {metric['unit']}")
        print("  wall_s of each repetition: " + ", ".join(
            f"{r['wall_s']:.3f}{' (traced)' if r['traced'] else ''}" for r in reps))
        print("  machine probe after each repetition (fixed loop, ms): " + ", ".join(f"{p:.1f}" for p in probes))
        print("checks:")
        for name, oks in checks.items():
            print(f"  {'PASS' if all(oks) else 'FAIL'} {name} ({oks.count(True)}/{len(oks)})")
        for name, digest in reps[0]["digests"].items():
            print(f"  sha256 {name} {digest}")
        print(f"operations: {attempted} attempted, {failed} failed")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
        }))
        return 0
    finally:
        shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
