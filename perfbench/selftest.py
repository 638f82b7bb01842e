#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/selftest.py

Builds the benchmark (as run.py does) and checks, on small inputs:

  1. determinism: the same seed gives the same output digest on a small
     scale-set at 1 and at 4 threads, and another seed gives another one;
  2. tracing: the recorded spans nest inside their parents, the children
     of each pass tile it within a few percent, and at one thread the
     pipeline phases plus pipeline.unattributed_s tile the anonymize span;
  3. inputs: the seed is a required argument, and a run from an empty
     directory succeeds, so the program reads nothing but generated
     inputs;
  4. exit status: failed files do not change it, and with --strict 1 the
     run exits 1 exactly when some file failed.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py: the shared build step)

TILE_TOLERANCE = 0.05
SMALL_SCALE = ["--scale", "0.02"]

failures = []


def check(condition, message):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def bench(binary, work_dir, *args, cwd=None):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    command = [binary, "--work-dir", work_dir, "--seconds", "1", *args]
    done = subprocess.run(command, capture_output=True, text=True, cwd=cwd,
                          timeout=300)
    return done.returncode, done.stdout.strip().splitlines()


def digest_of(lines):
    for line in lines:
        if line.startswith("digest "):
            return line.split()[1]
    return None


def metrics_of(lines):
    return {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}


def check_spans(path, label):
    with open(path) as handle:
        spans = json.load(handle)
    by_id = {s["args"]["id"]: s for s in spans}
    nested = True
    for span in spans:
        parent = by_id.get(span["args"]["parent"])
        if parent is None:
            continue
        if (span["ts"] < parent["ts"] - 1 or
                span["ts"] + span["dur"] > parent["ts"] + parent["dur"] + 1):
            nested = False
    check(nested, f"{label}: every span lies inside its parent")
    passes = [s for s in spans if s["name"] == "pass"]
    worst = 0.0
    for span in passes:
        children = sum(s["dur"] for s in spans
                       if s["args"]["parent"] == span["args"]["id"])
        worst = max(worst, abs(1.0 - children / span["dur"]))
    check(not passes or worst <= TILE_TOLERANCE,
          f"{label}: pass children tile the pass (worst gap {worst:.1%})")
    return spans


def main():
    build_dir = os.path.join(run.ROOT, ".bench_build", "perfbench")
    binary = run.build(build_dir)
    work = tempfile.mkdtemp(prefix="selftest-", dir=build_dir)
    try:
        # 1. Determinism across thread counts and seeds.
        digests = {}
        for threads in ("1", "4"):
            code, out = bench(binary, work, "--workload", "scale-set",
                              "--seed", "7", "--trace", "0", "--threads",
                              threads, "--max-passes", "1", *SMALL_SCALE)
            check(code == 0, f"scale-set seed 7 at {threads} threads exits 0")
            digests[threads] = digest_of(out)
        check(digests["1"] is not None and digests["1"] == digests["4"],
              f"same digest at 1 and 4 threads ({digests['1']}, "
              f"{digests['4']})")
        _, out = bench(binary, work, "--workload", "scale-set", "--seed", "8",
                       "--trace", "0", "--max-passes", "1", *SMALL_SCALE)
        check(digest_of(out) not in (None, digests["1"]),
              "another seed gives another digest")

        # 2. Spans nest and tile; phases + unattributed tile at 1 thread.
        spans_path = os.path.join(work, "scale-set.json")
        code, out = bench(binary, work, "--workload", "scale-set", "--seed",
                          "7", "--trace", "1", "--threads", "1",
                          "--max-passes", "2", "--spans-out", spans_path,
                          *SMALL_SCALE)
        check(code == 0, "traced scale-set exits 0")
        spans = check_spans(spans_path, "scale-set")
        metrics = metrics_of(out)
        anonymize = [s["dur"] / 1e6 for s in spans
                     if s["name"] == "pipeline.anonymize_set"]
        phases = sum(metrics[f"pipeline.{p}_s"]
                     for p in ("preload", "prewarm", "anonymize", "join"))
        tiled = phases + metrics["pipeline.unattributed_s"]
        check(bool(anonymize) and
              abs(tiled - anonymize[0]) <= TILE_TOLERANCE * anonymize[0],
              f"phases + unattributed ({tiled:.4f} s) tile the anonymize "
              f"span ({anonymize[0] if anonymize else 0:.4f} s)")
        # The per-network context builds inside AnonymizeNetworkSet sit
        # outside every phase: they show as unattributed, never negative
        # at one thread (phases do not overlap there).
        check(metrics["pipeline.unattributed_s"] >= -TILE_TOLERANCE *
              anonymize[0], "scale-set phases do not overlap at one thread")

        spans_path = os.path.join(work, "network-t1.json")
        code, out = bench(binary, work, "--workload", "network-t1", "--seed",
                          "7", "--trace", "1", "--routers", "120",
                          "--max-passes", "2", "--spans-out", spans_path)
        check(code == 0, "traced network-t1 exits 0")
        spans = check_spans(spans_path, "network-t1")
        metrics = metrics_of(out)
        anonymize = [s["dur"] / 1e6 for s in spans
                     if s["name"] == "pipeline.anonymize_corpus"]
        share = metrics["pipeline.unattributed_s"] / max(min(anonymize), 1e-9)
        check(abs(share) <= TILE_TOLERANCE,
              f"network-t1 phases tile AnonymizeCorpus ({share:.1%} "
              "unattributed)")

        spans_path = os.path.join(work, "daemon.json")
        code, out = bench(binary, work, "--workload", "daemon", "--seed", "7",
                          "--trace", "1", "--spans-out", spans_path)
        check(code == 0, "traced daemon exits 0")
        check_spans(spans_path, "daemon")

        # 3. The seed is an argument; nothing but generated inputs is read.
        done = subprocess.run([binary, "--workload", "scale-set",
                               "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True)
        check(done.returncode == 2 and not done.stdout,
              "a run without --seed is refused before any output")
        empty = tempfile.mkdtemp(prefix="empty-", dir=build_dir)
        code, out = bench(binary, os.path.join(empty, "work"), "--workload",
                          "network-t1", "--seed", "7", "--trace", "0",
                          "--routers", "24", "--max-passes", "1", cwd=empty)
        check(code == 0 and json.loads(out[-1])["attempted"] > 0,
              "a run from an empty directory needs no input files")
        shutil.rmtree(empty, ignore_errors=True)

        # 4. --strict turns per-file failures into a failed run.
        for strict in ("0", "1"):
            code, out = bench(binary, work, "--workload", "network-t1",
                              "--seed", "7", "--trace", "0", "--routers",
                              "100", "--max-passes", "1", "--strict", strict)
            failed = json.loads(out[-1])["failed"]
            expected = 1 if strict == "1" and failed > 0 else 0
            check(code == expected, f"--strict {strict} with {failed} failed "
                  f"file(s) exits {expected}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
