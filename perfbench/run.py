#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload tall_ls --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py ... --record results.jsonl   # keep the run for compare.py
    python3 perfbench/run.py --self-test                  # the benchmark's own tests

Run from anywhere inside a checkout of the repository. The library and the
benchmark program are built from the checkout's sources into .bench_build/ at
its root; the program's output is relayed, and its last line is the result object.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
PROGRAM = BUILD / "perfbench"
WORKLOADS = ("tall_ls", "wide_ls", "small_stream")
PROGRAM_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd):
    """Runs a build step with its output on stderr, so stdout stays the result."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"'{' '.join(cmd)}' failed with exit code {proc.returncode}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "core").is_dir():
        fail(f"no tiledqr sources in {ROOT}; the benchmark builds the library from them")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    run_quiet(["cmake", "--build", str(BUILD), "--target", "perfbench",
               "-j", str(os.cpu_count() or 1)])


def run_program(args):
    try:
        proc = subprocess.run([str(PROGRAM)] + args, stdout=subprocess.PIPE, text=True,
                              timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {PROGRAM_TIMEOUT_S} s")
    return proc


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="FILE",
                    help="append the run (result, host and configuration) to FILE as one JSON line")
    ap.add_argument("--self-test", action="store_true",
                    help="run the correctness-check and compare-mode tests")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    build()

    if args.self_test:
        check = run_program(["--self-test"])
        sys.stdout.write(check.stdout)
        unit = subprocess.run([sys.executable, "-m", "unittest", "-q", "test_compare"],
                              cwd=str(HERE))
        sys.exit(1 if check.returncode or unit.returncode else 0)

    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = BUILD / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--span-out", str(spans / f"{args.workload}-seed{args.seed}.json")]
    proc = run_program(cmd)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"perfbench exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(proc.stdout)
        fail("perfbench printed no result line")
    detail = next((json.loads(l)["detail"] for l in lines if l.startswith('{"detail"')), {})

    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"detail": detail, "result": result}) + "\n")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
