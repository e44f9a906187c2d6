#!/usr/bin/env python3
"""Builds and runs the PDM wall-clock benchmark.

Usage, from the root of a checkout:

  python3 pdmbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 pdmbench/run.py --selftest

The benchmark is a CMake package of its own (pdmbench/CMakeLists.txt)
that compiles the repository's library tree from source. The build goes
to $CARGO_TARGET_DIR/pdmbench (default .bench_build/pdmbench); the first
run configures and builds it, later runs only check it is up to date.
The last line of standard output is the benchmark's JSON result.
--selftest builds and runs the benchmark's own tests instead.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Per-run ceiling: the driver allows 180 s; the binary itself stops its
# phases long before this.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "pdmbench"


def build(targets):
    """Configures (once) and builds `targets`; output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("pdmbench: no program sources at %s/src" % ROOT)
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "-j", BUILD_JOBS, "--target"] + targets,
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def run(cmd):
    """Runs `cmd`, forwarding its stdout; returns its exit code."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        print("pdmbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        out = build(["pdm_bench", "pdm_bench_test"])
        code = run([str(out / "pdm_bench_test")])
        if code != 0:
            return code
        env = dict(os.environ, PDM_BENCH_BIN=str(out / "pdm_bench"))
        return subprocess.run(
            [sys.executable, str(HERE / "tests" / "test_names.py")],
            env=env).returncode

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    try:
        out = build(["pdm_bench"])
    except (subprocess.CalledProcessError, OSError) as e:
        print("pdmbench: build failed: %s" % e, file=sys.stderr)
        return 1
    trace_dir = out / "traces"
    trace_dir.mkdir(exist_ok=True)
    trace_file = trace_dir / ("%s-seed%d.json" % (args.workload, args.seed))
    return run([str(out / "pdm_bench"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--trace-file", str(trace_file)])


if __name__ == "__main__":
    sys.exit(main())
