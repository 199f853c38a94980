#!/usr/bin/env python3
"""Steady-state benchmark entry point.

    python3 perfbench/run.py --workload hot64|churn1024|ycsb_audit \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (and the library sources it
compiles) in Release mode under $CARGO_TARGET_DIR (default .bench_build),
runs one benchmark process, and relays its report. The last stdout line is
the result JSON; it is printed only when the run passed every correctness
gate. Any failure (build, gate, malformed output, timeout) exits nonzero
with the diagnostics on stderr and no result line.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark process runs for --seconds or its fixed timed reps (about
# 12-40 s on a shared 4-core Xeon), whichever is longer, plus one rep. The margin covers a slow host
# and still ends a hung run.
RUN_MARGIN_S = 140


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "steady_bench", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.close()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("perfbench: build failed: %s\n" % " ".join(step))
                return None
    return os.path.join(out, "steady_bench")


def parse_result(line):
    """The result JSON, or None when the line is not a well-formed result."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    if result["correct"] is not True or not isinstance(result["metrics"], dict):
        return None
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return None
    return result


def run(binary, args):
    """Runs the benchmark; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    timeout = args.seconds + RUN_MARGIN_S
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write("perfbench: run exceeded %.0f s\n" % timeout)
        return 1, []
    return proc.returncode, stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["hot64", "churn1024", "ycsb_audit"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    code, lines = run(binary, args)
    result = parse_result(lines[-1]) if lines else None
    if code != 0 or result is None:
        sys.stderr.write("\n".join(lines) + "\n")
        sys.stderr.write("perfbench: benchmark failed (exit %d)\n" % code)
        return code or 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
