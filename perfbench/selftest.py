#!/usr/bin/env python3
"""Smoke self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root. For every workload, with --seconds 0.1, so
that an untraced run makes only its fixed timed reps and a traced run one
untraced/traced pair:
  * two untraced runs with the same seed print identical deterministic
    counts, and their result JSON carries exactly BENCHMARK.json's
    end-to-end metrics with its units;
  * the report prints commits_per_s, setup_s, commit_p50_us,
    commit_p99_us, failed_frac, msgs_per_commit and peak_rss_mib, each
    with a unit and a sample count;
  * a traced run passes the traced = untraced gate and its JSON carries
    exactly the per-layer metrics with their units.
Finally, a copy holding only BENCHMARK.json and perfbench/ (no library
sources) must fail without printing a result. Exits 0 when all hold.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run as bench  # noqa: E402  (perfbench/run.py)

WORKLOADS = ["hot64", "churn1024", "ycsb_audit"]
REPORTED = ["commits_per_s", "setup_s", "commit_p50_us", "commit_p99_us",
            "failed_frac", "msgs_per_commit", "peak_rss_mib"]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0.1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def metric_units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for workload in WORKLOADS:
        runs = [run(workload, 0) for _ in range(2)]
        codes = [code for code, _, _ in runs]
        check(codes == [0, 0], "%s: untraced runs exit 0" % workload)
        if codes != [0, 0]:
            sys.stderr.write(runs[0][2] + runs[1][2])
            continue
        counts = [[l for l in lines if l.startswith("counts ")]
                  for _, lines, _ in runs]
        check(counts[0] and counts[0] == counts[1],
              "%s: same seed, identical counts" % workload)
        result = bench.parse_result(runs[0][1][-1])
        check(result is not None and metric_units(result) == end_to_end,
              "%s: result JSON has the end-to-end metrics and units" % workload)
        report = [l.split() for l in runs[0][1] if l.startswith("metric ")]
        for name in REPORTED:
            row = next((r for r in report if r[1] == name), None)
            check(row is not None and len(row) >= 5 and row[4].startswith("("),
                  "%s: report prints %s with unit and sample count"
                  % (workload, name))

        code, lines, err = run(workload, 1)
        check(code == 0 and any(l.startswith("counts traced=untraced")
                                for l in lines),
              "%s: traced run reproduces the untraced counts" % workload)
        if code != 0:
            sys.stderr.write(err)
            continue
        result = bench.parse_result(lines[-1])
        check(result is not None and metric_units(result) == per_layer,
              "%s: traced JSON has the per-layer metrics and units" % workload)

    bare = os.path.join(bench.build_dir(), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hot64", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without library sources: nonzero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
