#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and the baseline file.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1]
        [--workloads hot64,churn1024,ycsb_audit] [--write-baseline]

Runs perfbench/run.py once per seed on each workload (untraced, the
BENCHMARK.json run length), then prints for every end-to-end metric its
median, quartiles (statistics.quantiles(values, n=4)) and the quartile
spread as a share of the median, next to the metric's bound. A spread
above a third of its bound is flagged, as is any spread above the bound.
--write-baseline stores the host fingerprint, seeds and per-workload
figures in perfbench/baseline.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed: %s" % " ".join(cmd))
    lines = proc.stdout.splitlines()
    host = next((l for l in lines if l.startswith("host ")), "")
    return host, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    baseline = {"seeds": seeds, "run_seconds": bench["run_seconds"],
                "workloads": {}}
    worst = 0.0
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        started = time.time()
        for seed in seeds:
            host, result = run_once(workload, seed, bench["run_seconds"])
            baseline["host"] = host[len("host "):]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print("%s: %d runs in %.0f s" % (workload, len(seeds),
                                         time.time() - started))
        rows = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = values[name]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            worst = max(worst, spread / bound)
            flag = ""
            if spread > bound:
                flag = "  OVER BOUND"
            elif spread > bound / 3:
                flag = "  over bound/3"
            print("  %-16s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f"
                  " (bound %.2f)%s" % (name, med, q1, q3, spread, bound, flag))
            print("  %16s %s" % ("", " ".join("%.6g" % v for v in vals)))
            rows[name] = {"unit": metric["unit"], "median": med, "q1": q1,
                          "q3": q3, "spread": spread}
        baseline["workloads"][workload] = rows
    print("worst spread / bound: %.3f" % worst)
    if args.write_baseline:
        path = os.path.join(HERE, "baseline.json")
        with open(path, "w") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
            f.write("\n")
        print("wrote %s" % path)


if __name__ == "__main__":
    main()
