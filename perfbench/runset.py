#!/usr/bin/env python3
"""Run one workload at several seeds and summarize the run set.

    python3 perfbench/runset.py --workload cold_miss --seeds 1-10
    python3 perfbench/runset.py --workload hit_read --seeds 3,5,8 --trace 1

Runs perfbench/run.py once per seed (BENCHMARK.json's run_seconds unless
--seconds is given), then prints for every metric the run-set median,
quartiles, the quartile spread as a share of the median against
BENCHMARK.json's bound, and each run's sample count; then each kind's
latency histogram merged over the runs, and every percentile flagged in a
run (fewer than 10 samples beyond it, or sitting in an empty histogram
gap). Exits non-zero if a run fails or is incorrect.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_DIR = os.path.join(ROOT, ".bench_build", "runs")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    details = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.stdout.write(proc.stdout)
            print("seed %d: run failed (exit %d)" % (seed, proc.returncode))
            return 1
        path = os.path.join(RUN_DIR, "%s-seed%d-trace%d.json" % (args.workload, seed, args.trace))
        with open(path) as f:
            detail = json.load(f)
        result = detail["result"]
        print("seed %d: correct=%s attempted=%d failed=%d host steal %.1f%%" %
              (seed, result["correct"], result["attempted"], result["failed"],
               100 * detail["steal_share"]), flush=True)
        if not result["correct"]:
            sys.stdout.write(proc.stdout)
            return 1
        details.append(detail)

    print("\n%s, %d runs of %g s (trace %d)" % (args.workload, len(details), seconds, args.trace))
    print("%-30s %12s %12s %12s %8s %6s  %s" %
          ("metric", "median", "q1", "q3", "spread", "bound", "samples per run"))
    for name in details[0]["metrics"]:
        values = [d["metrics"][name]["value"] for d in details]
        samples = [d["metrics"][name]["samples"] for d in details]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        spread = (q3 - q1) / median if median else 0.0
        bound = declared.get(name, {}).get("bound")
        verdict = ""
        if bound is not None:
            verdict = "ok" if spread < bound / 3 else ("WIDE" if spread <= bound else "FAIL")
        print("%-30s %12.6g %12.6g %12.6g %8.4f %6s  %s %s" %
              (name, median, q1, q3, spread, "" if bound is None else bound,
               ",".join(str(s) for s in samples), verdict))
        for d in details:
            note = d["metrics"][name].get("note", "")
            if "FLAG" in note:
                print("    seed %d: %s" % (d["seed"], note))

    print("\nper-kind latency, merged over the runs (us):")
    kinds = {}
    for d in details:
        for kind, buckets in d["histograms_us"].items():
            merged = kinds.setdefault(kind, {})
            for lower, count in buckets:
                merged[lower] = merged.get(lower, 0) + count
    for kind, merged in kinds.items():
        total = sum(merged.values())
        print("  %s: %d samples" % (kind, total))
        for lower in sorted(merged):
            print("    >= %10.1f us: %d" % (lower, merged[lower]))
    cpu = [d["client_cpu_ms_per_req"] for d in details]
    print("\nclient cpu per request (ms): median %.6g" % statistics.median(cpu))
    return 0


if __name__ == "__main__":
    sys.exit(main())
