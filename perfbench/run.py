#!/usr/bin/env python3
"""Run one histkd benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload cold_miss --seed 1 --trace 0

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
repository's library and histkd from source) into .bench_build/, then runs
perfbench_driver, which starts histkd, sets it up, drives the workload for
--seconds (BENCHMARK.json's run_seconds unless given) and checks every
response. The last stdout line is one JSON object: {"correct", "attempted",
"failed", "metrics"} with the end-to-end metrics (--trace 0) or the
per-layer metrics (--trace 1) that BENCHMARK.json lists. Run details, span files and the daemon log go to
.bench_build/runs/.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "cmake")
RUN_DIR = os.path.join(".bench_build", "runs")
TARGETS = ["histkd", "perfbench_driver", "perfbench_selftest"]
SOURCES = ["CMakeLists.txt", "src", os.path.join("tools", "histkd.cc"),
           os.path.join("perfbench", "CMakeLists.txt")]
# A first run (cold build plus one measured run) must end within 900 s and
# every later one within 180 s.
BUILD_TIMEOUT_S = 700
DRIVER_TIMEOUT_S = 165


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] + TARGETS)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        remaining = deadline - time.monotonic()
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=max(1.0, remaining))
        if result.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(step))


def stop_group(pgid):
    """Kills whatever the driver left in its process group and waits."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bench = load_bench()
    seconds = args.seconds or bench["run_seconds"]
    expected = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]

    os.chdir(ROOT)
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        log("histk sources not found next to perfbench/ (missing: %s)" % ", ".join(missing))
        return 2
    try:
        build()
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as e:
        log(str(e))
        return 1

    os.makedirs(RUN_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--histkd", os.path.join(BUILD_DIR, "histk", "histkd"),
           "--run-dir", RUN_DIR]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        log("driver timed out")
        return 1
    finally:
        stop_group(proc.pid)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        log("driver failed with exit code %d" % proc.returncode)
        return 1

    result = json.loads(lines[-1])
    names = list(result.get("metrics", {}))
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or \
            names != expected:
        log("driver result does not match BENCHMARK.json: %s" % lines[-1])
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
