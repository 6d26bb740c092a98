#!/usr/bin/env python3
"""Compare two BENCH_*.json files (benchutil/harness emission) and flag
performance regressions, so the perf trajectory accumulates across PRs
instead of living in one-off terminal scrollback.

Usage:
  perf_diff.py BASELINE.json CURRENT.json [--threshold-pct N] [--fail]
               [--require LABEL>=VALUE ...]

Records are matched by label. Direction is inferred from the label:
  * lower-is-better:  contains "false_accept", "ns", "_s", "(s)", "seconds"
  * higher-is-better: contains "speedup", "_x", "per_s", "q/s", "rate"
  * otherwise: informational only (reported, never failed on)

A regression is a directional metric that got worse by more than
--threshold-pct percent (default 25), where "worse" is measured as a
RATIO in the metric's bad direction — current/baseline for lower-is-better,
baseline/current for higher-is-better — so a speedup collapsing from 2.2x
to 0.1x registers as 2100% worse, not as a -95% change capped at 100%.
With --fail the exit code is 1 when any regression is found — CI compares
a smoke run against the checked-in bench/baselines/BENCH_e13.json with a
generous threshold, since absolute numbers move between machines;
same-machine comparisons can use a tight one. Labels present in only one
file are WARNED about (a record silently vanishing from the current run
would otherwise hide a regression behind baseline drift); under
--fail --strict-labels the warning is an error and the exit code is 1.

--require LABEL>=VALUE (repeatable) is a floor on one record of the
current run, independent of the baseline: it is for same-run ratios (a
speedup of one path over another measured in the same process), which do
not move with the machine the way absolute times do. A record below its
floor, or missing, is reported; under --fail it makes the exit code 1.
"""

import argparse
import json
import sys


def load_records(path):
    with open(path) as f:
        doc = json.load(f)
    records = {}
    for rec in doc.get("records", []):
        value = rec.get("mean") if rec.get("kind") == "scalar" else rec.get("rate")
        if rec.get("label") is not None and value is not None:
            records[rec["label"]] = float(value)
    return doc.get("experiment", "?"), records


def direction_of(label):
    lab = label.lower()
    # Power metrics first: a false-accept RATE must count as lower-is-better
    # before the generic "rate" token claims it.
    if "false_accept" in lab:
        return "lower"
    # Ratio/throughput metrics next: "speedup_x" also contains "_s".
    if any(tok in lab for tok in ("speedup", "_x", "per_s", "q/s", "rate")):
        return "higher"
    if any(tok in lab for tok in ("ns", "_s", "(s)", "seconds")):
        return "lower"
    return None


def parse_requirement(text):
    label, sep, value = text.partition(">=")
    if not sep or not label.strip():
        raise argparse.ArgumentTypeError(
            f"expected LABEL>=VALUE, got {text!r}")
    try:
        return label.strip(), float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number after '>=' in {text!r}") from None


def main():
    parser = argparse.ArgumentParser(
        description="diff two BENCH_*.json files and flag regressions")
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold-pct", type=float, default=25.0,
                        help="allowed adverse move before a metric counts as "
                             "a regression (percent, default 25)")
    parser.add_argument("--fail", action="store_true",
                        help="exit 1 if any regression exceeds the threshold")
    parser.add_argument("--strict-labels", action="store_true",
                        help="with --fail, also exit 1 when the two files do "
                             "not carry the same label set")
    parser.add_argument("--require", action="append", default=[],
                        type=parse_requirement, metavar="LABEL>=VALUE",
                        help="floor on one current-run record (repeatable); "
                             "with --fail, a record below it or missing "
                             "exits 1")
    args = parser.parse_args()

    base_name, base = load_records(args.baseline)
    cur_name, cur = load_records(args.current)
    print(f"baseline: {args.baseline} ({base_name})")
    print(f"current:  {args.current} ({cur_name})")
    print()

    width = max([len(l) for l in set(base) | set(cur)] + [5])
    print(f"{'label':<{width}}  {'baseline':>12}  {'current':>12}  "
          f"{'delta%':>8}  verdict")
    regressions = []
    extra_labels = []
    missing_labels = []
    for label in sorted(set(base) | set(cur)):
        if label not in base:
            extra_labels.append(label)
            print(f"{label:<{width}}  {'-':>12}  {cur[label]:>12.4g}  "
                  f"{'-':>8}  new (not in baseline)")
            continue
        if label not in cur:
            missing_labels.append(label)
            print(f"{label:<{width}}  {base[label]:>12.4g}  {'-':>12}  "
                  f"{'-':>8}  missing from current")
            continue
        b, c = base[label], cur[label]
        delta_pct = (c - b) / b * 100.0 if b != 0 else float("inf")
        direction = direction_of(label)
        if direction is None:
            verdict = "info"
        else:
            # Adverse ratio > 1 means the metric got worse in its bad
            # direction; percent deltas would cap at 100% for collapsing
            # higher-is-better metrics and evade any threshold >= 100.
            if b == c:
                adverse = 1.0  # unchanged, including 0 -> 0 (power rates)
            elif b > 0 and c > 0:
                adverse = (c / b) if direction == "lower" else (b / c)
            elif direction == "lower":
                adverse = float("inf") if c > b else 0.0
            else:
                adverse = float("inf") if c < b else 0.0
            bar = 1.0 + args.threshold_pct / 100.0
            if adverse > bar:
                verdict = "REGRESSION"
                regressions.append((label, b, c, delta_pct))
            elif adverse < 1.0 / bar:
                verdict = "improved"
            else:
                verdict = "ok"
        print(f"{label:<{width}}  {b:>12.4g}  {c:>12.4g}  {delta_pct:>7.1f}%  "
              f"{verdict}")

    print()
    label_drift = False
    if missing_labels:
        label_drift = True
        print(f"WARNING: {len(missing_labels)} baseline label(s) missing from "
              f"current: {', '.join(missing_labels)}", file=sys.stderr)
    if extra_labels:
        label_drift = True
        print(f"WARNING: {len(extra_labels)} current label(s) not in baseline: "
              f"{', '.join(extra_labels)}", file=sys.stderr)
    if label_drift and not (args.fail and args.strict_labels):
        print("(label drift is a warning; use --fail --strict-labels to make "
              "it fatal)", file=sys.stderr)

    failed = False
    if regressions:
        print(f"{len(regressions)} regression(s) beyond "
              f"{args.threshold_pct:g}%:")
        for label, b, c, delta in regressions:
            print(f"  {label}: {b:.4g} -> {c:.4g} ({delta:+.1f}%)")
        failed = args.fail
    else:
        print(f"no regressions beyond {args.threshold_pct:g}%")
    if args.fail and args.strict_labels and label_drift:
        print("perf_diff: failing on label drift (--strict-labels)",
              file=sys.stderr)
        failed = True
    for label, floor in args.require:
        if label not in cur:
            print(f"require {label} >= {floor:g}: MISSING from current")
            failed = failed or args.fail
        elif cur[label] < floor:
            print(f"require {label} >= {floor:g}: FAILED ({cur[label]:.4g})")
            failed = failed or args.fail
        else:
            print(f"require {label} >= {floor:g}: ok ({cur[label]:.4g})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
