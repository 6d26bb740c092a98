#!/usr/bin/env python3
"""Schema checks for histk's machine-readable JSON surfaces.

Usage:
  check_report_json.py REPORT.json [TASK]     # Engine report (histk_cli --json)
  check_report_json.py --response FILE        # histkd NDJSON response lines
  check_report_json.py --request FILE         # histkd NDJSON request lines
  check_report_json.py --stats FILE           # histkd stats payload object

Report mode validates the structural contract of AppendReportJson
(src/engine/engine.cc): required top-level fields, the telemetry block, the
resilience triple (status / degraded / retries — see src/engine/runtime.h),
and the per-task payload. Degraded reports (deadline, cancellation, fault
exhaustion, governor rejection) must still be schema-valid: typed outcome,
status consistent with it, and at most a best-effort "reduced" tiling in
place of the payload. TASK, when given, must match the report's "task"
field.

Response mode validates every line of a histkd session transcript against
the envelope contract of WriteResponseJson (src/api/request.h): the
histkd_response marker, the status/degraded/retries triple, the cache
column (estimate hits must charge zero oracle draws), unavailable responses
carrying retry_after_ms, and any embedded report re-checked with the full
report validator — so `response["report"]` obeys exactly the schema the CLI
reports do.

Request mode validates NDJSON request lines (tests/data fixtures, CI
traffic generators) field-by-field against the ParseRequestJson schema, and
stats mode validates the `stats` payload shape plus the counter
conservation invariant (total == per-kind counts + no-kind parse errors).

Exits nonzero with a message on the first violation, so CI can assert on
structured output instead of grepping text.
"""
import json
import sys

OUTCOMES = {
    "ok",
    "accepted",
    "rejected",
    "budget-exhausted",
    "deadline-exceeded",
    "cancelled",
    "unavailable",
}
# Outcomes that mark a degraded session: the run was cut short and the
# payload is replaced by best-effort state (optionally a "reduced" tiling).
DEGRADED_OUTCOMES = {
    "budget-exhausted",
    "deadline-exceeded",
    "cancelled",
    "unavailable",
}
# outcome -> required "status" string (TaskOutcomeStatus in engine.cc;
# names pinned by tests/status_test.cc).
OUTCOME_STATUS = {
    "ok": "ok",
    "accepted": "ok",
    "rejected": "ok",
    "budget-exhausted": "budget-exhausted",
    "deadline-exceeded": "deadline-exceeded",
    "cancelled": "cancelled",
    "unavailable": "unavailable",
}
TASKS = {"learn", "test", "compare", "estimate", "property-test", "closeness"}

# The wire request/response vocabulary (src/api/request.h).
REQUEST_KINDS = TASKS | {"stats", "shutdown"}
STATUS_CODES = {
    "ok",
    "invalid-argument",
    "parse-error",
    "budget-exhausted",
    "internal",
    "deadline-exceeded",
    "cancelled",
    "unavailable",
}
DEGRADED_STATUS = {
    "budget-exhausted",
    "deadline-exceeded",
    "cancelled",
    "unavailable",
}
CACHE_STATES = {"hit", "miss", "bypass"}
REQUEST_FIELDS = {
    "id",
    "kind",
    "k",
    "k2",
    "eps",
    "norm",
    "scale",
    "full_enum",
    "reduce",
    "seed",
    "budget",
    "deadline_ms",
    "max_retries",
    "draw_threads",
    "quantiles",
    "ranges",
    "n",
    "reservoir",
    "dataset",
    "other",
}
DATASET_SOURCES = {"items", "path", "sketch", "fingerprint"}


def fail(msg):
    print(f"check_report_json: {msg}", file=sys.stderr)
    sys.exit(1)


def require(cond, msg):
    if not cond:
        fail(msg)


def check_tiling(t, where):
    require(isinstance(t, dict), f"{where} must be an object")
    for key in ("n", "k", "right_ends", "values"):
        require(key in t, f"{where}.{key} missing")
    require(len(t["right_ends"]) == t["k"], f"{where}: k != len(right_ends)")
    require(len(t["values"]) == t["k"], f"{where}: k != len(values)")
    require(t["right_ends"][-1] == t["n"] - 1, f"{where}: last end != n-1")
    require(
        all(b > a for a, b in zip(t["right_ends"], t["right_ends"][1:])),
        f"{where}: right_ends not ascending",
    )


def check_report(report, expected_task=None, where="report"):
    """The full Engine-report contract; shared by report and response modes."""
    require(report.get("histk_report") == 1, f"{where}: histk_report != 1")
    task = report.get("task")
    require(task in TASKS, f"{where}: unknown task {task!r}")
    if expected_task is not None:
        require(task == expected_task,
                f"{where}: task {task!r} != expected {expected_task!r}")
    outcome = report.get("outcome")
    require(outcome in OUTCOMES, f"{where}: bad outcome {outcome!r}")

    # Resilience triple: every report carries a typed status, a degraded
    # flag that agrees with it, and a non-negative retry count.
    require("status" in report, f"{where}: status missing")
    require(
        report["status"] == OUTCOME_STATUS[outcome],
        f"{where}: status {report['status']!r} inconsistent with outcome "
        f"{outcome!r}",
    )
    require(isinstance(report.get("degraded"), bool),
            f"{where}: degraded must be a bool")
    require(
        report["degraded"] == (outcome in DEGRADED_OUTCOMES),
        f"{where}: degraded={report['degraded']} disagrees with outcome "
        f"{outcome!r}",
    )
    retries = report.get("retries")
    require(isinstance(retries, int) and retries >= 0,
            f"{where}: retries must be a non-negative integer")

    tel = report.get("telemetry")
    require(isinstance(tel, dict), f"{where}: telemetry missing")
    for key in (
        "budget",
        "samples_drawn",
        "wall_ms",
        "candidates_per_iter",
        "candidate_table_bytes",
        "endpoints_before_thinning",
        "endpoints_after_thinning",
        "phases",
    ):
        require(key in tel, f"{where}: telemetry.{key} missing")
    require(isinstance(tel["candidate_table_bytes"], int)
            and tel["candidate_table_bytes"] >= 0,
            f"{where}: telemetry.candidate_table_bytes must be a non-negative integer")
    require(isinstance(tel["phases"], list),
            f"{where}: telemetry.phases must be a list")
    for phase in tel["phases"]:
        require("phase" in phase and "samples" in phase,
                f"{where}: malformed phase entry")
        require(phase["samples"] >= 0, f"{where}: negative phase samples")
    require(
        sum(p["samples"] for p in tel["phases"]) == tel["samples_drawn"],
        f"{where}: phase samples do not sum to samples_drawn",
    )
    if tel["budget"] >= 0:
        require(tel["samples_drawn"] <= tel["budget"],
                f"{where}: samples_drawn exceeds budget")

    if outcome in DEGRADED_OUTCOMES:
        # Payload intentionally absent; a degraded learn-family session may
        # still ship its best-so-far tiling under "reduced".
        if "reduced" in report:
            check_tiling(report["reduced"], f"{where}.reduced")
        return task, outcome

    if task in ("learn", "compare", "estimate"):
        learn = report.get("learn")
        require(isinstance(learn, dict), f"{where}: learn payload missing")
        for key in ("params", "total_samples", "estimated_cost", "tiling"):
            require(key in learn, f"{where}: learn.{key} missing")
        check_tiling(learn["tiling"], f"{where}.learn.tiling")
    if task == "test":
        test = report.get("test")
        require(isinstance(test, dict), f"{where}: test payload missing")
        for key in ("accepted", "params", "total_samples", "flat_partition"):
            require(key in test, f"{where}: test.{key} missing")
        expected = "accepted" if test["accepted"] else "rejected"
        require(report["outcome"] == expected,
                f"{where}: outcome disagrees with test.accepted")
    if task == "compare":
        rows = report.get("compare")
        require(isinstance(rows, list) and rows, f"{where}: compare rows missing")
        methods = {row["method"] for row in rows}
        for needed in ("paper", "equi-width", "equi-depth", "compressed"):
            require(needed in methods, f"{where}: compare row {needed!r} missing")
        for row in rows:
            require(row["sse"] >= 0,
                    f"{where}: negative sse in {row['method']!r}")
    if task == "estimate":
        est = report.get("estimate")
        require(isinstance(est, dict), f"{where}: estimate payload missing")
        require("quantiles" in est and "selectivity" in est,
                f"{where}: estimate keys missing")
    if task == "property-test":
        pt = report.get("property_test")
        require(isinstance(pt, dict), f"{where}: property_test payload missing")
        for key in (
            "accepted",
            "params",
            "total_samples",
            "refinement_parts",
            "fitted_pieces",
            "fit_stat",
            "fit_threshold",
            "exception_parts",
            "exception_mass",
            "exception_mass_threshold",
            "collision_stat",
            "collision_threshold",
            "candidate_l1",
        ):
            require(key in pt, f"{where}: property_test.{key} missing")
        require("learn" in pt["params"],
                f"{where}: property_test.params.learn missing")
        for key in ("verify_r", "verify_m"):
            require(key in pt["params"],
                    f"{where}: property_test.params.{key} missing")
        expected = "accepted" if pt["accepted"] else "rejected"
        require(report["outcome"] == expected,
                f"{where}: outcome disagrees with property_test.accepted")
        require(pt["refinement_parts"] >= 1,
                f"{where}: property_test: no refinement parts")
        require(pt["exception_parts"] >= 0,
                f"{where}: property_test: negative exceptions")
        if "candidate" in pt:
            check_tiling(pt["candidate"], f"{where}.property_test.candidate")
    if task == "closeness":
        cl = report.get("closeness")
        require(isinstance(cl, dict), f"{where}: closeness payload missing")
        for key in (
            "accepted",
            "params",
            "total_samples",
            "refinement_parts",
            "statistic",
            "threshold",
        ):
            require(key in cl, f"{where}: closeness.{key} missing")
        for key in ("verify_r", "verify_m"):
            require(key in cl["params"], f"{where}: closeness.params.{key} missing")
        expected = "accepted" if cl["accepted"] else "rejected"
        require(report["outcome"] == expected,
                f"{where}: outcome disagrees with closeness.accepted")
        require(cl["refinement_parts"] >= 1, f"{where}: closeness: no refinement parts")
        require(cl["threshold"] > 0, f"{where}: closeness: non-positive threshold")
        for key in ("candidate_p", "candidate_q"):
            if key in cl:
                check_tiling(cl[key], f"{where}.closeness.{key}")
    return task, outcome


def check_stats(stats, where="stats"):
    """The histkd `stats` payload: shape plus counter conservation."""
    require(isinstance(stats, dict), f"{where} must be an object")
    require(stats.get("histkd_stats") == 1, f"{where}: histkd_stats != 1")
    require(isinstance(stats.get("workers"), int) and stats["workers"] >= 1,
            f"{where}: workers must be >= 1")
    require(isinstance(stats.get("queue_limit"), int),
            f"{where}: queue_limit missing")

    requests = stats.get("requests")
    require(isinstance(requests, dict), f"{where}: requests block missing")
    for key in ("total", "no_kind_errors", "failures", "rejected"):
        require(isinstance(requests.get(key), int) and requests[key] >= 0,
                f"{where}: requests.{key} must be a non-negative integer")

    kinds = stats.get("kinds")
    require(isinstance(kinds, dict), f"{where}: kinds block missing")
    require(set(kinds) == REQUEST_KINDS,
            f"{where}: kinds keys {sorted(kinds)} != expected")
    kind_total = 0
    for name, entry in kinds.items():
        for key in ("count", "p50_us", "p90_us", "p99_us"):
            require(isinstance(entry.get(key), int) and entry[key] >= 0,
                    f"{where}: kinds.{name}.{key} must be a non-negative integer")
        require(entry["p50_us"] <= entry["p90_us"] <= entry["p99_us"],
                f"{where}: kinds.{name} quantiles not monotone")
        kind_total += entry["count"]
    # Conservation: every completed request is kind-attributed or a no-kind
    # parse failure — nothing is dropped, nothing double-counted.
    require(
        kind_total + requests["no_kind_errors"] == requests["total"],
        f"{where}: kind counts {kind_total} + no_kind "
        f"{requests['no_kind_errors']} != total {requests['total']}",
    )

    cache = stats.get("cache")
    require(isinstance(cache, dict), f"{where}: cache block missing")
    for key in ("hits", "misses", "insertions", "evictions", "entries"):
        require(isinstance(cache.get(key), int) and cache[key] >= 0,
                f"{where}: cache.{key} must be a non-negative integer")
    require(cache["insertions"] >= cache["evictions"],
            f"{where}: cache evicted more than it inserted")

    datasets = stats.get("datasets")
    require(isinstance(datasets, dict), f"{where}: datasets block missing")
    for key in ("entries", "loads", "reuses", "evictions"):
        require(isinstance(datasets.get(key), int) and datasets[key] >= 0,
                f"{where}: datasets.{key} must be a non-negative integer")

    governor = stats.get("governor")
    require(isinstance(governor, dict), f"{where}: governor block missing")
    for key in (
        "max_sessions",
        "max_outstanding_budget",
        "retry_after_ms",
        "in_flight",
        "outstanding_budget",
        "rejected",
    ):
        require(isinstance(governor.get(key), int),
                f"{where}: governor.{key} missing")
    require(governor["in_flight"] >= 0, f"{where}: negative in_flight")
    require(governor["rejected"] >= 0, f"{where}: negative rejected count")


def check_response_line(line, lineno):
    where = f"response line {lineno}"
    try:
        env = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"{where}: not valid JSON ({e})")
    require(isinstance(env, dict), f"{where}: must be an object")
    require(env.get("histkd_response") == 1, f"{where}: histkd_response != 1")

    require("id" in env, f"{where}: id missing")
    require(env["id"] is None or isinstance(env["id"], str),
            f"{where}: id must be a string or null")
    require("kind" in env, f"{where}: kind missing")
    kind = env["kind"]
    require(kind is None or kind in REQUEST_KINDS,
            f"{where}: bad kind {kind!r}")

    status = env.get("status")
    require(status in STATUS_CODES, f"{where}: bad status {status!r}")
    require(isinstance(env.get("degraded"), bool),
            f"{where}: degraded must be a bool")
    require(env["degraded"] == (status in DEGRADED_STATUS),
            f"{where}: degraded={env['degraded']} disagrees with status "
            f"{status!r}")
    require(isinstance(env.get("retries"), int) and env["retries"] >= 0,
            f"{where}: retries must be a non-negative integer")

    cache = env.get("cache")
    require(cache in CACHE_STATES, f"{where}: bad cache state {cache!r}")
    if cache in ("hit", "miss"):
        require(kind in ("learn", "estimate"),
                f"{where}: cache {cache!r} on non-synopsis kind {kind!r}")

    if status == "unavailable":
        require(isinstance(env.get("retry_after_ms"), int) and
                env["retry_after_ms"] >= 0,
                f"{where}: unavailable response must carry retry_after_ms")
    if "serve_ms" in env:
        require(isinstance(env["serve_ms"], (int, float)) and
                env["serve_ms"] >= 0,
                f"{where}: serve_ms must be non-negative")
    if status != "ok":
        require("report" in env or env.get("error"),
                f"{where}: failed response needs an error or a degraded report")

    if "report" in env:
        task, _ = check_report(env["report"], where=f"{where}.report")
        require(task == kind, f"{where}: report task {task!r} != kind {kind!r}")
        require(env["status"] == env["report"]["status"],
                f"{where}: envelope status != report status")
        require(env["degraded"] == env["report"]["degraded"],
                f"{where}: envelope degraded != report degraded")
        require(env["retries"] == env["report"]["retries"],
                f"{where}: envelope retries != report retries")
        # The cache contract: an estimate served from the synopsis cache
        # charges the oracle nothing. (A learn hit replays the original
        # session's report verbatim, original telemetry included.)
        if cache == "hit" and kind == "estimate":
            require(env["report"]["telemetry"]["samples_drawn"] == 0,
                    f"{where}: estimate cache hit drew oracle samples")
        if "fingerprint" in env:
            require(isinstance(env["fingerprint"], str) and
                    len(env["fingerprint"]) == 16,
                    f"{where}: fingerprint must be 16 hex chars")

    if kind == "stats" and status == "ok":
        require("stats" in env, f"{where}: stats response missing payload")
        check_stats(env["stats"], where=f"{where}.stats")
    return status


def check_request_line(line, lineno):
    where = f"request line {lineno}"
    try:
        req = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"{where}: not valid JSON ({e})")
    require(isinstance(req, dict), f"{where}: must be an object")
    unknown = set(req) - REQUEST_FIELDS
    require(not unknown, f"{where}: unknown fields {sorted(unknown)}")
    require(isinstance(req.get("id"), str) and req["id"],
            f"{where}: id must be a non-empty string")
    require(req.get("kind") in REQUEST_KINDS,
            f"{where}: bad kind {req.get('kind')!r}")
    for key in ("k", "k2", "seed", "budget", "deadline_ms", "max_retries",
                "draw_threads", "n", "reservoir"):
        if key in req:
            require(isinstance(req[key], int), f"{where}: {key} must be an integer")
    for key in ("eps", "scale"):
        if key in req:
            require(isinstance(req[key], (int, float)),
                    f"{where}: {key} must be a number")
    for key in ("full_enum", "reduce"):
        if key in req:
            require(isinstance(req[key], bool), f"{where}: {key} must be a bool")
    if "norm" in req:
        require(req["norm"] in ("l1", "l2", "L1", "L2"),
                f"{where}: bad norm {req['norm']!r}")
    if "quantiles" in req:
        require(isinstance(req["quantiles"], list) and
                all(isinstance(q, (int, float)) and 0 <= q <= 1
                    for q in req["quantiles"]),
                f"{where}: quantiles must be numbers in [0, 1]")
    if "ranges" in req:
        require(isinstance(req["ranges"], list) and
                all(isinstance(r, list) and len(r) == 2 and
                    all(isinstance(v, int) for v in r)
                    for r in req["ranges"]),
                f"{where}: ranges must be [lo, hi] integer pairs")
    for key in ("dataset", "other"):
        if key in req:
            ref = req[key]
            require(isinstance(ref, dict), f"{where}: {key} must be an object")
            sources = set(ref) & DATASET_SOURCES
            require(set(ref) <= DATASET_SOURCES and len(sources) == 1,
                    f"{where}: {key} wants exactly one of {sorted(DATASET_SOURCES)}")
    if "other" in req:
        require(req["kind"] == "closeness",
                f"{where}: only closeness requests take \"other\"")


def iter_lines(path):
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if line:
                yield lineno, line


def main():
    if len(sys.argv) >= 3 and sys.argv[1] == "--response":
        count = 0
        failures = 0
        for lineno, line in iter_lines(sys.argv[2]):
            status = check_response_line(line, lineno)
            count += 1
            failures += status != "ok"
        require(count > 0, "no response lines")
        print(f"check_report_json: {count} response line(s) ok "
              f"({failures} non-ok status)")
        return
    if len(sys.argv) >= 3 and sys.argv[1] == "--request":
        count = 0
        for lineno, line in iter_lines(sys.argv[2]):
            check_request_line(line, lineno)
            count += 1
        require(count > 0, "no request lines")
        print(f"check_report_json: {count} request line(s) ok")
        return
    if len(sys.argv) >= 3 and sys.argv[1] == "--stats":
        with open(sys.argv[2]) as f:
            check_stats(json.load(f))
        print("check_report_json: stats payload ok")
        return

    if len(sys.argv) < 2 or sys.argv[1].startswith("--"):
        fail("usage: check_report_json.py REPORT.json [TASK] | "
             "--response FILE | --request FILE | --stats FILE")
    with open(sys.argv[1]) as f:
        report = json.load(f)
    expected = sys.argv[2] if len(sys.argv) > 2 else None
    task, outcome = check_report(report, expected)
    if outcome in DEGRADED_OUTCOMES:
        print(f"check_report_json: {task} report ok ({outcome}, degraded)")
    else:
        print(f"check_report_json: {task} report ok")


if __name__ == "__main__":
    main()
