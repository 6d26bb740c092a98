#!/usr/bin/env python3
"""histk project lint: the repo-specific rules clang-tidy cannot express.

Checks every C++ file under src/, tools/, examples/, tests/, bench/ for the
histk idioms the codebase relies on:

  strict-parse     No std::sto*/atoi/atof/strtol-family, sscanf or
                   std::from_chars calls outside the strict-parse helpers
                   in src/dist/io.cc. Ad-hoc numeric parsing silently
                   accepts trailing garbage and saturates on overflow (and
                   from_chars takes leading zeros and "-0"); dataset, CLI
                   and wire input must go through the checked helpers —
                   TokenToI64/TokenToU64/TokenToF64 for tokens,
                   ScanJsonI64 for the request parser's packed integer
                   arrays.
  rng-containment  No rand()/srand()/std::random_device/std::mt19937 etc.
                   outside src/util/rng.*. Every random stream must be a
                   seeded histk::Rng so runs replay byte-identically. The
                   std::*_distribution adaptors (uniform_int_, binomial_,
                   normal_, poisson_, ...) are banned too, engine or not:
                   their outputs are implementation-defined, so a seeded
                   run would not replay across standard libraries. Exact
                   variates live in-tree on histk::Rng (stats/binomial.h).
  engine-budget    Inside src/engine/, every oracle Draw* call must go
                   through a BudgetedSampler (or SampleSet/SampleSetGroup
                   helpers taking one) — a naked Draw on the raw oracle
                   bypasses session metering.
  hot-path-mutex   Files tagged `histk:hot-path` must not use std::mutex /
                   std::lock_guard / std::unique_lock / std::condition_-
                   variable. The sharded pipeline's thread safety comes
                   from per-worker ownership, not locks (see
                   src/sample/counter.cc) or from designed lock-freedom
                   (src/stream/concurrent_histogram.*); a lock on one of
                   these paths is a design regression, not a fix.
                   The files in HOT_PATH_FILES are hot-path by location,
                   tag or no tag.
  atomics-containment
                   std::atomic / <atomic> / std::memory_order appear ONLY
                   in the designated concurrency kernels (HOT_ATOMICS_ALLOW:
                   the concurrent histogram, the sharded draw dispatcher,
                   the session runtime's CancelToken). Atomics sprinkled
                   anywhere else are either a data-race band-aid or a new
                   concurrent design that belongs behind one of those
                   reviewed, tsan-covered facades.
  clock-containment
                   std::chrono / steady_clock / sleep_for and the <chrono>
                   include appear ONLY in src/util/timer.h and the session
                   runtime (src/engine/runtime.*). Everything else asks a
                   Deadline or WallTimer for time — scattered clock reads
                   make deadline behavior untestable and are the #1 source
                   of nondeterministic reports.
  simd-containment x86 intrinsics headers (<*mmintrin.h>, <x86intrin.h>,
                   <avx*intrin.h>, ...) and vector intrinsics (_mm*,
                   __m128/256/512, __builtin_ia32_*) are banned in every
                   file, with no allowlisted directory. The draw kernels
                   are portable C++ (the replay loop and the count kernel),
                   so no file needs per-file ISA flags, CPUID gating or a
                   scalar twin to keep in parity.
  json-containment The double grammar of the JSON emitter (`%.*g` /
                   `%.17g` format strings) and its `\\u%04x` control-
                   character escape appear ONLY in src/api/json.cc
                   (AppendJsonDouble / AppendJsonString, the one JSON
                   writer) and src/dist/io.cc (the text formats' round-
                   trip WriteDouble). A second snprintf-based emitter
                   drifts from the first in digits or escapes; append
                   through the api/json.h primitives instead.
  draw-surface     Under src/, a class deriving from Sampler may override
                   only n, DrawManyInto, DrawCounts and DrawCountsInto.
                   Those are the oracle's only virtual functions besides
                   the destructor: the kernel, the sink-fed count path and
                   a group set's count-into-row shortcut. Draw, DrawMany
                   and DrawManySharded are non-virtual wrappers over the
                   first two, so a decorator (BudgetedSampler,
                   FaultInjectingSampler) meters and faults every path by
                   overriding exactly those two, on the caller's thread;
                   the shortcut's default declines, which sends the set
                   through DrawCounts, so a decorator that does not
                   override it still sees every draw. A new draw entry
                   point goes on Sampler as a wrapper, not as a virtual.
  include-hygiene  No <bits/...> includes, no "../" relative includes, and
                   headers must carry a HISTK_<PATH>_H_ include guard.
  orphan-module    Every src/ header must be reachable by #include from the
                   programs: the tools/, examples/, bench/ and perfbench/
                   sources. Reachability follows quoted includes through
                   headers and into each reached header's own .cc. The
                   umbrella core/histk.h is not an edge (it includes every
                   module, so it would hide one that lost its last
                   caller), and tests are not roots. Programs include what
                   they use. A paper construct that only tests check goes
                   in ORPHAN_ALLOW with its reason; a stale entry is itself
                   a finding.
  style            No tabs, no trailing whitespace, file ends with exactly
                   one newline.

Suppress a finding inline with `// NOLINT(histk-<rule>): <reason>` on the
offending line; the reason is mandatory.

Usage: tools/lint_histk.py [--root DIR]   (exit 1 on any finding)
"""

import argparse
import os
import re
import sys

LINT_DIRS = ["src", "tools", "examples", "tests", "bench"]
CXX_EXTS = (".cc", ".h")

# strict-parse: the checked helpers live here (and may use std::strto*).
STRICT_PARSE_ALLOW = {"src/dist/io.cc"}
PARSE_RE = re.compile(
    r"\b(?:std::)?(?:stoi|stol|stoll|stoul|stoull|stof|stod|stold|"
    r"atoi|atol|atoll|atof|strtol|strtoll|strtoul|strtoull|strtof|"
    r"strtod|strtold|sscanf|from_chars)\s*\("
)

# rng-containment: primitive randomness sources belong in src/util/rng.*.
RNG_ALLOW_RE = re.compile(r"^src/util/rng\.(cc|h)$")
RNG_RE = re.compile(
    r"\b(?:std::)?(?:rand|srand|random_device|mt19937(?:_64)?|"
    r"minstd_rand0?|default_random_engine|"
    r"(?:uniform_int|uniform_real|bernoulli|binomial|negative_binomial|"
    r"geometric|poisson|exponential|gamma|weibull|extreme_value|normal|"
    r"lognormal|chi_squared|cauchy|fisher_f|student_t|discrete|"
    r"piecewise_constant|piecewise_linear)_distribution)\b"
)

# hot-path-mutex: opt-in via this tag anywhere in the file.
HOT_PATH_TAG = "histk:hot-path"
# Hot-path by location (belt to the tag's suspenders: removing the tag from
# one of these files must not silently lift the no-locks rule).
HOT_PATH_FILES = {
    "src/stream/concurrent_histogram.h",
    "src/stream/concurrent_histogram.cc",
    "src/stream/log_bucket.h",
    "src/stream/log_bucket.cc",
}
MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|recursive_mutex|shared_mutex|timed_mutex|"
    r"lock_guard|unique_lock|shared_lock|scoped_lock|condition_variable)\b"
    r"|#include\s*<(?:mutex|shared_mutex|condition_variable)>"
)

# atomics-containment: the designated concurrency kernels. Everything else
# must build on these facades instead of rolling its own atomics.
HOT_ATOMICS_ALLOW = {
    "src/stream/concurrent_histogram.h",
    "src/stream/concurrent_histogram.cc",
    "src/dist/sampler.cc",       # sharded DrawCounts chunk dispenser
    "src/engine/runtime.h",      # CancelToken's shared cancellation flag
    "src/engine/runtime.cc",
}
ATOMIC_RE = re.compile(
    r"\bstd::(?:atomic\w*|memory_order\w*)\b|#include\s*<atomic>"
)

# clock-containment: wall/monotonic time is read in exactly two places —
# the WallTimer (telemetry) and the session runtime (Deadline, backoff
# sleeps). Everyone else receives a Deadline or a WallTimer.
CLOCK_ALLOW = {
    "src/util/timer.h",
    "src/engine/runtime.h",
    "src/engine/runtime.cc",
}
CLOCK_RE = re.compile(
    r"\bstd::chrono\b|\bchrono::\w+|"
    r"\b(?:steady_clock|system_clock|high_resolution_clock)\b|"
    r"\bthis_thread::sleep_(?:for|until)\b|"
    r"#include\s*<chrono>"
)

# engine-budget: Draw* receivers inside src/engine/ that are exempt because
# they ARE the metering layer or sit below it in the decorator stack
# (BudgetedSampler wraps FaultInjectingSampler wraps the oracle).
ENGINE_ALLOW = {
    "src/engine/budget.cc",
    "src/engine/budget.h",
    "src/engine/fault_injection.cc",
    "src/engine/fault_injection.h",
}
DRAW_CALL_RE = re.compile(r"\b(\w+)\s*(?:\.|->)\s*(Draw\w*)\s*\(")
STATIC_DRAW_RE = re.compile(r"\b(SampleSet|SampleSetGroup)::(Draw\w*)\s*\(\s*(\w+)")
BUDGETED_DECL_RE = re.compile(r"\bBudgetedSampler[&\s]+(\w+)\s*[({=;,)]")

# simd-containment: intrinsics headers and tokens, in any file. The
# <?mmintrin.h> family covers the umbrella header and the per-ISA ones.
SIMD_INCLUDE_RE = re.compile(
    r"#include\s*<(?:[a-z]mmintrin|x86intrin|x86gprintrin|"
    r"avx[0-9a-z]*intrin)\.h>"
)
SIMD_TOKEN_RE = re.compile(
    r"\b(?:_mm\d*_\w+|__m(?:64|128|256|512)[di]?|__builtin_ia32_\w+)\b"
)

# json-containment: the emitter's format strings, matched inside string
# literals (the literal's opening quote survives comment/string blanking).
JSON_FORMAT_ALLOW = {"src/api/json.cc", "src/dist/io.cc"}
JSON_FORMAT_RE = re.compile(r'"[^"\n]*(?:%\.\*g|%\.17g|\\\\u%04x)')

# draw-surface: the virtual draw surface of Sampler subclasses under src/.
DRAW_SURFACE = {"n", "DrawManyInto", "DrawCounts", "DrawCountsInto"}
SAMPLER_CLASS_RE = re.compile(
    r"\bclass\s+(\w+)\s*(?:final\s*)?:\s*public\s+(?:histk::)?Sampler\b[^{;]*\{"
)
OVERRIDE_RE = re.compile(
    r"\b(\w+)\s*\((?:[^()]|\([^()]*\))*\)\s*(?:const\s*)?(?:noexcept\s*)?"
    r"override\b"
)

# orphan-module: the program roots, the umbrella header that is not an
# edge, and the headers only tests reach, each with its reason.
ORPHAN_ROOTS = ["tools", "examples", "bench", "perfbench"]
UMBRELLA_HEADER = "src/core/histk.h"
ORPHAN_ALLOW = {
    "src/core/lower_bound.h":
        "Theorem 5's YES/NO pair; claims_test's LowerBoundClaimTest checks "
        "the sqrt(kn) wall on it",
    "src/baseline/uniformity.h":
        "the GR00 collision tester; tester_test cross-checks it against "
        "Algorithm 2 at k = 1",
}
QUOTED_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.M)

INCLUDE_RE = re.compile(r'#include\s*[<"]([^>"]+)[">]')
GUARD_RE = re.compile(r"#ifndef\s+(HISTK_[A-Z0-9_]+_H_)")

NOLINT_RE = re.compile(r"//\s*NOLINT\(histk-([a-z-]+)\)(:?\s*)(.*)")


class Finding:
    def __init__(self, path, line, rule, msg):
        self.path, self.line, self.rule, self.msg = path, line, rule, msg

    def __str__(self):
        return f"{self.path}:{self.line}: [histk-{self.rule}] {self.msg}"


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving line
    structure, so the regex rules never fire on documentation or literals."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            seg = text[i : j + 2]
            out.append("".join("\n" if ch == "\n" else " " for ch in seg))
            i = j + 2
        elif c in "\"'":
            quote, j = c, i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            out.append(c + " " * (j - i - 1) + (quote if j < n else ""))
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def suppressions(raw_lines, findings):
    """Applies NOLINT(histk-rule): reason suppressions; a NOLINT without a
    reason is itself a finding."""
    kept = []
    for f in findings:
        raw = raw_lines[f.line - 1] if f.line - 1 < len(raw_lines) else ""
        m = NOLINT_RE.search(raw)
        if m and m.group(1) == f.rule:
            if not m.group(3).strip():
                kept.append(
                    Finding(f.path, f.line, f.rule,
                            "NOLINT suppression requires a reason: "
                            "// NOLINT(histk-" + f.rule + "): <why>"))
            continue
        kept.append(f)
    return kept


def lint_file(root, rel):
    path = os.path.join(root, rel)
    with open(path, encoding="utf-8") as fh:
        raw = fh.read()
    raw_lines = raw.split("\n")
    code = strip_comments_and_strings(raw)
    code_lines = code.split("\n")
    findings = []

    def emit(line, rule, msg):
        findings.append(Finding(rel, line, rule, msg))

    is_hot_path = HOT_PATH_TAG in raw or rel in HOT_PATH_FILES

    for idx, line in enumerate(code_lines, start=1):
        if rel not in STRICT_PARSE_ALLOW and PARSE_RE.search(line):
            emit(idx, "strict-parse",
                 "numeric parsing outside the strict-parse helpers "
                 "(use the TokenTo*/ScanJsonI64 helpers in src/dist/io.h)")
        if not RNG_ALLOW_RE.match(rel) and RNG_RE.search(line):
            emit(idx, "rng-containment",
                 "raw randomness source or std:: distribution adaptor "
                 "outside src/util/rng.* (use a seeded histk::Rng)")
        if is_hot_path and MUTEX_RE.search(line):
            emit(idx, "hot-path-mutex",
                 "lock primitive in a histk:hot-path file — sharded-path "
                 "thread safety must come from per-worker ownership")
        if SIMD_INCLUDE_RE.search(line) or SIMD_TOKEN_RE.search(line):
            emit(idx, "simd-containment",
                 "vector intrinsics — the draw kernels are portable C++; "
                 "write the loop so the compiler can vectorize it")
        if rel not in HOT_ATOMICS_ALLOW and ATOMIC_RE.search(line):
            emit(idx, "atomics-containment",
                 "std::atomic outside the designated concurrency kernels — "
                 "build on ConcurrentHistogram / the sharded samplers "
                 "instead of ad-hoc atomics")
        if rel not in CLOCK_ALLOW and CLOCK_RE.search(line):
            emit(idx, "clock-containment",
                 "raw clock access outside src/util/timer.h and "
                 "src/engine/runtime.* — take a Deadline / WallTimer "
                 "so time-dependent behavior stays testable")

    # engine-budget: collect BudgetedSampler variable names, then require
    # every member Draw* receiver (and SampleSet::Draw* sampler argument)
    # to be one of them, `rng`-like helpers aside.
    if rel.startswith("src/engine/") and rel not in ENGINE_ALLOW:
        budgeted = set(BUDGETED_DECL_RE.findall(code))
        budgeted.add("metered")  # conventional name in docs/examples
        for idx, line in enumerate(code_lines, start=1):
            for recv, call in DRAW_CALL_RE.findall(line):
                if recv in budgeted or recv in ("rng", "this"):
                    continue
                emit(idx, "engine-budget",
                     f"`{recv}.{call}(...)` bypasses BudgetedSampler "
                     "metering — engine draws must go through the "
                     "session's budgeted wrapper")
            for _cls, call, arg in STATIC_DRAW_RE.findall(line):
                if arg not in budgeted:
                    emit(idx, "engine-budget",
                         f"`{call}({arg}, ...)` draws from an unmetered "
                         "sampler — pass the session's BudgetedSampler")

    # json-containment: a literal's quote sits at the same column in the
    # raw and the blanked text; inside a comment it was blanked away.
    if rel not in JSON_FORMAT_ALLOW:
        for idx, (raw_line, code_line) in enumerate(
                zip(raw_lines, code_lines), start=1):
            for m in JSON_FORMAT_RE.finditer(raw_line):
                if code_line[m.start():m.start() + 1] == '"':
                    emit(idx, "json-containment",
                         "JSON number/escape formatting outside "
                         "src/api/json.cc — append through "
                         "api::AppendJsonDouble / api::AppendJsonString")
                    break

    # draw-surface: scan each Sampler subclass body (brace-matched on the
    # blanked text) for overrides outside the draw surface.
    if rel.startswith("src/"):
        for cls in SAMPLER_CLASS_RE.finditer(code):
            depth, end = 1, cls.end()
            while end < len(code) and depth > 0:
                depth += {"{": 1, "}": -1}.get(code[end], 0)
                end += 1
            for m in OVERRIDE_RE.finditer(code, cls.end(), end):
                if m.group(1) not in DRAW_SURFACE:
                    emit(code.count("\n", 0, m.start()) + 1, "draw-surface",
                         f"{cls.group(1)} overrides {m.group(1)}() — a Sampler "
                         "subclass may override only n, DrawManyInto, "
                         "DrawCounts and DrawCountsInto; make other draw "
                         "paths wrappers")

    # include-hygiene
    for idx, line in enumerate(code_lines, start=1):
        m = INCLUDE_RE.search(line)
        if not m:
            continue
        inc = m.group(1)
        if inc.startswith("bits/"):
            emit(idx, "include-hygiene",
                 "<bits/...> is a libstdc++ internal header")
        if inc.startswith("../"):
            emit(idx, "include-hygiene",
                 'relative "../" include — use a src/-rooted path')
    if rel.endswith(".h") and rel.startswith("src/"):
        m = GUARD_RE.search(raw)
        expect = "HISTK_" + re.sub(r"[/.]", "_", rel[len("src/"):]).upper() + "_"
        if not m:
            emit(1, "include-hygiene",
                 f"missing include guard (expected #ifndef {expect})")
        elif m.group(1) != expect:
            emit(1, "include-hygiene",
                 f"include guard {m.group(1)} should be {expect}")

    # style
    for idx, line in enumerate(raw_lines, start=1):
        if "\t" in line:
            emit(idx, "style", "tab character (use spaces)")
        if line != line.rstrip():
            emit(idx, "style", "trailing whitespace")
    if raw and not raw.endswith("\n"):
        emit(len(raw_lines), "style", "file must end with a newline")
    if raw.endswith("\n\n"):
        emit(len(raw_lines), "style", "file ends with blank lines")

    return suppressions(raw_lines, findings)


def lint_orphans(root):
    """orphan-module: src/ headers no program reaches by #include."""

    def cxx_files(top):
        for dirpath, _dirnames, filenames in os.walk(os.path.join(root, top)):
            for name in sorted(filenames):
                if name.endswith(CXX_EXTS):
                    yield os.path.relpath(os.path.join(dirpath, name),
                                          root).replace(os.sep, "/")

    def exists(rel):
        return os.path.isfile(os.path.join(root, rel))

    def resolve(includer, inc):
        local = os.path.normpath(
            os.path.join(os.path.dirname(includer), inc)).replace(os.sep, "/")
        if exists(local):
            return local
        return "src/" + inc if exists("src/" + inc) else None

    reached = set()
    stack = [f for top in ORPHAN_ROOTS for f in cxx_files(top)]
    seen = set()
    while stack:
        rel = stack.pop()
        if rel in seen:
            continue
        seen.add(rel)
        with open(os.path.join(root, rel), encoding="utf-8") as fh:
            text = fh.read()
        for inc in QUOTED_INCLUDE_RE.findall(text):
            target = resolve(rel, inc)
            if target is None or target == UMBRELLA_HEADER:
                continue
            stack.append(target)
            if target.startswith("src/") and target.endswith(".h"):
                reached.add(target)
                impl = target[:-2] + ".cc"
                if exists(impl):
                    stack.append(impl)

    findings = [
        Finding(rel, 1, "orphan-module",
                "no tools/, examples/, bench/ or perfbench/ source reaches "
                "this header except through core/histk.h: delete the "
                "module, include it where it is used, or allowlist it "
                "with a reason")
        for rel in cxx_files("src")
        if rel.endswith(".h") and rel != UMBRELLA_HEADER
        and rel not in reached and rel not in ORPHAN_ALLOW
    ]
    for rel in sorted(ORPHAN_ALLOW):
        if rel in reached or not exists(rel):
            findings.append(Finding(
                rel, 1, "orphan-module",
                "stale ORPHAN_ALLOW entry (a program includes this header, "
                "or it is gone): drop the entry"))
    return findings


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    args = ap.parse_args()

    findings = []
    checked = 0
    for d in LINT_DIRS:
        base = os.path.join(args.root, d)
        if not os.path.isdir(base):
            continue
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if not name.endswith(CXX_EXTS):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, name), args.root)
                rel = rel.replace(os.sep, "/")
                findings.extend(lint_file(args.root, rel))
                checked += 1
    findings.extend(lint_orphans(args.root))

    for f in findings:
        print(f)
    print(f"lint_histk: {checked} files checked, {len(findings)} finding(s)",
          file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
