// histk_cli — generate data sets, then learn / test / compare histogram
// structure through the engine facade.
//
// The input is a data set D: one integer item per line (values in [0, n)).
// Following the paper's model, p = empirical distribution of D and the
// algorithms draw i.i.d. samples by picking random elements of D.
//
// Usage:
//   histk_cli gen     --family khist|staircase|zipf|gauss|spikes|zigzag|uniform
//                     [--n N] [--k K] [--samples M] [--seed X] [--skew S]
//                     [--eps E] [--contrast C] [--threads T]
//                     [--pmf-out FILE] > items.txt
//   histk_cli learn   --k 8 --eps 0.1 [--n N] [--scale S] [--full-enum]
//                     [--reduce] [--seed X] [--reservoir R] [--budget B]
//                     [--json] < items.txt
//   histk_cli test    --k 8 --eps 0.3 --norm l2|l1 [--n N] [--scale S]
//                     [--seed X] [--reservoir R] [--budget B] [--json] < items.txt
//   histk_cli estimate --k 8 --eps 0.1 [--quantile Q]... [--range LO:HI]...
//                     [--n N] [--scale S] [--seed X] [--reservoir R]
//                     [--budget B] [--json] < items.txt
//   histk_cli compare --k 8 --eps 0.1 [--n N] [--scale S] [--seed X]
//                     [--budget B] [--json] < items.txt
//   histk_cli property-test --k 8 --eps 0.3 [--norm l1|l2] [--n N] [--scale S]
//                     [--seed X] [--reservoir R] [--budget B] [--json] < items.txt
//   histk_cli closeness --k 8 [--k2 K] --eps 0.3 --other OTHER.txt [--n N]
//                     [--scale S] [--seed X] [--reservoir R] [--budget B]
//                     [--json] < items.txt
//   histk_cli voptimal --k 8 [--n N] < items.txt > histogram.txt
//   histk_cli ingest  [--mantissa-bits B] [--threads W] [--cdf-at V]
//                     [--sketch-out FILE] [--json] < values.txt
//
// ingest is the live-telemetry entry point: stdin values (any u64 range —
// latencies, sizes) stream into a lock-free ConcurrentHistogram
// (stream/concurrent_histogram.h), fanned out across --threads writer
// threads, and the snapshot is reported as a quantile summary (plus
// cdf(V) for each --cdf-at), --json (the snapshot's JSON form), and/or
// --sketch-out FILE (the compact wire format). The snapshot is identical
// whatever --threads is: bucket counts commute. learn and test accept
// --from-sketch FILE instead of stdin items: the sketch's occupied
// log-buckets become a bucket Distribution (exact on occupied buckets) and
// the task runs against that bridged oracle (engine/telemetry.h), so
// synopses are learned from ingested traffic with no item stream kept.
//
// property-test asks whether the (unknown) stream distribution is a
// k-histogram AT ALL (no reference needed): it learns a candidate and runs
// a tolerant identity check of a fresh sample against it (CDKL22-flavored
// rates; see src/core/property_tester.h). closeness ingests a second data
// set from --other and asks whether the two stream distributions are close
// (both promised approximate histograms; DKN17-flavored reduction to the
// common candidate refinement). Both honor the test exit-code contract
// (0 accept / 1 reject) and --json.
//
// Every engine-backed subcommand builds its TaskSpec through the unified
// request API (src/api/request.h): flags fill an api::RequestSpec and
// api::BuildTaskSpec performs the one flags→spec translation — the same
// path histkd serves over NDJSON, so the CLI and the daemon cannot drift
// on what a knob means. estimate is the query twin of the daemon's
// cache-friendliest request: learn a synopsis, reduce to k pieces, answer
// --quantile / --range predicates from it.
//
// learn/test/compare are thin clients of histk::Engine: the session wraps
// the data-set oracle in a BudgetedSampler (--budget B caps oracle draws;
// absent = unlimited) and --json replaces the text output with the Engine's
// machine-readable Report (schema checked by tools/check_report_json.py).
// `compare` learns a k-histogram and scores it against equi-width /
// equi-depth / compressed baselines built from the same sample budget, plus
// the exact v-optimal DP on the empirical pmf when the domain is small.
//
// Exit codes (distinct per outcome so scripts can branch):
//   0  success (test: ACCEPT)
//   1  test: REJECT
//   2  usage error or invalid arguments (engine spec validation)
//   3  malformed input (parse error; message names the line)
//   4  oracle budget exhausted before the task finished
//   5  session interrupted: deadline exceeded, cancelled, or unavailable
//      (admission rejected / fault retries exhausted); with --json the
//      degraded report (status/degraded/retries fields) is still emitted
//
// Resilient sessions: every Engine-backed subcommand takes
//   --deadline-ms D   wall-clock deadline for the session (steady clock);
//                     an expired deadline degrades the run instead of
//                     hanging — learn still emits its best-so-far tiling
//   --max-retries R   transient-fault retry budget (bounded exponential
//                     backoff with deterministic jitter)
//   --inject-faults S wrap the data-set oracle in the seeded deterministic
//                     fault injector (engine/fault_injection.h): same S,
//                     same fault schedule, byte-identical reports. Ignored
//                     by --from-sketch (the bridge owns its oracle).
//   --draw-threads T  sharded session draw workers (reports are identical
//                     for any T; the chaos CI job sweeps this)
//
// Ingestion is streaming: stdin is consumed line by line in fixed-size
// chunks that feed either a bounded uniform reservoir (learn/test;
// --reservoir caps the held items, 0 = keep everything) or a count table
// (compare/voptimal), so the full data set is never buffered in memory.
// Malformed tokens are a parse error (exit 3) with the offending line
// number; negative items are warned about and ignored; items outside an
// explicit --n domain are skipped.
//
// The piecewise families (khist/staircase/spikes/uniform) build the O(k)
// bucket Distribution backend above Distribution::kAutoBucketThreshold, so
// `gen --n $((1<<30))` is cheap; sample emission uses the sharded DrawMany
// path, whose output depends on --seed but not on --threads.
//
// --kernel replay|packed|simd selects the oracle's draw kernel everywhere a
// sampler is built: gen/compare (AliasSampler over the pmf) and
// learn/test/property-test/closeness (DatasetSampler over the held items).
// replay (default) preserves the historical byte streams; packed and simd
// are the faster reordered kernels (simd additionally runtime-dispatches to
// AVX2 when available, with a byte-identical scalar fallback). Unknown
// values exit 2 per the strict-parse convention.
#include <algorithm>
#include <cerrno>
#include <climits>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/request.h"
#include "core/histk.h"
#include "util/table.h"

namespace {

using namespace histk;

struct Args {
  std::string command;
  int64_t k = 8;
  int64_t k2 = 0;  // closeness: second oracle's piece budget (0 = --k)
  double eps = 0.1;
  int64_t n = 0;  // 0 = infer max+1 (gen: defaults to 256)
  double scale = 1.0;
  Norm norm = Norm::kL2;
  bool norm_set = false;  // property-test defaults to l1 unless --norm given
  std::string other;      // closeness: path of the second data set
  bool full_enum = false;
  bool reduce = false;
  uint64_t seed = 1;
  int64_t reservoir = int64_t{1} << 20;  // learn/test held-item cap; 0 = unbounded
  int64_t budget = BudgetedSampler::kUnlimited;  // oracle-draw cap; < 0 = unlimited
  bool json = false;
  AliasKernel kernel = AliasKernel::kReplay;  // oracle draw kernel
  // gen-only:
  std::string family = "khist";
  int64_t samples = 200000;
  double skew = 1.0;
  double contrast = 20.0;
  int threads = 0;  // sharded DrawMany workers; 0 = hardware concurrency
  std::string pmf_out;
  // ingest / --from-sketch:
  int64_t mantissa_bits = kLogBucketDefaultMantissaBits;
  std::vector<uint64_t> cdf_at;  // ingest: report cdf(V) for each --cdf-at V
  std::string sketch_out;        // ingest: write the wire-format snapshot here
  std::string from_sketch;       // learn/test: bridge this sketch, skip stdin
  // resilient sessions (engine-backed subcommands):
  int64_t deadline_ms = 0;    // 0 = no deadline
  int max_retries = 0;        // transient-fault retry budget
  bool inject_faults = false; // wrap the oracle in the fault injector
  uint64_t fault_seed = 0;    // --inject-faults SEED (schedule derivation)
  int draw_threads = 0;       // sharded session workers; 0 = sequential
  // estimate-only:
  std::vector<double> quantiles;  // --quantile Q (repeatable)
  std::vector<Interval> ranges;   // --range LO:HI (repeatable, inclusive)
};

// Exit codes, one per outcome class (see file comment).
constexpr int kExitOk = 0;
constexpr int kExitReject = 1;
constexpr int kExitUsage = 2;
constexpr int kExitParse = 3;
constexpr int kExitBudget = 4;
constexpr int kExitDeadline = 5;  // deadline exceeded / cancelled / unavailable

void Usage() {
  std::fprintf(
      stderr,
      "usage: histk_cli <gen|learn|test|estimate|property-test|closeness|compare\n"
      "                 |voptimal|ingest> [flags] < items.txt\n"
      "       histk_cli learn   --k K --eps E [--n N] [--scale S] [--full-enum]\n"
      "                 [--reduce] [--seed X] [--reservoir R] [--budget B] [--json]\n"
      "                 [--from-sketch FILE]\n"
      "       histk_cli test    --k K --eps E --norm l1|l2 [--n N] [--scale S]\n"
      "                 [--seed X] [--reservoir R] [--budget B] [--json]\n"
      "                 [--from-sketch FILE]\n"
      "       histk_cli estimate --k K --eps E [--quantile Q]... [--range LO:HI]...\n"
      "                 [--n N] [--scale S] [--seed X] [--reservoir R] [--budget B]\n"
      "                 [--json]\n"
      "       histk_cli property-test --k K --eps E [--norm l1|l2] [--n N]\n"
      "                 [--scale S] [--seed X] [--reservoir R] [--budget B] [--json]\n"
      "       histk_cli closeness --k K [--k2 K] --eps E --other OTHER.txt [--n N]\n"
      "                 [--scale S] [--seed X] [--reservoir R] [--budget B] [--json]\n"
      "       histk_cli compare --k K --eps E [--n N] [--scale S] [--seed X]\n"
      "                 [--budget B] [--json]\n"
      "       histk_cli gen --family khist|staircase|zipf|gauss|spikes|\n"
      "                 zigzag|uniform [--n N] [--k K] [--samples M]\n"
      "                 [--seed X] [--skew S] [--eps E] [--contrast C]\n"
      "                 [--threads T] [--pmf-out FILE]  > items.txt\n"
      "       histk_cli ingest  [--mantissa-bits B] [--threads W] [--cdf-at V]\n"
      "                 [--sketch-out FILE] [--json]  < values.txt\n"
      "                 (quantile summary in text mode; --json prints the\n"
      "                 snapshot object; learn/test --from-sketch consume\n"
      "                 the --sketch-out file)\n"
      "       all sampling commands also take --kernel replay|packed|simd\n"
      "                 (oracle draw kernel; default replay)\n"
      "       engine subcommands also take --deadline-ms D --max-retries R\n"
      "                 --inject-faults SEED --draw-threads T (resilient\n"
      "                 sessions; see the file comment)\n"
      "exit codes: 0 ok/accept, 1 reject, 2 usage/invalid, 3 parse error,\n"
      "            4 budget exhausted, 5 deadline/cancelled/unavailable\n");
}

// Full-token numeric flag parses: a typo must be a usage error (exit 2)
// with a message, never an uncaught std::sto* exception. Integer/double
// parsing is dist/io's TokenTo* (the same grammar the dataset readers use);
// only the unsigned-seed case needs its own wrapper.
bool ToI64(const char* s, int64_t& out) { return TokenToI64(s, out); }

bool ToF64(const char* s, double& out) { return TokenToF64(s, out); }

bool ToU64(const char* s, uint64_t& out) {
  if (*s == '-') return false;  // strtoull silently wraps negatives
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(  // NOLINT(histk-strict-parse): this IS the checked u64 wrapper (full-token, ERANGE-checked); io.h has no unsigned variant
      s, &end, 10);
  if (errno == ERANGE || end == s || *end != '\0') return false;
  out = static_cast<uint64_t>(v);
  return true;
}

bool ToInt(const char* s, int& out) {
  int64_t wide = 0;
  if (!ToI64(s, wide) || wide < INT_MIN || wide > INT_MAX) return false;
  out = static_cast<int>(wide);
  return true;
}

// --range LO:HI — an inclusive interval, both endpoints full-token integers.
bool ToRange(const char* s, Interval& out) {
  const char* colon = std::strchr(s, ':');
  if (colon == nullptr) return false;
  const std::string lo(s, static_cast<size_t>(colon - s));
  const std::string hi(colon + 1);
  return TokenToI64(lo, out.lo) && TokenToI64(hi, out.hi);
}

bool Parse(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    auto bad = [&]() {
      std::fprintf(stderr, "bad or missing value for %s\n", flag.c_str());
      return false;
    };
    if (flag == "--k") {
      const char* v = next();
      if (!v || !ToI64(v, args.k)) return bad();
    } else if (flag == "--k2") {
      const char* v = next();
      if (!v || !ToI64(v, args.k2)) return bad();
    } else if (flag == "--other") {
      const char* v = next();
      if (!v) return bad();
      args.other = v;
    } else if (flag == "--eps") {
      const char* v = next();
      if (!v || !ToF64(v, args.eps)) return bad();
    } else if (flag == "--n") {
      const char* v = next();
      if (!v || !ToI64(v, args.n)) return bad();
    } else if (flag == "--scale") {
      const char* v = next();
      if (!v || !ToF64(v, args.scale)) return bad();
    } else if (flag == "--seed") {
      const char* v = next();
      if (!v || !ToU64(v, args.seed)) return bad();
    } else if (flag == "--norm") {
      const char* v = next();
      if (!v) return bad();
      // Strict: a typo ("l3") must not silently run the other tester — the
      // L1-far/L2-close regime makes that a wrong ACCEPT, not a nuisance.
      if (std::strcmp(v, "l1") == 0) {
        args.norm = Norm::kL1;
      } else if (std::strcmp(v, "l2") == 0) {
        args.norm = Norm::kL2;
      } else {
        return bad();
      }
      args.norm_set = true;
    } else if (flag == "--kernel") {
      const char* v = next();
      if (!v) return bad();
      // Strict like --norm: a typo must not silently fall back to a kernel
      // with a different rng stream — seeded runs would replay differently.
      if (std::strcmp(v, "replay") == 0) {
        args.kernel = AliasKernel::kReplay;
      } else if (std::strcmp(v, "packed") == 0) {
        args.kernel = AliasKernel::kPacked;
      } else if (std::strcmp(v, "simd") == 0) {
        args.kernel = AliasKernel::kSimd;
      } else {
        return bad();
      }
    } else if (flag == "--full-enum") {
      args.full_enum = true;
    } else if (flag == "--reduce") {
      args.reduce = true;
    } else if (flag == "--json") {
      args.json = true;
    } else if (flag == "--budget") {
      const char* v = next();
      if (!v || !ToI64(v, args.budget)) return bad();
    } else if (flag == "--family") {
      const char* v = next();
      if (!v) return bad();
      args.family = v;
    } else if (flag == "--samples") {
      const char* v = next();
      if (!v || !ToI64(v, args.samples)) return bad();
    } else if (flag == "--skew") {
      const char* v = next();
      if (!v || !ToF64(v, args.skew)) return bad();
    } else if (flag == "--contrast") {
      const char* v = next();
      if (!v || !ToF64(v, args.contrast)) return bad();
    } else if (flag == "--reservoir") {
      const char* v = next();
      if (!v || !ToI64(v, args.reservoir)) return bad();
    } else if (flag == "--threads") {
      const char* v = next();
      if (!v || !ToInt(v, args.threads)) return bad();
    } else if (flag == "--pmf-out") {
      const char* v = next();
      if (!v) return bad();
      args.pmf_out = v;
    } else if (flag == "--mantissa-bits") {
      const char* v = next();
      if (!v || !ToI64(v, args.mantissa_bits)) return bad();
    } else if (flag == "--cdf-at") {
      const char* v = next();
      uint64_t at = 0;
      if (!v || !ToU64(v, at)) return bad();
      args.cdf_at.push_back(at);
    } else if (flag == "--sketch-out") {
      const char* v = next();
      if (!v) return bad();
      args.sketch_out = v;
    } else if (flag == "--from-sketch") {
      const char* v = next();
      if (!v) return bad();
      args.from_sketch = v;
    } else if (flag == "--deadline-ms") {
      const char* v = next();
      if (!v || !ToI64(v, args.deadline_ms) || args.deadline_ms < 1) return bad();
    } else if (flag == "--max-retries") {
      const char* v = next();
      if (!v || !ToInt(v, args.max_retries) || args.max_retries < 0) return bad();
    } else if (flag == "--inject-faults") {
      const char* v = next();
      if (!v || !ToU64(v, args.fault_seed)) return bad();
      args.inject_faults = true;
    } else if (flag == "--draw-threads") {
      const char* v = next();
      if (!v || !ToInt(v, args.draw_threads) || args.draw_threads < 0) return bad();
    } else if (flag == "--quantile") {
      const char* v = next();
      double q = 0.0;
      if (!v || !ToF64(v, q)) return bad();
      args.quantiles.push_back(q);
    } else if (flag == "--range") {
      const char* v = next();
      Interval range;
      if (!v || !ToRange(v, range)) return bad();
      args.ranges.push_back(range);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return args.command == "gen" || args.command == "learn" ||
         args.command == "test" || args.command == "property-test" ||
         args.command == "closeness" || args.command == "compare" ||
         args.command == "estimate" || args.command == "voptimal" ||
         args.command == "ingest";
}

// Streaming ingestion: stdin is consumed line by line and fed to the
// consumer in fixed-size chunks, so memory is bounded by the chunk plus
// whatever the consumer retains (a capped reservoir for learn/test,
// per-element counts for compare/voptimal) — never the whole stream.
constexpr int64_t kIngestChunk = int64_t{1} << 16;

struct Ingested {
  int64_t n = 0;            ///< resolved domain size
  int64_t stream_items = 0; ///< valid items seen on the stream
  std::vector<int64_t> items;   ///< reservoir sample (kReservoir mode)
  std::vector<int64_t> counts;  ///< per-element occurrences (kCounts mode)
};

enum class IngestMode { kReservoir, kCounts };

// kCounts ingestion (compare/voptimal) materializes a dense per-element
// table, so the domain must stay RAM-sized — one stray huge item must not
// become a multi-GB resize. learn/test (bounded reservoir) have no cap.
constexpr int64_t kMaxCountsDomain = int64_t{1} << 24;

Result<Ingested> IngestStream(std::istream& is, int64_t explicit_n, IngestMode mode,
                              int64_t reservoir_cap, uint64_t seed) {
  Ingested out;
  // The reservoir gets its own stream, derived from --seed, so the
  // algorithms' Rng(seed) consumption is untouched by ingestion. Only the
  // capped-reservoir mode actually needs one.
  uint64_t state = seed ^ 0xC0FFEE5EEDF00DULL;
  const bool unbounded = reservoir_cap <= 0;
  std::optional<Reservoir> reservoir;
  if (mode == IngestMode::kReservoir && !unbounded) {
    reservoir.emplace(reservoir_cap, SplitMix64(state));
  }

  std::vector<int64_t> chunk;
  chunk.reserve(static_cast<size_t>(kIngestChunk));
  int64_t max_seen = -1;

  auto consume = [&](const std::vector<int64_t>& batch) {
    for (int64_t item : batch) {
      ++out.stream_items;
      if (mode == IngestMode::kCounts) {
        if (item >= static_cast<int64_t>(out.counts.size())) {
          out.counts.resize(static_cast<size_t>(item) + 1, 0);
        }
        ++out.counts[static_cast<size_t>(item)];
      } else if (unbounded) {
        out.items.push_back(item);
      } else {
        reservoir->Add(item);
      }
    }
  };

  // One dataset grammar: the same ScanDataset that backs ParseDataset, so
  // the CLI and the library can never disagree on what parses. Filtering
  // (warn-and-drop negatives, skip out-of-domain) is CLI policy, applied in
  // the callback.
  const Status scan = ScanDataset(is, [&](int64_t v, int64_t line) -> Status {
    if (v < 0) {
      std::fprintf(stderr, "negative item %lld ignored\n", static_cast<long long>(v));
      return Status::Ok();
    }
    if (explicit_n > 0 && v >= explicit_n) return Status::Ok();  // outside domain
    if (mode == IngestMode::kCounts && v >= kMaxCountsDomain) {
      return Status::InvalidArgument(
          "line " + std::to_string(line) + ": item " + std::to_string(v) +
          " exceeds the dense-counts cap (2^24) for compare/voptimal — pass "
          "--n to bound the domain, or use learn/test");
    }
    max_seen = std::max<int64_t>(max_seen, v);
    chunk.push_back(v);
    if (static_cast<int64_t>(chunk.size()) == kIngestChunk) {
      consume(chunk);
      chunk.clear();
    }
    return Status::Ok();
  });
  if (!scan.ok()) return scan;
  consume(chunk);

  out.n = explicit_n > 0 ? explicit_n : max_seen + 1;
  if (mode == IngestMode::kReservoir && !unbounded) {
    out.items = reservoir->sample();
  }
  if (mode == IngestMode::kCounts && out.n > 0) {
    out.counts.resize(static_cast<size_t>(out.n), 0);
  }
  return out;
}

// Flags → RequestSpec: the CLI is now a client of the unified request API
// (api/request.h) — the same RequestSpec histkd parses off the wire, and
// the same BuildTaskSpec translation into engine specs. The daemon and the
// CLI can no longer drift apart on what a knob means.
api::RequestSpec RequestFromArgs(const Args& args) {
  api::RequestSpec req;
  if (args.command == "learn") req.kind = api::RequestKind::kLearn;
  if (args.command == "test") req.kind = api::RequestKind::kTest;
  if (args.command == "compare") req.kind = api::RequestKind::kCompare;
  if (args.command == "estimate") req.kind = api::RequestKind::kEstimate;
  if (args.command == "property-test") req.kind = api::RequestKind::kPropertyTest;
  if (args.command == "closeness") req.kind = api::RequestKind::kCloseness;
  req.k = args.k;
  req.k2 = args.k2;
  req.eps = args.eps;
  req.norm = args.norm;
  req.norm_set = args.norm_set;
  req.scale = args.scale;
  req.full_enum = args.full_enum;
  req.reduce = args.reduce;
  req.seed = args.seed;
  req.budget = args.budget;
  req.deadline_ms = args.deadline_ms;
  req.max_retries = args.max_retries;
  req.draw_threads = args.draw_threads;
  req.quantiles = args.quantiles;
  req.ranges = args.ranges;
  req.n = args.n;
  req.reservoir = args.reservoir;
  return req;
}

// The one flags→TaskSpec path. A rejected combination (--reduce off learn,
// --quantile off estimate, ...) is a usage error with the API's message.
Result<TaskSpec> SpecFromArgs(const Args& args) {
  return api::BuildTaskSpec(RequestFromArgs(args));
}

// --inject-faults: interpose the seeded fault injector between the Engine's
// meter and the real oracle. `storage` keeps the decorator alive alongside
// the returned reference (the Engine holds references, not copies).
const Sampler& MaybeInjectFaults(const Args& args, const Sampler& inner,
                                 std::optional<FaultInjectingSampler>& storage) {
  if (!args.inject_faults) return inner;
  storage.emplace(inner, FaultSchedule::FromSeed(args.fault_seed));
  return *storage;
}

/// Prints a report on stdout as one JSON line.
void PrintReportJson(const Report& report) {
  std::string json;
  AppendReportJson(json, report);
  json += '\n';
  std::cout << json;
}

/// Shared unhappy-path handling for the Engine-backed subcommands: invalid
/// specs exit 2, rejected admission exits 5, exhausted budgets exit 4, and
/// interrupted sessions (deadline/cancel/unavailable) exit 5 — each after
/// emitting the JSON report when asked (the report documents the partial
/// telemetry plus the status/degraded/retries triple).
int ReportFailure(const Result<Report>& result, bool json) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return result.status().code() == StatusCode::kUnavailable ? kExitDeadline
                                                              : kExitUsage;
  }
  const Report& report = *result;
  if (report.outcome == TaskOutcome::kBudgetExhausted) {
    if (json) PrintReportJson(report);
    std::fprintf(stderr,
                 "budget exhausted after %lld of %lld oracle draws; partial "
                 "telemetry in the report\n",
                 static_cast<long long>(report.telemetry.samples_drawn),
                 static_cast<long long>(report.telemetry.budget));
    return kExitBudget;
  }
  if (report.degraded) {
    if (json) {
      PrintReportJson(report);
    } else if (report.reduced) {
      // Graceful degradation: the best-so-far tiling from the completed part
      // of the sample still goes to stdout, flagged on stderr.
      WriteTilingHistogram(std::cout, *report.reduced);
      std::fprintf(stderr, "emitted the best-effort tiling from the partial sample\n");
    }
    std::fprintf(stderr,
                 "session degraded (%s) after %lld oracle draws, %lld "
                 "retr%s\n",
                 TaskOutcomeName(report.outcome),
                 static_cast<long long>(report.telemetry.samples_drawn),
                 static_cast<long long>(report.retries),
                 report.retries == 1 ? "y" : "ies");
    return kExitDeadline;
  }
  return -1;  // no failure; caller handles the success path
}

// learn/test run against whichever Engine the caller built — the dataset
// oracle (stdin items) or a telemetry bridge (--from-sketch). `source_note`
// is the stderr provenance line ("stream: ..." / "sketch: ...").
int RunLearnOn(const Args& args, const Engine& engine, const std::string& source_note) {
  const Result<TaskSpec> spec = SpecFromArgs(args);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return kExitUsage;
  }

  const Result<Report> result = engine.Run(*spec);
  if (const int failure = ReportFailure(result, args.json); failure >= 0) {
    return failure;
  }
  const Report& report = *result;
  if (args.json) {
    PrintReportJson(report);
    return kExitOk;
  }
  const TilingHistogram& out = args.reduce ? *report.reduced : report.learn->tiling;
  WriteTilingHistogram(std::cout, out);
  std::fprintf(stderr, "%s\n", source_note.c_str());
  std::fprintf(stderr, "drew %lld samples (l=%lld, r=%lld x m=%lld), %lld pieces\n",
               static_cast<long long>(report.learn->total_samples),
               static_cast<long long>(report.learn->params.l),
               static_cast<long long>(report.learn->params.r),
               static_cast<long long>(report.learn->params.m),
               static_cast<long long>(out.k()));
  return kExitOk;
}

std::string StreamNote(const Ingested& in) {
  return "stream: " + std::to_string(in.stream_items) + " items, " +
         std::to_string(in.items.size()) + " held";
}

int RunLearn(const Args& args, const Ingested& in) {
  const DatasetSampler sampler(in.n, in.items, args.kernel);
  std::optional<FaultInjectingSampler> faulty;
  const Engine engine(MaybeInjectFaults(args, sampler, faulty));
  return RunLearnOn(args, engine, StreamNote(in));
}

int RunTestOn(const Args& args, const Engine& engine, const std::string& source_note) {
  const Result<TaskSpec> spec = SpecFromArgs(args);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return kExitUsage;
  }

  const Result<Report> result = engine.Run(*spec);
  if (const int failure = ReportFailure(result, args.json); failure >= 0) {
    return failure;
  }
  const Report& report = *result;
  if (args.json) {
    PrintReportJson(report);
    return report.test->accepted ? kExitOk : kExitReject;
  }
  std::fprintf(stderr, "%s\n", source_note.c_str());
  const TestOutcome& out = *report.test;
  std::printf("%s\n", out.accepted ? "ACCEPT" : "REJECT");
  std::printf("samples: %lld (r=%lld x m=%lld), norm: %s\n",
              static_cast<long long>(out.total_samples),
              static_cast<long long>(out.params.r),
              static_cast<long long>(out.params.m), NormName(args.norm));
  std::printf("flat partition found:");
  for (const Interval& piece : out.flat_partition) {
    std::printf(" %s", piece.ToString().c_str());
  }
  std::printf("\n");
  return out.accepted ? kExitOk : kExitReject;
}

int RunTest(const Args& args, const Ingested& in) {
  const DatasetSampler sampler(in.n, in.items, args.kernel);
  std::optional<FaultInjectingSampler> faulty;
  const Engine engine(MaybeInjectFaults(args, sampler, faulty));
  return RunTestOn(args, engine, StreamNote(in));
}

int RunPropertyTest(const Args& args, const Ingested& in) {
  const DatasetSampler sampler(in.n, in.items, args.kernel);
  std::optional<FaultInjectingSampler> faulty;
  const Engine engine(MaybeInjectFaults(args, sampler, faulty));

  const Result<TaskSpec> spec = SpecFromArgs(args);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return kExitUsage;
  }

  const Result<Report> result = engine.Run(*spec);
  if (const int failure = ReportFailure(result, args.json); failure >= 0) {
    return failure;
  }
  const Report& report = *result;
  const PropertyTestOutcome& out = *report.property_test;
  if (args.json) {
    PrintReportJson(report);
    return out.accepted ? kExitOk : kExitReject;
  }
  std::fprintf(stderr, "stream: %lld items, %lld held\n",
               static_cast<long long>(in.stream_items),
               static_cast<long long>(in.items.size()));
  std::printf("%s\n", out.accepted ? "ACCEPT" : "REJECT");
  std::printf(
      "samples: %lld (learn %lld + verify %lld x %lld), parts: %lld, "
      "fit: %.3g vs %.3g, collisions: %.3g vs %.3g, "
      "exceptions: %lld (mass %.3f vs %.3f)\n",
      static_cast<long long>(out.total_samples),
      static_cast<long long>(out.params.learn.TotalSamples()),
      static_cast<long long>(out.params.verify_r),
      static_cast<long long>(out.params.verify_m),
      static_cast<long long>(out.refinement_parts), out.fit_stat, out.fit_threshold,
      out.collision_stat, out.collision_threshold,
      static_cast<long long>(out.exception_parts), out.exception_mass,
      out.exception_mass_threshold);
  return out.accepted ? kExitOk : kExitReject;
}

int RunCloseness(const Args& args, const Ingested& in, const Ingested& other) {
  // The two streams must share one domain: an explicit --n wins, otherwise
  // the larger inferred domain covers both item sets.
  const int64_t n = args.n > 0 ? args.n : std::max(in.n, other.n);
  const DatasetSampler sampler_p(n, in.items, args.kernel);
  const DatasetSampler sampler_q(n, other.items, args.kernel);
  // Chaos coverage spans both oracles: p's faults surface in the learn
  // phases, q's in the verification draws (distinct derived seed so the two
  // schedules cannot correlate).
  std::optional<FaultInjectingSampler> faulty_p, faulty_q;
  const Engine engine(MaybeInjectFaults(args, sampler_p, faulty_p));
  Args q_args = args;
  q_args.fault_seed = args.fault_seed ^ 0x9E3779B97F4A7C15ULL;
  const Sampler& oracle_q = MaybeInjectFaults(q_args, sampler_q, faulty_q);

  Result<TaskSpec> spec = SpecFromArgs(args);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return kExitUsage;
  }
  // The API hands ClosenessSpec back with other == nullptr: the second
  // oracle is the caller's to wire (the daemon resolves it from its store,
  // the CLI from --other's ingested stream).
  std::get<ClosenessSpec>(*spec).other = &oracle_q;

  const Result<Report> result = engine.Run(*spec);
  if (const int failure = ReportFailure(result, args.json); failure >= 0) {
    return failure;
  }
  const Report& report = *result;
  const ClosenessOutcome& out = *report.closeness;
  if (args.json) {
    PrintReportJson(report);
    return out.accepted ? kExitOk : kExitReject;
  }
  std::fprintf(stderr, "streams: %lld + %lld items over domain [0, %lld)\n",
               static_cast<long long>(in.stream_items),
               static_cast<long long>(other.stream_items), static_cast<long long>(n));
  std::printf("%s\n", out.accepted ? "CLOSE" : "FAR");
  std::printf(
      "samples: %lld, refinement: %lld parts, statistic: %.4g vs %.4g\n",
      static_cast<long long>(out.total_samples),
      static_cast<long long>(out.refinement_parts), out.statistic, out.threshold);
  return out.accepted ? kExitOk : kExitReject;
}

int RunCompare(const Args& args, const Ingested& in) {
  // Counts came off the stream; the empirical pmf doubles as the session's
  // oracle (sampling it = drawing random elements of D) and its truth.
  std::vector<double> weights(in.counts.size());
  for (size_t i = 0; i < in.counts.size(); ++i) {
    weights[i] = static_cast<double>(in.counts[i]);
  }
  const Distribution truth = Distribution::FromWeights(std::move(weights));
  const AliasSampler sampler(truth, args.kernel);
  std::optional<FaultInjectingSampler> faulty;
  const Engine engine(MaybeInjectFaults(args, sampler, faulty), truth);

  const Result<TaskSpec> spec = SpecFromArgs(args);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return kExitUsage;
  }

  const Result<Report> result = engine.Run(*spec);
  if (const int failure = ReportFailure(result, args.json); failure >= 0) {
    return failure;
  }
  const Report& report = *result;
  if (args.json) {
    PrintReportJson(report);
    return kExitOk;
  }
  std::fprintf(stderr, "stream: %lld items over domain [0, %lld)\n",
               static_cast<long long>(in.stream_items),
               static_cast<long long>(in.n));
  Table table({"method", "pieces", "SSE vs empirical", "samples"});
  for (const CompareRow& row : report.compare) {
    table.AddRow({row.method, std::to_string(row.pieces), FmtE(row.sse),
                  FmtI(row.samples)});
  }
  table.Print(std::cout);
  return kExitOk;
}

// estimate: learn a synopsis, reduce it to k pieces, and answer quantile /
// range-selectivity queries from it — the CLI twin of the daemon's most
// cache-friendly request (histkd serves repeats of this from its synopsis
// cache with zero oracle draws).
int RunEstimate(const Args& args, const Ingested& in) {
  const DatasetSampler sampler(in.n, in.items, args.kernel);
  std::optional<FaultInjectingSampler> faulty;
  const Engine engine(MaybeInjectFaults(args, sampler, faulty));

  const Result<TaskSpec> spec = SpecFromArgs(args);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return kExitUsage;
  }

  const Result<Report> result = engine.Run(*spec);
  if (const int failure = ReportFailure(result, args.json); failure >= 0) {
    return failure;
  }
  const Report& report = *result;
  if (args.json) {
    PrintReportJson(report);
    return kExitOk;
  }
  std::fprintf(stderr, "%s\n", StreamNote(in).c_str());
  const EstimateAnswers& answers = *report.estimate;
  for (const auto& q : answers.quantiles) {
    std::printf("quantile %.6g -> %lld\n", q.q,
                static_cast<long long>(q.value));
  }
  for (const auto& s : answers.selectivity) {
    std::printf("range %s -> %.6g\n", s.range.ToString().c_str(), s.estimate);
  }
  std::fprintf(stderr, "synopsis: %lld pieces from %lld samples\n",
               static_cast<long long>(report.reduced->k()),
               static_cast<long long>(report.learn->total_samples));
  return kExitOk;
}

int RunGen(const Args& args) {
  const int64_t n = args.n > 0 ? args.n : 256;
  // Validate user input up front: bad flags should exit 2 with a message,
  // not trip a library HISTK_CHECK abort.
  auto reject = [](const char* why) {
    std::fprintf(stderr, "gen: %s\n", why);
    return kExitUsage;
  };
  if (args.samples < 1) return reject("--samples must be >= 1");
  if (args.k < 1 || args.k > n) return reject("--k must be in [1, n]");
  if (args.family == "zigzag") {
    if (n % 2 != 0) return reject("zigzag needs an even --n");
    if (args.eps <= 0.0 ||
        args.eps * static_cast<double>(n) / static_cast<double>(n - args.k) > 1.0) {
      return reject("zigzag --eps infeasible at this (n, k): amplitude would exceed 1");
    }
  }
  if (args.family == "spikes" && n < 2 * args.k - 1) {
    return reject("spikes need --n >= 2k-1 for isolation");
  }
  if (args.family == "gauss" && n < 2) return reject("gauss needs --n >= 2");
  Rng rng(args.seed);
  auto make = [&]() -> std::optional<Distribution> {
    if (args.family == "khist") return MakeRandomKHistogram(n, args.k, rng, args.contrast).dist;
    if (args.family == "staircase") return MakeStaircase(n, args.k).dist;
    if (args.family == "zipf") return MakeZipf(n, args.skew);
    if (args.family == "gauss") {
      return MakeGaussianMixture(n, {{0.3, 0.08, 2.0}, {0.7, 0.05, 1.0}}, 0.05);
    }
    if (args.family == "spikes") return MakeSpikes(n, std::max<int64_t>(1, args.k));
    if (args.family == "zigzag") return MakeZigzagL1Far(n, args.k, args.eps);
    if (args.family == "uniform") return Distribution::Uniform(n);
    return std::nullopt;
  };
  const std::optional<Distribution> dist = make();
  if (!dist) {
    std::fprintf(stderr, "unknown family: %s\n", args.family.c_str());
    return kExitUsage;
  }
  if (!args.pmf_out.empty()) {
    std::ofstream f(args.pmf_out);
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", args.pmf_out.c_str());
      return kExitUsage;
    }
    // Huge domains write the O(k) run form; dense ones keep the historical
    // per-element format.
    if (dist->is_bucketed()) {
      WriteBucketDistribution(f, *dist);
    } else {
      WriteDistribution(f, *dist);
    }
  }
  const AliasSampler sampler(*dist, args.kernel);
  // Sharded emission: output depends on --seed only, not on --threads.
  WriteDataset(std::cout, sampler.DrawManySharded(args.samples, rng, args.threads));
  std::fprintf(stderr, "gen: family=%s n=%lld items=%lld seed=%llu backend=%s kernel=%s\n",
               args.family.c_str(), static_cast<long long>(n),
               static_cast<long long>(args.samples),
               static_cast<unsigned long long>(args.seed),
               dist->is_bucketed() ? "bucket" : "dense",
               AliasKernelName(args.kernel));
  return kExitOk;
}

int RunVOptimal(const Args& args, const Ingested& in) {
  // Counts came off the stream; the DP runs on the empirical pmf without
  // the item list ever being materialized.
  std::vector<double> weights(in.counts.size());
  for (size_t i = 0; i < in.counts.size(); ++i) {
    weights[i] = static_cast<double>(in.counts[i]);
  }
  const Distribution p = Distribution::FromWeights(std::move(weights));
  const auto res = VOptimalHistogram(p, args.k);
  WriteTilingHistogram(std::cout, res.histogram);
  std::fprintf(stderr, "empirical v-optimal SSE: %.6e\n", res.sse);
  return kExitOk;
}

int RunIngest(const Args& args) {
  if (!LogBucketMantissaBitsValid(static_cast<int>(args.mantissa_bits))) {
    std::fprintf(stderr, "ingest: --mantissa-bits must be in [%d, %d]\n",
                 kLogBucketMinMantissaBits, kLogBucketMaxMantissaBits);
    return kExitUsage;
  }
  ConcurrentHistogram hist(static_cast<int>(args.mantissa_bits));
  const int writers = std::clamp(args.threads, 1, ConcurrentHistogram::kMaxShards);

  // Writer fan-out: parsed chunks go to `writers` threads through a small
  // bounded mutex/cv queue. Locks are fine HERE — the CLI driver is not
  // hot-path code; the point is that ConcurrentHistogram::Record itself
  // needs no coordination, so the snapshot is identical whatever --threads
  // is (bucket counts commute).
  std::mutex mu;
  std::condition_variable can_pop, can_push;
  std::deque<std::vector<uint64_t>> pending;
  bool producer_done = false;
  const size_t max_pending = 4 * static_cast<size_t>(writers);
  std::vector<std::thread> pool;
  if (writers > 1) {
    pool.reserve(static_cast<size_t>(writers));
    for (int w = 0; w < writers; ++w) {
      pool.emplace_back([&] {
        for (;;) {
          std::vector<uint64_t> batch;
          {
            std::unique_lock<std::mutex> lock(mu);
            can_pop.wait(lock, [&] { return producer_done || !pending.empty(); });
            if (pending.empty()) return;
            batch = std::move(pending.front());
            pending.pop_front();
          }
          can_push.notify_one();
          for (uint64_t v : batch) hist.Record(v);
        }
      });
    }
  }

  std::vector<uint64_t> chunk;
  chunk.reserve(static_cast<size_t>(kIngestChunk));
  auto flush = [&] {
    if (chunk.empty()) return;
    if (writers == 1) {
      for (uint64_t v : chunk) hist.Record(v);
      chunk.clear();
      return;
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      can_push.wait(lock, [&] { return pending.size() < max_pending; });
      pending.push_back(std::move(chunk));
    }
    can_pop.notify_one();
    chunk = std::vector<uint64_t>();
    chunk.reserve(static_cast<size_t>(kIngestChunk));
  };
  // Same dataset grammar as every other subcommand (ScanDataset); the same
  // CLI policy for negatives (warn and drop). Values use the full u64 range
  // the library supports only via the API — the shared grammar is int64, so
  // the CLI tops out at 2^63 - 1, plenty for ns-scale latencies.
  const Status scan = ScanDataset(std::cin, [&](int64_t v, int64_t) -> Status {
    if (v < 0) {
      std::fprintf(stderr, "negative item %lld ignored\n", static_cast<long long>(v));
      return Status::Ok();
    }
    chunk.push_back(static_cast<uint64_t>(v));
    if (static_cast<int64_t>(chunk.size()) == kIngestChunk) flush();
    return Status::Ok();
  });
  if (scan.ok()) flush();
  {
    std::lock_guard<std::mutex> lock(mu);
    producer_done = true;
  }
  can_pop.notify_all();
  for (std::thread& t : pool) t.join();
  if (!scan.ok()) {
    std::fprintf(stderr, "%s\n", scan.ToString().c_str());
    return scan.code() == StatusCode::kParseError ? kExitParse : kExitUsage;
  }

  const HistogramSnapshot snap = hist.Snapshot();
  if (snap.TotalCount() == 0) {
    std::fprintf(stderr, "no values on stdin\n");
    return kExitUsage;
  }
  if (!args.sketch_out.empty()) {
    std::ofstream f(args.sketch_out);
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", args.sketch_out.c_str());
      return kExitUsage;
    }
    WriteSnapshot(f, snap);
  }
  if (args.json) {
    std::string json;
    AppendSnapshotJson(json, snap);
    std::cout << json;
  } else {
    auto u = [](uint64_t v) { return static_cast<unsigned long long>(v); };
    std::printf("count %llu\n", u(snap.TotalCount()));
    std::printf("min   %llu\n", u(*snap.MinValueBound()));
    std::printf("p50   %llu\n", u(snap.Quantile(0.50)));
    std::printf("p90   %llu\n", u(snap.Quantile(0.90)));
    std::printf("p99   %llu\n", u(snap.Quantile(0.99)));
    std::printf("p999  %llu\n", u(snap.Quantile(0.999)));
    std::printf("max   %llu\n", u(*snap.MaxValueBound()));
    for (uint64_t at : args.cdf_at) {
      std::printf("cdf(%llu) %.6f\n", u(at), snap.CdfAt(at));
    }
  }
  std::fprintf(stderr,
               "ingest: %llu values, %lld occupied buckets "
               "(mantissa_bits=%d, max rel err %.4g), %d writer thread(s)\n",
               static_cast<unsigned long long>(snap.TotalCount()),
               static_cast<long long>(snap.OccupiedBuckets()), snap.mantissa_bits(),
               LogBucketMaxRelativeError(snap.mantissa_bits()), writers);
  return kExitOk;
}

// learn/test --from-sketch: parse the wire-format snapshot, bridge it into
// an Engine session (engine/telemetry.h), run the task. Sketch parse errors
// exit 3 with the offending line, like every other malformed input.
int RunFromSketch(const Args& args) {
  std::ifstream f(args.from_sketch);
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", args.from_sketch.c_str());
    return kExitUsage;
  }
  const Result<HistogramSnapshot> snap = ParseSnapshot(f);
  if (!snap.ok()) {
    std::fprintf(stderr, "%s: %s\n", args.from_sketch.c_str(),
                 snap.status().ToString().c_str());
    return snap.status().code() == StatusCode::kParseError ? kExitParse
                                                           : kExitUsage;
  }
  const Result<TelemetrySession> session =
      TelemetrySession::FromSnapshot(*snap, args.kernel);
  if (!session.ok()) {
    std::fprintf(stderr, "%s: %s\n", args.from_sketch.c_str(),
                 session.status().ToString().c_str());
    return kExitUsage;
  }
  const std::string note =
      "sketch: " + std::to_string(snap->TotalCount()) + " values, " +
      std::to_string(snap->OccupiedBuckets()) + " occupied buckets over domain [0, " +
      std::to_string(session->n()) + ")";
  if (args.command == "learn") return RunLearnOn(args, session->engine(), note);
  return RunTestOn(args, session->engine(), note);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, args)) {
    Usage();
    return kExitUsage;
  }
  if (args.command == "gen") return RunGen(args);
  if (args.command == "ingest") return RunIngest(args);
  if (!args.from_sketch.empty()) {
    if (args.command != "learn" && args.command != "test") {
      std::fprintf(stderr, "--from-sketch applies to learn and test only\n");
      return kExitUsage;
    }
    return RunFromSketch(args);
  }
  const IngestMode mode =
      args.command == "voptimal" || args.command == "compare" ? IngestMode::kCounts
                                                              : IngestMode::kReservoir;
  if (mode == IngestMode::kCounts && args.n > kMaxCountsDomain) {
    std::fprintf(stderr,
                 "%s needs a dense counts table: --n must be <= 2^24 "
                 "(use learn/test for huge domains)\n",
                 args.command.c_str());
    return kExitUsage;
  }
  const Result<Ingested> ingested =
      IngestStream(std::cin, args.n, mode, args.reservoir, args.seed);
  if (!ingested.ok()) {
    std::fprintf(stderr, "%s\n", ingested.status().ToString().c_str());
    return ingested.status().code() == StatusCode::kParseError ? kExitParse
                                                               : kExitUsage;
  }
  const Ingested& in = *ingested;
  if (in.stream_items == 0 || in.n < 1) {
    std::fprintf(stderr, "no items in [0, n) on stdin\n");
    return kExitUsage;
  }
  if (args.command == "learn") return RunLearn(args, in);
  if (args.command == "test") return RunTest(args, in);
  if (args.command == "estimate") return RunEstimate(args, in);
  if (args.command == "property-test") return RunPropertyTest(args, in);
  if (args.command == "closeness") {
    if (args.other.empty()) {
      std::fprintf(stderr, "closeness needs --other OTHER.txt (the second data set)\n");
      return kExitUsage;
    }
    std::ifstream other_stream(args.other);
    if (!other_stream) {
      std::fprintf(stderr, "cannot open %s\n", args.other.c_str());
      return kExitUsage;
    }
    // Derive the second reservoir's stream from a distinct seed so the two
    // ingests cannot correlate.
    const Result<Ingested> other = IngestStream(other_stream, args.n,
                                                IngestMode::kReservoir,
                                                args.reservoir, args.seed ^ 0x9E3779B9ULL);
    if (!other.ok()) {
      std::fprintf(stderr, "%s: %s\n", args.other.c_str(),
                   other.status().ToString().c_str());
      return other.status().code() == StatusCode::kParseError ? kExitParse
                                                              : kExitUsage;
    }
    if (other->stream_items == 0 || other->n < 1) {
      std::fprintf(stderr, "no items in [0, n) in %s\n", args.other.c_str());
      return kExitUsage;
    }
    return RunCloseness(args, in, *other);
  }
  if (args.command == "compare") return RunCompare(args, in);
  return RunVOptimal(args, in);
}
