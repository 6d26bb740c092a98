// histk_cli — generate data sets, then learn / test / compare histogram
// structure through the engine facade. `histk_cli` with no arguments prints
// the usage.
//
// The input is a data set D: one integer item per line (values in [0, n)).
// Following the paper's model, p = empirical distribution of D and the
// algorithms draw i.i.d. samples by picking random elements of D.
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
// Every engine-backed subcommand (learn, test, estimate, property-test,
// closeness, compare) fills an api::RequestSpec from its flags and runs
// through RunTask: api::BuildTaskSpec (the path histkd serves over NDJSON,
// so the CLI and the daemon cannot drift on what a knob means), then
// Engine::Run in a BudgetedSampler (--budget B caps oracle draws), then the
// Report as JSON (--json; checked by tools/check_report_json.py) or as the
// kind's text. estimate learns a synopsis, reduces it to k pieces and answers
// --quantile / --range from it; compare scores the learned k-histogram
// against equi-width / equi-depth / compressed baselines on the same sample
// budget, plus the exact v-optimal DP on the empirical pmf.
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
// --kernel counts|replay selects the oracle's draw kernel everywhere a
// sampler is built: gen/compare (AliasSampler over the pmf) and
// learn/test/property-test/closeness (DatasetSampler over the held items).
// counts (default, as in histkd) draws each sample set's count vector
// directly — same law, its own stream — and leaves gen's materialized
// output byte-identical to replay; replay preserves the historical byte
// streams everywhere. Unknown values exit 2 per the strict-parse convention.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "api/request.h"
#include "baseline/voptimal_dp.h"
#include "core/property_tester.h"
#include "core/tester.h"
#include "dist/dataset.h"
#include "dist/distribution.h"
#include "dist/generators.h"
#include "dist/io.h"
#include "dist/sampler.h"
#include "engine/engine.h"
#include "engine/fault_injection.h"
#include "engine/telemetry.h"
#include "flags.h"
#include "histogram/tiling.h"
#include "stream/concurrent_histogram.h"
#include "stream/log_bucket.h"
#include "stream/reservoir.h"
#include "util/interval.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/table.h"

namespace {

using namespace histk;

struct Args {
  std::string command;
  // Every engine-task flag lands here; gen reads its k, eps, n and seed.
  api::RequestSpec req;
  std::string other;  // closeness: path of the second data set
  bool json = false;
  AliasKernel kernel = AliasKernel::kCounts;  // oracle draw kernel
  std::optional<uint64_t> fault_seed;  // --inject-faults: wrap the oracle
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
      "       all sampling commands also take --kernel counts|replay\n"
      "                 (oracle draw kernel; default counts)\n"
      "       engine subcommands also take --deadline-ms D --max-retries R\n"
      "                 --inject-faults SEED --draw-threads T (resilient\n"
      "                 sessions; see the file comment)\n"
      "exit codes: 0 ok/accept, 1 reject, 2 usage/invalid, 3 parse error,\n"
      "            4 budget exhausted, 5 deadline/cancelled/unavailable\n");
}

// --range LO:HI — an inclusive interval, both endpoints full-token integers.
bool ToRange(const std::string& s, Interval& out) {
  const size_t colon = s.find(':');
  return colon != std::string::npos && TokenToI64(s.substr(0, colon), out.lo) &&
         TokenToI64(s.substr(colon + 1), out.hi);
}

std::vector<flags::Flag> CliFlags(Args& a) {
  using namespace flags;
  api::RequestSpec& req = a.req;
  return {
      Integer("--k", &req.k),
      Integer("--k2", &req.k2),
      Value("--eps", &req.eps, TokenToF64),
      {"--norm", true,
       [&req](const char* v) {
         // Strict: a typo ("l3") must not silently run the other tester — the
         // L1-far/L2-close regime makes that a wrong ACCEPT, not a nuisance.
         if (std::strcmp(v, "l1") != 0 && std::strcmp(v, "l2") != 0) return false;
         req.norm = v[1] == '1' ? Norm::kL1 : Norm::kL2;
         req.norm_set = true;
         return true;
       }},
      Value("--scale", &req.scale, TokenToF64),
      Switch("--full-enum", &req.full_enum),
      Switch("--reduce", &req.reduce),
      Value("--seed", &req.seed, TokenToU64),
      Integer("--budget", &req.budget),
      Integer("--deadline-ms", &req.deadline_ms, 1),
      Integer("--max-retries", &req.max_retries, 0),
      Integer("--draw-threads", &req.draw_threads, 0),
      Repeated("--quantile", &req.quantiles, TokenToF64),
      Repeated("--range", &req.ranges, ToRange),
      Integer("--n", &req.n),
      Integer("--reservoir", &req.reservoir),
      String("--other", &a.other),
      Switch("--json", &a.json),
      Kernel("--kernel", &a.kernel),
      {"--inject-faults", true,
       [&a](const char* v) {
         uint64_t seed = 0;
         if (!TokenToU64(v, seed)) return false;
         a.fault_seed = seed;
         return true;
       }},
      String("--family", &a.family),
      Integer("--samples", &a.samples),
      Value("--skew", &a.skew, TokenToF64),
      Value("--contrast", &a.contrast, TokenToF64),
      Integer("--threads", &a.threads),
      String("--pmf-out", &a.pmf_out),
      Integer("--mantissa-bits", &a.mantissa_bits),
      Repeated("--cdf-at", &a.cdf_at, TokenToU64),
      String("--sketch-out", &a.sketch_out),
      String("--from-sketch", &a.from_sketch),
  };
}

bool Parse(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  args.command = argv[1];
  if (!flags::ParseFlags(argc, argv, 2, CliFlags(args))) return false;
  if (args.command == "gen" || args.command == "voptimal" || args.command == "ingest") {
    return true;
  }
  // The engine subcommands are the request kinds, less the daemon's
  // control requests.
  const Result<api::RequestKind> kind = api::ParseRequestKind(args.command);
  if (!kind.ok() || *kind == api::RequestKind::kStats ||
      *kind == api::RequestKind::kShutdown) {
    return false;
  }
  args.req.kind = *kind;
  return true;
}

// A failed read of input data: a malformed token exits 3 (the message
// names the line), anything else 2.
int InputFailure(const std::string& prefix, const Status& status) {
  std::fprintf(stderr, "%s%s\n", prefix.c_str(), status.ToString().c_str());
  return status.code() == StatusCode::kParseError ? kExitParse : kExitUsage;
}

// Streaming ingestion: stdin is consumed line by line, so memory is bounded
// by what the consumer retains (a capped reservoir for learn/test,
// per-element counts for compare/voptimal) — never the whole stream.
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
  std::optional<Reservoir> reservoir;
  if (mode == IngestMode::kReservoir && reservoir_cap > 0) {
    reservoir.emplace(reservoir_cap, SplitMix64(state));
  }
  int64_t max_seen = -1;

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
    ++out.stream_items;
    if (mode == IngestMode::kCounts) {
      if (v >= static_cast<int64_t>(out.counts.size())) {
        out.counts.resize(static_cast<size_t>(v) + 1, 0);
      }
      ++out.counts[static_cast<size_t>(v)];
    } else if (reservoir) {
      reservoir->Add(v);
    } else {
      out.items.push_back(v);
    }
    return Status::Ok();
  });
  if (!scan.ok()) return scan;

  out.n = explicit_n > 0 ? explicit_n : max_seen + 1;
  if (reservoir) out.items = reservoir->sample();
  if (mode == IngestMode::kCounts && out.n > 0) {
    out.counts.resize(static_cast<size_t>(out.n), 0);
  }
  return out;
}

// The empirical pmf of a counts-mode stream (compare, voptimal).
Distribution EmpiricalPmf(const Ingested& in) {
  return Distribution::FromWeights(std::vector<double>(in.counts.begin(), in.counts.end()));
}

// --inject-faults: interpose the seeded fault injector between the Engine's
// meter and the real oracle; `seed_salt` gives a second oracle its own
// schedule. `storage` keeps the decorator alive alongside the returned
// reference (the Engine holds references, not copies).
const Sampler& MaybeInjectFaults(const Args& args, const Sampler& inner,
                                 std::optional<FaultInjectingSampler>& storage,
                                 uint64_t seed_salt = 0) {
  if (!args.fault_seed) return inner;
  storage.emplace(inner, FaultSchedule::FromSeed(*args.fault_seed ^ seed_salt));
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

/// The text form of a successful report, one rendering per task kind.
void PrintReportText(const api::RequestSpec& req, const Report& report) {
  switch (req.kind) {
    case api::RequestKind::kLearn: {
      const TilingHistogram& out = req.reduce ? *report.reduced : report.learn->tiling;
      WriteTilingHistogram(std::cout, out);
      std::fprintf(stderr, "drew %lld samples (l=%lld, r=%lld x m=%lld), %lld pieces\n",
                   static_cast<long long>(report.learn->total_samples),
                   static_cast<long long>(report.learn->params.l),
                   static_cast<long long>(report.learn->params.r),
                   static_cast<long long>(report.learn->params.m),
                   static_cast<long long>(out.k()));
      break;
    }
    case api::RequestKind::kTest: {
      const TestOutcome& out = *report.test;
      std::printf("%s\n", out.accepted ? "ACCEPT" : "REJECT");
      std::printf("samples: %lld (r=%lld x m=%lld), norm: %s\n",
                  static_cast<long long>(out.total_samples),
                  static_cast<long long>(out.params.r),
                  static_cast<long long>(out.params.m), NormName(req.norm));
      std::printf("flat partition found:");
      for (const Interval& piece : out.flat_partition) {
        std::printf(" %s", piece.ToString().c_str());
      }
      std::printf("\n");
      break;
    }
    case api::RequestKind::kPropertyTest: {
      const PropertyTestOutcome& out = *report.property_test;
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
      break;
    }
    case api::RequestKind::kCloseness: {
      const ClosenessOutcome& out = *report.closeness;
      std::printf("%s\n", out.accepted ? "CLOSE" : "FAR");
      std::printf("samples: %lld, refinement: %lld parts, statistic: %.4g vs %.4g\n",
                  static_cast<long long>(out.total_samples),
                  static_cast<long long>(out.refinement_parts), out.statistic,
                  out.threshold);
      break;
    }
    case api::RequestKind::kCompare: {
      Table table({"method", "pieces", "SSE vs empirical", "samples"});
      for (const CompareRow& row : report.compare) {
        table.AddRow({row.method, std::to_string(row.pieces), FmtE(row.sse),
                      FmtI(row.samples)});
      }
      table.Print(std::cout);
      break;
    }
    case api::RequestKind::kEstimate: {
      for (const auto& q : report.estimate->quantiles) {
        std::printf("quantile %.6g -> %lld\n", q.q, static_cast<long long>(q.value));
      }
      for (const auto& s : report.estimate->selectivity) {
        std::printf("range %s -> %.6g\n", s.range.ToString().c_str(), s.estimate);
      }
      std::fprintf(stderr, "synopsis: %lld pieces from %lld samples\n",
                   static_cast<long long>(report.reduced->k()),
                   static_cast<long long>(report.learn->total_samples));
      break;
    }
    case api::RequestKind::kStats:
    case api::RequestKind::kShutdown:
      break;  // control requests; Parse never lets them through
  }
}

// The one runner behind every engine subcommand: build the spec, run the
// session on `engine`, then print the JSON report or the kind's text form
// after `note`, the stderr provenance line. `other` is closeness's second
// oracle; the API hands ClosenessSpec back with other == nullptr.
int RunTask(const Args& args, const Engine& engine, const std::string& note,
            const Sampler* other = nullptr) {
  Result<TaskSpec> spec = api::BuildTaskSpec(args.req);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return kExitUsage;
  }
  if (auto* closeness = std::get_if<ClosenessSpec>(&*spec)) closeness->other = other;
  const Result<Report> result = engine.Run(*spec);
  if (const int failure = ReportFailure(result, args.json); failure >= 0) {
    return failure;
  }
  if (args.json) {
    PrintReportJson(*result);
  } else {
    std::fprintf(stderr, "%s\n", note.c_str());
    PrintReportText(args.req, *result);
  }
  return result->outcome == TaskOutcome::kRejected ? kExitReject : kExitOk;
}

int RunGen(const Args& args) {
  const int64_t n = args.req.n > 0 ? args.req.n : 256;
  const int64_t k = args.req.k;
  const double eps = args.req.eps;
  // Validate user input up front: bad flags should exit 2 with a message,
  // not trip a library HISTK_CHECK abort.
  auto reject = [](const char* why) {
    std::fprintf(stderr, "gen: %s\n", why);
    return kExitUsage;
  };
  if (args.samples < 1) return reject("--samples must be >= 1");
  if (k < 1 || k > n) return reject("--k must be in [1, n]");
  if (args.family == "zigzag") {
    if (n % 2 != 0) return reject("zigzag needs an even --n");
    if (eps <= 0.0 || eps * static_cast<double>(n) / static_cast<double>(n - k) > 1.0) {
      return reject("zigzag --eps infeasible at this (n, k): amplitude would exceed 1");
    }
  }
  if (args.family == "spikes" && n < 2 * k - 1) {
    return reject("spikes need --n >= 2k-1 for isolation");
  }
  if (args.family == "gauss" && n < 2) return reject("gauss needs --n >= 2");
  Rng rng(args.req.seed);
  auto make = [&]() -> std::optional<Distribution> {
    if (args.family == "khist") return MakeRandomKHistogram(n, k, rng, args.contrast).dist;
    if (args.family == "staircase") return MakeStaircase(n, k).dist;
    if (args.family == "zipf") return MakeZipf(n, args.skew);
    if (args.family == "gauss") {
      return MakeGaussianMixture(n, {{0.3, 0.08, 2.0}, {0.7, 0.05, 1.0}}, 0.05);
    }
    if (args.family == "spikes") return MakeSpikes(n, std::max<int64_t>(1, k));
    if (args.family == "zigzag") return MakeZigzagL1Far(n, k, eps);
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
               static_cast<unsigned long long>(args.req.seed),
               dist->is_bucketed() ? "bucket" : "dense",
               AliasKernelName(args.kernel));
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

  constexpr size_t kChunk = size_t{1} << 16;  // values per writer hand-off
  std::vector<uint64_t> chunk;
  chunk.reserve(kChunk);
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
    chunk.reserve(kChunk);
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
    if (chunk.size() == kChunk) flush();
    return Status::Ok();
  });
  if (scan.ok()) flush();
  {
    std::lock_guard<std::mutex> lock(mu);
    producer_done = true;
  }
  can_pop.notify_all();
  for (std::thread& t : pool) t.join();
  if (!scan.ok()) return InputFailure("", scan);

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

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, args)) {
    Usage();
    return kExitUsage;
  }
  if (args.command == "gen") return RunGen(args);
  if (args.command == "ingest") return RunIngest(args);
  const api::RequestSpec& req = args.req;

  // learn/test --from-sketch: the wire-format snapshot bridged into an
  // Engine session (engine/telemetry.h). Sketch parse errors exit 3 with
  // the offending line, like every other malformed input.
  if (!args.from_sketch.empty()) {
    if (args.command != "learn" && args.command != "test") {
      std::fprintf(stderr, "--from-sketch applies to learn and test only\n");
      return kExitUsage;
    }
    std::ifstream f(args.from_sketch);
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", args.from_sketch.c_str());
      return kExitUsage;
    }
    const Result<HistogramSnapshot> snap = ParseSnapshot(f);
    if (!snap.ok()) return InputFailure(args.from_sketch + ": ", snap.status());
    const Result<TelemetrySession> session =
        TelemetrySession::FromSnapshot(*snap, args.kernel);
    if (!session.ok()) return InputFailure(args.from_sketch + ": ", session.status());
    return RunTask(args, session->engine(),
                   "sketch: " + std::to_string(snap->TotalCount()) + " values, " +
                       std::to_string(snap->OccupiedBuckets()) +
                       " occupied buckets over domain [0, " +
                       std::to_string(session->n()) + ")");
  }

  const IngestMode mode = args.command == "voptimal" || args.command == "compare"
                              ? IngestMode::kCounts
                              : IngestMode::kReservoir;
  if (mode == IngestMode::kCounts && req.n > kMaxCountsDomain) {
    std::fprintf(stderr,
                 "%s needs a dense counts table: --n must be <= 2^24 "
                 "(use learn/test for huge domains)\n",
                 args.command.c_str());
    return kExitUsage;
  }
  const Result<Ingested> ingested =
      IngestStream(std::cin, req.n, mode, req.reservoir, req.seed);
  if (!ingested.ok()) return InputFailure("", ingested.status());
  const Ingested& in = *ingested;
  if (in.stream_items == 0 || in.n < 1) {
    std::fprintf(stderr, "no items in [0, n) on stdin\n");
    return kExitUsage;
  }

  if (args.command == "voptimal") {
    // The DP runs on the empirical pmf without the item list ever being
    // materialized.
    const auto res = VOptimalHistogram(EmpiricalPmf(in), req.k);
    WriteTilingHistogram(std::cout, res.histogram);
    std::fprintf(stderr, "empirical v-optimal SSE: %.6e\n", res.sse);
    return kExitOk;
  }
  if (req.kind == api::RequestKind::kCompare) {
    // The empirical pmf doubles as the session's oracle (sampling it =
    // drawing random elements of D) and its truth.
    const Distribution truth = EmpiricalPmf(in);
    const AliasSampler sampler(truth, args.kernel);
    std::optional<FaultInjectingSampler> faulty;
    const Engine engine(MaybeInjectFaults(args, sampler, faulty), truth);
    return RunTask(args, engine,
                   "stream: " + std::to_string(in.stream_items) + " items over domain [0, " +
                       std::to_string(in.n) + ")");
  }
  if (req.kind == api::RequestKind::kCloseness) {
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
    const Result<Ingested> other = IngestStream(
        other_stream, req.n, IngestMode::kReservoir, req.reservoir, req.seed ^ 0x9E3779B9ULL);
    if (!other.ok()) return InputFailure(args.other + ": ", other.status());
    if (other->stream_items == 0 || other->n < 1) {
      std::fprintf(stderr, "no items in [0, n) in %s\n", args.other.c_str());
      return kExitUsage;
    }
    // The two streams must share one domain: an explicit --n wins, otherwise
    // the larger inferred domain covers both item sets.
    const int64_t n = req.n > 0 ? req.n : std::max(in.n, other->n);
    const DatasetSampler sampler_p(n, in.items, args.kernel);
    const DatasetSampler sampler_q(n, other->items, args.kernel);
    // Chaos coverage spans both oracles: p's faults surface in the learn
    // phases, q's in the verification draws (distinct derived seed so the two
    // schedules cannot correlate).
    std::optional<FaultInjectingSampler> faulty_p, faulty_q;
    const Engine engine(MaybeInjectFaults(args, sampler_p, faulty_p));
    const Sampler& oracle_q =
        MaybeInjectFaults(args, sampler_q, faulty_q, 0x9E3779B97F4A7C15ULL);
    return RunTask(args, engine,
                   "streams: " + std::to_string(in.stream_items) + " + " +
                       std::to_string(other->stream_items) + " items over domain [0, " +
                       std::to_string(n) + ")",
                   &oracle_q);
  }
  const DatasetSampler sampler(in.n, in.items, args.kernel);
  std::optional<FaultInjectingSampler> faulty;
  const Engine engine(MaybeInjectFaults(args, sampler, faulty));
  return RunTask(args, engine,
                 "stream: " + std::to_string(in.stream_items) + " items, " +
                     std::to_string(in.items.size()) + " held");
}
