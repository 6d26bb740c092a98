// The unified request API: one validated path from a wire request (or CLI
// flags) to an Engine TaskSpec, plus the response envelope the serving
// daemon speaks.
//
// This layer is the api_redesign: `histk_cli` used to hand-assemble every
// TaskSpec from ~600 lines of flag plumbing, and a daemon would have had
// to duplicate all of it. Now both fronts construct a `RequestSpec` — the
// CLI from flags, `histkd` from one NDJSON line via ParseRequestJson —
// and `BuildTaskSpec` is the single translation into engine specs. The
// translation is pinned byte-for-byte to the legacy CLI assembly
// (tests/request_api_test.cc runs both and compares serialized reports),
// so adopting the API layer changed no report anywhere.
//
// Wire protocol (newline-delimited JSON, one request per line):
//
//   {"id": "r1", "kind": "learn", "k": 6, "eps": 0.2, "seed": 7,
//    "dataset": {"path": "items.txt"}}
//   {"id": "r2", "kind": "estimate", "k": 6, "eps": 0.2, "seed": 7,
//    "quantiles": [0.5, 0.9], "ranges": [[0, 63]],
//    "dataset": {"fingerprint": "9a7f..."}}
//
// Responses are one-line envelopes: {"histkd_response": 1, "id", "kind",
// "status", "degraded", "retries", "cache", ...} wrapping the standard
// Report JSON under "report" (see WriteResponseJson). Unknown request
// fields are rejected, not ignored — a typo'd "bugdet" must not silently
// serve an unbudgeted session.
#ifndef HISTK_API_REQUEST_H_
#define HISTK_API_REQUEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/greedy.h"
#include "dist/distribution.h"
#include "engine/budget.h"
#include "engine/engine.h"
#include "util/interval.h"
#include "util/status.h"

namespace histk {
namespace api {

/// What the request asks for. The first six map 1:1 onto Engine tasks;
/// kStats and kShutdown are daemon control requests with no TaskSpec.
enum class RequestKind {
  kLearn,
  kTest,
  kCompare,
  kEstimate,
  kPropertyTest,
  kCloseness,
  kStats,
  kShutdown,
};

const char* RequestKindName(RequestKind kind);
Result<RequestKind> ParseRequestKind(const std::string& name);

/// Where the session's dataset comes from. The CLI always ingests stdin
/// itself (kNone — it builds the oracle before calling the engine); the
/// daemon resolves refs through its dataset store and caches by content
/// fingerprint.
struct DatasetRef {
  enum class Kind {
    kNone,         ///< CLI-style: caller supplies the oracle out of band
    kInline,       ///< "items": [3, 3, 7, ...] — literal sample stream
    kPath,         ///< "path": server-side whitespace/comment item file
    kSketch,       ///< "sketch": server-side ConcurrentHistogram snapshot
    kFingerprint,  ///< "fingerprint": hex id of a previously loaded dataset
  };
  Kind kind = Kind::kNone;
  std::vector<int64_t> items;  ///< kInline payload
  std::string path;            ///< kPath / kSketch
  std::string fingerprint;     ///< kFingerprint (lowercase hex)
};

/// The parsed request: a flag-level superset of every task's knobs, with
/// the same defaults the CLI flags have. BuildTaskSpec() maps it onto the
/// one engine spec its kind calls for and rejects knobs that kind cannot
/// honor.
struct RequestSpec {
  std::string id;  ///< client correlation id, echoed in the response
  RequestKind kind = RequestKind::kLearn;

  int64_t k = 8;
  int64_t k2 = 0;  ///< closeness: piece budget for q (0 = same as k)
  double eps = 0.1;
  Norm norm = Norm::kL2;
  bool norm_set = false;  ///< property-test defaults to L1 unless given
  double scale = 1.0;
  bool full_enum = false;  ///< all-intervals candidate strategy
  bool reduce = false;     ///< learn: also reduce the tiling to k pieces
  uint64_t seed = 1;
  int64_t budget = BudgetedSampler::kUnlimited;
  int64_t deadline_ms = 0;
  int max_retries = 0;
  int draw_threads = 0;

  std::vector<double> quantiles;  ///< estimate: quantile levels in [0, 1]
  std::vector<Interval> ranges;   ///< estimate: inclusive range predicates

  /// Domain size when the source cannot declare one (inline items, path
  /// files); 0 = derive from max item + 1.
  int64_t n = 0;
  /// Reservoir cap for kPath ingestion (matches the CLI flag's default).
  int64_t reservoir = int64_t{1} << 20;

  DatasetRef dataset;
  DatasetRef other;  ///< closeness: the second oracle (q)
};

/// Parse one NDJSON request line. Structural and type errors come back as
/// kParseError with column context; schema violations (unknown field, bad
/// kind, missing id) as kInvalidArgument with the field named.
Result<RequestSpec> ParseRequestJson(const std::string& line);

/// Translate a request into the Engine TaskSpec its kind calls for.
/// Byte-parity contract: the produced spec is field-for-field what the
/// pre-refactor CLI assembled, so Engine::Run yields identical reports.
/// ClosenessSpec comes back with other == nullptr — the caller owns both
/// oracles and must wire the second one in before Run().
/// kStats/kShutdown have no TaskSpec and return kInvalidArgument.
Result<TaskSpec> BuildTaskSpec(const RequestSpec& req);

/// The canonical cache key for the learned synopsis a request depends on:
/// exactly the fields that determine the learn computation (k, eps, scale,
/// strategy, seed, budget, runtime knobs) plus the dataset fingerprint —
/// and nothing else, so field order, omitted-vs-explicit defaults, and
/// query-only fields (id, quantiles, ranges) cannot fragment the cache.
/// Requests with equal keys provably run the identical learn session.
/// Empty for kinds that never touch the synopsis cache.
std::string CanonicalSynopsisKey(const RequestSpec& req,
                                 const std::string& fingerprint);

/// How the response was produced relative to the synopsis cache.
enum class CacheState {
  kHit,     ///< served from a cached learned synopsis; no oracle draws
  kMiss,    ///< ran the session and populated the cache
  kBypass,  ///< the request kind does not consult the cache
};
const char* CacheStateName(CacheState state);

/// One response line. `status`/`degraded`/`retries` mirror the embedded
/// report's resilience triple when a report is present, and describe the
/// request-level failure (parse error, admission rejection) when not.
struct ResponseEnvelope {
  std::string id;       ///< echoed request id ("" -> null: unparseable line)
  bool has_id = false;
  std::string kind;     ///< request kind name ("" -> null)
  StatusCode status = StatusCode::kOk;
  bool degraded = false;
  int64_t retries = 0;
  CacheState cache = CacheState::kBypass;
  std::string fingerprint;      ///< dataset fingerprint hex; "" = omit
  std::string error;            ///< human-readable failure; "" = omit
  int64_t retry_after_ms = -1;  ///< backpressure hint; < 0 = omit
  double serve_ms = -1.0;       ///< daemon-side wall time; < 0 = omit
  const Report* report = nullptr;     ///< task result; null = omit
  const std::string* stats_json = nullptr;  ///< pre-rendered stats object
};

/// Serialize the envelope as one line ending in '\n'. The embedded report
/// is exactly AppendReportJson's object, so existing report tooling can
/// validate `response["report"]` unchanged.
std::string WriteResponseJson(const ResponseEnvelope& envelope);

}  // namespace api
}  // namespace histk

#endif  // HISTK_API_REQUEST_H_
