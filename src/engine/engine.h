// histk::Engine — the budgeted oracle-session facade.
//
// The paper's algorithms (and every related tester this repo will host)
// share one access shape: draw i.i.d. samples from an oracle, spend as few
// as possible, answer a question about the unknown distribution. The Engine
// makes that shape the API. A session binds an oracle (any Sampler,
// optionally with the ground-truth Distribution for evaluation tasks), and
// Run() executes task specs against it:
//
//   AliasSampler oracle(dist);
//   Engine engine(oracle, dist);
//   LearnSpec spec;
//   spec.seed = 7;
//   spec.budget = 500'000;          // hard cap on oracle draws
//   spec.options.k = 8;
//   spec.options.eps = 0.1;
//   Result<Report> r = engine.Run(spec);
//
// Contract:
//   * Invalid specs return Status::kInvalidArgument — never an abort.
//   * A finite budget never aborts either: exhausting it mid-task yields a
//     Report with outcome kBudgetExhausted and the telemetry accumulated up
//     to that point (samples_drawn <= budget always).
//   * With an unlimited budget and draw_threads = 0, Run() reproduces the
//     legacy free functions byte for byte: Run(LearnSpec) == LearnHistogram
//     and Run(TestSpec) == TestKHistogram on the same seed (enforced by
//     tests/engine_parity_test.cc). The free functions remain available but
//     are deprecated as entry points — new callers, the CLI, and the
//     examples all go through the facade.
//   * Every Report carries a uniform telemetry block (samples by phase,
//     wall time, candidate counts, thinning events) serializable to JSON
//     via AppendReportJson.
//   * All six tasks run through one session runner: validation (the
//     common knobs first, then the task's own), admission, one
//     BudgetedSampler meter and one Rng per session, the interruption
//     guard, and the outcome/telemetry/wall-time fill. A task is only its
//     validation plus a body that draws through that meter. Closeness
//     meters both of its oracles with the one meter: it switches to the
//     second oracle after the last draw from the first.
#ifndef HISTK_ENGINE_ENGINE_H_
#define HISTK_ENGINE_ENGINE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/greedy.h"
#include "core/property_tester.h"
#include "core/tester.h"
#include "dist/distribution.h"
#include "dist/sampler.h"
#include "engine/budget.h"
#include "engine/runtime.h"
#include "histogram/tiling.h"
#include "util/interval.h"
#include "util/status.h"

namespace histk {

/// Session knobs every task carries.
struct SpecCommon {
  /// Rng seed for the task's sample draws.
  uint64_t seed = 1;
  /// Hard cap on oracle draws (BudgetedSampler::kUnlimited = no cap).
  int64_t budget = BudgetedSampler::kUnlimited;
  /// 0 = the sequential stream, DrawCounts(threads = 0) (byte-identical to
  /// the free functions). >= 1 = the sharded stream with this many workers;
  /// the report is then byte-identical at ANY worker count (but distinct
  /// from the sequential stream). Either way a kCounts oracle draws count
  /// vectors: same law as the per-draw kernels, its own stream.
  int draw_threads = 0;
  /// The resilient-session runtime: deadline, cancellation, retry/backoff,
  /// admission control (engine/runtime.h). Inert by default — draw streams
  /// are then byte-identical to pre-policy sessions. Arming a deadline or
  /// cancel token switches the session to chunked metering: sequential
  /// sessions keep their exact stream; sharded sessions get a new (still
  /// deterministic, still thread-count-invariant) stream.
  RunPolicy policy;
};

/// Algorithm 1: learn a near-optimal priority k-histogram.
struct LearnSpec : SpecCommon {
  LearnOptions options;
  /// If > 0, additionally reduce the learned tiling to at most this many
  /// pieces (Report::reduced).
  int64_t reduce_to = 0;
};

/// Algorithm 2: test whether the oracle's distribution is a tiling
/// k-histogram.
struct TestSpec : SpecCommon {
  TestConfig config;
};

/// Learn, then score against the classic baselines built from the same
/// sample budget (equi-width / equi-depth / compressed) and the exact
/// v-optimal DP on the ground truth (O(n^2 k), so only for truth domains
/// up to 2^13). Needs a session truth distribution.
struct CompareSpec : SpecCommon {
  int64_t k = 8;
  double eps = 0.1;
  double sample_scale = 1.0;
  CandidateStrategy strategy = CandidateStrategy::kSampleEndpoints;
};

/// Learn a k-piece synopsis, then answer quantile and range-selectivity
/// queries from it (the database scenario). Truth, when the session has it,
/// is reported alongside each selectivity estimate.
struct EstimateSpec : SpecCommon {
  int64_t k = 8;
  double eps = 0.1;
  double sample_scale = 1.0;
  /// Quantile levels in [0, 1].
  std::vector<double> quantile_levels;
  /// Range predicates (inclusive intervals within [0, n)).
  std::vector<Interval> ranges;
};

/// CDKL22-flavored property test: is the oracle's distribution a
/// k-histogram at all (no reference given)? Learn-then-verify; see
/// core/property_tester.h.
struct PropertyTestSpec : SpecCommon {
  PropertyTestConfig config;
};

/// DKN17-flavored closeness test: are the session oracle's distribution p
/// and a second oracle's distribution q close (both promised approximate
/// histograms)? The second oracle is part of the spec and must outlive
/// Run(); both oracles are metered against the one budget, p first.
struct ClosenessSpec : SpecCommon {
  ClosenessConfig config;
  /// The second oracle (q). Required; must share the session oracle's n.
  const Sampler* other = nullptr;
};

/// The tagged union Run() dispatches on.
using TaskSpec = std::variant<LearnSpec, TestSpec, CompareSpec, EstimateSpec,
                              PropertyTestSpec, ClosenessSpec>;

/// How a task ended. Learn/compare/estimate end kOk; tests end
/// kAccepted/kRejected; any task that hits its budget ends kBudgetExhausted.
/// The resilient runtime adds three interrupted endings: the session
/// deadline expired (kDeadlineExceeded), the CancelToken fired
/// (kCancelled), or a transient oracle fault survived every retry
/// (kUnavailable). Reports with those outcomes are flagged degraded.
enum class TaskOutcome {
  kOk,
  kAccepted,
  kRejected,
  kBudgetExhausted,
  kDeadlineExceeded,
  kCancelled,
  kUnavailable,
};

const char* TaskOutcomeName(TaskOutcome outcome);

/// The Status code a Report outcome maps to (kOk for ok/accepted/rejected)
/// — the "status" field of the JSON report and the CLI's exit-code driver.
StatusCode TaskOutcomeStatus(TaskOutcome outcome);

/// The uniform telemetry block every Report carries.
struct ReportTelemetry {
  int64_t budget = BudgetedSampler::kUnlimited;  ///< the spec's cap (-1 = none)
  int64_t samples_drawn = 0;                     ///< total oracle draws
  std::vector<BudgetedSampler::PhaseDraws> phases;  ///< draws by phase, in order
  double wall_ms = 0.0;                          ///< task wall time
  int64_t candidates_per_iter = 0;               ///< greedy candidate intervals
  int64_t candidate_table_bytes = 0;             ///< greedy candidate-cost table size
  /// The max_candidates thinning event (0/0 = strategy without endpoint
  /// lists; equal values = no thinning).
  int64_t endpoints_before_thinning = 0;
  int64_t endpoints_after_thinning = 0;
};

/// One row of a compare task.
struct CompareRow {
  std::string method;    ///< "paper", "equi-width", "equi-depth", ...
  int64_t pieces = 0;    ///< pieces in the method's histogram
  double sse = 0.0;      ///< ||truth - H||_2^2
  int64_t samples = 0;   ///< oracle draws the method consumed (0 = exact)
};

/// Answers of an estimate task.
struct EstimateAnswers {
  struct QuantileAnswer {
    double q = 0.0;
    int64_t value = 0;
  };
  struct SelectivityAnswer {
    Interval range;
    double estimate = 0.0;
    /// Exact weight under the session truth; unset when the session has none.
    std::optional<double> truth;
  };
  std::vector<QuantileAnswer> quantiles;
  std::vector<SelectivityAnswer> selectivity;
};

/// Outcome + telemetry + the task's payload. Payload fields are set per
/// task type. On an interrupted outcome (budget/deadline/cancel/
/// unavailable) the report is flagged `degraded`: telemetry is always
/// meaningful, and learn sessions additionally carry a best-so-far tiling
/// in `reduced` when the interruption hit after the main sample completed
/// (an equi-depth fit of the samples in hand — coarse but data-backed).
/// Tests interrupted mid-phase are inconclusive: no accept/reject payload.
struct Report {
  /// "learn" | "test" | "compare" | "estimate" | "property-test" |
  /// "closeness"
  std::string task;
  TaskOutcome outcome = TaskOutcome::kOk;
  /// Typed reason, mirroring the outcome (TaskOutcomeStatus); kOk for the
  /// conclusive outcomes.
  StatusCode status = StatusCode::kOk;
  /// True iff the session was interrupted (any non-conclusive outcome).
  bool degraded = false;
  /// Transient-fault retries the session's oracles performed.
  int64_t retries = 0;
  ReportTelemetry telemetry;

  std::optional<LearnResult> learn;         ///< learn / compare / estimate
  std::optional<TilingHistogram> reduced;   ///< learn (reduce_to) / compare / estimate
  std::optional<TestOutcome> test;          ///< test
  std::vector<CompareRow> compare;          ///< compare
  std::optional<EstimateAnswers> estimate;  ///< estimate
  std::optional<PropertyTestOutcome> property_test;  ///< property-test
  std::optional<ClosenessOutcome> closeness;         ///< closeness
};

/// Appends a Report to `out` as a single-line JSON object, without a
/// trailing newline (schema documented in the README; validated by
/// tools/check_report_json.py in CI).
void AppendReportJson(std::string& out, const Report& report);

/// A session: an oracle, optional ground truth, and a uniform Run() entry
/// point. The Engine holds references — oracle (and truth, if given by
/// pointer semantics) must outlive it. Engines are stateless across Run()
/// calls: two Runs of the same spec give identical reports.
class Engine {
 public:
  /// Session over an oracle only (compare tasks will be rejected, estimate
  /// tasks answer without truth columns).
  explicit Engine(const Sampler& oracle);

  /// Session over an oracle plus the ground-truth distribution evaluation
  /// tasks score against.
  Engine(const Sampler& oracle, Distribution truth);

  /// Validates the spec (kInvalidArgument — never aborts), runs the task
  /// against the session oracle under the spec's budget, and reports.
  Result<Report> Run(const TaskSpec& spec) const;

  /// Answers a learn or estimate spec from a synopsis an earlier session
  /// learned, without touching the oracle: the synopsis cache's hit path.
  /// RunLearn and RunEstimate end in the same answer step, so the report
  /// matches the session's outside the telemetry block.
  ///   * learn: replays the learning session's `telemetry` and `retries`
  ///     (wall_ms documents what the learn cost when it ran), reduced as
  ///     the spec asks.
  ///   * estimate: validates the queries against this session
  ///     (kInvalidArgument), then answers them from `learned`; the report
  ///     draws nothing, has no phases, and carries this session's truth
  ///     column when it has one.
  /// Other task kinds are kInvalidArgument.
  Result<Report> AnswerFromSynopsis(const TaskSpec& spec,
                                    const LearnResult& learned,
                                    const ReportTelemetry& telemetry,
                                    int64_t retries) const;

  bool has_truth() const { return truth_.has_value(); }
  const Distribution& truth() const;

 private:
  Result<Report> RunLearn(const LearnSpec& spec) const;
  Result<Report> RunTest(const TestSpec& spec) const;
  Result<Report> RunCompare(const CompareSpec& spec) const;
  Result<Report> RunEstimate(const EstimateSpec& spec) const;
  Result<Report> RunPropertyTest(const PropertyTestSpec& spec) const;
  Result<Report> RunCloseness(const ClosenessSpec& spec) const;

  const Sampler& oracle_;
  std::optional<Distribution> truth_;
};

}  // namespace histk

#endif  // HISTK_ENGINE_ENGINE_H_
