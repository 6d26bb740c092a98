#include "engine/engine.h"

#include <algorithm>
#include <string>
#include <type_traits>
#include <utility>

#include "api/json.h"
#include "baseline/classic_histograms.h"
#include "baseline/voptimal_dp.h"
#include "dist/quantiles.h"
#include "histogram/ops.h"
#include "sample/sample_set.h"
#include "stats/bounds.h"
#include "stats/estimators.h"
#include "util/rng.h"
#include "util/timer.h"

namespace histk {

namespace {

/// Algorithm 1 under the session: identical draw order to LearnHistogram
/// (main set of l, then r collision sets of m), attributed to the phases
/// `<phase>-main` and `<phase>-collisions`. The greedy search polls the
/// session's deadline and cancel token once per candidate-table row, so an
/// armed policy bounds the search's compute too. Property-test and
/// closeness sessions reuse it under their own phase names. `main_out`
/// (armed learn sessions only — the copy is not free) receives the
/// completed main sample, the best-so-far state of a degraded report.
LearnResult LearnOnSession(const BudgetedSampler& bs, const LearnOptions& options,
                           Rng& rng, int threads, const std::string& phase,
                           std::optional<SampleSet>* main_out = nullptr) {
  const GreedyParams params = ComputeLearnParams(bs.n(), options);
  bs.BeginPhase(phase + "-main");
  SampleSet main = SampleSet::Draw(bs, params.l, rng, threads);
  if (main_out != nullptr) *main_out = main;
  bs.BeginPhase(phase + "-collisions");
  SampleSetGroup group = SampleSetGroup::Draw(bs, params.r, params.m, rng, threads);
  const GreedyEstimator estimator(std::move(main), std::move(group));
  return LearnHistogramWithEstimator(estimator, options, params,
                                     [&bs] { bs.PollRuntime(); });
}

/// Derives the typed status + degraded flag from the outcome the task body
/// (or its interruption) left on the report.
void FinalizeOutcome(Report& report) {
  report.status = TaskOutcomeStatus(report.outcome);
  report.degraded = report.status != StatusCode::kOk;
}

/// Admission control: consults the policy's governor (when one is set) and
/// returns the session's permit — inactive when ungoverned. The permit is
/// held for the duration of the Run and releases its slot on destruction.
Result<SessionGovernor::Permit> AdmitSession(const SpecCommon& common) {
  if (common.policy.governor == nullptr) return SessionGovernor::Permit();
  return common.policy.governor->Admit(common.budget);
}

/// The one session runner all six tasks go through. In order: the common
/// knobs, then the task's own `task_check` (so a bad draw_threads wins),
/// admission, and then `body(bs, rng, report)` on the session's one meter
/// and rng. The body draws only through `bs` and sets the outcome and the
/// payload; an interruption — budget, deadline, cancel, exhausted retries —
/// is caught here and becomes the report's typed outcome, keeping whatever
/// the body set before it. Any other exception propagates (it is a bug, not
/// an interruption). Every report then gets the meter's telemetry, its
/// retries and the wall time.
template <typename Body>
Result<Report> RunSession(const Sampler& oracle, const SpecCommon& common,
                          const Status& task_check, const char* task, Body&& body) {
  if (common.draw_threads < 0) {
    return Status::InvalidArgument("draw_threads must be >= 0 (0 = sequential)");
  }
  if (!task_check.ok()) return task_check;
  Result<SessionGovernor::Permit> permit = AdmitSession(common);
  if (!permit.ok()) return permit.status();

  const WallTimer timer;
  Report report;
  report.task = task;
  const BudgetedSampler bs(oracle, common.budget, &common.policy);
  Rng rng(common.seed);
  try {
    body(bs, rng, report);
  } catch (const BudgetExhaustedError&) {
    report.outcome = TaskOutcome::kBudgetExhausted;
  } catch (const DeadlineExceededError&) {
    report.outcome = TaskOutcome::kDeadlineExceeded;
  } catch (const CancelledError&) {
    report.outcome = TaskOutcome::kCancelled;
  } catch (const TransientUnavailableError&) {
    report.outcome = TaskOutcome::kUnavailable;
  }
  FinalizeOutcome(report);
  report.retries = bs.retries();
  report.telemetry.budget = bs.budget();
  report.telemetry.samples_drawn = bs.samples_drawn();
  report.telemetry.phases = bs.phases();
  report.telemetry.wall_ms = timer.ElapsedMillis();
  return report;
}

void FillLearnTelemetry(Report& report, const LearnResult& result) {
  report.telemetry.candidates_per_iter = result.candidates_per_iter;
  report.telemetry.endpoints_before_thinning = result.endpoints_before_thinning;
  report.telemetry.endpoints_after_thinning = result.endpoints_after_thinning;
  report.telemetry.candidate_table_bytes = result.candidate_table_bytes;
}

/// What a learned synopsis contributes to a learn report, whether it was
/// just learned or is replayed from a cache.
void AnswerLearn(int64_t reduce_to, LearnResult learned, Report& report) {
  FillLearnTelemetry(report, learned);
  if (reduce_to > 0) report.reduced = ReduceToKPieces(learned.tiling, reduce_to);
  report.learn = std::move(learned);
  report.outcome = TaskOutcome::kOk;
}

/// An estimate's queries against a session over [0, n) with optional truth.
Status ValidateEstimateQueries(const EstimateSpec& spec, int64_t n,
                               const std::optional<Distribution>& truth) {
  for (double q : spec.quantile_levels) {
    if (!(q >= 0.0 && q <= 1.0)) {
      return Status::InvalidArgument("quantile levels must be in [0, 1]");
    }
  }
  const Interval domain = Interval::Full(n);
  for (const Interval& range : spec.ranges) {
    if (range.empty() || !domain.Contains(range)) {
      return Status::InvalidArgument("ranges must be non-empty and within [0, n)");
    }
  }
  if (truth && truth->n() != n) {
    return Status::InvalidArgument("session truth domain differs from the oracle's");
  }
  return Status::Ok();
}

/// The estimate answer: reduce the learned tiling to spec.k pieces, then
/// answer the quantile and range-selectivity queries from it. `truth`, when
/// the session has one, fills the selectivity truth column.
Status AnswerEstimate(const EstimateSpec& spec, LearnResult learned,
                      const std::optional<Distribution>& truth, Report& report) {
  TilingHistogram synopsis = ReduceToKPieces(learned.tiling, spec.k);
  EstimateAnswers answers;
  if (!spec.quantile_levels.empty()) {
    // Quantiles need a proper distribution; the synopsis can carry zero
    // mass only if the learner saw no samples at all.
    double mass = 0.0;
    for (int64_t j = 0; j < synopsis.k(); ++j) {
      mass += std::max(synopsis.values()[static_cast<size_t>(j)], 0.0) *
              static_cast<double>(synopsis.pieces()[static_cast<size_t>(j)].length());
    }
    if (mass <= 0.0) {
      return Status::Internal("learned synopsis has zero mass; cannot answer quantiles");
    }
    const Distribution synopsis_dist = synopsis.ToDistribution();
    for (double q : spec.quantile_levels) {
      answers.quantiles.push_back(
          EstimateAnswers::QuantileAnswer{q, Quantile(synopsis_dist, q)});
    }
  }
  for (const Interval& range : spec.ranges) {
    EstimateAnswers::SelectivityAnswer answer;
    answer.range = range;
    answer.estimate = synopsis.Mass(range);
    if (truth) answer.truth = truth->Weight(range);
    answers.selectivity.push_back(answer);
  }

  FillLearnTelemetry(report, learned);
  report.estimate = std::move(answers);
  report.reduced = std::move(synopsis);
  report.learn = std::move(learned);
  report.outcome = TaskOutcome::kOk;
  return Status::Ok();
}

/// The learner options of a compare or estimate synopsis.
LearnOptions SynopsisOptions(
    int64_t k, double eps, double sample_scale,
    CandidateStrategy strategy = CandidateStrategy::kSampleEndpoints) {
  LearnOptions options;
  options.k = k;
  options.eps = eps;
  options.sample_scale = sample_scale;
  options.strategy = strategy;
  return options;
}

/// The exact v-optimal DP row is O(n^2 k), so compare runs it only on truth
/// domains up to this size.
constexpr int64_t kMaxVOptimalDomain = int64_t{1} << 13;

}  // namespace

const char* TaskOutcomeName(TaskOutcome outcome) {
  switch (outcome) {
    case TaskOutcome::kOk:
      return "ok";
    case TaskOutcome::kAccepted:
      return "accepted";
    case TaskOutcome::kRejected:
      return "rejected";
    case TaskOutcome::kBudgetExhausted:
      return "budget-exhausted";
    case TaskOutcome::kDeadlineExceeded:
      return "deadline-exceeded";
    case TaskOutcome::kCancelled:
      return "cancelled";
    case TaskOutcome::kUnavailable:
      return "unavailable";
  }
  return "unknown";
}

StatusCode TaskOutcomeStatus(TaskOutcome outcome) {
  switch (outcome) {
    case TaskOutcome::kOk:
    case TaskOutcome::kAccepted:
    case TaskOutcome::kRejected:
      return StatusCode::kOk;
    case TaskOutcome::kBudgetExhausted:
      return StatusCode::kBudgetExhausted;
    case TaskOutcome::kDeadlineExceeded:
      return StatusCode::kDeadlineExceeded;
    case TaskOutcome::kCancelled:
      return StatusCode::kCancelled;
    case TaskOutcome::kUnavailable:
      return StatusCode::kUnavailable;
  }
  return StatusCode::kInternal;
}

Engine::Engine(const Sampler& oracle) : oracle_(oracle) {}

Engine::Engine(const Sampler& oracle, Distribution truth)
    : oracle_(oracle), truth_(std::move(truth)) {}

const Distribution& Engine::truth() const {
  HISTK_CHECK_MSG(truth_.has_value(), "Engine::truth() on a session without one");
  return *truth_;
}

Result<Report> Engine::Run(const TaskSpec& spec) const {
  return std::visit(
      [this](const auto& task) -> Result<Report> {
        using T = std::decay_t<decltype(task)>;
        if constexpr (std::is_same_v<T, LearnSpec>) return RunLearn(task);
        else if constexpr (std::is_same_v<T, TestSpec>) return RunTest(task);
        else if constexpr (std::is_same_v<T, CompareSpec>) return RunCompare(task);
        else if constexpr (std::is_same_v<T, PropertyTestSpec>) return RunPropertyTest(task);
        else if constexpr (std::is_same_v<T, ClosenessSpec>) return RunCloseness(task);
        else return RunEstimate(task);
      },
      spec);
}

Result<Report> Engine::RunLearn(const LearnSpec& spec) const {
  Status check = ValidateLearnOptions(oracle_.n(), spec.options);
  if (check.ok() && spec.reduce_to < 0) {
    check = Status::InvalidArgument("reduce_to must be >= 0 (0 = off)");
  }
  std::optional<SampleSet> main;
  Result<Report> report = RunSession(
      oracle_, spec, check, "learn",
      [&](const BudgetedSampler& bs, Rng& rng, Report& out) {
        AnswerLearn(spec.reduce_to,
                    LearnOnSession(bs, spec.options, rng, spec.draw_threads, "learn",
                                   spec.policy.armed() ? &main : nullptr),
                    out);
      });
  if (report.ok() && report->degraded && main.has_value() && main->m() > 0) {
    // Best-so-far degradation: the interruption hit after the main sample
    // completed, so an equi-depth fit of the samples in hand is a coarse
    // but data-backed tiling — strictly better than returning nothing.
    report->reduced = EquiDepthFromSamples(spec.options.k, *main);
  }
  return report;
}

Result<Report> Engine::RunTest(const TestSpec& spec) const {
  // An interrupted test is inconclusive: no accept/reject payload, just the
  // typed outcome + degraded flag.
  return RunSession(
      oracle_, spec, ValidateTestConfig(oracle_.n(), spec.config), "test",
      [&](const BudgetedSampler& bs, Rng& rng, Report& report) {
        const TesterParams params = ComputeTesterParams(bs.n(), spec.config);
        bs.BeginPhase("test-draw");
        const SampleSetGroup group =
            SampleSetGroup::Draw(bs, params.r, params.m, rng, spec.draw_threads);
        TestOutcome outcome = TestKHistogramOnGroup(group, spec.config);
        outcome.params = params;
        report.outcome =
            outcome.accepted ? TaskOutcome::kAccepted : TaskOutcome::kRejected;
        report.test = std::move(outcome);
      });
}

Result<Report> Engine::RunCompare(const CompareSpec& spec) const {
  const LearnOptions options =
      SynopsisOptions(spec.k, spec.eps, spec.sample_scale, spec.strategy);
  Status check = ValidateLearnOptions(oracle_.n(), options);
  if (check.ok() && !truth_) {
    check = Status::InvalidArgument(
        "compare task needs a session ground-truth distribution");
  } else if (check.ok() && truth_->n() != oracle_.n()) {
    check = Status::InvalidArgument("session truth domain differs from the oracle's");
  }
  return RunSession(
      oracle_, spec, check, "compare",
      [&](const BudgetedSampler& bs, Rng& rng, Report& report) {
        LearnResult result =
            LearnOnSession(bs, options, rng, spec.draw_threads, "learn");
        FillLearnTelemetry(report, result);
        TilingHistogram reduced = ReduceToKPieces(result.tiling, spec.k);

        // Rows reach the report only once all of them exist: an interrupted
        // comparison keeps the telemetry-only contract.
        std::vector<CompareRow> rows;
        auto row = [&](const char* method, const TilingHistogram& h, int64_t samples) {
          rows.push_back(
              CompareRow{method, h.k(), h.L2SquaredErrorTo(*truth_), samples});
        };
        row("paper", reduced, result.total_samples);
        row("paper-raw", result.tiling, result.total_samples);

        // Classic sampling histograms from a fresh sample of the same size the
        // learner consumed, so the comparison is apples-to-apples.
        bs.BeginPhase("baselines");
        const SampleSet baseline_sample =
            SampleSet::Draw(bs, result.total_samples, rng, spec.draw_threads);
        row("equi-width", EquiWidthFromSamples(spec.k, baseline_sample),
            baseline_sample.m());
        row("equi-depth", EquiDepthFromSamples(spec.k, baseline_sample),
            baseline_sample.m());
        row("compressed", CompressedFromSamples(spec.k, baseline_sample),
            baseline_sample.m());

        // The exact optimum the paper's guarantee is stated against. Reads the
        // full pmf (zero oracle draws).
        if (truth_->n() <= kMaxVOptimalDomain) {
          const VOptimalResult opt = VOptimalHistogram(*truth_, spec.k);
          row("v-optimal", opt.histogram, 0);
        }

        report.compare = std::move(rows);
        report.reduced = std::move(reduced);
        report.learn = std::move(result);
        report.outcome = TaskOutcome::kOk;
      });
}

Result<Report> Engine::RunEstimate(const EstimateSpec& spec) const {
  const LearnOptions options = SynopsisOptions(spec.k, spec.eps, spec.sample_scale);
  Status check = ValidateLearnOptions(oracle_.n(), options);
  if (check.ok()) check = ValidateEstimateQueries(spec, oracle_.n(), truth_);
  Status failure = Status::Ok();
  Result<Report> report = RunSession(
      oracle_, spec, check, "estimate",
      [&](const BudgetedSampler& bs, Rng& rng, Report& out) {
        failure = AnswerEstimate(
            spec, LearnOnSession(bs, options, rng, spec.draw_threads, "learn"), truth_,
            out);
      });
  if (!failure.ok()) return failure;
  return report;
}

Result<Report> Engine::AnswerFromSynopsis(const TaskSpec& spec,
                                          const LearnResult& learned,
                                          const ReportTelemetry& telemetry,
                                          int64_t retries) const {
  Report report;
  if (const auto* learn = std::get_if<LearnSpec>(&spec)) {
    report.task = "learn";
    report.retries = retries;
    report.telemetry = telemetry;
    AnswerLearn(learn->reduce_to, learned, report);
  } else if (const auto* estimate = std::get_if<EstimateSpec>(&spec)) {
    if (Status s = ValidateEstimateQueries(*estimate, oracle_.n(), truth_); !s.ok()) {
      return s;
    }
    report.task = "estimate";
    report.telemetry.budget = estimate->budget;
    if (Status s = AnswerEstimate(*estimate, learned, truth_, report); !s.ok()) {
      return s;
    }
  } else {
    return Status::InvalidArgument(
        "only learn and estimate tasks can be answered from a learned synopsis");
  }
  FinalizeOutcome(report);
  return report;
}

Result<Report> Engine::RunPropertyTest(const PropertyTestSpec& spec) const {
  return RunSession(
      oracle_, spec, ValidatePropertyTestConfig(oracle_.n(), spec.config),
      "property-test",
      [&](const BudgetedSampler& bs, Rng& rng, Report& report) {
        const PropertyTestConfig& config = spec.config;
        const PropertyTesterParams params = ComputePropertyTestParams(bs.n(), config);
        // Phase 1: candidate fit — identical draw order to the free function
        // (GreedyEstimator::Draw), with property-test phase attribution.
        const LearnResult learned =
            LearnOnSession(bs, PropertyTestLearnOptions(config), rng,
                           spec.draw_threads, "ptest-learn");
        TilingHistogram candidate = ReduceToKPieces(learned.tiling, config.k);
        const VerificationPlan plan = BuildVerificationPlan(candidate, config);
        // Phase 2: fresh verification group.
        bs.BeginPhase("ptest-verify");
        const SampleSetGroup group = SampleSetGroup::Draw(
            bs, params.verify_r, params.verify_m, rng, spec.draw_threads);
        PropertyTestOutcome outcome = DecidePropertyTest(plan, group);
        outcome.params = params;
        outcome.total_samples = bs.samples_drawn();
        outcome.candidate = std::move(candidate);
        report.outcome =
            outcome.accepted ? TaskOutcome::kAccepted : TaskOutcome::kRejected;
        report.property_test = std::move(outcome);
      });
}

Result<Report> Engine::RunCloseness(const ClosenessSpec& spec) const {
  Status check = Status::Ok();
  if (spec.other == nullptr) {
    check = Status::InvalidArgument("closeness task needs a second oracle");
  } else if (spec.other->n() != oracle_.n()) {
    check = Status::InvalidArgument(
        "the second closeness oracle's domain differs from the session's");
  } else {
    check = ValidateClosenessConfig(oracle_.n(), spec.config);
  }
  return RunSession(
      oracle_, spec, check, "closeness",
      [&](const BudgetedSampler& bs, Rng& rng, Report& report) {
        const ClosenessConfig& config = spec.config;
        const ClosenessParams params = ComputeClosenessTestParams(bs.n(), config);

        const LearnResult learned_p =
            LearnOnSession(bs, ClosenessLearnOptions(config, config.k_p), rng,
                           spec.draw_threads, "close-learn-p");
        TilingHistogram candidate_p = ReduceToKPieces(learned_p.tiling, config.k_p);
        bs.BeginPhase("close-verify-p");
        const SampleSetGroup group_p = SampleSetGroup::Draw(
            bs, params.verify_r, params.verify_m, rng, spec.draw_threads);

        // Every p draw precedes every q draw (the free-function order), so
        // the one meter moves on to q and both count against one budget.
        bs.SwitchOracle(*spec.other);
        const LearnResult learned_q =
            LearnOnSession(bs, ClosenessLearnOptions(config, config.k_q), rng,
                           spec.draw_threads, "close-learn-q");
        TilingHistogram candidate_q = ReduceToKPieces(learned_q.tiling, config.k_q);
        bs.BeginPhase("close-verify-q");
        const SampleSetGroup group_q = SampleSetGroup::Draw(
            bs, params.verify_r, params.verify_m, rng, spec.draw_threads);

        const std::vector<Interval> parts = CommonRefinement(candidate_p, candidate_q);
        ClosenessOutcome outcome = DecideCloseness(parts, group_p, group_q, config);
        outcome.params = params;
        outcome.total_samples = bs.samples_drawn();
        outcome.candidate_p = std::move(candidate_p);
        outcome.candidate_q = std::move(candidate_q);
        report.outcome =
            outcome.accepted ? TaskOutcome::kAccepted : TaskOutcome::kRejected;
        report.closeness = std::move(outcome);
      });
}

// ------------------------------------------------------------- JSON output

namespace {

using api::AppendJsonDouble;
using api::AppendJsonString;

/// `, "key": ` — the separator and name of every member after an object's
/// first; the typed overloads append the value too.
void Member(std::string& out, const char* key) {
  out += ", \"";
  out += key;
  out += "\": ";
}

void Member(std::string& out, const char* key, int64_t value) {
  Member(out, key);
  out += std::to_string(value);
}

void Member(std::string& out, const char* key, double value) {
  Member(out, key);
  AppendJsonDouble(out, value);
}

void Member(std::string& out, const char* key, bool value) {
  Member(out, key);
  out += value ? "true" : "false";
}

/// `{"accepted": <bool>` — the opening of every test-outcome block.
void OpenDecision(std::string& out, const char* block, bool accepted) {
  Member(out, block);
  out += "{\"accepted\": ";
  out += accepted ? "true" : "false";
}

void AppendTiling(std::string& out, const TilingHistogram& h) {
  out += "{\"n\": " + std::to_string(h.n());
  Member(out, "k", h.k());
  out += ", \"right_ends\": [";
  for (int64_t j = 0; j < h.k(); ++j) {
    if (j > 0) out += ", ";
    out += std::to_string(h.pieces()[static_cast<size_t>(j)].hi);
  }
  out += "], \"values\": [";
  for (int64_t j = 0; j < h.k(); ++j) {
    if (j > 0) out += ", ";
    AppendJsonDouble(out, h.values()[static_cast<size_t>(j)]);
  }
  out += "]}";
}

void AppendTilingMember(std::string& out, const char* key, const TilingHistogram& h) {
  Member(out, key);
  AppendTiling(out, h);
}

void AppendLearnParams(std::string& out, const GreedyParams& params) {
  out += "{\"l\": " + std::to_string(params.l);
  Member(out, "r", params.r);
  Member(out, "m", params.m);
  Member(out, "iterations", params.iterations);
  out += "}";
}

}  // namespace

void AppendReportJson(std::string& out, const Report& report) {
  out += "{\"histk_report\": 1, \"task\": ";
  AppendJsonString(out, report.task);
  Member(out, "outcome");
  AppendJsonString(out, TaskOutcomeName(report.outcome));
  Member(out, "status");
  AppendJsonString(out, StatusCodeName(report.status));
  Member(out, "degraded", report.degraded);
  Member(out, "retries", report.retries);

  const ReportTelemetry& t = report.telemetry;
  out += ", \"telemetry\": {\"budget\": " + std::to_string(t.budget);
  Member(out, "samples_drawn", t.samples_drawn);
  Member(out, "wall_ms", t.wall_ms);
  Member(out, "candidates_per_iter", t.candidates_per_iter);
  Member(out, "candidate_table_bytes", t.candidate_table_bytes);
  Member(out, "endpoints_before_thinning", t.endpoints_before_thinning);
  Member(out, "endpoints_after_thinning", t.endpoints_after_thinning);
  out += ", \"phases\": [";
  for (size_t i = 0; i < t.phases.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"phase\": ";
    AppendJsonString(out, t.phases[i].phase);
    Member(out, "samples", t.phases[i].samples);
    out += "}";
  }
  out += "]}";

  if (report.learn) {
    const LearnResult& r = *report.learn;
    out += ", \"learn\": {\"params\": ";
    AppendLearnParams(out, r.params);
    Member(out, "total_samples", r.total_samples);
    Member(out, "estimated_cost", r.estimated_cost);
    Member(out, "priority_entries", r.priority.size());
    AppendTilingMember(out, "tiling", r.tiling);
    out += "}";
  }
  if (report.reduced) AppendTilingMember(out, "reduced", *report.reduced);
  if (report.test) {
    const TestOutcome& test = *report.test;
    OpenDecision(out, "test", test.accepted);
    out += ", \"params\": {\"r\": " + std::to_string(test.params.r);
    Member(out, "m", test.params.m);
    out += "}";
    Member(out, "total_samples", test.total_samples);
    out += ", \"flat_partition\": [";
    for (size_t i = 0; i < test.flat_partition.size(); ++i) {
      if (i > 0) out += ", ";
      out += "[" + std::to_string(test.flat_partition[i].lo) + ", " +
             std::to_string(test.flat_partition[i].hi) + "]";
    }
    out += "]}";
  }
  if (!report.compare.empty()) {
    out += ", \"compare\": [";
    for (size_t i = 0; i < report.compare.size(); ++i) {
      if (i > 0) out += ", ";
      const CompareRow& row = report.compare[i];
      out += "{\"method\": ";
      AppendJsonString(out, row.method);
      Member(out, "pieces", row.pieces);
      Member(out, "sse", row.sse);
      Member(out, "samples", row.samples);
      out += "}";
    }
    out += "]";
  }
  if (report.property_test) {
    const PropertyTestOutcome& p = *report.property_test;
    OpenDecision(out, "property_test", p.accepted);
    out += ", \"params\": {\"learn\": ";
    AppendLearnParams(out, p.params.learn);
    Member(out, "verify_r", p.params.verify_r);
    Member(out, "verify_m", p.params.verify_m);
    out += "}";
    Member(out, "total_samples", p.total_samples);
    Member(out, "refinement_parts", p.refinement_parts);
    Member(out, "fitted_pieces", p.fitted_pieces);
    Member(out, "fit_stat", p.fit_stat);
    Member(out, "fit_threshold", p.fit_threshold);
    Member(out, "exception_parts", p.exception_parts);
    Member(out, "exception_mass", p.exception_mass);
    Member(out, "exception_mass_threshold", p.exception_mass_threshold);
    Member(out, "collision_stat", p.collision_stat);
    Member(out, "collision_threshold", p.collision_threshold);
    Member(out, "candidate_l1", p.candidate_l1);
    if (p.candidate) AppendTilingMember(out, "candidate", *p.candidate);
    out += "}";
  }
  if (report.closeness) {
    const ClosenessOutcome& c = *report.closeness;
    OpenDecision(out, "closeness", c.accepted);
    out += ", \"params\": {\"verify_r\": " + std::to_string(c.params.verify_r);
    Member(out, "verify_m", c.params.verify_m);
    out += "}";
    Member(out, "total_samples", c.total_samples);
    Member(out, "refinement_parts", c.refinement_parts);
    Member(out, "statistic", c.statistic);
    Member(out, "threshold", c.threshold);
    if (c.candidate_p) AppendTilingMember(out, "candidate_p", *c.candidate_p);
    if (c.candidate_q) AppendTilingMember(out, "candidate_q", *c.candidate_q);
    out += "}";
  }
  if (report.estimate) {
    const EstimateAnswers& e = *report.estimate;
    out += ", \"estimate\": {\"quantiles\": [";
    for (size_t i = 0; i < e.quantiles.size(); ++i) {
      if (i > 0) out += ", ";
      out += "{\"q\": ";
      AppendJsonDouble(out, e.quantiles[i].q);
      Member(out, "value", e.quantiles[i].value);
      out += "}";
    }
    out += "], \"selectivity\": [";
    for (size_t i = 0; i < e.selectivity.size(); ++i) {
      if (i > 0) out += ", ";
      const EstimateAnswers::SelectivityAnswer& sel = e.selectivity[i];
      out += "{\"lo\": " + std::to_string(sel.range.lo);
      Member(out, "hi", sel.range.hi);
      Member(out, "estimate", sel.estimate);
      Member(out, "truth");
      if (sel.truth) {
        AppendJsonDouble(out, *sel.truth);
      } else {
        out += "null";
      }
      out += "}";
    }
    out += "]}";
  }
  out += "}";
}

}  // namespace histk
