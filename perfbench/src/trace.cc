#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <variant>

#include "api/request.h"
#include "core/greedy.h"
#include "core/property_tester.h"
#include "core/tester.h"
#include "dist/quantiles.h"
#include "histogram/ops.h"
#include "sample/sample_set.h"
#include "serve/server.h"
#include "stats/estimators.h"
#include "util/rng.h"

namespace perfbench {

using histk::ClosenessOutcome;
using histk::ClosenessSpec;
using histk::Distribution;
using histk::EstimateAnswers;
using histk::EstimateSpec;
using histk::GreedyEstimator;
using histk::GreedyParams;
using histk::Interval;
using histk::LearnOptions;
using histk::LearnResult;
using histk::LearnSpec;
using histk::PropertyTestOutcome;
using histk::PropertyTestSpec;
using histk::Report;
using histk::Result;
using histk::Rng;
using histk::Sampler;
using histk::SampleSetGroup;
using histk::Status;
using histk::TaskOutcome;
using histk::TestOutcome;
using histk::TestSpec;
using histk::TilingHistogram;
using histk::api::RequestKind;
using histk::api::RequestSpec;
using histk::serve::CachedSynopsis;
using histk::serve::ServedDataset;

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Require(const Status& status) {
  if (!status.ok()) throw std::runtime_error("traced replay: " + status.message());
}

/// Times calls as children of one request's root span.
struct Spans {
  Tracer* tracer;
  int64_t request;
  int64_t root;

  template <typename Fn>
  auto operator()(Layer layer, Fn&& fn) -> decltype(fn()) {
    if (tracer == nullptr) return fn();
    const int64_t span = tracer->Begin(request, layer, root);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      tracer->End(span);
    } else {
      decltype(fn()) result = fn();
      tracer->End(span);
      return result;
    }
  }
};

/// Algorithm 1 as the engine runs it: draw the main set and the collision
/// sets, then the greedy search.
LearnResult Learn(Spans& spans, const Sampler& oracle, const LearnOptions& options,
                  Rng& rng, int64_t& drawn) {
  const GreedyParams params = histk::ComputeLearnParams(oracle.n(), options);
  const GreedyEstimator estimator = spans(
      Layer::kDraw, [&] { return GreedyEstimator::Draw(oracle, params, rng); });
  drawn += estimator.TotalSamples();
  return spans(Layer::kGreedy, [&] {
    return histk::LearnHistogramWithEstimator(estimator, options, params);
  });
}

/// The estimate answer block from a learned synopsis.
void Answer(const RequestSpec& req, const LearnResult& learned, Report& out) {
  TilingHistogram synopsis = histk::ReduceToKPieces(learned.tiling, req.k);
  EstimateAnswers answers;
  if (!req.quantiles.empty()) {
    const Distribution synopsis_dist = synopsis.ToDistribution();
    for (double q : req.quantiles) {
      answers.quantiles.push_back(
          EstimateAnswers::QuantileAnswer{q, histk::Quantile(synopsis_dist, q)});
    }
  }
  for (const Interval& range : req.ranges) {
    EstimateAnswers::SelectivityAnswer answer;
    answer.range = range;
    answer.estimate = synopsis.Mass(range);
    answers.selectivity.push_back(answer);
  }
  out.estimate = std::move(answers);
  out.reduced = std::move(synopsis);
  out.learn = learned;
}

void FillLearnTelemetry(Report& report, const LearnResult& learned) {
  report.telemetry.candidates_per_iter = learned.candidates_per_iter;
  report.telemetry.endpoints_before_thinning = learned.endpoints_before_thinning;
  report.telemetry.endpoints_after_thinning = learned.endpoints_after_thinning;
}

TaskOutcome Decision(bool accepted) {
  return accepted ? TaskOutcome::kAccepted : TaskOutcome::kRejected;
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRequest:
      return "request";
    case Layer::kParse:
      return "api.parse";
    case Layer::kBuild:
      return "api.build";
    case Layer::kEmit:
      return "api.emit";
    case Layer::kResolve:
      return "serve.resolve";
    case Layer::kCache:
      return "serve.cache";
    case Layer::kAnswer:
      return "serve.answer";
    case Layer::kDraw:
      return "sample.draw";
    case Layer::kGreedy:
      return "core.greedy";
    case Layer::kVerify:
      return "core.verify";
  }
  return "unknown";
}

int64_t Tracer::Begin(int64_t request, Layer name, int64_t parent) {
  Span span;
  span.request = request;
  span.name = name;
  span.parent = parent;
  span.start_ns = NowNs();
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t span) { spans_[static_cast<size_t>(span)].end_ns = NowNs(); }

LayerTotals SumSelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) children[static_cast<size_t>(spans[i].parent)].push_back(i);
  }
  LayerTotals totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    // Union of the child intervals, clipped to the span.
    std::vector<std::pair<int64_t, int64_t>> covered;
    for (size_t c : children[i]) {
      covered.emplace_back(std::max(spans[c].start_ns, span.start_ns),
                           std::min(spans[c].end_ns, span.end_ns));
    }
    std::sort(covered.begin(), covered.end());
    int64_t child_ns = 0;
    int64_t reach = span.start_ns;
    for (const auto& [lo, hi] : covered) {
      const int64_t from = std::max(lo, reach);
      if (hi > from) {
        child_ns += hi - from;
        reach = hi;
      }
    }
    const int64_t duration = span.end_ns - span.start_ns;
    totals.self_ns[static_cast<size_t>(span.name)] +=
        static_cast<double>(duration - child_ns);
    if (span.name == Layer::kRequest) {
      totals.request_ns += static_cast<double>(duration);
    }
  }
  return totals;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "request\tspan\tname\tparent\tstart_ns\tend_ns\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << s.request << '\t' << i << '\t' << LayerName(s.name) << '\t' << s.parent
        << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

TracedReplay::TracedReplay()
    : store_(histk::serve::ServeOptions{}.max_datasets,
             histk::serve::ServeOptions{}.kernel,
             histk::serve::FsRefPolicy{/*allow=*/false, /*root=*/""}),
      cache_(histk::serve::ServeOptions{}.cache_entries) {}

std::string TracedReplay::Handle(const std::string& line, int64_t request,
                                 Tracer* tracer) {
  const int64_t start_ns = NowNs();
  Spans spans{tracer, request,
              tracer == nullptr ? -1 : tracer->Begin(request, Layer::kRequest, -1)};

  Result<RequestSpec> parsed =
      spans(Layer::kParse, [&] { return histk::api::ParseRequestJson(line); });
  Require(parsed.status());
  const RequestSpec& req = *parsed;

  auto resolve = [&](const histk::api::DatasetRef& ref) {
    Result<std::shared_ptr<ServedDataset>> ds = spans(
        Layer::kResolve, [&] { return store_.Resolve(ref, req.n, req.reservoir); });
    Require(ds.status());
    return *ds;
  };
  const std::shared_ptr<ServedDataset> ds = resolve(req.dataset);
  std::shared_ptr<ServedDataset> other;
  if (req.kind == RequestKind::kCloseness) other = resolve(req.other);

  std::string key;
  Result<histk::TaskSpec> spec = spans(Layer::kBuild, [&] {
    Result<histk::TaskSpec> built = histk::api::BuildTaskSpec(req);
    key = histk::api::CanonicalSynopsisKey(req, ds->fingerprint_hex());
    return built;
  });
  Require(spec.status());

  histk::api::ResponseEnvelope env;
  env.id = req.id;
  env.has_id = true;
  env.kind = histk::api::RequestKindName(req.kind);
  env.fingerprint = ds->fingerprint_hex();

  std::shared_ptr<const CachedSynopsis> synopsis;
  if (!key.empty()) {
    synopsis = spans(Layer::kCache, [&] { return cache_.Lookup(key); });
    env.cache = synopsis != nullptr ? histk::api::CacheState::kHit
                                    : histk::api::CacheState::kMiss;
  }

  Report report;
  report.telemetry.budget = req.budget;
  const Sampler& oracle = ds->oracle();
  int64_t drawn = 0;
  // Learn on a miss and cache the synopsis, as the daemon does for the
  // kinds that have a cache key.
  auto learn_and_insert = [&](const LearnOptions& options, uint64_t seed) {
    Rng rng(seed);
    LearnResult learned = Learn(spans, oracle, options, rng, drawn);
    report.telemetry.samples_drawn = drawn;
    FillLearnTelemetry(report, learned);
    auto entry = std::make_shared<const CachedSynopsis>(std::move(learned),
                                                        report.telemetry, 0);
    spans(Layer::kCache, [&] { cache_.Insert(key, entry); });
    return entry;
  };

  switch (req.kind) {
    case RequestKind::kLearn: {
      report.task = "learn";
      report.outcome = TaskOutcome::kOk;
      if (synopsis != nullptr) {
        spans(Layer::kAnswer, [&] {
          report.learn = synopsis->result;
          report.telemetry = synopsis->telemetry;
          report.retries = synopsis->retries;
        });
      } else {
        const LearnSpec& task = std::get<LearnSpec>(*spec);
        report.learn = learn_and_insert(task.options, task.seed)->result;
      }
      break;
    }
    case RequestKind::kEstimate: {
      const EstimateSpec& task = std::get<EstimateSpec>(*spec);
      report.task = "estimate";
      report.outcome = TaskOutcome::kOk;
      if (synopsis == nullptr) {
        LearnOptions options;
        options.k = task.k;
        options.eps = task.eps;
        options.sample_scale = task.sample_scale;
        synopsis = learn_and_insert(options, task.seed);
      } else {
        FillLearnTelemetry(report, synopsis->result);
      }
      spans(Layer::kAnswer, [&] { Answer(req, synopsis->result, report); });
      break;
    }
    case RequestKind::kTest: {
      const TestSpec& task = std::get<TestSpec>(*spec);
      report.task = "test";
      Rng rng(task.seed);
      const histk::TesterParams params = histk::ComputeTesterParams(oracle.n(), task.config);
      const SampleSetGroup group = spans(Layer::kDraw, [&] {
        return SampleSetGroup::Draw(oracle, params.r, params.m, rng);
      });
      drawn += group.TotalSamples();
      TestOutcome outcome = spans(Layer::kVerify, [&] {
        return histk::TestKHistogramOnGroup(group, task.config);
      });
      outcome.params = params;
      report.outcome = Decision(outcome.accepted);
      report.test = std::move(outcome);
      break;
    }
    case RequestKind::kPropertyTest: {
      const PropertyTestSpec& task = std::get<PropertyTestSpec>(*spec);
      report.task = "property-test";
      Rng rng(task.seed);
      const histk::PropertyTesterParams params =
          histk::ComputePropertyTestParams(oracle.n(), task.config);
      const LearnResult learned =
          Learn(spans, oracle, histk::PropertyTestLearnOptions(task.config), rng, drawn);
      TilingHistogram candidate = spans(Layer::kVerify, [&] {
        return histk::ReduceToKPieces(learned.tiling, task.config.k);
      });
      const histk::VerificationPlan plan = spans(Layer::kVerify, [&] {
        return histk::BuildVerificationPlan(candidate, task.config);
      });
      const SampleSetGroup group = spans(Layer::kDraw, [&] {
        return SampleSetGroup::Draw(oracle, params.verify_r, params.verify_m, rng);
      });
      drawn += group.TotalSamples();
      PropertyTestOutcome outcome = spans(
          Layer::kVerify, [&] { return histk::DecidePropertyTest(plan, group); });
      outcome.params = params;
      outcome.total_samples = drawn;
      outcome.candidate = std::move(candidate);
      report.outcome = Decision(outcome.accepted);
      report.property_test = std::move(outcome);
      break;
    }
    case RequestKind::kCloseness: {
      const ClosenessSpec& task = std::get<ClosenessSpec>(*spec);
      const histk::ClosenessConfig& config = task.config;
      report.task = "closeness";
      Rng rng(task.seed);
      const histk::ClosenessParams params =
          histk::ComputeClosenessTestParams(oracle.n(), config);
      // p is learned and verify-drawn before any q draw: one rng stream.
      auto side = [&](const Sampler& sampler, int64_t k,
                      std::optional<TilingHistogram>& candidate) {
        const LearnResult learned = Learn(
            spans, sampler, histk::ClosenessLearnOptions(config, k), rng, drawn);
        candidate = spans(Layer::kVerify,
                          [&] { return histk::ReduceToKPieces(learned.tiling, k); });
        SampleSetGroup group = spans(Layer::kDraw, [&] {
          return SampleSetGroup::Draw(sampler, params.verify_r, params.verify_m, rng);
        });
        drawn += group.TotalSamples();
        return group;
      };
      std::optional<TilingHistogram> candidate_p;
      std::optional<TilingHistogram> candidate_q;
      const SampleSetGroup group_p = side(oracle, config.k_p, candidate_p);
      const SampleSetGroup group_q = side(other->oracle(), config.k_q, candidate_q);
      ClosenessOutcome outcome = spans(Layer::kVerify, [&] {
        const std::vector<Interval> parts =
            histk::CommonRefinement(*candidate_p, *candidate_q);
        return histk::DecideCloseness(parts, group_p, group_q, config);
      });
      outcome.params = params;
      outcome.total_samples = drawn;
      outcome.candidate_p = std::move(candidate_p);
      outcome.candidate_q = std::move(candidate_q);
      report.outcome = Decision(outcome.accepted);
      report.closeness = std::move(outcome);
      break;
    }
    default:
      throw std::runtime_error("traced replay: unsupported kind " + env.kind);
  }
  if (synopsis == nullptr || req.kind != RequestKind::kLearn) {
    report.telemetry.samples_drawn = drawn;
  }
  report.status = histk::TaskOutcomeStatus(report.outcome);

  env.status = report.status;
  env.report = &report;
  env.serve_ms = static_cast<double>(NowNs() - start_ns) / 1e6;
  std::string response =
      spans(Layer::kEmit, [&] { return histk::api::WriteResponseJson(env); });
  if (tracer != nullptr) tracer->End(spans.root);
  if (!response.empty() && response.back() == '\n') response.pop_back();
  return response;
}

}  // namespace perfbench
