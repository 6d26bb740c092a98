// Engine task coverage beyond parity: compare/estimate payloads, the
// telemetry block (thinning events, phases), spec validation statuses, and
// the JSON serialization of all of it.
#include "engine/engine.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "dist/generators.h"
#include "dist/sampler.h"
#include "histogram/priority.h"
#include "histogram/tiling.h"
#include "util/rng.h"

namespace histk {
namespace {

std::string ReportJson(const Report& report) {
  std::string out;
  AppendReportJson(out, report);
  return out;
}

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

Distribution TruthDist() {
  Rng rng(99);
  return MakeRandomKHistogram(/*n=*/128, /*k=*/5, rng, 10.0).dist;
}

TEST(EngineReportTest, CompareRanksLearnerAgainstBaselines) {
  const Distribution truth = TruthDist();
  const AliasSampler sampler(truth);
  const Engine engine(sampler, truth);

  CompareSpec spec;
  spec.seed = 3;
  spec.k = 5;
  spec.eps = 0.25;
  spec.sample_scale = 0.05;
  const Result<Report> run = engine.Run(spec);
  ASSERT_TRUE(run.ok());
  const Report& report = *run;
  EXPECT_EQ(report.outcome, TaskOutcome::kOk);
  EXPECT_EQ(report.task, "compare");

  double paper_sse = -1.0;
  double voptimal_sse = -1.0;
  for (const CompareRow& row : report.compare) {
    EXPECT_GE(row.sse, 0.0);
    EXPECT_TRUE(std::isfinite(row.sse));
    if (row.method == "paper") {
      paper_sse = row.sse;
      EXPECT_EQ(row.pieces, 5);
      EXPECT_GT(row.samples, 0);
    }
    if (row.method == "v-optimal") {
      voptimal_sse = row.sse;
      EXPECT_EQ(row.samples, 0);  // reads the pmf, draws nothing
    }
  }
  ASSERT_GE(paper_sse, 0.0) << "paper row missing";
  ASSERT_GE(voptimal_sse, 0.0) << "v-optimal row missing (n is under the DP gate)";
  // The exact DP is the optimum over k-piece tilings; the learner's k-piece
  // reduction cannot beat it (up to fp noise).
  EXPECT_LE(voptimal_sse, paper_sse + 1e-12);

  // Baseline draws are metered like everything else.
  ASSERT_EQ(report.telemetry.phases.size(), 3u);
  EXPECT_EQ(report.telemetry.phases[2].phase, "baselines");
  EXPECT_GT(report.telemetry.phases[2].samples, 0);

  const std::string json = ReportJson(report);
  EXPECT_TRUE(Contains(json, "\"task\": \"compare\"")) << json;
  EXPECT_TRUE(Contains(json, "\"method\": \"equi-depth\"")) << json;
}

TEST(EngineReportTest, CompareWithoutTruthIsInvalid) {
  const Distribution truth = TruthDist();
  const AliasSampler sampler(truth);
  const Engine engine(sampler);  // no session truth
  const Result<Report> run = engine.Run(CompareSpec{});
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineReportTest, EstimateAnswersQuantilesAndSelectivity) {
  const Distribution truth = TruthDist();
  const AliasSampler sampler(truth);
  const Engine engine(sampler, truth);

  EstimateSpec spec;
  spec.seed = 11;
  spec.k = 5;
  spec.eps = 0.2;
  spec.sample_scale = 0.2;
  spec.quantile_levels = {0.1, 0.5, 0.9};
  spec.ranges = {Interval(0, 31), Interval(32, 95), Interval(0, 127)};
  const Result<Report> run = engine.Run(spec);
  ASSERT_TRUE(run.ok());
  const Report& report = *run;
  ASSERT_TRUE(report.estimate.has_value());

  // Quantiles are monotone in the level.
  const auto& quantiles = report.estimate->quantiles;
  ASSERT_EQ(quantiles.size(), 3u);
  EXPECT_LE(quantiles[0].value, quantiles[1].value);
  EXPECT_LE(quantiles[1].value, quantiles[2].value);

  const auto& selectivity = report.estimate->selectivity;
  ASSERT_EQ(selectivity.size(), 3u);
  for (const auto& sel : selectivity) {
    ASSERT_TRUE(sel.truth.has_value());
    EXPECT_NEAR(sel.estimate, *sel.truth, 0.2);
  }
  // The full-domain range carries (nearly) all the mass on both sides.
  EXPECT_NEAR(selectivity[2].estimate, 1.0, 0.05);
  EXPECT_NEAR(*selectivity[2].truth, 1.0, 1e-9);

  const std::string json = ReportJson(report);
  EXPECT_TRUE(Contains(json, "\"estimate\": {\"quantiles\":")) << json;
}

TEST(EngineReportTest, EstimateWithoutTruthOmitsTruthColumn) {
  const Distribution truth = TruthDist();
  const AliasSampler sampler(truth);
  const Engine engine(sampler);

  EstimateSpec spec;
  spec.k = 5;
  spec.eps = 0.2;
  spec.sample_scale = 0.1;
  spec.ranges = {Interval(0, 63)};
  const Report report = *engine.Run(spec);
  ASSERT_TRUE(report.estimate.has_value());
  EXPECT_FALSE(report.estimate->selectivity[0].truth.has_value());
  EXPECT_TRUE(Contains(ReportJson(report), "\"truth\": null"));
}

TEST(EngineReportTest, ThinningEventIsSurfacedInTelemetry) {
  // Zipf has full support, so the endpoint list is large; a tiny
  // max_candidates forces the (previously silent) thinning.
  const Distribution d = MakeZipf(512, 1.1);
  const AliasSampler sampler(d);
  const Engine engine(sampler);

  LearnSpec spec;
  spec.seed = 21;
  spec.options.k = 4;
  spec.options.eps = 0.25;
  spec.options.sample_scale = 0.05;
  spec.options.max_candidates = 55;  // endpoint limit d(d+1)/2 <= 55 -> d = 10
  const Report report = *engine.Run(spec);
  ASSERT_EQ(report.outcome, TaskOutcome::kOk);
  EXPECT_GT(report.telemetry.endpoints_before_thinning, 10);
  EXPECT_LE(report.telemetry.endpoints_after_thinning, 10);
  EXPECT_LT(report.telemetry.endpoints_after_thinning,
            report.telemetry.endpoints_before_thinning);

  // Without the cap, the counts match (no thinning).
  spec.options.max_candidates = 0;
  const Report uncapped = *engine.Run(spec);
  EXPECT_EQ(uncapped.telemetry.endpoints_before_thinning,
            uncapped.telemetry.endpoints_after_thinning);
}

TEST(EngineReportTest, InvalidSpecsReturnStatusesNotAborts) {
  const Distribution truth = TruthDist();
  const AliasSampler sampler(truth);
  const Engine engine(sampler, truth);

  LearnSpec bad_k;
  bad_k.options.k = 0;
  EXPECT_EQ(engine.Run(bad_k).status().code(), StatusCode::kInvalidArgument);

  LearnSpec bad_eps;
  bad_eps.options.eps = 1.5;
  EXPECT_EQ(engine.Run(bad_eps).status().code(), StatusCode::kInvalidArgument);

  LearnSpec bad_threads;
  bad_threads.draw_threads = -2;
  EXPECT_EQ(engine.Run(bad_threads).status().code(), StatusCode::kInvalidArgument);

  TestSpec bad_scale;
  bad_scale.config.sample_scale = 0.0;
  EXPECT_EQ(engine.Run(bad_scale).status().code(), StatusCode::kInvalidArgument);

  EstimateSpec bad_level;
  bad_level.quantile_levels = {1.5};
  EXPECT_EQ(engine.Run(bad_level).status().code(), StatusCode::kInvalidArgument);

  EstimateSpec bad_range;
  bad_range.ranges = {Interval(100, 500)};  // beyond n = 128
  EXPECT_EQ(engine.Run(bad_range).status().code(), StatusCode::kInvalidArgument);

  // In-range knobs whose derived sample counts overflow to inf / past
  // int64 must be rejected here, not abort inside the formula calculators.
  TestSpec tiny_eps;
  tiny_eps.config.eps = 1e-80;  // eps^-5 -> inf
  EXPECT_EQ(engine.Run(tiny_eps).status().code(), StatusCode::kInvalidArgument);

  TestSpec tiny_eps_l2 = tiny_eps;
  tiny_eps_l2.config.norm = Norm::kL2;
  EXPECT_EQ(engine.Run(tiny_eps_l2).status().code(), StatusCode::kInvalidArgument);

  LearnSpec huge_scale;
  huge_scale.options.sample_scale = 1e308;  // l -> inf
  EXPECT_EQ(engine.Run(huge_scale).status().code(), StatusCode::kInvalidArgument);

  LearnSpec big_count;
  big_count.options.eps = 1e-8;  // finite but far past int64 samples
  EXPECT_EQ(engine.Run(big_count).status().code(), StatusCode::kInvalidArgument);

  // An all-intervals learn past the candidate table's 2^24 pairs (n > 5792)
  // is rejected up front instead of aborting inside the search.
  const Distribution wide_truth = Distribution::Uniform(8192);
  const AliasSampler wide_sampler(wide_truth);
  const Engine wide(wide_sampler, wide_truth);
  LearnSpec full_enum;
  full_enum.options.strategy = CandidateStrategy::kAllIntervals;
  EXPECT_EQ(wide.Run(full_enum).status().code(), StatusCode::kInvalidArgument);
  CompareSpec full_enum_compare;
  full_enum_compare.strategy = CandidateStrategy::kAllIntervals;
  EXPECT_EQ(wide.Run(full_enum_compare).status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineReportTest, CompareBudgetExhaustionKeepsTelemetryOnly) {
  const Distribution truth = TruthDist();
  const AliasSampler sampler(truth);
  const Engine engine(sampler, truth);

  CompareSpec spec;
  spec.seed = 3;
  spec.k = 5;
  spec.eps = 0.25;
  spec.sample_scale = 0.05;
  const Report full = *engine.Run(spec);
  ASSERT_EQ(full.outcome, TaskOutcome::kOk);

  // Enough budget to learn, not enough for the baselines sample: the rows
  // pushed before exhaustion must not leak into the report.
  CompareSpec capped = spec;
  capped.budget = full.learn->total_samples + 1;
  const Report partial = *engine.Run(capped);
  EXPECT_EQ(partial.outcome, TaskOutcome::kBudgetExhausted);
  EXPECT_TRUE(partial.compare.empty());
  EXPECT_FALSE(partial.learn.has_value());
  EXPECT_LE(partial.telemetry.samples_drawn, capped.budget);
}

TEST(EngineReportTest, JsonCarriesOutcomeAndPhases) {
  const Distribution truth = TruthDist();
  const AliasSampler sampler(truth);
  const Engine engine(sampler);

  LearnSpec spec;
  spec.options.k = 4;
  spec.options.eps = 0.25;
  spec.options.sample_scale = 0.05;
  spec.budget = 10;  // exhausts immediately
  const std::string json = ReportJson(*engine.Run(spec));
  EXPECT_TRUE(Contains(json, "\"histk_report\": 1")) << json;
  EXPECT_TRUE(Contains(json, "\"outcome\": \"budget-exhausted\"")) << json;
  EXPECT_TRUE(Contains(json, "\"budget\": 10")) << json;
  EXPECT_TRUE(Contains(json, "\"phase\": \"learn-main\"")) << json;
  EXPECT_FALSE(Contains(json, "\"learn\": {")) << json;
}

// A hand-built report that sets every optional block, non-finite doubles,
// and a task string that needs every escape class. Hand-built (rather than
// learned) so the golden bytes do not depend on the compiler's libm.
Report AllBlocksReport() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Report report;
  report.task = std::string("all \"blocks\" \\ line\nnext\ttab") + '\x01';
  report.outcome = TaskOutcome::kAccepted;
  report.status = StatusCode::kOk;
  report.degraded = false;
  report.retries = 2;
  report.telemetry.budget = 1000000;
  report.telemetry.samples_drawn = 123456;
  report.telemetry.phases = {{"learn-main", 100000}, {"learn-collisions", 23456}};
  report.telemetry.wall_ms = 12.5;
  report.telemetry.candidates_per_iter = 55;
  report.telemetry.candidate_table_bytes = 4096;
  report.telemetry.endpoints_before_thinning = 20;
  report.telemetry.endpoints_after_thinning = 10;

  PriorityHistogram priority(16);
  priority.Add(Interval(0, 15), 0.0625);
  priority.Add(Interval(4, 7), 0.1);
  LearnResult learned{priority,
                      TilingHistogram::FromRightEnds(16, {3, 7, 15},
                                                     {0.05, 0.1, 1.0 / 3.0}),
                      GreedyParams{},
                      /*total_samples=*/4600,
                      /*candidates_per_iter=*/55,
                      /*estimated_cost=*/nan,
                      /*endpoints_before_thinning=*/20,
                      /*endpoints_after_thinning=*/10,
                      /*candidate_table_bytes=*/4096};
  learned.params.l = 700;
  learned.params.r = 13;
  learned.params.m = 300;
  learned.params.iterations = 9;
  report.learn = learned;
  report.reduced = TilingHistogram::FromRightEnds(16, {7, 15}, {1e-300, 0.125});

  TestOutcome test;
  test.accepted = true;
  test.params.r = 40;
  test.params.m = 250;
  test.total_samples = 10000;
  test.flat_partition = {Interval(0, 7), Interval(8, 15)};
  report.test = test;

  report.compare = {{"paper", 3, 1.25e-7, 4600}, {"v-optimal", 3, nan, 0}};

  PropertyTestOutcome ptest;
  ptest.accepted = false;
  ptest.params.learn.l = 800;
  ptest.params.learn.r = 11;
  ptest.params.learn.m = 90;
  ptest.params.learn.iterations = 6;
  ptest.params.verify_r = 9;
  ptest.params.verify_m = 5000;
  ptest.total_samples = 50000;
  ptest.refinement_parts = 12;
  ptest.fitted_pieces = 3;
  ptest.fit_stat = 0.1;
  ptest.fit_threshold = inf;
  ptest.exception_parts = 1;
  ptest.exception_mass = 0.0078125;
  ptest.exception_mass_threshold = 0.05;
  ptest.collision_stat = -2.5e-5;
  ptest.collision_threshold = 1e300;
  ptest.candidate_l1 = nan;
  ptest.candidate = TilingHistogram::Flat(16, 0.0625);
  report.property_test = ptest;

  ClosenessOutcome close;
  close.accepted = true;
  close.params.verify_r = 7;
  close.params.verify_m = 3000;
  close.total_samples = 42000;
  close.refinement_parts = 4;
  close.statistic = 0.3;
  close.threshold = 2.0 / 3.0;
  close.candidate_p = TilingHistogram::FromRightEnds(16, {9, 15}, {0.08, 0.0333});
  close.candidate_q = TilingHistogram::Flat(16, 0.0625);
  report.closeness = close;

  EstimateAnswers answers;
  answers.quantiles = {{0.5, 7}, {1.0, 15}};
  EstimateAnswers::SelectivityAnswer with_truth;
  with_truth.range = Interval(0, 3);
  with_truth.estimate = 0.2;
  with_truth.truth = 0.1875;
  EstimateAnswers::SelectivityAnswer without_truth;
  without_truth.range = Interval(4, 15);
  without_truth.estimate = nan;
  answers.selectivity = {with_truth, without_truth};
  report.estimate = answers;
  return report;
}

// Byte parity of the report writer: the golden holds the report as the
// CLI prints it (one line) and was produced by the original ostream
// emitter; the append-to-string writer must match it byte for byte.
TEST(EngineReportTest, AllBlocksReportMatchesGolden) {
  std::ifstream f(std::string(HISTK_TEST_DATA_DIR) + "/report_all_blocks.golden");
  ASSERT_TRUE(f.good());
  std::ostringstream golden;
  golden << f.rdbuf();
  EXPECT_EQ(ReportJson(AllBlocksReport()) + "\n", golden.str());
}

}  // namespace
}  // namespace histk
