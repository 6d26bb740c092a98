// Facade parity: for a fixed seed and an unlimited budget, Engine::Run must
// reproduce the legacy free functions byte for byte — identical tilings,
// priority entries, partitions, and sample counts — and a finite budget
// must never abort: it yields outcome kBudgetExhausted with samples_drawn
// <= budget and partial phase telemetry.
#include "engine/engine.h"

#include <string>

#include <gtest/gtest.h>

#include "core/greedy.h"
#include "core/tester.h"
#include "dist/generators.h"
#include "dist/sampler.h"
#include "util/rng.h"

namespace histk {
namespace {

Distribution LearnDist() {
  Rng rng(2024);
  return MakeRandomKHistogram(/*n=*/128, /*k=*/4, rng, 12.0).dist;
}

void ExpectSameTiling(const TilingHistogram& a, const TilingHistogram& b) {
  ASSERT_EQ(a.n(), b.n());
  ASSERT_EQ(a.k(), b.k());
  for (int64_t j = 0; j < a.k(); ++j) {
    EXPECT_EQ(a.pieces()[static_cast<size_t>(j)], b.pieces()[static_cast<size_t>(j)]);
    // Bitwise equality, not almost-equal: the facade must replay the exact
    // arithmetic of the legacy path.
    EXPECT_EQ(a.values()[static_cast<size_t>(j)], b.values()[static_cast<size_t>(j)]);
  }
}

void ExpectSameLearnResult(const LearnResult& a, const LearnResult& b) {
  ExpectSameTiling(a.tiling, b.tiling);
  ASSERT_EQ(a.priority.size(), b.priority.size());
  for (int64_t i = 0; i < a.priority.size(); ++i) {
    const PriorityEntry& ea = a.priority.entries()[static_cast<size_t>(i)];
    const PriorityEntry& eb = b.priority.entries()[static_cast<size_t>(i)];
    EXPECT_EQ(ea.interval, eb.interval);
    EXPECT_EQ(ea.value, eb.value);
    EXPECT_EQ(ea.rank, eb.rank);
  }
  EXPECT_EQ(a.params.l, b.params.l);
  EXPECT_EQ(a.params.r, b.params.r);
  EXPECT_EQ(a.params.m, b.params.m);
  EXPECT_EQ(a.params.iterations, b.params.iterations);
  EXPECT_EQ(a.total_samples, b.total_samples);
  EXPECT_EQ(a.candidates_per_iter, b.candidates_per_iter);
  EXPECT_EQ(a.estimated_cost, b.estimated_cost);
}

LearnOptions SmallLearnOptions() {
  LearnOptions options;
  options.k = 4;
  options.eps = 0.25;
  options.sample_scale = 0.05;
  return options;
}

TEST(EngineParityTest, LearnReproducesFreeFunction) {
  const Distribution d = LearnDist();
  const AliasSampler sampler(d);

  const LearnOptions options = SmallLearnOptions();
  Rng legacy_rng(77);
  const LearnResult legacy = LearnHistogram(sampler, options, legacy_rng);

  const Engine engine(sampler);
  LearnSpec spec;
  spec.seed = 77;
  spec.options = options;
  const Result<Report> run = engine.Run(spec);
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run->outcome, TaskOutcome::kOk);
  ASSERT_TRUE(run->learn.has_value());
  ExpectSameLearnResult(*run->learn, legacy);
  EXPECT_EQ(run->telemetry.samples_drawn, legacy.total_samples);
}

TEST(EngineParityTest, LearnReproducesFreeFunctionFullEnumeration) {
  Rng gen_rng(5);
  const Distribution d = MakeRandomKHistogram(/*n=*/24, /*k=*/3, gen_rng, 8.0).dist;
  const AliasSampler sampler(d);

  LearnOptions options;
  options.k = 3;
  options.eps = 0.3;
  options.sample_scale = 0.02;
  options.strategy = CandidateStrategy::kAllIntervals;
  Rng legacy_rng(9);
  const LearnResult legacy = LearnHistogram(sampler, options, legacy_rng);

  const Engine engine(sampler);
  LearnSpec spec;
  spec.seed = 9;
  spec.options = options;
  const Result<Report> run = engine.Run(spec);
  ASSERT_TRUE(run.ok());
  ExpectSameLearnResult(*run->learn, legacy);
}

TEST(EngineParityTest, TestReproducesFreeFunctionBothNorms) {
  const Distribution d = LearnDist();
  const AliasSampler sampler(d);
  const Engine engine(sampler);

  for (const Norm norm : {Norm::kL2, Norm::kL1}) {
    TestConfig config;
    config.k = 4;
    config.eps = 0.3;
    config.norm = norm;
    config.sample_scale = norm == Norm::kL2 ? 0.05 : 0.0005;
    config.r_override = 9;  // keep the parity check fast; the override is
                            // itself part of the replicated surface
    Rng legacy_rng(31);
    const TestOutcome legacy = TestKHistogram(sampler, config, legacy_rng);

    TestSpec spec;
    spec.seed = 31;
    spec.config = config;
    const Result<Report> run = engine.Run(spec);
    ASSERT_TRUE(run.ok());
    ASSERT_TRUE(run->test.has_value());
    const TestOutcome& facade = *run->test;
    EXPECT_EQ(facade.accepted, legacy.accepted);
    EXPECT_EQ(facade.flat_partition.size(), legacy.flat_partition.size());
    for (size_t i = 0; i < legacy.flat_partition.size(); ++i) {
      EXPECT_EQ(facade.flat_partition[i], legacy.flat_partition[i]);
    }
    EXPECT_EQ(facade.params.r, legacy.params.r);
    EXPECT_EQ(facade.params.m, legacy.params.m);
    EXPECT_EQ(facade.total_samples, legacy.total_samples);
    EXPECT_EQ(run->outcome,
              legacy.accepted ? TaskOutcome::kAccepted : TaskOutcome::kRejected);
  }
}

TEST(EngineParityTest, ExactBudgetMatchesUnlimited) {
  const Distribution d = LearnDist();
  const AliasSampler sampler(d);
  const Engine engine(sampler);

  LearnSpec spec;
  spec.seed = 123;
  spec.options = SmallLearnOptions();
  const Report unlimited = *engine.Run(spec);
  ASSERT_EQ(unlimited.outcome, TaskOutcome::kOk);

  LearnSpec exact = spec;
  exact.budget = unlimited.telemetry.samples_drawn;
  const Report capped = *engine.Run(exact);
  ASSERT_EQ(capped.outcome, TaskOutcome::kOk);
  ExpectSameLearnResult(*capped.learn, *unlimited.learn);
}

TEST(EngineParityTest, BudgetExhaustionMidLearnNeverAborts) {
  const Distribution d = LearnDist();
  const AliasSampler sampler(d);
  const Engine engine(sampler);

  LearnSpec spec;
  spec.seed = 123;
  spec.options = SmallLearnOptions();
  const Report full = *engine.Run(spec);
  const int64_t needed = full.telemetry.samples_drawn;
  ASSERT_GT(needed, 2);

  // Mid-learn: enough for the main phase but not the collision sets.
  const int64_t main_samples = full.telemetry.phases[0].samples;
  LearnSpec capped = spec;
  capped.budget = main_samples + 1;
  const Report partial = *engine.Run(capped);
  EXPECT_EQ(partial.outcome, TaskOutcome::kBudgetExhausted);
  EXPECT_LE(partial.telemetry.samples_drawn, capped.budget);
  EXPECT_FALSE(partial.learn.has_value());
  // Partial telemetry: the main phase completed, the collision phase shows
  // whatever fit (here: nothing).
  ASSERT_EQ(partial.telemetry.phases.size(), 2u);
  EXPECT_EQ(partial.telemetry.phases[0].phase, "learn-main");
  EXPECT_EQ(partial.telemetry.phases[0].samples, main_samples);
  EXPECT_EQ(partial.telemetry.phases[1].phase, "learn-collisions");

  // A budget below even the main phase still reports cleanly.
  capped.budget = 1;
  const Report tiny = *engine.Run(capped);
  EXPECT_EQ(tiny.outcome, TaskOutcome::kBudgetExhausted);
  EXPECT_EQ(tiny.telemetry.samples_drawn, 0);
}

TEST(EngineParityTest, BudgetExhaustionMidTestNeverAborts) {
  const Distribution d = LearnDist();
  const AliasSampler sampler(d);
  const Engine engine(sampler);

  TestSpec spec;
  spec.seed = 55;
  spec.config.k = 4;
  spec.config.eps = 0.3;
  spec.config.norm = Norm::kL2;
  spec.config.sample_scale = 0.05;
  const Report full = *engine.Run(spec);
  ASSERT_NE(full.outcome, TaskOutcome::kBudgetExhausted);
  const int64_t needed = full.telemetry.samples_drawn;

  TestSpec capped = spec;
  capped.budget = needed / 2;
  const Report partial = *engine.Run(capped);
  EXPECT_EQ(partial.outcome, TaskOutcome::kBudgetExhausted);
  EXPECT_LE(partial.telemetry.samples_drawn, capped.budget);
  EXPECT_FALSE(partial.test.has_value());
  ASSERT_EQ(partial.telemetry.phases.size(), 1u);
  EXPECT_EQ(partial.telemetry.phases[0].phase, "test-draw");
  EXPECT_GT(partial.telemetry.phases[0].samples, 0);
}

std::string ReportJson(const Report& report) {
  std::string out;
  AppendReportJson(out, report);
  return out;
}

TEST(EngineParityTest, PropertyTestReproducesFreeFunction) {
  const Distribution d = LearnDist();
  const AliasSampler sampler(d);
  const Engine engine(sampler);

  PropertyTestConfig config;
  config.k = 4;
  config.eps = 0.3;
  config.sample_scale = 0.1;
  Rng legacy_rng(41);
  const PropertyTestOutcome legacy = TestIsKHistogram(sampler, config, legacy_rng);

  PropertyTestSpec spec;
  spec.seed = 41;
  spec.config = config;
  const Result<Report> run = engine.Run(spec);
  ASSERT_TRUE(run.ok());
  ASSERT_TRUE(run->property_test.has_value());
  const PropertyTestOutcome& facade = *run->property_test;
  EXPECT_EQ(facade.accepted, legacy.accepted);
  EXPECT_EQ(facade.refinement_parts, legacy.refinement_parts);
  EXPECT_EQ(facade.fitted_pieces, legacy.fitted_pieces);
  // Bitwise: the facade replays the exact arithmetic of the free function.
  EXPECT_EQ(facade.fit_stat, legacy.fit_stat);
  EXPECT_EQ(facade.collision_stat, legacy.collision_stat);
  EXPECT_EQ(facade.exception_parts, legacy.exception_parts);
  EXPECT_EQ(facade.exception_mass, legacy.exception_mass);
  EXPECT_EQ(facade.total_samples, legacy.total_samples);
  ASSERT_TRUE(facade.candidate.has_value());
  ExpectSameTiling(*facade.candidate, *legacy.candidate);
  EXPECT_EQ(run->outcome,
            legacy.accepted ? TaskOutcome::kAccepted : TaskOutcome::kRejected);
  EXPECT_EQ(run->telemetry.samples_drawn, legacy.total_samples);
}

TEST(EngineParityTest, ClosenessReproducesFreeFunction) {
  const Distribution d = LearnDist();
  Rng gen(99);
  const Distribution e = MakeRandomKHistogram(/*n=*/128, /*k=*/4, gen, 12.0).dist;
  const AliasSampler sampler_p(d);
  const AliasSampler sampler_q(e);
  const Engine engine(sampler_p);

  ClosenessConfig config;
  config.k_p = 4;
  config.k_q = 4;
  config.eps = 0.3;
  config.sample_scale = 0.1;
  Rng legacy_rng(43);
  const ClosenessOutcome legacy = TestCloseness(sampler_p, sampler_q, config, legacy_rng);

  ClosenessSpec spec;
  spec.seed = 43;
  spec.config = config;
  spec.other = &sampler_q;
  const Result<Report> run = engine.Run(spec);
  ASSERT_TRUE(run.ok());
  ASSERT_TRUE(run->closeness.has_value());
  const ClosenessOutcome& facade = *run->closeness;
  EXPECT_EQ(facade.accepted, legacy.accepted);
  EXPECT_EQ(facade.refinement_parts, legacy.refinement_parts);
  EXPECT_EQ(facade.statistic, legacy.statistic);
  EXPECT_EQ(facade.threshold, legacy.threshold);
  EXPECT_EQ(facade.total_samples, legacy.total_samples);
  ExpectSameTiling(*facade.candidate_p, *legacy.candidate_p);
  ExpectSameTiling(*facade.candidate_q, *legacy.candidate_q);
  EXPECT_EQ(run->outcome,
            legacy.accepted ? TaskOutcome::kAccepted : TaskOutcome::kRejected);
}

TEST(EngineParityTest, PropertySpecsAreThreadCountInvariant) {
  const Distribution d = LearnDist();
  const AliasSampler sampler(d);
  const Engine engine(sampler);

  PropertyTestSpec pspec;
  pspec.seed = 53;
  pspec.config.k = 4;
  pspec.config.eps = 0.3;
  pspec.config.sample_scale = 0.1;
  pspec.draw_threads = 1;
  Report p1 = *engine.Run(pspec);
  pspec.draw_threads = 4;
  Report p4 = *engine.Run(pspec);
  p1.telemetry.wall_ms = 0.0;
  p4.telemetry.wall_ms = 0.0;
  EXPECT_EQ(ReportJson(p1), ReportJson(p4));

  const AliasSampler sampler_q(d);
  ClosenessSpec cspec;
  cspec.seed = 57;
  cspec.config.k_p = 4;
  cspec.config.k_q = 4;
  cspec.config.eps = 0.3;
  cspec.config.sample_scale = 0.1;
  cspec.other = &sampler_q;
  cspec.draw_threads = 1;
  Report c1 = *engine.Run(cspec);
  cspec.draw_threads = 3;
  Report c3 = *engine.Run(cspec);
  c1.telemetry.wall_ms = 0.0;
  c3.telemetry.wall_ms = 0.0;
  EXPECT_EQ(ReportJson(c1), ReportJson(c3));
}

TEST(EngineParityTest, ClosenessSpecValidation) {
  const Distribution d = LearnDist();
  const AliasSampler sampler(d);
  const Engine engine(sampler);

  ClosenessSpec spec;
  spec.config.k_p = 4;
  spec.config.k_q = 4;
  spec.config.eps = 0.3;
  // No second oracle.
  EXPECT_FALSE(engine.Run(spec).ok());
  // Mismatched domain.
  const AliasSampler small(Distribution::Uniform(64));
  spec.other = &small;
  EXPECT_FALSE(engine.Run(spec).ok());
}

TEST(EngineParityTest, ReportsAreThreadCountInvariant) {
  const Distribution d = LearnDist();
  const AliasSampler sampler(d);
  const Engine engine(sampler);

  LearnSpec spec;
  spec.seed = 77;
  spec.options = SmallLearnOptions();
  spec.budget = 1'000'000;
  spec.draw_threads = 1;
  Report r1 = *engine.Run(spec);
  spec.draw_threads = 4;
  Report r4 = *engine.Run(spec);
  // Wall time necessarily differs; everything else must be byte-identical.
  r1.telemetry.wall_ms = 0.0;
  r4.telemetry.wall_ms = 0.0;
  EXPECT_EQ(ReportJson(r1), ReportJson(r4));
  ExpectSameLearnResult(*r1.learn, *r4.learn);

  TestSpec tspec;
  tspec.seed = 31;
  tspec.config.k = 4;
  tspec.config.eps = 0.3;
  tspec.config.norm = Norm::kL2;
  tspec.config.sample_scale = 0.05;
  tspec.draw_threads = 1;
  Report t1 = *engine.Run(tspec);
  tspec.draw_threads = 3;
  Report t3 = *engine.Run(tspec);
  t1.telemetry.wall_ms = 0.0;
  t3.telemetry.wall_ms = 0.0;
  EXPECT_EQ(ReportJson(t1), ReportJson(t3));
}

}  // namespace
}  // namespace histk
