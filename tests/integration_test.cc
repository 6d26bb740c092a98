// End-to-end pipelines combining learner, testers, baselines, and
// generators — the workflows the examples and benches are built from.
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/histk.h"
#include "util/math_util.h"

namespace histk {
namespace {

TEST(IntegrationTest, LearnThenAnswerRangeQueries) {
  // The DB motivation: approximate range-count ("selectivity") queries
  // from the learned histogram instead of the raw data.
  Rng rng(601);
  const Distribution ages =
      MakeGaussianMixture(128, {{0.3, 0.1, 2.0}, {0.62, 0.06, 1.0}}, 0.05);
  const AliasSampler sampler(ages);

  LearnOptions opt;
  opt.k = 8;
  opt.eps = 0.15;
  const LearnResult res = LearnHistogram(sampler, opt, rng);

  // Random range queries: histogram mass vs true weight.
  Rng qrng(602);
  double worst = 0.0;
  for (int q = 0; q < 50; ++q) {
    const int64_t lo = qrng.UniformInRange(0, 127);
    const int64_t hi = qrng.UniformInRange(lo, 127);
    const double est = res.tiling.Mass(Interval(lo, hi));
    const double truth = ages.Weight(Interval(lo, hi));
    worst = std::max(worst, std::fabs(est - truth));
  }
  EXPECT_LT(worst, 0.08);
}

TEST(IntegrationTest, LearnedHistogramCompetesWithBaselinesOnPiecewiseData) {
  Rng rng(603);
  const HistogramSpec spec = MakeRandomKHistogram(128, 6, rng, 30.0);
  const AliasSampler sampler(spec.dist);

  LearnOptions opt;
  opt.k = 6;
  opt.eps = 0.15;
  const LearnResult learned = LearnHistogram(sampler, opt, rng);
  const double learned_err = learned.tiling.L2SquaredErrorTo(spec.dist);

  // Equal-budget baselines.
  Rng brng(604);
  const SampleSet budget = SampleSet::Draw(sampler, learned.total_samples, brng);
  const double ew = EquiWidthFromSamples(6, budget).L2SquaredErrorTo(spec.dist);
  const double ed = EquiDepthFromSamples(6, budget).L2SquaredErrorTo(spec.dist);

  // On exact k-histogram data the boundary-aware learner should beat the
  // fixed-boundary baselines decisively.
  EXPECT_LT(learned_err, ew);
  EXPECT_LT(learned_err, ed);

  // The wider grid at n = 512, k = 8, eps = 0.15, three seeds: on every
  // workload the learner stays inside Theorem 2's band of the exact DP
  // optimum, and on the piecewise-flat one it also beats equi-width,
  // equi-depth and compressed histograms built from its own sample budget.
  constexpr int64_t kN = 512, kK = 8;
  constexpr double kEps = 0.15;
  LearnOptions wide;
  wide.k = kK;
  wide.eps = kEps;
  wide.sample_scale = std::min(
      1.0, 8e6 / static_cast<double>(ComputeGreedyParams(kN, kK, kEps, 1.0).TotalSamples()));
  int64_t wins = 0, duels = 0;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    Rng gen(0xE7 + seed);
    struct Workload {
      const char* name;
      Distribution p;
      bool piecewise_flat;
    };
    const Workload workloads[] = {
        {"khist", MakeRandomKHistogram(kN, kK, gen, 40.0).dist, true},
        {"gauss-mix", MakeGaussianMixture(kN, {{0.3, 0.05, 1.5}, {0.72, 0.09, 1.0}}, 0.1),
         false},
        {"zipf1.2", MakeZipf(kN, 1.2), false},
        {"noisy-stairs", MakeNoisy(MakeStaircase(kN, kK).dist, 0.25, gen), false},
    };
    for (const auto& [name, p, piecewise_flat] : workloads) {
      const AliasSampler oracle(p, AliasKernel::kCounts);
      Rng wrng(0x1E7 + seed);
      const LearnResult res = LearnHistogram(oracle, wide, wrng);
      const double err = res.tiling.L2SquaredErrorTo(p);
      EXPECT_LE(err, VOptimalSse(p, kK) + 8 * kEps) << name << " seed=" << seed;
      if (!piecewise_flat) continue;
      const SampleSet same_budget = SampleSet::Draw(oracle, res.total_samples, wrng);
      for (const TilingHistogram& baseline : {EquiWidthFromSamples(kK, same_budget),
                                              EquiDepthFromSamples(kK, same_budget),
                                              CompressedFromSamples(kK, same_budget)}) {
        wins += err < baseline.L2SquaredErrorTo(p) ? 1 : 0;
        ++duels;
      }
    }
  }
  EXPECT_GE(WilsonScore(wins, duels).lower, 2.0 / 3.0) << wins << "/" << duels;
}

TEST(IntegrationTest, TesterSeparatesYesFromFar) {
  TestConfig cfg;
  cfg.k = 3;
  cfg.eps = 0.3;
  cfg.norm = Norm::kL2;
  cfg.r_override = 9;

  Rng rng(605);
  const HistogramSpec yes = MakeRandomKHistogram(256, 3, rng, 10.0);
  const auto no = MakeL2FarSpikes(256, 3, 0.3);
  ASSERT_TRUE(no.has_value());

  const AliasSampler yes_sampler(yes.dist);
  const AliasSampler no_sampler(no->dist);
  int yes_accepts = 0, no_accepts = 0;
  for (int t = 0; t < 8; ++t) {
    yes_accepts += TestKHistogram(yes_sampler, cfg, rng).accepted;
    no_accepts += TestKHistogram(no_sampler, cfg, rng).accepted;
  }
  EXPECT_GE(yes_accepts, 6);
  EXPECT_LE(no_accepts, 2);
}

TEST(IntegrationTest, TesterThenLearnerPipeline) {
  // Realistic auditing flow: first test whether the data is (close to) a
  // small histogram; if accepted, learn one and verify its quality.
  Rng rng(606);
  const HistogramSpec spec = MakeRandomKHistogram(128, 4, rng, 15.0);
  const AliasSampler sampler(spec.dist);

  TestConfig tcfg;
  tcfg.k = 4;
  tcfg.eps = 0.3;
  tcfg.norm = Norm::kL2;
  tcfg.r_override = 9;
  const TestOutcome outcome = TestKHistogram(sampler, tcfg, rng);
  ASSERT_TRUE(outcome.accepted);

  LearnOptions lopt;
  lopt.k = 4;
  lopt.eps = 0.2;
  const LearnResult res = LearnHistogram(sampler, lopt, rng);
  EXPECT_LT(res.tiling.L2SquaredErrorTo(spec.dist), 0.01);
}

TEST(IntegrationTest, LowerBoundPairFoolsWeightOnlyStatistics) {
  // Any statistic that only looks at k-partition interval weights sees
  // identical values for YES and NO — sanity-check the hard pair end to
  // end through the sampling machinery.
  Rng rng(607);
  const LowerBoundPair pair = MakeLowerBoundPair(256, 4, rng);
  const AliasSampler sy(pair.yes);
  const AliasSampler sn(pair.no);
  const SampleSet ssy = SampleSet::Draw(sy, 4000, rng);
  const SampleSet ssn = SampleSet::Draw(sn, 4000, rng);
  for (int64_t j = 0; j < 4; ++j) {
    const Interval I(256 * j / 4, 256 * (j + 1) / 4 - 1);
    const double fy = static_cast<double>(ssy.Count(I)) / 4000.0;
    const double fn = static_cast<double>(ssn.Count(I)) / 4000.0;
    EXPECT_NEAR(fy, fn, 0.05) << I.ToString();
  }
}

TEST(IntegrationTest, UmbrellaHeaderExposesEverything) {
  // Compile-time check that histk.h covers the public API surface used in
  // this file; the runtime assertion is trivial.
  SUCCEED();
}

}  // namespace
}  // namespace histk
