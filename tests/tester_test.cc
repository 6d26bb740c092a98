#include "core/tester.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/far_instances.h"
#include "baseline/uniformity.h"
#include "dist/generators.h"
#include "util/math_util.h"

namespace histk {
namespace {

// Repeated-trial accept count (each trial draws fresh samples).
int AcceptCount(const Distribution& d, const TestConfig& cfg, int trials,
                uint64_t seed, AliasKernel kernel = AliasKernel::kReplay) {
  const AliasSampler sampler(d, kernel);
  Rng rng(seed);
  int accepted = 0;
  for (int t = 0; t < trials; ++t) {
    accepted += TestKHistogram(sampler, cfg, rng).accepted ? 1 : 0;
  }
  return accepted;
}

TestConfig L2Config(int64_t k, double eps) {
  TestConfig cfg;
  cfg.k = k;
  cfg.eps = eps;
  cfg.norm = Norm::kL2;
  cfg.r_override = 9;  // paper's 16 ln(6n^2) is compute overkill for tests
  return cfg;
}

TestConfig L1Config(int64_t k, double eps, double scale) {
  TestConfig cfg;
  cfg.k = k;
  cfg.eps = eps;
  cfg.norm = Norm::kL1;
  cfg.sample_scale = scale;
  cfg.r_override = 9;
  return cfg;
}

TEST(TesterL2Test, AcceptsExactKHistograms) {
  Rng gen(401);
  const HistogramSpec spec = MakeRandomKHistogram(256, 4, gen, 20.0);
  EXPECT_GE(AcceptCount(spec.dist, L2Config(4, 0.3), 10, 402), 8);
  EXPECT_GE(AcceptCount(spec.dist, L2Config(4, 0.3), 10, 402, AliasKernel::kCounts), 8);
}

TEST(TesterL2Test, AcceptsUniformWithKOne) {
  EXPECT_GE(AcceptCount(Distribution::Uniform(256), L2Config(1, 0.3), 10, 403), 9);
}

TEST(TesterL2Test, RejectsCertifiedFarSpikes) {
  const auto inst = MakeL2FarSpikes(256, 2, 0.3);
  ASSERT_TRUE(inst.has_value()) << "spike family infeasible at (256, 2, 0.3)";
  EXPECT_LE(AcceptCount(inst->dist, L2Config(2, 0.3), 10, 404), 2);
  EXPECT_LE(AcceptCount(inst->dist, L2Config(2, 0.3), 10, 404, AliasKernel::kCounts), 2);
}

TEST(TesterL2Test, RejectsPointMassWithKOne) {
  EXPECT_EQ(AcceptCount(Distribution::PointMass(128, 64), L2Config(1, 0.3), 5, 405), 0);
}

TEST(TesterL2Test, AcceptsHistogramWithMoreBudgetThanPieces) {
  // A 2-histogram must also pass the k=6 test (the class is nested).
  Rng gen(406);
  const HistogramSpec spec = MakeRandomKHistogram(256, 2, gen, 10.0);
  EXPECT_GE(AcceptCount(spec.dist, L2Config(6, 0.3), 10, 407), 8);
}

TEST(TesterL1Test, AcceptsExactKHistograms) {
  Rng gen(408);
  const HistogramSpec spec = MakeRandomKHistogram(128, 2, gen, 8.0);
  EXPECT_GE(AcceptCount(spec.dist, L1Config(2, 0.4, 0.02), 8, 409), 6);
}

TEST(TesterL1Test, RejectsCertifiedFarZigzag) {
  const FarInstance inst = MakeL1FarZigzag(128, 2, 0.4);
  EXPECT_LE(AcceptCount(inst.dist, L1Config(2, 0.4, 0.02), 8, 410), 2);
}

TEST(TesterL1Test, UniformEquivalentToUniformityTesting) {
  // k=1 specializes to uniformity testing (paper, Related Work).
  EXPECT_GE(AcceptCount(Distribution::Uniform(128), L1Config(1, 0.4, 0.02), 8, 411), 7);
  // Uniform over half the support is 1-far in L1 from uniform.
  std::vector<double> w(128, 0.0);
  for (int i = 0; i < 64; i += 1) w[static_cast<size_t>(2 * (i / 2) + (i % 2))] = 0.0;
  Rng rng(412);
  for (int64_t v : rng.SampleDistinct(128, 64)) w[static_cast<size_t>(v)] = 1.0;
  EXPECT_LE(AcceptCount(Distribution::FromWeights(w), L1Config(1, 0.4, 0.02), 8, 413),
            2);

  // The wider grid, n in {256, 1024, 4096}: Algorithm 2 at k = 1 and the
  // classic collision uniformity tester agree, both accepting uniform and
  // both rejecting a random half-support, over 10 seeded trials each.
  constexpr int64_t kTrials = 10;
  for (const int64_t n : {256, 1024, 4096}) {
    Rng gen(0x10E + static_cast<uint64_t>(n));
    std::vector<double> half(static_cast<size_t>(n), 0.0);
    for (int64_t v : gen.SampleDistinct(n, n / 2)) half[static_cast<size_t>(v)] = 1.0;
    const Distribution no = Distribution::FromWeights(std::move(half));
    const Distribution yes = Distribution::Uniform(n);
    const AliasSampler yes_sampler(yes, AliasKernel::kCounts);
    const AliasSampler no_sampler(no, AliasKernel::kCounts);
    int64_t collision_yes = 0, collision_no = 0;
    for (int64_t t = 0; t < kTrials; ++t) {
      collision_yes += TestUniformity(yes_sampler, 0.4, Norm::kL1, gen).accepted ? 1 : 0;
      collision_no += TestUniformity(no_sampler, 0.4, Norm::kL1, gen).accepted ? 1 : 0;
    }
    const TestConfig cfg = L1Config(1, 0.4, 0.002);
    const uint64_t seed = 0x10F + static_cast<uint64_t>(n);
    const int64_t alg2_yes = AcceptCount(yes, cfg, kTrials, seed, AliasKernel::kCounts);
    const int64_t alg2_no = AcceptCount(no, cfg, kTrials, seed, AliasKernel::kCounts);
    for (const int64_t accepts : {alg2_yes, collision_yes}) {
      EXPECT_GE(WilsonScore(accepts, kTrials).lower, 2.0 / 3.0) << "n=" << n;
    }
    for (const int64_t accepts : {alg2_no, collision_no}) {
      EXPECT_LE(WilsonScore(accepts, kTrials).upper, 1.0 / 3.0) << "n=" << n;
    }
  }
}

TEST(TesterTest, PartitionIsContiguousFromZero) {
  Rng gen(414);
  const HistogramSpec spec = MakeRandomKHistogram(256, 3, gen, 10.0);
  const AliasSampler sampler(spec.dist);
  Rng rng(415);
  const TestOutcome out = TestKHistogram(sampler, L2Config(3, 0.3), rng);
  int64_t expect_lo = 0;
  for (const Interval& piece : out.flat_partition) {
    EXPECT_EQ(piece.lo, expect_lo);
    EXPECT_GE(piece.hi, piece.lo);
    expect_lo = piece.hi + 1;
  }
  if (out.accepted) EXPECT_EQ(expect_lo, 256);
}

TEST(TesterTest, AcceptedUniformUsesOnePiece) {
  const AliasSampler sampler(Distribution::Uniform(256));
  Rng rng(416);
  const TestOutcome out = TestKHistogram(sampler, L2Config(5, 0.3), rng);
  ASSERT_TRUE(out.accepted);
  // Binary search should find the whole domain flat in round one.
  EXPECT_EQ(out.flat_partition.size(), 1u);
  EXPECT_EQ(out.flat_partition[0], Interval::Full(256));
}

TEST(TesterTest, ReportsSampleAccounting) {
  const AliasSampler sampler(Distribution::Uniform(64));
  Rng rng(417);
  const TestConfig cfg = L2Config(2, 0.3);
  const TestOutcome out = TestKHistogram(sampler, cfg, rng);
  EXPECT_EQ(out.total_samples, out.params.r * out.params.m);
  EXPECT_EQ(out.params.r, 9);  // override respected
}

TEST(TesterTest, LargerKNeverRejectsMoreOnSharedSamples) {
  // On identical samples, a k-budget increase can only help acceptance.
  const AliasSampler sampler(MakeStaircase(128, 4).dist);
  Rng rng(418);
  const SampleSetGroup group = SampleSetGroup::Draw(sampler, 9, 60000, rng);
  TestConfig small = L2Config(2, 0.25);
  TestConfig big = L2Config(6, 0.25);
  const bool small_ok = TestKHistogramOnGroup(group, small).accepted;
  const bool big_ok = TestKHistogramOnGroup(group, big).accepted;
  EXPECT_TRUE(!small_ok || big_ok);  // small => big
  EXPECT_TRUE(big_ok);               // 4-staircase fits in 6 pieces
}

TEST(TesterDeathTest, RejectsBadConfig) {
  const AliasSampler sampler(Distribution::Uniform(16));
  Rng rng(419);
  TestConfig cfg;
  cfg.k = 0;
  EXPECT_DEATH(TestKHistogram(sampler, cfg, rng), "k >= 1");
}

}  // namespace
}  // namespace histk
