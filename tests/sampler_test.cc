#include "dist/sampler.h"

#include <vector>

#include <gtest/gtest.h>

#include "dist/generators.h"

namespace histk {
namespace {

// Chi-square statistic of observed counts against a pmf.
double ChiSquare(const Distribution& d, const std::vector<int64_t>& draws) {
  std::vector<int64_t> counts(static_cast<size_t>(d.n()), 0);
  for (int64_t v : draws) ++counts[static_cast<size_t>(v)];
  double chi2 = 0.0;
  for (int64_t i = 0; i < d.n(); ++i) {
    const double expect = d.p(i) * static_cast<double>(draws.size());
    if (expect > 0) {
      const double delta = static_cast<double>(counts[static_cast<size_t>(i)]) - expect;
      chi2 += delta * delta / expect;
    } else {
      EXPECT_EQ(counts[static_cast<size_t>(i)], 0) << "sampled a zero-probability element";
    }
  }
  return chi2;
}

TEST(SamplerTest, AliasMatchesDistributionChiSquare) {
  const Distribution d = Distribution::FromWeights({1, 2, 3, 4, 5, 5, 4, 3, 2, 1});
  const AliasSampler s(d);
  Rng rng(21);
  // 9 dof; 99.9% quantile ~ 27.9.
  EXPECT_LT(ChiSquare(d, s.DrawMany(200000, rng)), 30.0);
}

TEST(SamplerTest, CdfMatchesDistributionChiSquare) {
  const Distribution d = Distribution::FromWeights({1, 2, 3, 4, 5, 5, 4, 3, 2, 1});
  const CdfSampler s(d);
  Rng rng(22);
  EXPECT_LT(ChiSquare(d, s.DrawMany(200000, rng)), 30.0);
}

TEST(SamplerTest, AliasNeverDrawsZeroMassElements) {
  const Distribution d = Distribution::FromWeights({0, 1, 0, 1, 0});
  const AliasSampler s(d);
  Rng rng(23);
  for (int64_t v : s.DrawMany(10000, rng)) {
    EXPECT_TRUE(v == 1 || v == 3) << v;
  }
}

TEST(SamplerTest, PointMassAlwaysSameElement) {
  const AliasSampler s(Distribution::PointMass(100, 42));
  Rng rng(24);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(s.Draw(rng), 42);
}

TEST(SamplerTest, DrawManySizeAndDomain) {
  const AliasSampler s(Distribution::Uniform(16));
  Rng rng(25);
  const auto draws = s.DrawMany(5000, rng);
  EXPECT_EQ(draws.size(), 5000u);
  for (int64_t v : draws) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 16);
  }
}

TEST(SamplerTest, AliasAndCdfAgreeOnSkewedDistribution) {
  const Distribution d = MakeZipf(64, 1.5);
  const AliasSampler alias(d);
  const CdfSampler cdf(d);
  Rng r1(26), r2(26);
  // Both should match the pmf on the head elements to ~1%.
  const auto da = alias.DrawMany(300000, r1);
  const auto dc = cdf.DrawMany(300000, r2);
  for (int64_t head = 0; head < 3; ++head) {
    auto freq = [&](const std::vector<int64_t>& v) {
      int64_t c = 0;
      for (int64_t x : v) c += (x == head);
      return static_cast<double>(c) / static_cast<double>(v.size());
    };
    EXPECT_NEAR(freq(da), d.p(head), 0.01);
    EXPECT_NEAR(freq(dc), d.p(head), 0.01);
  }
}

TEST(SamplerTest, SingleElementDomain) {
  const AliasSampler s(Distribution::Uniform(1));
  Rng rng(27);
  EXPECT_EQ(s.Draw(rng), 0);
  EXPECT_EQ(s.n(), 1);
}

TEST(SamplerTest, DeterministicGivenSeed) {
  const AliasSampler s(Distribution::Uniform(32));
  Rng a(99), b(99);
  EXPECT_EQ(s.DrawMany(100, a), s.DrawMany(100, b));
}

TEST(SamplerTest, KernelNamesRoundTripThroughTheParser) {
  for (const AliasKernel kernel : {AliasKernel::kReplay, AliasKernel::kCounts}) {
    EXPECT_EQ(ParseAliasKernel(AliasKernelName(kernel)), kernel)
        << AliasKernelName(kernel);
  }
  EXPECT_STREQ(AliasKernelName(AliasKernel::kCounts), "counts");
  for (const char* bad :
       {"", "unknown", "Replay", "packed", "simd", "counts "}) {
    EXPECT_FALSE(ParseAliasKernel(bad).has_value()) << bad;
  }
}

}  // namespace
}  // namespace histk
