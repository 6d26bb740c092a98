#include "baseline/voptimal_dp.h"

#include <algorithm>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "dist/generators.h"
#include "histogram/ops.h"
#include "util/rng.h"

namespace histk {
namespace {

// Exhaustive optimum by enumerating all boundary placements (tiny n only).
double BruteForceOptSse(const Distribution& p, int64_t k) {
  const int64_t n = p.n();
  double best = std::numeric_limits<double>::infinity();
  std::vector<int64_t> cuts;
  auto rec = [&](auto&& self, int64_t start, int64_t remaining) -> void {
    if (remaining == 0) {
      std::vector<int64_t> ends = cuts;
      ends.push_back(n - 1);
      best = std::min(best, BoundariesSse(p, ends));
      return;
    }
    for (int64_t c = start; c <= n - 1 - remaining; ++c) {
      cuts.push_back(c);
      self(self, c + 1, remaining - 1);
      cuts.pop_back();
    }
  };
  rec(rec, 0, std::min(k, n) - 1);
  return best;
}

TEST(VOptimalTest, MatchesBruteForceOnSmallInstances) {
  Rng rng(91);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> w(10);
    for (auto& x : w) x = rng.NextDouble();
    const Distribution p = Distribution::FromWeights(w);
    for (int64_t k = 1; k <= 5; ++k) {
      const double brute = BruteForceOptSse(p, k);
      EXPECT_NEAR(VOptimalHistogram(p, k).sse, brute, 1e-12)
          << "trial " << trial << " k " << k;
    }
  }
}

TEST(VOptimalTest, ZeroErrorOnExactKHistograms) {
  Rng rng(92);
  for (int64_t k : {1, 2, 4, 8}) {
    const HistogramSpec spec = MakeRandomKHistogram(100, k, rng);
    const auto res = VOptimalHistogram(spec.dist, k);
    EXPECT_NEAR(res.sse, 0.0, 1e-12) << "k=" << k;
  }
}

TEST(VOptimalTest, ErrorMonotoneNonIncreasingInK) {
  Rng rng(93);
  const Distribution p = MakeNoisy(MakeZipf(80, 1.0), 0.5, rng);
  double prev = std::numeric_limits<double>::infinity();
  for (int64_t k = 1; k <= 20; ++k) {
    const double sse = VOptimalSse(p, k);
    EXPECT_LE(sse, prev + 1e-12) << "k=" << k;
    prev = sse;
  }
}

TEST(VOptimalTest, KAtLeastNGivesZero) {
  Rng rng(94);
  std::vector<double> w(12);
  for (auto& x : w) x = 0.01 + rng.NextDouble();
  const Distribution p = Distribution::FromWeights(w);
  EXPECT_NEAR(VOptimalSse(p, 12), 0.0, 1e-15);
  EXPECT_NEAR(VOptimalSse(p, 500), 0.0, 1e-15);  // k clamped to n
}

TEST(VOptimalTest, HistogramHasAtMostKPieces) {
  Rng rng(95);
  const Distribution p = MakeNoisy(Distribution::Uniform(64), 0.9, rng);
  for (int64_t k : {1, 3, 9}) {
    EXPECT_LE(VOptimalHistogram(p, k).histogram.k(), k);
  }
}

TEST(VOptimalTest, UniformNeedsOnePiece) {
  const auto res = VOptimalHistogram(Distribution::Uniform(32), 4);
  EXPECT_NEAR(res.sse, 0.0, 1e-15);
}

TEST(VOptimalTest, StaircaseRecoversTrueBoundaries) {
  const HistogramSpec spec = MakeStaircase(60, 4);
  const auto res = VOptimalHistogram(spec.dist, 4);
  EXPECT_NEAR(res.sse, 0.0, 1e-14);
  EXPECT_EQ(res.histogram.Condensed(1e-12).k(), 4);
}

}  // namespace
}  // namespace histk
