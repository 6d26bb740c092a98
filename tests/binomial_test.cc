// The exact binomial sampler (stats/binomial.h) against exact pmfs: a
// chi-square goodness-of-fit test in every regime the sampler branches on —
// inversion, BTRS on both sides of the n p = 10 switch, the p > 1/2 fold,
// the exact test's product and logarithm paths — plus the degenerate
// arguments and moments at n = 2^40. Every test is seeded, so the verdicts
// replay; the critical values sit near a 1e-6 false-alarm level.
#include "stats/binomial.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace histk {
namespace {

/// Upper 1e-6 quantile of chi-square with `df` degrees of freedom
/// (Wilson–Hilferty).
double ChiSquareCritical(int64_t df) {
  const double z = 4.753;
  const double d = static_cast<double>(df);
  const double t = 1.0 - 2.0 / (9.0 * d) + z * std::sqrt(2.0 / (9.0 * d));
  return d * t * t * t;
}

/// Exact Binomial(n, p) pmf at k, via the C library's lgamma (reference
/// only; the sampler itself must not call it).
double Pmf(int64_t n, double p, int64_t k) {
  const double nd = static_cast<double>(n);
  const double kd = static_cast<double>(k);
  return std::exp(std::lgamma(nd + 1.0) - std::lgamma(kd + 1.0) -
                  std::lgamma(nd - kd + 1.0) + kd * std::log(p) +
                  (nd - kd) * std::log1p(-p));
}

/// Draws `trials` variates and returns the chi-square statistic over cells
/// of expected count >= 20 (the tails pooled into the outermost cells),
/// with its degrees of freedom.
std::pair<double, int64_t> ChiSquare(int64_t n, double p, int64_t trials,
                                     uint64_t seed) {
  std::vector<int64_t> hist(static_cast<size_t>(n) + 1, 0);
  Rng rng(seed);
  for (int64_t t = 0; t < trials; ++t) {
    const int64_t x = Binomial(n, p, rng);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, n);
    ++hist[static_cast<size_t>(x)];
  }
  // Cells: contiguous ranges [lo, hi], each with expected count >= 20.
  std::vector<double> expected;
  std::vector<int64_t> observed;
  double e = 0.0;
  int64_t o = 0;
  for (int64_t k = 0; k <= n; ++k) {
    e += static_cast<double>(trials) * Pmf(n, p, k);
    o += hist[static_cast<size_t>(k)];
    if (e >= 20.0) {
      expected.push_back(e);
      observed.push_back(o);
      e = 0.0;
      o = 0;
    }
  }
  // The leftover upper tail joins the last cell.
  expected.back() += e;
  observed.back() += o;
  double stat = 0.0;
  for (size_t i = 0; i < expected.size(); ++i) {
    const double diff = static_cast<double>(observed[i]) - expected[i];
    stat += diff * diff / expected[i];
  }
  return {stat, static_cast<int64_t>(expected.size()) - 1};
}

TEST(BinomialTest, LogFactorialMatchesLgamma) {
  for (int64_t k = 0; k <= 4096; ++k) {
    const double ref = std::lgamma(static_cast<double>(k) + 1.0);
    EXPECT_NEAR(LogFactorial(k), ref, 1e-12 * std::max(1.0, ref)) << k;
  }
  for (const int64_t k : {int64_t{100000}, int64_t{1} << 30, int64_t{1} << 40}) {
    const double ref = std::lgamma(static_cast<double>(k) + 1.0);
    EXPECT_NEAR(LogFactorial(k), ref, 1e-14 * ref) << k;
  }
}

TEST(BinomialTest, DegenerateArgumentsReturnWithoutConsumingTheRng) {
  Rng rng(1);
  const Rng before = rng;
  EXPECT_EQ(Binomial(0, 0.3, rng), 0);
  EXPECT_EQ(Binomial(0, 1.0, rng), 0);
  EXPECT_EQ(Binomial(57, 0.0, rng), 0);
  EXPECT_EQ(Binomial(57, 1.0, rng), 57);
  EXPECT_EQ(Binomial(int64_t{1} << 40, 1.0, rng), int64_t{1} << 40);
  Rng copy = before;
  EXPECT_EQ(rng.NextU64(), copy.NextU64());
}

TEST(BinomialTest, MatchesExactPmfInEveryRegime) {
  struct Case {
    int64_t n;
    double p;
    const char* regime;
  };
  const Case cases[] = {
      {1, 0.5, "inversion, one trial"},
      {20, 0.3, "inversion"},
      {33, 0.3, "inversion just below the switch (n p = 9.9)"},
      {34, 0.3, "BTRS just above the switch (n p = 10.2)"},
      {15, 0.9, "p > 1/2 folded onto inversion"},
      {100, 0.7, "p > 1/2 folded onto BTRS"},
      {10954, 1.0 / 256, "BTRS at n p = 43 (explicit product test)"},
      {1000, 0.5, "BTRS at p = 1/2"},
      {200000, 0.3, "BTRS with sd 205 (logarithmic test)"},
      {5000, 0.0007, "inversion at small p"},
  };
  uint64_t seed = 100;
  for (const Case& c : cases) {
    const auto [stat, df] = ChiSquare(c.n, c.p, 1000000, ++seed);
    ASSERT_GE(df, 1) << c.regime;
    EXPECT_LT(stat, ChiSquareCritical(df))
        << c.regime << ": n=" << c.n << " p=" << c.p << " df=" << df;
  }
}

TEST(BinomialTest, HugeNMatchesMeanAndVariance) {
  // n = 2^40: BTRS (n p ~ 10^11 and n p ~ 11) and inversion (n p ~ 1.1).
  const int64_t n = int64_t{1} << 40;
  uint64_t seed = 900;
  for (const double p : {0.3, 1e-11, 1e-12}) {
    Rng rng(++seed);
    const int trials = 100000;
    double sum = 0.0;
    double sum2 = 0.0;
    const double mean = static_cast<double>(n) * p;
    for (int t = 0; t < trials; ++t) {
      const double x = static_cast<double>(Binomial(n, p, rng)) - mean;
      sum += x;
      sum2 += x * x;
    }
    const double var = mean * (1.0 - p);
    // z-tests on the mean and on the sample variance, whose standard error
    // sqrt((mu4 - var^2) / trials) is at most sqrt((var + 2 var^2) / trials).
    EXPECT_LT(std::fabs(sum / trials) / std::sqrt(var / trials), 5.0) << p;
    const double sample_var = sum2 / trials;
    EXPECT_LT(std::fabs(sample_var - var) /
                  std::sqrt((var + 2.0 * var * var) / trials),
              5.0)
        << p;
  }
}

}  // namespace
}  // namespace histk
