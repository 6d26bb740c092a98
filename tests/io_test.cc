#include "dist/io.h"

#include <sstream>

#include <gtest/gtest.h>

#include "dist/generators.h"

namespace histk {
namespace {

TEST(IoTest, DistributionRoundTripsExactly) {
  Rng rng(701);
  const Distribution d = MakeNoisy(MakeZipf(40, 1.3), 0.3, rng);
  std::stringstream ss;
  WriteDistribution(ss, d);
  const auto back = ParseDistribution(ss);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->n(), d.n());
  for (int64_t i = 0; i < d.n(); ++i) EXPECT_DOUBLE_EQ(back->p(i), d.p(i));
}

TEST(IoTest, HistogramRoundTripsExactly) {
  const TilingHistogram h(10, {{0, 2}, {3, 7}, {8, 9}}, {0.05, 0.11, 0.15});
  std::stringstream ss;
  WriteTilingHistogram(ss, h);
  const auto back = ParseTilingHistogram(ss);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->k(), 3);
  for (int64_t i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(back->Value(i), h.Value(i));
}

TEST(IoTest, RejectsWrongMagic) {
  std::stringstream ss("other-format v1\nn 3\n0.5 0.25 0.25\n");
  EXPECT_FALSE(ParseDistribution(ss).ok());
}

TEST(IoTest, RejectsWrongVersion) {
  std::stringstream ss("histk-distribution v9\nn 2\n0.5 0.5\n");
  EXPECT_FALSE(ParseDistribution(ss).ok());
}

TEST(IoTest, RejectsNonNormalizedPmf) {
  std::stringstream ss("histk-distribution v1\nn 2\n0.5 0.2\n");
  EXPECT_FALSE(ParseDistribution(ss).ok());
}

TEST(IoTest, RejectsNegativeEntries) {
  std::stringstream ss("histk-distribution v1\nn 2\n1.5 -0.5\n");
  EXPECT_FALSE(ParseDistribution(ss).ok());
}

TEST(IoTest, RejectsTruncatedStream) {
  std::stringstream ss("histk-distribution v1\nn 4\n0.25 0.25\n");
  EXPECT_FALSE(ParseDistribution(ss).ok());
}

TEST(IoTest, RejectsHistogramWithBadEnds) {
  // Non-increasing ends.
  std::stringstream a("histk-tiling-histogram v1\nn 10 k 2\n5 0.1\n5 0.1\n");
  EXPECT_FALSE(ParseTilingHistogram(a).ok());
  // Last end is not n-1.
  std::stringstream b("histk-tiling-histogram v1\nn 10 k 2\n3 0.1\n8 0.1\n");
  EXPECT_FALSE(ParseTilingHistogram(b).ok());
  // k > n.
  std::stringstream c("histk-tiling-histogram v1\nn 2 k 3\n0 0.1\n1 0.1\n1 0.1\n");
  EXPECT_FALSE(ParseTilingHistogram(c).ok());
}

TEST(IoTest, BucketDistributionRoundTripsWithoutDensifying) {
  const Distribution d = Distribution::FromBucketWeights(
      int64_t{1} << 30, {999, (int64_t{1} << 29) - 1, (int64_t{1} << 30) - 1},
      {2.0, 1.0, 3.0});
  std::stringstream ss;
  WriteBucketDistribution(ss, d);
  const auto back = ParseBucketDistribution(ss);
  ASSERT_TRUE(back.ok());
  ASSERT_TRUE(back->is_bucketed());
  EXPECT_EQ(back->n(), d.n());
  EXPECT_EQ(back->num_buckets(), d.num_buckets());
  for (int64_t i : {int64_t{0}, int64_t{999}, int64_t{1000}, int64_t{1} << 29,
                    (int64_t{1} << 30) - 1}) {
    EXPECT_NEAR(back->p(i), d.p(i), 1e-18) << i;
  }
  EXPECT_NEAR(back->Weight(Interval(0, 999)), d.Weight(Interval(0, 999)), 1e-12);
}

TEST(IoTest, BucketDistributionWriterCompressesDensePmfs) {
  const Distribution d = Distribution::FromPmf({0.125, 0.125, 0.125, 0.125, 0.5});
  std::stringstream ss;
  WriteBucketDistribution(ss, d);
  const auto back = ParseBucketDistribution(ss);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_buckets(), 2);  // the four equal entries merged
  for (int64_t i = 0; i < 5; ++i) EXPECT_NEAR(back->p(i), d.p(i), 1e-15);
}

TEST(IoTest, BucketDistributionRejectsNonUnitMass) {
  std::stringstream ss("histk-tiling-histogram v1\nn 10 k 2\n4 0.01\n9 0.01\n");
  EXPECT_FALSE(ParseBucketDistribution(ss).ok());
}

TEST(IoTest, BucketDistributionRejectsNegativeDensity) {
  std::stringstream ss("histk-tiling-histogram v1\nn 4 k 2\n1 -0.1\n3 0.6\n");
  EXPECT_FALSE(ParseBucketDistribution(ss).ok());
}

TEST(IoTest, HandlesTinyProbabilitiesPrecisely) {
  std::vector<double> w(8, 1.0);
  w[3] = 1e-15;
  const Distribution d = Distribution::FromWeights(w);
  std::stringstream ss;
  WriteDistribution(ss, d);
  const auto back = ParseDistribution(ss);
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ(back->p(3), d.p(3));
}

// ---------------------------------------------------------- Parse* statuses

bool MessageContains(const Status& s, const std::string& needle) {
  return s.message().find(needle) != std::string::npos;
}

TEST(IoParseTest, ParsesGoodInput) {
  Rng rng(702);
  const Distribution d = MakeNoisy(MakeZipf(16, 0.8), 0.2, rng);
  std::stringstream ss;
  WriteDistribution(ss, d);
  const Result<Distribution> parsed = ParseDistribution(ss);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  for (int64_t i = 0; i < d.n(); ++i) EXPECT_DOUBLE_EQ(parsed->p(i), d.p(i));
}

TEST(IoParseTest, NamesTheLineOfABadPmfEntry) {
  // Line 3 holds the entries; the third one is not a number.
  std::stringstream ss("histk-distribution v1\nn 3\n0.5 0.25 oops\n");
  const Result<Distribution> parsed = ParseDistribution(ss);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  EXPECT_TRUE(MessageContains(parsed.status(), "line 3"))
      << parsed.status().ToString();
  EXPECT_TRUE(MessageContains(parsed.status(), "oops")) << parsed.status().ToString();
}

TEST(IoParseTest, NamesTheLineOfTruncation) {
  std::stringstream ss("histk-distribution v1\nn 4\n0.5 0.5\n");
  const Result<Distribution> parsed = ParseDistribution(ss);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  EXPECT_TRUE(MessageContains(parsed.status(), "end of input"))
      << parsed.status().ToString();
}

TEST(IoParseTest, NamesTheLineOfANonAscendingEnd) {
  // Piece ends 5 then 3: the offending token is on line 4.
  std::stringstream ss("histk-tiling-histogram v1\nn 10 k 3\n5 0.1\n3 0.1\n9 0.0\n");
  const Result<TilingHistogram> parsed = ParseTilingHistogram(ss);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(MessageContains(parsed.status(), "line 4"))
      << parsed.status().ToString();
  EXPECT_TRUE(MessageContains(parsed.status(), "ascending"))
      << parsed.status().ToString();
}

TEST(IoParseTest, NamesTheLineOfANonFinitePieceValue) {
  // inf sits on line 3; the error must not point at the end of the body.
  std::stringstream ss("histk-tiling-histogram v1\nn 10 k 3\n4 inf\n7 0.1\n9 0.0\n");
  const Result<TilingHistogram> parsed = ParseTilingHistogram(ss);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(MessageContains(parsed.status(), "line 3"))
      << parsed.status().ToString();
  EXPECT_TRUE(MessageContains(parsed.status(), "finite"))
      << parsed.status().ToString();
}

TEST(IoParseTest, BucketDistributionDiagnosesBadMass) {
  std::stringstream ss("histk-tiling-histogram v1\nn 10 k 2\n4 0.01\n9 0.01\n");
  const Result<Distribution> parsed = ParseBucketDistribution(ss);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  EXPECT_TRUE(MessageContains(parsed.status(), "mass"))
      << parsed.status().ToString();
}

TEST(IoParseTest, DatasetNamesTheLineOfABadItem) {
  std::stringstream ss("0\n1\n2\nxyz\n3\n");
  const Result<std::vector<int64_t>> parsed = ParseDataset(ss);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  EXPECT_TRUE(MessageContains(parsed.status(), "line 4"))
      << parsed.status().ToString();
}

TEST(IoParseTest, DatasetRejectsOutOfDomainWithLine) {
  std::stringstream ss("0\n1\n9\n");
  const Result<std::vector<int64_t>> parsed = ParseDataset(ss, /*n=*/5);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(MessageContains(parsed.status(), "line 3"))
      << parsed.status().ToString();

  std::stringstream ok_ss("0\n1\n4\n");
  const Result<std::vector<int64_t>> parsed_ok = ParseDataset(ok_ss, /*n=*/5);
  ASSERT_TRUE(parsed_ok.ok());
  EXPECT_EQ(parsed_ok->size(), 3u);
}

// Unsigned flags (seeds, fault seeds, cdf points) take exactly [0-9]+ in
// 64 bits: strtoull would skip the space in " -5" and wrap it to 2^64 - 5.
TEST(IoTokenTest, U64AcceptsOnlyPlainDigitsInRange) {
  uint64_t v = 7;
  EXPECT_TRUE(TokenToU64("18446744073709551615", v));
  EXPECT_EQ(v, 18446744073709551615ULL);
  EXPECT_TRUE(TokenToU64("0", v));
  EXPECT_EQ(v, 0u);
  for (const char* bad : {" -5", "-5", "+5", " 5", "5 ", "18446744073709551616", "", "0x5"}) {
    EXPECT_FALSE(TokenToU64(bad, v)) << '"' << bad << '"';
  }
}

// Signed and float tokens: strtoll/strtod would skip the leading space in
// " 6" and take "+6"; the strict parses reject both, as TokenToU64 does.
TEST(IoTokenTest, SignedAndFloatRejectPaddingAndPlusSign) {
  int64_t i = 7;
  double d = 7.0;
  for (const char* bad : {" 6", "+6", "6 ", "\t6", ""}) {
    EXPECT_FALSE(TokenToI64(bad, i)) << '"' << bad << '"';
  }
  for (const char* bad : {" 0.15", "+0.15", "0.15 ", "\n0.15", ""}) {
    EXPECT_FALSE(TokenToF64(bad, d)) << '"' << bad << '"';
  }
  EXPECT_EQ(i, 7);
  EXPECT_EQ(d, 7.0);
  ASSERT_TRUE(TokenToI64("-3", i));
  EXPECT_EQ(i, -3);
  ASSERT_TRUE(TokenToF64("1e+5", d));
  EXPECT_EQ(d, 1e5);
  ASSERT_TRUE(TokenToF64("-3", d));
  EXPECT_EQ(d, -3.0);
}

}  // namespace
}  // namespace histk
