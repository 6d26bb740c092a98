// ConcurrentHistogram / HistogramSnapshot (stream/concurrent_histogram.h):
// recording, quantile/cdf queries, commutative merges, windowed deltas and
// decay, the wire format (round-trip and rejection diagnostics), and the
// ToBucketDistribution bridge through to a full Engine learn — the whole
// telemetry path minus the multithreaded hammering, which lives in
// concurrency_stress_test.cc under the tsan preset.
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/json.h"
#include "engine/engine.h"
#include "engine/telemetry.h"
#include "stream/concurrent_histogram.h"
#include "stream/log_bucket.h"
#include "util/status.h"

namespace histk {
namespace {

// b = 7 keeps values below 128 exact (denormal region), which makes every
// expectation in these tests closed-form.
constexpr int kBits = kLogBucketDefaultMantissaBits;

HistogramSnapshot SmallSnapshot() {
  ConcurrentHistogram hist(kBits);
  // 10 zeros, 20 ones, 30 twos, 40 hundreds: total 100, all exact buckets.
  hist.Record(0, 10);
  hist.Record(1, 20);
  hist.Record(2, 30);
  hist.Record(100, 40);
  return hist.Snapshot();
}

TEST(ConcurrentHistogramTest, RecordCountsExactlyInTheDenormalRegion) {
  const HistogramSnapshot snap = SmallSnapshot();
  EXPECT_EQ(snap.TotalCount(), 100u);
  EXPECT_EQ(snap.OccupiedBuckets(), 4);
  EXPECT_EQ(snap.counts()[0], 10u);
  EXPECT_EQ(snap.counts()[1], 20u);
  EXPECT_EQ(snap.counts()[2], 30u);
  EXPECT_EQ(snap.counts()[100], 40u);
  EXPECT_EQ(snap.MinValueBound().value(), 0u);
  EXPECT_EQ(snap.MaxValueBound().value(), 100u);
}

TEST(ConcurrentHistogramTest, EmptySnapshotHasNoBounds) {
  const ConcurrentHistogram hist(kBits);
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.TotalCount(), 0u);
  EXPECT_FALSE(snap.MinValueBound().has_value());
  EXPECT_FALSE(snap.MaxValueBound().has_value());
  EXPECT_EQ(snap.CdfAt(12345), 0.0);
  EXPECT_FALSE(snap.ToBucketDistribution().ok());
}

TEST(ConcurrentHistogramTest, CdfAndQuantilesOnExactBuckets) {
  const HistogramSnapshot snap = SmallSnapshot();
  EXPECT_DOUBLE_EQ(snap.CdfAt(0), 0.10);
  EXPECT_DOUBLE_EQ(snap.CdfAt(1), 0.30);
  EXPECT_DOUBLE_EQ(snap.CdfAt(2), 0.60);
  EXPECT_DOUBLE_EQ(snap.CdfAt(99), 0.60);
  EXPECT_DOUBLE_EQ(snap.CdfAt(100), 1.0);
  EXPECT_DOUBLE_EQ(snap.CdfAt(uint64_t{1} << 40), 1.0);

  EXPECT_EQ(snap.Quantile(0.0), 0u);
  EXPECT_EQ(snap.Quantile(0.05), 0u);
  EXPECT_EQ(snap.Quantile(0.25), 1u);
  EXPECT_EQ(snap.Quantile(0.5), 2u);
  EXPECT_EQ(snap.Quantile(0.99), 100u);
  EXPECT_EQ(snap.Quantile(1.0), 100u);
}

// Above the denormal region the quantile is only bucket-accurate: within
// the codec's relative error of the true stream quantile.
TEST(ConcurrentHistogramTest, QuantileWithinRelativeErrorOnWideValues) {
  ConcurrentHistogram hist(kBits);
  const uint64_t kMedian = uint64_t{3} << 33;  // well into the geometric range
  hist.Record(kMedian, 1000);
  const HistogramSnapshot snap = hist.Snapshot();
  const double err = LogBucketMaxRelativeError(kBits);
  for (double q : {0.01, 0.5, 0.99}) {
    const double got = static_cast<double>(snap.Quantile(q));
    EXPECT_NEAR(got, static_cast<double>(kMedian),
                2.0 * err * static_cast<double>(kMedian))
        << "q=" << q;
  }
}

TEST(ConcurrentHistogramTest, MergeIsCommutativeAndConservesCounts) {
  ConcurrentHistogram h1(kBits), h2(kBits);
  h1.Record(5, 7);
  h1.Record(1000, 3);
  h2.Record(5, 2);
  h2.Record(uint64_t{1} << 50, 11);

  HistogramSnapshot ab = h1.Snapshot();
  ASSERT_TRUE(ab.Merge(h2.Snapshot()).ok());
  HistogramSnapshot ba = h2.Snapshot();
  ASSERT_TRUE(ba.Merge(h1.Snapshot()).ok());

  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab.TotalCount(), 23u);
  EXPECT_EQ(ab.counts()[LogBucketKey(5, kBits)], 9u);
}

TEST(ConcurrentHistogramTest, DeltaSinceIsTheWindowBetweenSnapshots) {
  ConcurrentHistogram hist(kBits);
  hist.Record(10, 4);
  const HistogramSnapshot before = hist.Snapshot();
  hist.Record(10, 2);
  hist.Record(99, 5);
  const HistogramSnapshot after = hist.Snapshot();

  const HistogramSnapshot window = after.DeltaSince(before).value();
  EXPECT_EQ(window.TotalCount(), 7u);
  EXPECT_EQ(window.counts()[10], 2u);
  EXPECT_EQ(window.counts()[99], 5u);
  // before + window == after: the decomposition is exact.
  HistogramSnapshot recombined = before;
  ASSERT_TRUE(recombined.Merge(window).ok());
  EXPECT_EQ(recombined, after);
}

TEST(ConcurrentHistogramTest, DecayedHalvesCountsWithRounding) {
  const HistogramSnapshot snap = SmallSnapshot();
  const HistogramSnapshot half = snap.Decayed(0.5).value();
  EXPECT_EQ(half.counts()[0], 5u);
  EXPECT_EQ(half.counts()[1], 10u);
  EXPECT_EQ(half.counts()[2], 15u);
  EXPECT_EQ(half.counts()[100], 20u);
  EXPECT_EQ(half.TotalCount(), 50u);
  EXPECT_EQ(snap.Decayed(0.0).value().TotalCount(), 0u);
  EXPECT_EQ(snap.Decayed(1.0).value(), snap);
}

// ------------------------------------------------------------ wire format

TEST(ConcurrentHistogramTest, WireFormatRoundTrips) {
  ConcurrentHistogram hist(kBits);
  hist.Record(0, 1);
  hist.Record(7, 12);
  hist.Record(1 << 20, 5);
  hist.Record(uint64_t{1} << 55, 2);
  const HistogramSnapshot snap = hist.Snapshot();

  std::ostringstream out;
  WriteSnapshot(out, snap);
  std::istringstream in(out.str());
  const Result<HistogramSnapshot> parsed = ParseSnapshot(in);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, snap);

  // The convenience wrapper agrees.
  std::istringstream in2(out.str());
  const std::optional<HistogramSnapshot> read = ReadSnapshot(in2);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(*read, snap);
}

void ExpectParseError(const std::string& text, const std::string& needle) {
  std::istringstream in(text);
  const Result<HistogramSnapshot> parsed = ParseSnapshot(in);
  ASSERT_FALSE(parsed.ok()) << "accepted: " << text;
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  EXPECT_NE(parsed.status().ToString().find("line "), std::string::npos)
      << parsed.status().ToString();
  EXPECT_NE(parsed.status().ToString().find(needle), std::string::npos)
      << parsed.status().ToString();
}

TEST(ConcurrentHistogramTest, ParserRejectsMalformedSketches) {
  ExpectParseError("not-a-sketch v1\n", "format magic");
  ExpectParseError("histk-telemetry-histogram v2\n", "format version");
  ExpectParseError(
      "histk-telemetry-histogram v1\nmantissa_bits 77 buckets 0 total 0\n",
      "mantissa_bits");
  ExpectParseError(
      "histk-telemetry-histogram v1\nmantissa_bits 7 buckets 2 total 5\n"
      "9 3\n4 2\n",
      "ascending");
  ExpectParseError(
      "histk-telemetry-histogram v1\nmantissa_bits 7 buckets 1 total 5\n"
      "3 4\n",
      "does not equal the sum");
  ExpectParseError(
      "histk-telemetry-histogram v1\nmantissa_bits 7 buckets 2 total 5\n"
      "3 5\n",
      "unexpected end of input");
  ExpectParseError(
      "histk-telemetry-histogram v1\nmantissa_bits 7 buckets 1 total 0\n"
      "3 0\n",
      "counts must be >= 1");
}

TEST(ConcurrentHistogramTest, JsonCarriesTheBucketRecords) {
  const HistogramSnapshot snap = SmallSnapshot();
  std::string json;
  AppendSnapshotJson(json, snap);
  EXPECT_NE(json.find("\"format\": \"histk-telemetry-histogram\""),
            std::string::npos);
  EXPECT_NE(json.find("\"total\": 100"), std::string::npos);
  EXPECT_NE(json.find("{\"key\": 100, \"lo\": 100, \"hi\": 100, \"count\": 40}"),
            std::string::npos);

  // max_relative_error round-trips exactly (2^-b has more than the six
  // significant digits a default-formatted stream prints from b = 8 on).
  for (int bits : {7, 9, 12}) {
    ConcurrentHistogram hist(bits);
    hist.Record(12345, 1);
    std::string doc;
    AppendSnapshotJson(doc, hist.Snapshot());
    const Result<api::JsonValue> parsed = api::ParseJson(doc);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const api::JsonValue* error = parsed->Find("max_relative_error");
    ASSERT_NE(error, nullptr);
    const Result<double> value = error->AsF64();
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(*value, LogBucketMaxRelativeError(bits)) << "bits " << bits;
  }
}

// ------------------------------------------------------------ the bridge

TEST(ConcurrentHistogramTest, BridgeIsExactOnOccupiedBuckets) {
  const HistogramSnapshot snap = SmallSnapshot();
  const Result<Distribution> bridged = snap.ToBucketDistribution();
  ASSERT_TRUE(bridged.ok()) << bridged.status().ToString();
  const Distribution& d = *bridged;
  ASSERT_EQ(d.n(), 101);  // MaxValueBound + 1
  // Denormal buckets are single values: the bridged pmf is the empirical
  // distribution itself.
  EXPECT_NEAR(d.p(0), 0.10, 1e-12);
  EXPECT_NEAR(d.p(1), 0.20, 1e-12);
  EXPECT_NEAR(d.p(2), 0.30, 1e-12);
  EXPECT_NEAR(d.p(100), 0.40, 1e-12);
  EXPECT_NEAR(d.p(50), 0.0, 1e-12);  // gap run carries zero mass
}

TEST(ConcurrentHistogramTest, BridgeSpreadsWideBucketsUniformly) {
  ConcurrentHistogram hist(kBits);
  const uint64_t v = 1 << 20;
  hist.Record(v, 10);
  const HistogramSnapshot snap = hist.Snapshot();
  const Result<Distribution> bridged = snap.ToBucketDistribution();
  ASSERT_TRUE(bridged.ok());
  const uint32_t key = LogBucketKey(v, kBits);
  const uint64_t lo = LogBucketLow(key, kBits);
  const uint64_t hi = LogBucketHigh(key, kBits);
  ASSERT_EQ(bridged->n(), static_cast<int64_t>(hi) + 1);
  const double per_element = 1.0 / (static_cast<double>(hi - lo) + 1.0);
  EXPECT_NEAR(bridged->p(static_cast<int64_t>(lo)), per_element, 1e-12);
  EXPECT_NEAR(bridged->p(static_cast<int64_t>(hi)), per_element, 1e-12);
  EXPECT_NEAR(bridged->p(static_cast<int64_t>(lo) - 1), 0.0, 1e-12);
}

TEST(ConcurrentHistogramTest, BridgeRejectsRangesBeyondInt64) {
  ConcurrentHistogram hist(kBits);
  hist.Record(~uint64_t{0}, 1);  // last bucket ends at 2^64 - 1
  const Result<Distribution> bridged = hist.Snapshot().ToBucketDistribution();
  ASSERT_FALSE(bridged.ok());
  EXPECT_EQ(bridged.status().code(), StatusCode::kInvalidArgument);
}

// End-to-end: ingest -> snapshot -> TelemetrySession -> Engine learn. The
// learner sees the bridged telemetry as its oracle AND its truth, so the
// report must come back complete with a valid tiling.
TEST(ConcurrentHistogramTest, TelemetrySessionRunsEngineLearn) {
  ConcurrentHistogram hist(kBits);
  // A 2-piece shape: heavy mass on [0, 63], light on [64, 99].
  for (uint64_t v = 0; v < 64; ++v) hist.Record(v, 30);
  for (uint64_t v = 64; v < 100; ++v) hist.Record(v, 5);

  const Result<TelemetrySession> session =
      TelemetrySession::FromSnapshot(hist.Snapshot());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(session->n(), 100);

  LearnSpec spec;
  spec.seed = 21;
  spec.options.k = 2;
  spec.options.eps = 0.2;
  const Result<Report> report = session->Run(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->outcome, TaskOutcome::kOk);
  ASSERT_TRUE(report->learn.has_value());
  EXPECT_GE(report->learn->tiling.k(), 1);
  EXPECT_EQ(report->learn->tiling.n(), 100);
}

// The snapshot is a pure function of what was recorded, not of the shard
// layout: any shard count, any thread assignment, same snapshot.
TEST(ConcurrentHistogramTest, SnapshotIndependentOfShardCountAndThreads) {
  auto record_all = [](ConcurrentHistogram& hist, int threads) {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&hist, t, threads] {
        for (uint64_t v = static_cast<uint64_t>(t); v < 5000;
             v += static_cast<uint64_t>(threads)) {
          hist.Record(v * v);  // spread across denormal + geometric regions
        }
      });
    }
    for (std::thread& th : pool) th.join();
  };

  ConcurrentHistogram reference(kBits, /*num_shards=*/1);
  record_all(reference, 1);
  const HistogramSnapshot expected = reference.Snapshot();

  for (int shards : {1, 2, 8, 64}) {
    for (int threads : {1, 3, 8}) {
      ConcurrentHistogram hist(kBits, shards);
      record_all(hist, threads);
      EXPECT_EQ(hist.Snapshot(), expected)
          << "shards=" << shards << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace histk
