// The AliasKernel::kCounts contract (dist/count_kernel.h):
//
//   1. Same law as the per-draw path: for dense, bucketed and dataset
//      oracles, count vectors pass a chi-square test on their marginals and
//      z-tests on their collision moments, against the exact pmf and
//      against the replay kernel's own counts.
//   2. Its own stream, with the draw contracts kept: a sequential request
//      cut at kShardChunk boundaries equals the whole request, and sharded
//      counts are identical at any worker count.
//   3. Every materializing path — Draw, DrawMany, DrawManySharded and sinks
//      that are not order-free — stays the replay kernel's byte for byte.
//   4. SampleCounter accumulates runs without expanding them and builds the
//      set FromDraws would build from the expanded multiset.
#include "dist/count_kernel.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "dist/dataset.h"
#include "dist/distribution.h"
#include "dist/generators.h"
#include "dist/sampler.h"
#include "sample/counter.h"
#include "sample/sample_set.h"
#include "util/interval.h"
#include "util/rng.h"

namespace histk {
namespace {

Distribution DenseSkewed() { return MakeZipf(64, 1.2); }

Distribution DenseWithHoles() {
  return Distribution::FromWeights({0, 3, 0, 0, 1, 2, 0, 5, 0, 0, 0, 1, 0});
}

/// Bucket widths 10, 90, 1, 399 and 500 (one of zero mass): blocks split
/// wide runs both by binomials and by uniform picks.
Distribution BucketSmall() {
  return Distribution::FromBucketWeights(1000, {9, 99, 100, 499, 999},
                                         {5.0, 1.0, 0.0, 3.0, 2.0});
}

Distribution BucketHuge() {
  const int64_t n = int64_t{1} << 30;
  return Distribution::FromBucketWeights(
      n, {999, n / 4, n / 2, n - 2, n - 1}, {4.0, 2.0, 0.0, 3.0, 1.0});
}

std::vector<int64_t> DatasetItems() {
  Rng rng(77);
  std::vector<int64_t> items;
  for (int i = 0; i < 3000; ++i) {
    items.push_back(static_cast<int64_t>(rng.UniformInt(10) * rng.UniformInt(10)));
  }
  return items;
}

/// Upper 1e-6 quantile of chi-square with `df` degrees of freedom
/// (Wilson–Hilferty).
double ChiSquareCritical(int64_t df) {
  const double z = 4.753;
  const double d = static_cast<double>(df);
  const double t = 1.0 - 2.0 / (9.0 * d) + z * std::sqrt(2.0 / (9.0 * d));
  return d * t * t * t;
}

/// One oracle under test with its exact pmf (dense domains only).
struct Oracle {
  const char* name;
  std::vector<double> pmf;
  // Exactly one of the two is set.
  const Distribution* dist = nullptr;
  const std::vector<int64_t>* items = nullptr;
};

std::vector<double> PmfOf(const Distribution& d) {
  std::vector<double> pmf(static_cast<size_t>(d.n()));
  for (int64_t i = 0; i < d.n(); ++i) pmf[static_cast<size_t>(i)] = d.p(i);
  return pmf;
}

std::vector<double> PmfOf(int64_t n, const std::vector<int64_t>& items) {
  std::vector<double> pmf(static_cast<size_t>(n), 0.0);
  for (int64_t v : items) pmf[static_cast<size_t>(v)] += 1.0;
  for (double& p : pmf) p /= static_cast<double>(items.size());
  return pmf;
}

/// Per-element counts of a dense-domain set.
std::vector<int64_t> CountVector(const SampleSet& s) {
  std::vector<int64_t> counts(static_cast<size_t>(s.n()));
  for (int64_t v = 0; v < s.n(); ++v) {
    counts[static_cast<size_t>(v)] = s.Count(Interval(v, v));
  }
  return counts;
}

void ExpectSameSet(const SampleSet& a, const SampleSet& b) {
  ASSERT_EQ(a.n(), b.n());
  ASSERT_EQ(a.m(), b.m());
  ASSERT_EQ(a.distinct_values(), b.distinct_values());
  for (int64_t v : a.distinct_values()) {
    EXPECT_EQ(a.Count(Interval(v, v)), b.Count(Interval(v, v))) << v;
  }
  const Interval full = Interval::Full(a.n());
  EXPECT_EQ(a.Collisions(full), b.Collisions(full));
}

/// Runs `fn` with an oracle built for `o` under `kernel`.
template <typename Fn>
void WithSampler(const Oracle& o, AliasKernel kernel, Fn fn) {
  if (o.dist != nullptr) {
    fn(AliasSampler(*o.dist, kernel));
  } else {
    fn(DatasetSampler(static_cast<int64_t>(o.pmf.size()), *o.items, kernel));
  }
}

class CountKernelLawTest : public ::testing::Test {
 protected:
  const Distribution dense_ = DenseSkewed();
  const Distribution holes_ = DenseWithHoles();
  const Distribution bucket_ = BucketSmall();
  const std::vector<int64_t> items_ = DatasetItems();

  std::vector<Oracle> Oracles() const {
    return {
        {"dense", PmfOf(dense_), &dense_, nullptr},
        {"dense with holes", PmfOf(holes_), &holes_, nullptr},
        {"bucket", PmfOf(bucket_), &bucket_, nullptr},
        {"dataset", PmfOf(100, items_), nullptr, &items_},
    };
  }
};

TEST_F(CountKernelLawTest, MarginalsMatchThePmf) {
  // 40 sets of 3 full blocks plus a partial one, pooled: ~8M draws.
  const int64_t m = 3 * Sampler::kShardChunk + 1234;
  const int sets = 40;
  uint64_t seed = 10;
  for (const Oracle& o : Oracles()) {
    std::vector<int64_t> pooled(o.pmf.size(), 0);
    WithSampler(o, AliasKernel::kCounts, [&](const Sampler& s) {
      Rng rng(++seed);
      for (int j = 0; j < sets; ++j) {
        const std::vector<int64_t> c = CountVector(SampleSet::Draw(s, m, rng));
        for (size_t v = 0; v < c.size(); ++v) pooled[v] += c[v];
      }
    });
    const double total = static_cast<double>(m) * sets;
    double stat = 0.0;
    int64_t cells = 0;
    for (size_t v = 0; v < pooled.size(); ++v) {
      const double expect = o.pmf[v] * total;
      if (o.pmf[v] == 0.0) {
        EXPECT_EQ(pooled[v], 0) << o.name << ": drew zero-mass element " << v;
        continue;
      }
      const double diff = static_cast<double>(pooled[v]) - expect;
      stat += diff * diff / expect;
      ++cells;
    }
    EXPECT_LT(stat, ChiSquareCritical(cells - 1)) << o.name;
  }
}

TEST_F(CountKernelLawTest, CollisionMomentsMatchThePmfAndTheReplayKernel) {
  // Per block of L draws, coll = sum_i C(c_i, 2) has mean C(L, 2) sum p_i^2.
  // z-test each kernel's mean against it, and the two kernels against each
  // other.
  const int64_t len = 20000;
  const int blocks = 300;
  uint64_t seed = 50;
  for (const Oracle& o : Oracles()) {
    double sum_p2 = 0.0;
    for (double p : o.pmf) sum_p2 += p * p;
    const double expect = 0.5 * static_cast<double>(len) * (len - 1) * sum_p2;
    double mean[2];
    double var[2];
    const AliasKernel kernels[2] = {AliasKernel::kCounts, AliasKernel::kReplay};
    for (int k = 0; k < 2; ++k) {
      double sum = 0.0;
      double sum2 = 0.0;
      WithSampler(o, kernels[k], [&](const Sampler& s) {
        Rng rng(++seed);
        for (int j = 0; j < blocks; ++j) {
          const SampleSet set = SampleSet::Draw(s, len, rng);
          const double c =
              static_cast<double>(set.Collisions(Interval::Full(set.n())));
          sum += c;
          sum2 += c * c;
        }
      });
      mean[k] = sum / blocks;
      var[k] = sum2 / blocks - mean[k] * mean[k];
      EXPECT_LT(std::fabs(mean[k] - expect) / std::sqrt(var[k] / blocks), 5.0)
          << o.name << " kernel " << AliasKernelName(kernels[k]);
    }
    EXPECT_LT(std::fabs(mean[0] - mean[1]) /
                  std::sqrt(var[0] / blocks + var[1] / blocks),
              5.0)
        << o.name;
  }
}

TEST(CountKernelTest, BlockRunsCoverTheBlockWithinTheDomain) {
  const Distribution d = BucketSmall();
  CountKernel kernel({{0, 10, 50.0L}, {10, 90, 90.0L}, {100, 1, 0.0L},
                      {101, 399, 1197.0L}, {500, 500, 1000.0L}});
  EXPECT_EQ(kernel.size(), 4);
  EXPECT_EQ(kernel.max_runs(), 999);
  std::vector<int64_t> values(Sampler::kShardChunk);
  std::vector<int64_t> counts(Sampler::kShardChunk);
  Rng rng(5);
  for (const int64_t len : {int64_t{1}, int64_t{7}, int64_t{500}, int64_t{20000},
                            Sampler::kShardChunk}) {
    const int64_t runs = kernel.DrawBlock(len, rng, values.data(), counts.data());
    ASSERT_LE(runs, std::min(len, kernel.max_runs()));
    int64_t total = 0;
    for (int64_t j = 0; j < runs; ++j) {
      EXPECT_GT(counts[j], 0);
      EXPECT_TRUE(values[j] >= 0 && values[j] < d.n() && values[j] != 100)
          << values[j];
      total += counts[j];
    }
    EXPECT_EQ(total, len);
  }
}

// --------------------------------------------------------- stream contracts

TEST(CountKernelTest, ChunkedSequentialRequestsEqualOneRequest) {
  // What an armed session does: one request per kShardChunk slice.
  const Distribution d = DenseSkewed();
  const AliasSampler s(d, AliasKernel::kCounts);
  const int64_t m = 3 * Sampler::kShardChunk + 4321;
  Rng whole_rng(3), chunk_rng(3);
  SampleCounter whole(s.n(), m), chunked(s.n(), m);
  s.DrawCounts(m, whole_rng, whole);
  for (int64_t done = 0; done < m; done += Sampler::kShardChunk) {
    s.DrawCounts(std::min(Sampler::kShardChunk, m - done), chunk_rng, chunked);
  }
  ExpectSameSet(whole.Build(), chunked.Build());
  EXPECT_EQ(whole_rng.NextU64(), chunk_rng.NextU64());
}

TEST(CountKernelTest, ShardedCountsAreWorkerCountInvariant) {
  const Distribution dense = DenseSkewed();
  const Distribution huge = BucketHuge();
  const std::vector<int64_t> items = DatasetItems();
  const AliasSampler dense_s(dense, AliasKernel::kCounts);
  const AliasSampler huge_s(huge, AliasKernel::kCounts);
  const DatasetSampler data_s(100, items, AliasKernel::kCounts);
  const Sampler* samplers[] = {&dense_s, &huge_s, &data_s};
  const int64_t m = 4 * Sampler::kShardChunk + 99;
  for (const Sampler* s : samplers) {
    Rng rng1(9);
    const SampleSet one = SampleSet::Draw(*s, m, rng1, 1);
    EXPECT_EQ(one.m(), m);
    for (const int threads : {2, 3}) {
      Rng rng(9);
      ExpectSameSet(one, SampleSet::Draw(*s, m, rng, threads));
      EXPECT_EQ(rng.NextU64(), Rng(rng1).NextU64());
    }
  }
}

TEST(CountKernelTest, OrderFreeSinksGetRunsAndShortBlocksGetDraws) {
  // A block of at least kDrawsPerBinomial draws per support entry arrives
  // as runs; a shorter one is drawn per draw.
  struct Recorder : CountSink {
    int64_t draws = 0;
    int64_t runs = 0;
    int64_t run_draws = 0;
    void Consume(const int64_t*, int64_t len, int64_t) override { draws += len; }
    bool OrderFree() const override { return true; }
    void ConsumeRuns(const int64_t*, const int64_t* counts, int64_t len,
                     int64_t) override {
      runs += len;
      for (int64_t j = 0; j < len; ++j) run_draws += counts[j];
    }
  };
  const AliasSampler s(DenseSkewed(), AliasKernel::kCounts);  // 64 entries
  Rng rng(4);
  Recorder sink;
  s.DrawCounts(Sampler::kShardChunk + 40, rng, sink);
  EXPECT_EQ(sink.run_draws, Sampler::kShardChunk);
  EXPECT_LE(sink.runs, 64);
  EXPECT_EQ(sink.draws, 40);
}

TEST(CountKernelTest, MaterializingPathsKeepTheReplayStream) {
  const Distribution dense = DenseSkewed();
  const Distribution bucket = BucketHuge();
  const std::vector<int64_t> items = DatasetItems();
  struct Collect : CountSink {
    std::vector<int64_t> seen;
    void Consume(const int64_t* draws, int64_t len, int64_t) override {
      seen.insert(seen.end(), draws, draws + len);
    }
  };
  auto check = [](const Sampler& counts, const Sampler& replay) {
    Rng a(21), b(21);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(counts.Draw(a), replay.Draw(b));
    EXPECT_EQ(counts.DrawMany(70000, a), replay.DrawMany(70000, b));
    EXPECT_EQ(counts.DrawManySharded(150000, a, 3),
              replay.DrawManySharded(150000, b, 3));
    Collect ca, cb;
    counts.DrawCounts(80000, a, ca);
    replay.DrawCounts(80000, b, cb);
    EXPECT_EQ(ca.seen, cb.seen);
    EXPECT_EQ(a.NextU64(), b.NextU64());
  };
  check(AliasSampler(dense, AliasKernel::kCounts), AliasSampler(dense));
  check(AliasSampler(bucket, AliasKernel::kCounts), AliasSampler(bucket));
  check(DatasetSampler(100, items, AliasKernel::kCounts),
        DatasetSampler(100, items));
}

// ------------------------------------------------------ counting runs

TEST(CountKernelTest, CounterBuildsFromRunsAsFromTheExpandedDraws) {
  for (const int64_t n : {int64_t{100}, int64_t{1} << 30}) {
    Rng rng(8);
    std::vector<int64_t> expanded;
    SampleCounter counter(n, 5000);
    CountSink& shard = counter.AcquireShard();
    for (int part = 0; part < 6; ++part) {
      CountSink& sink = part % 2 == 0 ? static_cast<CountSink&>(counter) : shard;
      std::vector<int64_t> draws, values, counts;
      for (int i = 0; i < 300; ++i) {
        draws.push_back(static_cast<int64_t>(rng.UniformInt(40)) * (n / 100));
      }
      // Repeated values, in no order, some shared with the plain draws.
      for (int i = 0; i < 50; ++i) {
        values.push_back(static_cast<int64_t>(rng.UniformInt(60)) * (n / 100));
        counts.push_back(1 + static_cast<int64_t>(rng.UniformInt(9)));
      }
      sink.Consume(draws.data(), static_cast<int64_t>(draws.size()), 0);
      sink.ConsumeRuns(values.data(), counts.data(),
                       static_cast<int64_t>(values.size()), 0);
      expanded.insert(expanded.end(), draws.begin(), draws.end());
      for (size_t j = 0; j < values.size(); ++j) {
        expanded.insert(expanded.end(), static_cast<size_t>(counts[j]), values[j]);
      }
    }
    EXPECT_EQ(counter.total(), static_cast<int64_t>(expanded.size()));
    ExpectSameSet(counter.Build(), SampleSet::FromDraws(n, expanded));
  }
}

}  // namespace
}  // namespace histk
