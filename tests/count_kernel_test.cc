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
//   5. The group plan: one entry's Poisson table, walked tails included,
//      matches the exact pmf; a group's sets have the Multinomial's
//      marginals and collision moments; a vector over the block length is
//      redrawn; and plan-path groups keep the stream contracts (worker
//      count invariance, a hardened session's chunks equal one request).
#include "dist/count_kernel.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "dist/dataset.h"
#include "dist/distribution.h"
#include "dist/generators.h"
#include "dist/sampler.h"
#include "engine/budget.h"
#include "engine/runtime.h"
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

// ------------------------------------------------------------ group plan

/// An order-free sink that tallies per-element counts and lends one draw
/// scratch across requests, as a group's counters do.
class LendingSink : public CountSink {
 public:
  explicit LendingSink(int64_t n) : counts_(static_cast<size_t>(n), 0) {}
  void Consume(const int64_t* draws, int64_t len, int64_t /*offset*/) override {
    for (int64_t i = 0; i < len; ++i) ++counts_[static_cast<size_t>(draws[i])];
  }
  bool OrderFree() const override { return true; }
  void ConsumeRuns(const int64_t* values, const int64_t* counts, int64_t len,
                   int64_t /*offset*/) override {
    for (int64_t i = 0; i < len; ++i) {
      counts_[static_cast<size_t>(values[i])] += counts[i];
    }
  }
  DrawBlockBuffers* DrawScratch() override { return &scratch_; }

  /// The counts so far; the next request starts from zero.
  std::vector<int64_t> Take() {
    std::vector<int64_t> out(counts_.size(), 0);
    out.swap(counts_);
    return out;
  }
  const DrawBlockBuffers& scratch() const { return scratch_; }

 private:
  std::vector<int64_t> counts_;
  DrawBlockBuffers scratch_;
};

/// Exact Poisson(lambda) pmf at x.
double PoissonPmf(double lambda, int64_t x) {
  const double xd = static_cast<double>(x);
  return std::exp(xd * std::log(lambda) - lambda - std::lgamma(xd + 1.0));
}

TEST(CountKernelPlanTest, EntryTablesMatchThePoissonPmfTailsIncluded) {
  // Masses 7 : 2 : 1 at len 20000: λ of about 12,900, 3,700 and 1,840,
  // each with a walked tail on both sides of its table; plus a light
  // entry whose table starts at 0.
  const CountKernel kernel({{0, 1, 7.0L}, {1, 1, 2.0L}, {2, 1, 1.0L},
                            {3, 1, 0.0004L}});
  const CountKernel::GroupPlan plan(kernel, 20000);
  EXPECT_EQ(plan.len(), 20000);
  EXPECT_EQ(plan.table_first(3), 0);
  const int64_t draws = 2000000;
  uint64_t seed = 70;
  for (int64_t i = 0; i < kernel.size(); ++i) {
    const double lambda = plan.lambda(i);
    const int64_t first = plan.table_first(i);
    const int64_t last = plan.table_last(i);
    ASSERT_LE(first, static_cast<int64_t>(lambda));
    ASSERT_GT(last, static_cast<int64_t>(lambda));
    // Cells: below the table, each table value, above the table.
    std::vector<int64_t> seen(static_cast<size_t>(last - first + 3), 0);
    Rng rng(++seed);
    for (int64_t d = 0; d < draws; ++d) {
      const int64_t x = plan.Quantile(i, rng.NextDouble());
      ASSERT_GE(x, 0);
      const int64_t cell = x < first ? 0 : x > last ? last - first + 2 : x - first + 1;
      ++seen[static_cast<size_t>(cell)];
    }
    std::vector<double> expect(seen.size(), 0.0);
    double below = 0.0;
    for (int64_t x = 0; x < first; ++x) below += PoissonPmf(lambda, x);
    expect.front() = below;
    double covered = below;
    for (int64_t x = first; x <= last; ++x) {
      expect[static_cast<size_t>(x - first + 1)] = PoissonPmf(lambda, x);
      covered += PoissonPmf(lambda, x);
    }
    expect.back() = 1.0 - covered;
    if (first > 0) {
      EXPECT_GT(seen.front(), 0) << "entry " << i << ": no draw walked down";
    }
    EXPECT_GT(seen.back(), 0) << "entry " << i << ": no draw walked up";
    // Pool sparse cells into their neighbours so every cell expects >= 5.
    double stat = 0.0;
    int64_t cells = 0;
    double pooled_expect = 0.0;
    int64_t pooled_seen = 0;
    for (size_t c = 0; c < seen.size(); ++c) {
      pooled_expect += expect[c] * static_cast<double>(draws);
      pooled_seen += seen[c];
      if (pooled_expect < 5.0 && c + 1 < seen.size()) continue;
      const double diff = static_cast<double>(pooled_seen) - pooled_expect;
      stat += diff * diff / pooled_expect;
      ++cells;
      pooled_expect = 0.0;
      pooled_seen = 0;
    }
    EXPECT_LT(stat, ChiSquareCritical(cells - 1)) << "entry " << i;
  }
}

TEST(CountKernelPlanTest, QuantilesMatchTheExactPoissonInverse) {
  // Every u maps to the smallest x with P(N <= x) > u: inside the table,
  // and in both walked tails, at means from about 6 to about 17,000.
  const CountKernel kernel({{0, 1, 3000.0L}, {1, 1, 400.0L}, {2, 1, 50.0L},
                            {3, 1, 8.0L}, {4, 1, 1.0L}});
  const CountKernel::GroupPlan plan(kernel, 20000);
  Rng rng(91);
  for (int64_t i = 0; i < kernel.size(); ++i) {
    const long double lambda = plan.lambda(i);
    const int64_t first = plan.table_first(i);
    const int64_t last = plan.table_last(i);
    // The exact cdf from far below the table to far above it.
    const auto from = static_cast<int64_t>(
        std::max(0.0L, lambda - 40.0L * std::sqrt(lambda) - 40.0L));
    const auto to = static_cast<int64_t>(lambda + 40.0L * std::sqrt(lambda) + 40.0L);
    std::vector<long double> cdf;
    long double acc = 0.0L;
    for (int64_t x = from; x <= to; ++x) {
      const auto xl = static_cast<long double>(x);
      acc += std::exp(xl * std::log(lambda) - lambda - std::lgamma(xl + 1.0L));
      cdf.push_back(acc);
    }
    auto cdf_at = [&](int64_t x) {
      return x < from ? 0.0L : cdf[static_cast<size_t>(x - from)];
    };
    // Uniform u, plus u spread over each tail's own mass.
    std::vector<double> us;
    for (int j = 0; j < 20000; ++j) us.push_back(rng.NextDouble());
    const long double below = cdf_at(first - 1);
    const long double above = cdf_at(last);
    for (int j = 0; j < 2000; ++j) {
      const long double f = (j + 0.5L) / 2000.0L;
      if (first > 0) us.push_back(static_cast<double>(below * f));
      us.push_back(static_cast<double>(above + (1.0L - above) * f));
    }
    int64_t left_walks = 0;
    int64_t right_walks = 0;
    for (const double u : us) {
      const int64_t got = plan.Quantile(i, u);
      ASSERT_GE(got, 0) << "entry " << i << " u " << u;
      const auto above_u =
          std::upper_bound(cdf.begin(), cdf.end(), static_cast<long double>(u));
      const int64_t want = from + (above_u - cdf.begin());
      if (got < first) ++left_walks;
      if (got > last) ++right_walks;
      if (got == want) continue;
      // Only a u within rounding of a cdf step may land one value off.
      const long double step = cdf_at(std::min(got, want));
      EXPECT_LT(std::fabs(static_cast<double>(step - u)), 1e-12)
          << "entry " << i << " u " << u << " got " << got << " want " << want;
      EXPECT_EQ(std::abs(got - want), 1) << "entry " << i << " u " << u;
    }
    EXPECT_GT(right_walks, 1000) << "entry " << i;
    if (first > 0) EXPECT_GT(left_walks, 1000) << "entry " << i;
  }
}

TEST_F(CountKernelLawTest, GroupPlanMarginalsMatchThePmf) {
  // 40 sets of 3 full blocks plus a partial one, pooled: the full blocks
  // draw through one plan, the partial one through a second plan (or per
  // draw, where it is under kDrawsPerBinomial draws per entry).
  const int64_t m = 3 * Sampler::kShardChunk + 4321;
  const int64_t sets = 40;
  uint64_t seed = 110;
  for (const Oracle& o : Oracles()) {
    std::vector<int64_t> pooled(o.pmf.size(), 0);
    WithSampler(o, AliasKernel::kCounts, [&](const Sampler& s) {
      Rng rng(++seed);
      const SampleSetGroup group = SampleSetGroup::Draw(s, sets, m, rng);
      for (int64_t j = 0; j < sets; ++j) {
        const std::vector<int64_t> c = CountVector(group.set(j));
        for (size_t v = 0; v < c.size(); ++v) pooled[v] += c[v];
      }
    });
    const double total = static_cast<double>(m) * static_cast<double>(sets);
    double stat = 0.0;
    int64_t cells = 0;
    for (size_t v = 0; v < pooled.size(); ++v) {
      if (o.pmf[v] == 0.0) {
        EXPECT_EQ(pooled[v], 0) << o.name << ": drew zero-mass element " << v;
        continue;
      }
      const double expect = o.pmf[v] * total;
      const double diff = static_cast<double>(pooled[v]) - expect;
      stat += diff * diff / expect;
      ++cells;
    }
    EXPECT_LT(stat, ChiSquareCritical(cells - 1)) << o.name;
  }
}

TEST_F(CountKernelLawTest, GroupPlanCollisionMomentsMatchTheMultinomial) {
  // Per set of L draws, coll = sum_i C(c_i, 2) has mean C(L, 2) sum p_i^2
  // and, for the Multinomial, a variance the replay kernel's sets estimate.
  const int64_t len = 20000;
  const int64_t sets = 300;
  uint64_t seed = 150;
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
        const SampleSetGroup group = SampleSetGroup::Draw(s, sets, len, rng);
        for (int64_t j = 0; j < sets; ++j) {
          const SampleSet& set = group.set(j);
          ASSERT_EQ(set.m(), len);
          const double c =
              static_cast<double>(set.Collisions(Interval::Full(set.n())));
          sum += c;
          sum2 += c * c;
        }
      });
      mean[k] = sum / static_cast<double>(sets);
      var[k] = sum2 / static_cast<double>(sets) - mean[k] * mean[k];
      EXPECT_LT(std::fabs(mean[k] - expect) / std::sqrt(var[k] / sets), 5.0)
          << o.name << " kernel " << AliasKernelName(kernels[k]);
    }
    EXPECT_LT(std::fabs(mean[0] - mean[1]) / std::sqrt(var[0] / sets + var[1] / sets),
              5.0)
        << o.name;
    // The variances agree too: the ratio of two sample variances over 300
    // sets stays well inside [0.6, 1.6] when the laws match.
    EXPECT_GT(var[0] / var[1], 0.6) << o.name;
    EXPECT_LT(var[0] / var[1], 1.6) << o.name;
  }
}

TEST(CountKernelPlanTest, VectorOverTheBlockLengthIsRedrawn) {
  // A block through the plan is: totals redrawn while they exceed len,
  // then len - T fix-up draws from the oracle. Find a seed whose first
  // vector overshoots, and rebuild the block by hand from the same state.
  const Distribution dist = DenseSkewed();
  const AliasSampler oracle(dist, AliasKernel::kCounts);
  std::vector<CountKernel::Run> runs;
  for (int64_t v = 0; v < dist.n(); ++v) {
    runs.push_back({v, 1, static_cast<long double>(dist.p(v))});
  }
  const CountKernel kernel(runs);
  const int64_t len = 2000;  // over kDrawsPerBinomial * 64 entries
  ASSERT_GE(len, CountKernel::kDrawsPerBinomial * kernel.size());
  const CountKernel::GroupPlan plan(kernel, len);
  std::vector<int64_t> totals(static_cast<size_t>(kernel.size()));
  uint64_t seed = 0;
  for (uint64_t s = 1; s < 100000 && seed == 0; ++s) {
    Rng probe(s);
    if (plan.DrawTotals(probe, totals.data()) > len) seed = s;
  }
  ASSERT_NE(seed, 0u) << "no seed overshoots the block length";

  Rng drawn_rng(seed);
  LendingSink sink(dist.n());
  kernel.DrawCounts(oracle, len, drawn_rng, sink, 0);
  ASSERT_EQ(sink.scratch().plans.size(), 1u);
  EXPECT_EQ(sink.scratch().plans.front().len(), len);
  const std::vector<int64_t> drawn = sink.Take();

  Rng by_hand(seed);
  int64_t placed = plan.DrawTotals(by_hand, totals.data());
  ASSERT_GT(placed, len);
  int64_t redraws = 0;
  while (placed > len) {
    placed = plan.DrawTotals(by_hand, totals.data());
    ++redraws;
  }
  EXPECT_GE(redraws, 1);
  std::vector<int64_t> want(static_cast<size_t>(dist.n()), 0);
  for (int64_t i = 0; i < kernel.size(); ++i) {
    ASSERT_EQ(kernel.run_len(i), 1);
    want[static_cast<size_t>(kernel.run_lo(i))] += totals[static_cast<size_t>(i)];
  }
  for (int64_t v : oracle.DrawMany(len - placed, by_hand)) {
    ++want[static_cast<size_t>(v)];
  }
  EXPECT_EQ(drawn, want);
  EXPECT_EQ(drawn_rng.NextU64(), by_hand.NextU64());
}

TEST(CountKernelPlanTest, PlanGroupsKeepTheStreamContracts) {
  // Two full blocks and a tail, both over the plan threshold (the bucket
  // oracle has 4 support entries, the dataset at most 37): one group builds two
  // plans. Sharded groups match at any worker count; a
  // sequential group matches its sets drawn one request at a time through
  // one lent scratch, and an armed session's chunked requests.
  const Distribution bucket = BucketSmall();
  const std::vector<int64_t> items = DatasetItems();
  const AliasSampler bucket_s(bucket, AliasKernel::kCounts);
  const DatasetSampler data_s(100, items, AliasKernel::kCounts);
  const Sampler* samplers[] = {&bucket_s, &data_s};
  const int64_t m = 2 * Sampler::kShardChunk + 3000;
  const int64_t r = 4;
  for (const Sampler* s : samplers) {
    Rng rng1(12);
    const SampleSetGroup one = SampleSetGroup::Draw(*s, r, m, rng1, 1);
    Rng rng3(12);
    const SampleSetGroup three = SampleSetGroup::Draw(*s, r, m, rng3, 3);
    for (int64_t j = 0; j < r; ++j) ExpectSameSet(one.set(j), three.set(j));
    EXPECT_EQ(rng1.NextU64(), rng3.NextU64());

    Rng seq_rng(13);
    const SampleSetGroup seq = SampleSetGroup::Draw(*s, r, m, seq_rng, 0);
    Rng lent_rng(13);
    LendingSink lent(s->n());
    for (int64_t j = 0; j < r; ++j) {
      s->DrawCounts(m, lent_rng, lent, 0);
      EXPECT_EQ(CountVector(seq.set(j)), lent.Take()) << "set " << j;
    }
    // One plan per block length: the full blocks' and the tail's.
    EXPECT_EQ(lent.scratch().plans.size(), 2u);
    EXPECT_EQ(seq_rng.NextU64(), lent_rng.NextU64());

    RunPolicy armed;
    armed.cancel = CancelToken::Create();
    ASSERT_TRUE(armed.armed());
    const BudgetedSampler hardened(*s, BudgetedSampler::kUnlimited, &armed);
    Rng chunked_rng(13);
    const SampleSetGroup chunked = SampleSetGroup::Draw(hardened, r, m, chunked_rng, 0);
    for (int64_t j = 0; j < r; ++j) ExpectSameSet(seq.set(j), chunked.set(j));
    EXPECT_EQ(hardened.samples_drawn(), r * m);
  }
}

}  // namespace
}  // namespace histk
