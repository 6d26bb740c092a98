// Dense sample-set storage against the independent construction paths.
//
// A drawn dense SampleSetGroup builds its sets in place, in one block of r
// rows that every set copied out of the group shares: 32-bit rows when
// C(m, 2) < 2^32, 64-bit ones otherwise. This suite pins that storage to
// three other ways of building the same multiset:
//
//   1. Group vs construction paths: for random oracles at n <= 64 (kReplay
//      and kCounts, draw_threads 0, 1 and 3; sharded draws into both row
//      widths), each set of SampleSetGroup::Draw equals FromCounts,
//      FromRuns and FromDraws of the count vector the same seeded DrawCounts
//      hands a recording sink that lends one draw scratch to all r
//      requests, as the group does, and a brute-force sum over that vector,
//      on every interval's Count and Collisions, on m and on
//      distinct_values.
//   2. Lifetime: a set copied out of a group keeps answering the same after
//      the group is gone and another group has drawn (under the asan
//      preset, a freed block would be a use-after-free report).
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dist/dataset.h"
#include "dist/distribution.h"
#include "dist/sampler.h"
#include "sample/sample_set.h"
#include "util/interval.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace histk {
namespace {

/// An order-free sink that only tallies counts, sharded like SampleCounter:
/// the reference for what one DrawCounts call drew. Like a group's
/// counters, it lends `scratch` (one per group) to the request.
class RecordingSink : public CountSink {
 public:
  explicit RecordingSink(int64_t n, DrawBlockBuffers* scratch = nullptr)
      : counts_(static_cast<size_t>(n), 0), scratch_(scratch) {}

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
  CountSink& AcquireShard() override {
    shards_.emplace_back(static_cast<int64_t>(counts_.size()));
    return shards_.back();
  }
  DrawBlockBuffers* DrawScratch() override { return scratch_; }

  /// The primary tally plus every shard's.
  std::vector<int64_t> Counts() const {
    std::vector<int64_t> total = counts_;
    for (const RecordingSink& shard : shards_) {
      for (size_t v = 0; v < total.size(); ++v) total[v] += shard.counts_[v];
    }
    return total;
  }

 private:
  std::vector<int64_t> counts_;
  DrawBlockBuffers* scratch_;
  std::deque<RecordingSink> shards_;
};

/// Random weights over [0, n), about a third of them zero (at least one
/// positive).
Distribution RandomDist(int64_t n, Rng& rng) {
  std::vector<double> weights(static_cast<size_t>(n), 0.0);
  for (double& w : weights) {
    if (rng.UniformInt(3) != 0) w = 1.0 + static_cast<double>(rng.UniformInt(50));
  }
  weights[static_cast<size_t>(rng.UniformInt(static_cast<uint64_t>(n)))] += 1.0;
  return Distribution::FromWeights(weights);
}

/// Asserts `got` answers like `want` everywhere, and like the brute-force
/// sums over `counts`.
void ExpectSameSet(const SampleSet& got, const SampleSet& want,
                   const std::vector<int64_t>& counts, const std::string& what) {
  const int64_t n = static_cast<int64_t>(counts.size());
  ASSERT_EQ(got.n(), n) << what;
  ASSERT_EQ(got.m(), want.m()) << what;
  ASSERT_EQ(got.distinct_values(), want.distinct_values()) << what;
  int64_t m = 0;
  std::vector<int64_t> distinct;
  for (int64_t v = 0; v < n; ++v) {
    m += counts[static_cast<size_t>(v)];
    if (counts[static_cast<size_t>(v)] > 0) distinct.push_back(v);
  }
  ASSERT_EQ(got.m(), m) << what;
  ASSERT_EQ(got.distinct_values(), distinct) << what;
  for (int64_t lo = 0; lo < n; ++lo) {
    int64_t count = 0;
    uint64_t coll = 0;
    for (int64_t hi = lo; hi < n; ++hi) {
      count += counts[static_cast<size_t>(hi)];
      coll += PairCount(static_cast<uint64_t>(counts[static_cast<size_t>(hi)]));
      const Interval I(lo, hi);
      ASSERT_EQ(got.Count(I), want.Count(I)) << what << " [" << lo << "," << hi << "]";
      ASSERT_EQ(got.Count(I), count) << what << " [" << lo << "," << hi << "]";
      ASSERT_EQ(got.Collisions(I), want.Collisions(I))
          << what << " [" << lo << "," << hi << "]";
      ASSERT_EQ(got.Collisions(I), coll) << what << " [" << lo << "," << hi << "]";
    }
  }
}

/// Every construction path of the multiset `counts` describes.
void ExpectMatchesConstructionPaths(const SampleSet& got,
                                    const std::vector<int64_t>& counts,
                                    const std::string& what) {
  const int64_t n = static_cast<int64_t>(counts.size());
  std::vector<int64_t> values;
  std::vector<int64_t> nonzero;
  std::vector<int64_t> draws;
  for (int64_t v = 0; v < n; ++v) {
    const int64_t c = counts[static_cast<size_t>(v)];
    if (c == 0) continue;
    values.push_back(v);
    nonzero.push_back(c);
    draws.insert(draws.end(), static_cast<size_t>(c), v);
  }
  ExpectSameSet(got, SampleSet::FromCounts(n, counts), counts, what + " FromCounts");
  ExpectSameSet(got, SampleSet::FromRuns(n, values, nonzero), counts,
                what + " FromRuns");
  ExpectSameSet(got, SampleSet::FromDraws(n, draws), counts, what + " FromDraws");
}

struct Case {
  AliasKernel kernel;
  int threads;
};

class GroupStorageTest : public ::testing::TestWithParam<Case> {};

TEST_P(GroupStorageTest, GroupSetsMatchEveryConstructionPath) {
  const Case c = GetParam();
  Rng gen(0x5A3D + static_cast<uint64_t>(c.threads) * 7 +
          (c.kernel == AliasKernel::kCounts ? 1 : 0));
  for (int trial = 0; trial < 12; ++trial) {
    const int64_t n = 1 + static_cast<int64_t>(gen.UniformInt(64));
    const Distribution dist = RandomDist(n, gen);
    const AliasSampler sampler(dist, c.kernel);
    // Small sets take kCounts's per-draw blocks, mid-sized ones its
    // binomial blocks. Two trials in four span several 2^16-draw chunks,
    // so three threads fan out to workers and their shards: two chunks
    // still fit 32-bit rows, three take 64-bit ones.
    int64_t m = 2 + static_cast<int64_t>(gen.UniformInt(3000));
    if (trial % 4 == 1) m = Sampler::kShardChunk + 20000;
    if (trial % 4 == 3) m = 3 * Sampler::kShardChunk + 17;
    const int64_t r = 1 + static_cast<int64_t>(gen.UniformInt(5));
    const uint64_t seed = gen.NextU64();
    const std::string what = std::string(AliasKernelName(c.kernel)) + " threads=" +
                             std::to_string(c.threads) + " n=" + std::to_string(n) +
                             " m=" + std::to_string(m) + " trial=" +
                             std::to_string(trial);

    Rng group_rng(seed);
    const SampleSetGroup group =
        SampleSetGroup::Draw(sampler, r, m, group_rng, c.threads);
    ASSERT_EQ(group.r(), r) << what;
    ASSERT_EQ(group.TotalSamples(), r * m) << what;

    Rng ref_rng(seed);
    DrawBlockBuffers scratch;
    for (int64_t i = 0; i < r; ++i) {
      RecordingSink sink(n, &scratch);
      sampler.DrawCounts(m, ref_rng, sink, c.threads);
      ExpectMatchesConstructionPaths(group.set(i), sink.Counts(),
                                     what + " set=" + std::to_string(i));
      if (HasFatalFailure()) return;
    }
    // The draws line up set by set: the group consumed the same stream.
    EXPECT_EQ(group_rng.NextU64(), ref_rng.NextU64()) << what;
  }
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndThreads, GroupStorageTest,
    ::testing::Values(Case{AliasKernel::kReplay, 0}, Case{AliasKernel::kReplay, 1},
                      Case{AliasKernel::kReplay, 3}, Case{AliasKernel::kCounts, 0},
                      Case{AliasKernel::kCounts, 1}, Case{AliasKernel::kCounts, 3}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(AliasKernelName(info.param.kernel)) + "_threads" +
             std::to_string(info.param.threads);
    });

// A dataset oracle is the served shape: its kCounts support is the
// distinct items, weighted by occurrence.
TEST(DatasetGroupStorageTest, GroupSetsMatchEveryConstructionPath) {
  Rng gen(0xDA7A);
  std::vector<int64_t> items;
  for (int i = 0; i < 2000; ++i) {
    items.push_back(static_cast<int64_t>(gen.UniformInt(8) * gen.UniformInt(8)));
  }
  const DatasetSampler sampler(64, items, AliasKernel::kCounts);
  for (const int threads : {0, 1, 3}) {
    Rng group_rng(99);
    const SampleSetGroup group =
        SampleSetGroup::Draw(sampler, 7, 2500, group_rng, threads);
    Rng ref_rng(99);
    DrawBlockBuffers scratch;
    for (int64_t i = 0; i < group.r(); ++i) {
      RecordingSink sink(64, &scratch);
      sampler.DrawCounts(2500, ref_rng, sink, threads);
      ExpectMatchesConstructionPaths(group.set(i), sink.Counts(),
                                     "dataset threads=" + std::to_string(threads) +
                                         " set=" + std::to_string(i));
      if (HasFatalFailure()) return;
    }
  }
}

// Sets copied out of a group share its storage; the copies keep it alive.
TEST(GroupStorageLifetimeTest, SetCopiedOutOfGroupOutlivesGroup) {
  const AliasSampler sampler(Distribution::FromWeights({4, 0, 1, 3, 3, 0, 2, 9, 1, 1}),
                             AliasKernel::kCounts);
  std::unique_ptr<SampleSet> kept;
  {
    Rng rng(5);
    const SampleSetGroup group = SampleSetGroup::Draw(sampler, 9, 4000, rng);
    kept = std::make_unique<SampleSet>(group.set(4));
  }
  // Another group reuses whatever storage the first one released, so a
  // dangling row would read other data (or, freed, trip the asan build).
  Rng other_rng(6);
  const SampleSetGroup other = SampleSetGroup::Draw(sampler, 9, 4000, other_rng);
  ASSERT_EQ(other.r(), 9);

  Rng ref_rng(5);
  std::vector<int64_t> counts;
  DrawBlockBuffers scratch;
  for (int i = 0; i <= 4; ++i) {
    RecordingSink sink(10, &scratch);
    sampler.DrawCounts(4000, ref_rng, sink, 0);
    counts = sink.Counts();
  }
  ExpectMatchesConstructionPaths(*kept, counts, "kept set");
  EXPECT_EQ(kept->m(), 4000);
}

}  // namespace
}  // namespace histk
