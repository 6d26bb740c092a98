// The PR 4 draw-pipeline contract:
//
//   1. Replay parity — the batched kernels (DrawManyInto, and DrawMany /
//      DrawManySharded on top of it) replay the scalar Draw loop's byte
//      sequence for every sampler, dense and bucketed.
//   2. Fused parity — DrawCounts through SampleCounter, sequential and
//      sharded, produces a SampleSet identical to materialize-then-count
//      (FromDraws ∘ DrawMany/DrawManySharded), at every thread count in
//      {1, 2, 8}, and leaves the rng in the same state.
//   3. The sharded stream is pinned to golden hashes, so a change shared by
//      every worker count still shows; so are kCounts's count vectors.
//   4. The FromDraws move-in overload and the FromRuns pre-counted
//      constructor agree with the historical constructors.
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

/// Samplers under test share this domain zoo: a dense skewed pmf, a dense
/// pmf with zero-mass holes, a bucketed pmf on a dense-sized domain, and a
/// bucketed pmf on a domain far beyond SampleSet::kDenseDomainLimit.
Distribution DenseSkewed() { return MakeZipf(64, 1.2); }

Distribution DenseWithHoles() {
  return Distribution::FromWeights({0, 3, 0, 0, 1, 2, 0, 5, 0, 0, 0, 1, 0});
}

Distribution BucketSmall() {
  return Distribution::FromBucketWeights(1000, {9, 99, 100, 499, 999},
                                         {5.0, 1.0, 0.0, 3.0, 2.0});
}

Distribution BucketHuge() {
  const int64_t n = int64_t{1} << 30;
  return Distribution::FromBucketWeights(
      n, {999, n / 4, n / 2, n - 2, n - 1}, {4.0, 2.0, 0.0, 3.0, 1.0});
}

/// Rng state fingerprint: the next few outputs (consumed from a copy).
std::vector<uint64_t> RngFingerprint(Rng rng) {
  std::vector<uint64_t> out;
  for (int i = 0; i < 4; ++i) out.push_back(rng.NextU64());
  return out;
}

void ExpectSameSampleSet(const SampleSet& a, const SampleSet& b) {
  ASSERT_EQ(a.n(), b.n());
  ASSERT_EQ(a.m(), b.m());
  ASSERT_EQ(a.distinct_values(), b.distinct_values());
  const Interval full = Interval::Full(a.n());
  EXPECT_EQ(a.Count(full), b.Count(full));
  EXPECT_EQ(a.Collisions(full), b.Collisions(full));
  Rng probe(0xABCD);
  for (int q = 0; q < 64; ++q) {
    const int64_t x = probe.UniformInRange(0, a.n() - 1);
    const int64_t y = probe.UniformInRange(0, a.n() - 1);
    const Interval I(std::min(x, y), std::max(x, y));
    EXPECT_EQ(a.Count(I), b.Count(I));
    EXPECT_EQ(a.Collisions(I), b.Collisions(I));
  }
}

// ---------------------------------------------------------------- replay

TEST(DrawPipelineTest, DrawManyIntoReplaysScalarDrawLoop) {
  const Distribution dists[] = {DenseSkewed(), DenseWithHoles(), BucketSmall(),
                                BucketHuge()};
  for (const Distribution& d : dists) {
    const AliasSampler alias(d);
    const CdfSampler cdf(d);
    for (const Sampler* s : {static_cast<const Sampler*>(&alias),
                             static_cast<const Sampler*>(&cdf)}) {
      Rng scalar_rng(7), into_rng(7), many_rng(7);
      std::vector<int64_t> scalar(5000);
      for (auto& v : scalar) v = s->Draw(scalar_rng);
      std::vector<int64_t> into(5000);
      s->DrawManyInto(into.data(), 5000, into_rng);
      const std::vector<int64_t> many = s->DrawMany(5000, many_rng);
      EXPECT_EQ(scalar, into);
      EXPECT_EQ(scalar, many);
      EXPECT_EQ(RngFingerprint(scalar_rng), RngFingerprint(into_rng));
      EXPECT_EQ(RngFingerprint(scalar_rng), RngFingerprint(many_rng));
    }
  }
}

TEST(DrawPipelineTest, DatasetSamplerBatchedReplaysScalar) {
  const DatasetSampler s(40, {1, 1, 2, 3, 5, 8, 13, 21, 34});
  Rng scalar_rng(11), many_rng(11);
  std::vector<int64_t> scalar(2000);
  for (auto& v : scalar) v = s.Draw(scalar_rng);
  EXPECT_EQ(scalar, s.DrawMany(2000, many_rng));
  EXPECT_EQ(RngFingerprint(scalar_rng), RngFingerprint(many_rng));
}

TEST(DrawPipelineTest, ShardedIntoSlicesMatchesSeedReplay) {
  // DrawManySharded now writes chunks straight into the output slice; it
  // must still be byte-identical across worker counts and deterministic.
  const AliasSampler s(BucketHuge());
  Rng r1(3), r2(3), r8(3);
  const auto out1 = s.DrawManySharded(200000, r1, 1);
  const auto out2 = s.DrawManySharded(200000, r2, 2);
  const auto out8 = s.DrawManySharded(200000, r8, 8);
  EXPECT_EQ(out1, out2);
  EXPECT_EQ(out1, out8);
  EXPECT_EQ(RngFingerprint(r1), RngFingerprint(r8));
}

// ----------------------------------------------------------------- fused

TEST(DrawPipelineTest, FusedSequentialMatchesMaterializeThenCount) {
  const Distribution dists[] = {DenseSkewed(), BucketSmall(), BucketHuge()};
  for (const Distribution& d : dists) {
    const AliasSampler s(d);
    for (const int64_t m : {int64_t{0}, int64_t{1}, int64_t{5000},
                            int64_t{200000}}) {
      Rng fused_rng(42), mat_rng(42);
      SampleCounter counter(s.n(), m);
      s.DrawCounts(m, fused_rng, counter);
      EXPECT_EQ(counter.total(), m);
      const SampleSet fused = counter.Build();
      const SampleSet materialized = SampleSet::FromDraws(s.n(), s.DrawMany(m, mat_rng));
      ExpectSameSampleSet(fused, materialized);
      // Interchangeable under a fixed seed: same rng state afterwards.
      EXPECT_EQ(RngFingerprint(fused_rng), RngFingerprint(mat_rng));
    }
  }
}

TEST(DrawPipelineTest, FusedShardedMatchesMaterializedAtEveryThreadCount) {
  const Distribution dists[] = {DenseSkewed(), BucketHuge()};
  for (const Distribution& d : dists) {
    const AliasSampler s(d);
    const int64_t m = 200000;
    Rng mat_rng(9);
    const SampleSet materialized =
        SampleSet::FromDraws(s.n(), s.DrawManySharded(m, mat_rng, 1));
    for (const int threads : {1, 2, 8}) {
      Rng fused_rng(9);
      const SampleSet fused = SampleSet::Draw(s, m, fused_rng, threads);
      ExpectSameSampleSet(fused, materialized);
      EXPECT_EQ(RngFingerprint(fused_rng), RngFingerprint(mat_rng));
    }
  }
}

TEST(DrawPipelineTest, SampleSetDrawStillReplaysHistoricalPath) {
  // SampleSet::Draw switched to the fused pipeline; seeded callers must see
  // the exact set (and rng state) the materialized path produced.
  const AliasSampler s(DenseSkewed());
  Rng fused_rng(123), legacy_rng(123);
  const SampleSet via_draw = SampleSet::Draw(s, 50000, fused_rng);
  const SampleSet legacy = SampleSet::FromDraws(s.n(), s.DrawMany(50000, legacy_rng));
  ExpectSameSampleSet(via_draw, legacy);
  EXPECT_EQ(RngFingerprint(fused_rng), RngFingerprint(legacy_rng));
}

TEST(DrawPipelineTest, GroupDrawShardedThreadInvariant) {
  const AliasSampler s(BucketSmall());
  Rng r1(77), r8(77);
  const SampleSetGroup g1 = SampleSetGroup::Draw(s, 3, 40000, r1, 1);
  const SampleSetGroup g8 = SampleSetGroup::Draw(s, 3, 40000, r8, 8);
  ASSERT_EQ(g1.r(), g8.r());
  for (int64_t i = 0; i < g1.r(); ++i) ExpectSameSampleSet(g1.set(i), g8.set(i));
  EXPECT_EQ(RngFingerprint(r1), RngFingerprint(r8));
}

// ---------------------------------------------------------------- golden

/// FNV-1a over the draws' little-endian bytes.
uint64_t HashDraws(const std::vector<int64_t>& draws) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const int64_t v : draws) {
    for (int b = 0; b < 8; ++b) {
      h ^= (static_cast<uint64_t>(v) >> (8 * b)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

TEST(DrawPipelineTest, ShardedStreamMatchesGolden) {
  // The materialized sharded stream is what `histk_cli gen` writes, and CI
  // feeds those bytes to learn/compare/property-test. The other sharded
  // tests compare worker counts with each other; these hashes pin the
  // stream itself.
  struct Case {
    const char* name;
    Distribution dist;
    AliasKernel kernel;
    uint64_t hash;
  };
  const Case cases[] = {
      {"dense replay", DenseSkewed(), AliasKernel::kReplay, 0x7fab1f183920e25eULL},
      {"bucket replay", BucketHuge(), AliasKernel::kReplay, 0xdb8f3e6b5f63b250ULL},
  };
  for (const Case& c : cases) {
    const AliasSampler s(c.dist, c.kernel);
    for (const int threads : {1, 3}) {
      Rng rng(7);
      EXPECT_EQ(HashDraws(s.DrawManySharded(200000, rng, threads)), c.hash)
          << c.name << ", threads=" << threads;
    }
  }
}

/// FNV-1a over a set's (value, count) pairs in ascending value order.
uint64_t HashCounts(const SampleSet& set) {
  std::vector<int64_t> pairs;
  for (const int64_t v : set.distinct_values()) {
    pairs.push_back(v);
    pairs.push_back(set.Count(Interval(v, v)));
  }
  return HashDraws(pairs);
}

TEST(DrawPipelineTest, CountKernelVectorsMatchGolden) {
  // kCounts has its own stream (the same law as replay, not the same
  // bytes), so its count vectors are pinned separately: sequential, and
  // sharded at two worker counts.
  std::vector<int64_t> items;
  for (int64_t i = 0; i < 5000; ++i) items.push_back((i * i) % 97);
  const AliasSampler dense(DenseSkewed(), AliasKernel::kCounts);
  const AliasSampler bucket(BucketHuge(), AliasKernel::kCounts);
  const DatasetSampler dataset(97, items, AliasKernel::kCounts);
  struct Case {
    const char* name;
    const Sampler* sampler;
    uint64_t sequential;
    uint64_t sharded;
  };
  const Case cases[] = {
      {"dense counts", &dense, 0xe7d711d3770cef43ULL, 0x6af6475f33c36adeULL},
      {"bucket counts", &bucket, 0x8a05edb7c78ce8ecULL, 0x36d8b5f8682a8066ULL},
      {"dataset counts", &dataset, 0x70621d6f608493f8ULL, 0x720e23923742fa72ULL},
  };
  for (const Case& c : cases) {
    Rng seq_rng(7);
    EXPECT_EQ(HashCounts(SampleSet::Draw(*c.sampler, 200000, seq_rng)), c.sequential)
        << c.name;
    for (const int threads : {1, 3}) {
      Rng rng(7);
      EXPECT_EQ(HashCounts(SampleSet::Draw(*c.sampler, 200000, rng, threads)),
                c.sharded)
          << c.name << ", threads=" << threads;
    }
  }
}

// ------------------------------------------------- SampleSet constructors

TEST(DrawPipelineTest, FromDrawsMoveInMatchesCopying) {
  const AliasSampler s(BucketHuge());
  Rng rng(51);
  const std::vector<int64_t> draws = s.DrawMany(30000, rng);
  std::vector<int64_t> movable = draws;
  const SampleSet copied = SampleSet::FromDraws(s.n(), draws);
  const SampleSet moved = SampleSet::FromDraws(s.n(), std::move(movable));
  ExpectSameSampleSet(copied, moved);
}

TEST(DrawPipelineTest, FromRunsMatchesFromDraws) {
  // Dense domain: FromRuns must pick the dense backend like FromDraws.
  {
    const SampleSet from_runs = SampleSet::FromRuns(10, {1, 4, 7}, {3, 1, 2});
    const SampleSet from_draws = SampleSet::FromDraws(10, {1, 1, 1, 4, 7, 7});
    ExpectSameSampleSet(from_runs, from_draws);
  }
  // Sparse domain.
  {
    const int64_t n = int64_t{1} << 30;
    const SampleSet from_runs =
        SampleSet::FromRuns(n, {5, 1000000, n - 1}, {2, 1, 4});
    const SampleSet from_draws = SampleSet::FromDraws(
        n, {5, 5, 1000000, n - 1, n - 1, n - 1, n - 1});
    ExpectSameSampleSet(from_runs, from_draws);
  }
  // Empty runs are a valid (m = 0) set.
  const SampleSet empty = SampleSet::FromRuns(int64_t{1} << 30, {}, {});
  EXPECT_EQ(empty.m(), 0);
  EXPECT_EQ(empty.Count(Interval::Full(empty.n())), 0);
}

}  // namespace
}  // namespace histk
