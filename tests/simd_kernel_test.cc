// The AliasKernel::kSimd contract (src/dist/simd/):
//
//   1. Backend byte-parity — the forced-scalar reference and the dispatched
//      vector path produce identical streams (values AND rng state) for
//      every seed, distribution shape, and batch length, including partial
//      lane groups and kShardChunk block boundaries. On hosts without AVX2
//      the parity tests skip (there is only one backend to compare).
//   2. Stream structure — kSimd consumes one NextU64 per kShardChunk block,
//      so DrawMany / DrawCounts agree draw-for-draw and the sharded paths
//      are thread-count invariant; Draw() is a one-block batch of m = 1.
//   3. Statistical parity with kReplay — chi-square over dense elements and
//      bucket runs, zero-mass elements/runs never drawn (including the
//      zero-mass singleton run), per-run masses within tolerance.
//   4. RngLanes — lane streams are the documented pure function of
//      (root, lane): lane l replays Rng(SplitMix64(root ^ GOLDEN*(l+1))).
//   5. Dispatch — AcceptThreshold edge cases and the scoped override.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "dist/dataset.h"
#include "dist/distribution.h"
#include "dist/generators.h"
#include "dist/sampler.h"
#include "dist/simd/draw_kernels.h"
#include "util/interval.h"
#include "util/rng.h"
#include "util/rng_lanes.h"

namespace histk {
namespace {

Distribution DenseSkewed() { return MakeZipf(64, 1.2); }

Distribution DenseWithHoles() {
  return Distribution::FromWeights({0, 3, 0, 0, 1, 2, 0, 5, 0, 0, 0, 1, 0});
}

Distribution BucketSmall() {
  // The third run ([100, 100], weight 0) is a zero-mass SINGLETON run.
  return Distribution::FromBucketWeights(1000, {9, 99, 100, 499, 999},
                                         {5.0, 1.0, 0.0, 3.0, 2.0});
}

Distribution BucketHuge() {
  const int64_t n = int64_t{1} << 30;
  return Distribution::FromBucketWeights(
      n, {999, n / 4, n / 2, n - 2, n - 1}, {4.0, 2.0, 0.0, 3.0, 1.0});
}

std::vector<uint64_t> RngFingerprint(Rng rng) {
  std::vector<uint64_t> out;
  for (int i = 0; i < 4; ++i) out.push_back(rng.NextU64());
  return out;
}

bool Avx2Active() {
  return simd::ActiveSimdBackend() == simd::SimdBackend::kAvx2;
}

// ------------------------------------------------------------ byte parity

// Batch lengths hitting: sub-group, exact group, group+tail, many groups,
// exact block, block+tail, multi-block.
const int64_t kParityLens[] = {1,     3,     4,         5,     1000,
                               65536, 65537, 65536 + 17, 200000};

TEST(SimdKernelTest, ForcedScalarMatchesVectorByteForByte) {
  if (!Avx2Active()) GTEST_SKIP() << "no AVX2 backend on this host";
  const Distribution dists[] = {DenseSkewed(), DenseWithHoles(), BucketSmall(),
                                BucketHuge()};
  for (const Distribution& d : dists) {
    // Kernel selection happens at construction: build one sampler under the
    // forced-scalar override and one with live dispatch (AVX2 here).
    const AliasSampler vec(d, AliasKernel::kSimd);
    simd::ScopedSimdBackendOverride force(simd::SimdBackend::kScalar);
    const AliasSampler ref(d, AliasKernel::kSimd);
    for (const uint64_t seed : {1u, 7u, 99u, 12345u}) {
      for (const int64_t m : kParityLens) {
        Rng ref_rng(seed), vec_rng(seed);
        ASSERT_EQ(ref.DrawMany(m, ref_rng), vec.DrawMany(m, vec_rng))
            << "m=" << m << " seed=" << seed;
        ASSERT_EQ(RngFingerprint(ref_rng), RngFingerprint(vec_rng));
      }
    }
  }
}

TEST(SimdKernelTest, DatasetForcedScalarMatchesVectorByteForByte) {
  if (!Avx2Active()) GTEST_SKIP() << "no AVX2 backend on this host";
  const std::vector<int64_t> items = {1, 1, 2, 3, 5, 8, 13, 21, 34};
  const DatasetSampler vec(40, items, AliasKernel::kSimd);
  simd::ScopedSimdBackendOverride force(simd::SimdBackend::kScalar);
  const DatasetSampler ref(40, items, AliasKernel::kSimd);
  for (const uint64_t seed : {11u, 77u}) {
    for (const int64_t m : kParityLens) {
      Rng ref_rng(seed), vec_rng(seed);
      ASSERT_EQ(ref.DrawMany(m, ref_rng), vec.DrawMany(m, vec_rng))
          << "m=" << m << " seed=" << seed;
      ASSERT_EQ(RngFingerprint(ref_rng), RngFingerprint(vec_rng));
    }
  }
}

// -------------------------------------------------------- stream structure

TEST(SimdKernelTest, FusedCountsConsumeRngLikeDrawMany) {
  for (const Distribution& d : {DenseSkewed(), BucketHuge()}) {
    const AliasSampler s(d, AliasKernel::kSimd);
    for (const int64_t m : {int64_t{1}, int64_t{5000}, int64_t{200000}}) {
      Rng many_rng(42), counts_rng(42);
      const std::vector<int64_t> draws = s.DrawMany(m, many_rng);
      std::vector<int64_t> replayed;
      struct Collect : CountSink {
        std::vector<int64_t>* out;
        void Consume(const int64_t* d, int64_t len, int64_t) override {
          out->insert(out->end(), d, d + len);
        }
      } sink;
      sink.out = &replayed;
      s.DrawCounts(m, counts_rng, sink);
      EXPECT_EQ(draws, replayed) << "m=" << m;
      EXPECT_EQ(RngFingerprint(many_rng), RngFingerprint(counts_rng));
    }
  }
}

TEST(SimdKernelTest, ShardedThreadCountInvariant) {
  for (const Distribution& d : {DenseSkewed(), BucketHuge()}) {
    const AliasSampler s(d, AliasKernel::kSimd);
    Rng r1(6), r2(6), r8(6);
    const auto out1 = s.DrawManySharded(200000, r1, 1);
    EXPECT_EQ(out1, s.DrawManySharded(200000, r2, 2));
    EXPECT_EQ(out1, s.DrawManySharded(200000, r8, 8));
    EXPECT_EQ(RngFingerprint(r1), RngFingerprint(r8));
  }
}

TEST(SimdKernelTest, ScalarDrawIsSingleDrawBatch) {
  const AliasSampler s(BucketSmall(), AliasKernel::kSimd);
  Rng scalar_rng(15), batch_rng(15);
  for (int i = 0; i < 100; ++i) {
    const int64_t one = s.Draw(scalar_rng);
    EXPECT_EQ(one, s.DrawMany(1, batch_rng)[0]);
  }
  EXPECT_EQ(RngFingerprint(scalar_rng), RngFingerprint(batch_rng));
}

TEST(SimdKernelTest, DeterministicPerSeed) {
  const AliasSampler s(DenseSkewed(), AliasKernel::kSimd);
  Rng a(5), b(5), c(6);
  const auto draws_a = s.DrawMany(20000, a);
  EXPECT_EQ(draws_a, s.DrawMany(20000, b));
  EXPECT_NE(draws_a, s.DrawMany(20000, c));
}

// ------------------------------------------------------ statistical parity

TEST(SimdKernelTest, DenseMatchesPmfChiSquare) {
  const Distribution d =
      Distribution::FromWeights({1, 2, 3, 4, 5, 5, 4, 3, 2, 1});
  const AliasSampler s(d, AliasKernel::kSimd);
  Rng rng(31);
  const auto draws = s.DrawMany(200000, rng);
  std::vector<int64_t> counts(10, 0);
  for (int64_t v : draws) ++counts[static_cast<size_t>(v)];
  double chi2 = 0.0;
  for (int64_t i = 0; i < 10; ++i) {
    const double expect = d.p(i) * 200000.0;
    const double delta =
        static_cast<double>(counts[static_cast<size_t>(i)]) - expect;
    chi2 += delta * delta / expect;
  }
  // 9 dof; 99.9% quantile ~ 27.9.
  EXPECT_LT(chi2, 30.0);
}

TEST(SimdKernelTest, BucketRunCountsMatchReplayChiSquare) {
  // Two-sample chi-square over runs: kSimd vs kReplay draws of equal size
  // from the same bucketed pmf must look like two samples of one
  // distribution.
  const Distribution d = BucketHuge();
  const AliasSampler simd_s(d, AliasKernel::kSimd);
  const AliasSampler replay_s(d);  // kReplay
  const int64_t m = 400000;
  Rng simd_rng(35), replay_rng(36);
  const std::vector<int64_t>& ends = d.bucket_right_ends();
  auto run_counts = [&ends](const std::vector<int64_t>& draws) {
    std::vector<int64_t> counts(ends.size(), 0);
    for (int64_t v : draws) {
      size_t j = 0;
      while (ends[j] < v) ++j;
      ++counts[j];
    }
    return counts;
  };
  const auto simd_counts = run_counts(simd_s.DrawMany(m, simd_rng));
  const auto replay_counts = run_counts(replay_s.DrawMany(m, replay_rng));
  double chi2 = 0.0;
  int dof = 0;
  for (size_t j = 0; j < ends.size(); ++j) {
    const double total =
        static_cast<double>(simd_counts[j] + replay_counts[j]);
    if (total == 0.0) continue;  // zero-mass run: both must be 0 (checked below)
    const double delta =
        static_cast<double>(simd_counts[j] - replay_counts[j]);
    chi2 += delta * delta / total;
    ++dof;
  }
  // dof - 1 = 3 here; 99.9% quantile ~ 16.3.
  EXPECT_LT(chi2, 18.0);
  // The zero-mass run draws nothing under either kernel.
  EXPECT_EQ(simd_counts[2], 0);
  EXPECT_EQ(replay_counts[2], 0);
}

TEST(SimdKernelTest, NeverDrawsZeroMass) {
  const AliasSampler dense(DenseWithHoles(), AliasKernel::kSimd);
  Rng rng(33);
  for (int64_t v : dense.DrawMany(20000, rng)) {
    EXPECT_TRUE(v == 1 || v == 4 || v == 5 || v == 7 || v == 11) << v;
  }
  // BucketSmall's zero-mass singleton run [100, 100] must never appear.
  const AliasSampler bucket(BucketSmall(), AliasKernel::kSimd);
  Rng rng2(34);
  for (int64_t v : bucket.DrawMany(50000, rng2)) {
    EXPECT_NE(v, 100);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 1000);
  }
}

TEST(SimdKernelTest, BucketWeightsMatchRunMasses) {
  const Distribution d = BucketSmall();
  const AliasSampler s(d, AliasKernel::kSimd);
  Rng rng(37);
  const int64_t m = 400000;
  const auto draws = s.DrawMany(m, rng);
  const std::vector<int64_t>& ends = d.bucket_right_ends();
  std::vector<int64_t> counts(ends.size(), 0);
  for (int64_t v : draws) {
    size_t j = 0;
    while (ends[j] < v) ++j;
    ++counts[j];
  }
  int64_t lo = 0;
  for (size_t j = 0; j < ends.size(); ++j) {
    const double mass = d.Weight(Interval(lo, ends[j]));
    EXPECT_NEAR(static_cast<double>(counts[j]) / static_cast<double>(m), mass,
                0.01);
    lo = ends[j] + 1;
  }
}

// --------------------------------------------------------------- RngLanes

TEST(SimdKernelTest, RngLanesReplayDerivedScalarStreams) {
  // Lane l of RngLanes(root) is documented to be the stream of
  // Rng(SplitMix64(root ^ GOLDEN * (l + 1))) — the sharded chunk-stream
  // derivation. Pin it: this is what makes the kSimd stream a pure function
  // of the caller's rng.
  const uint64_t root = 0xDEADBEEFCAFEF00DULL;
  RngLanes lanes(root);
  std::vector<Rng> scalar;
  for (int l = 0; l < kSimdLanes; ++l) {
    uint64_t state =
        root ^ (0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(l) + 1));
    scalar.emplace_back(SplitMix64(state));
  }
  uint64_t out[kSimdLanes];
  for (int step = 0; step < 64; ++step) {
    lanes.NextLanes(out);
    for (int l = 0; l < kSimdLanes; ++l) {
      ASSERT_EQ(out[l], scalar[static_cast<size_t>(l)].NextU64())
          << "lane " << l << " step " << step;
    }
  }
}

TEST(SimdKernelTest, RngLanesLanesAreDistinct) {
  RngLanes lanes(12345);
  uint64_t out[kSimdLanes];
  lanes.NextLanes(out);
  for (int a = 0; a < kSimdLanes; ++a) {
    for (int b = a + 1; b < kSimdLanes; ++b) EXPECT_NE(out[a], out[b]);
  }
}

// --------------------------------------------------------------- dispatch

TEST(SimdKernelTest, AcceptThresholdEdgeCases) {
  const uint64_t two53 = uint64_t{1} << 53;
  EXPECT_EQ(simd::AcceptThreshold(0.0), 0u);
  EXPECT_EQ(simd::AcceptThreshold(1.0), two53);
  EXPECT_EQ(simd::AcceptThreshold(0.5), two53 / 2);
  // Monotone, and tiny-but-positive probabilities stay acceptable (ceil).
  EXPECT_GE(simd::AcceptThreshold(1e-300), 1u);
  EXPECT_LE(simd::AcceptThreshold(0.25), simd::AcceptThreshold(0.75));
}

TEST(SimdKernelTest, ScopedOverrideForcesScalar) {
  {
    simd::ScopedSimdBackendOverride force(simd::SimdBackend::kScalar);
    EXPECT_EQ(simd::ActiveSimdBackend(), simd::SimdBackend::kScalar);
  }
  // Restored: active backend is again whatever the host supports.
  EXPECT_EQ(simd::ActiveSimdBackend(),
            simd::SimdAvx2Compiled() && simd::SimdAvx2Supported()
                ? simd::SimdBackend::kAvx2
                : simd::SimdBackend::kScalar);
}

TEST(SimdKernelTest, BackendNamesAreStable) {
  EXPECT_STREQ(simd::SimdBackendName(simd::SimdBackend::kScalar), "scalar");
  EXPECT_STREQ(simd::SimdBackendName(simd::SimdBackend::kAvx2), "avx2");
  EXPECT_STREQ(AliasKernelName(AliasKernel::kReplay), "replay");
  EXPECT_STREQ(AliasKernelName(AliasKernel::kSimd), "simd");
}

}  // namespace
}  // namespace histk
