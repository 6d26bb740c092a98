// Differential test: the candidate-cost-table search in core/greedy.cc
// against the per-candidate reference in tests/greedy_reference.h. Every
// LearnResult field must match bit for bit — priority entries, tiling
// values, estimated_cost, candidates_per_iter and the thinning counts.
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/greedy.h"
#include "dist/generators.h"
#include "greedy_reference.h"

namespace histk {
namespace {

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

void ExpectIdentical(const LearnResult& fast, const LearnResult& ref,
                     const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(fast.priority.size(), ref.priority.size());
  for (size_t i = 0; i < fast.priority.entries().size(); ++i) {
    const PriorityEntry& a = fast.priority.entries()[i];
    const PriorityEntry& b = ref.priority.entries()[i];
    EXPECT_EQ(a.interval.lo, b.interval.lo) << "entry " << i;
    EXPECT_EQ(a.interval.hi, b.interval.hi) << "entry " << i;
    EXPECT_EQ(a.rank, b.rank) << "entry " << i;
    EXPECT_TRUE(SameBits(a.value, b.value)) << "entry " << i;
  }
  ASSERT_EQ(fast.tiling.k(), ref.tiling.k());
  for (int64_t j = 0; j < fast.tiling.k(); ++j) {
    const auto u = static_cast<size_t>(j);
    EXPECT_EQ(fast.tiling.pieces()[u].lo, ref.tiling.pieces()[u].lo) << "piece " << j;
    EXPECT_EQ(fast.tiling.pieces()[u].hi, ref.tiling.pieces()[u].hi) << "piece " << j;
    EXPECT_TRUE(SameBits(fast.tiling.values()[u], ref.tiling.values()[u]))
        << "piece " << j;
  }
  EXPECT_TRUE(SameBits(fast.estimated_cost, ref.estimated_cost))
      << fast.estimated_cost << " vs " << ref.estimated_cost;
  EXPECT_EQ(fast.candidates_per_iter, ref.candidates_per_iter);
  EXPECT_EQ(fast.endpoints_before_thinning, ref.endpoints_before_thinning);
  EXPECT_EQ(fast.endpoints_after_thinning, ref.endpoints_after_thinning);
  EXPECT_EQ(fast.total_samples, ref.total_samples);
  EXPECT_GT(fast.candidate_table_bytes, 0);
}

void ExpectMatchesReference(const GreedyEstimator& est, const LearnOptions& options,
                            const GreedyParams& params, const std::string& what) {
  ExpectIdentical(LearnHistogramWithEstimator(est, options, params),
                  reference::LearnHistogramWithEstimator(est, options, params), what);
}

LearnOptions Options(int64_t k, double eps, CandidateStrategy strategy) {
  LearnOptions opt;
  opt.k = k;
  opt.eps = eps;
  opt.strategy = strategy;
  return opt;
}

/// The generator zoo, one family per entry.
struct Family {
  const char* name;
  std::function<Distribution(int64_t n, Rng& rng)> make;
};

std::vector<Family> Zoo() {
  return {
      {"khist",
       [](int64_t n, Rng& rng) { return MakeRandomKHistogram(n, 4, rng, 20.0).dist; }},
      {"staircase", [](int64_t n, Rng&) { return MakeStaircase(n, 5).dist; }},
      {"zipf", [](int64_t n, Rng&) { return MakeZipf(n, 1.1); }},
      {"gauss",
       [](int64_t n, Rng&) {
         return MakeGaussianMixture(n, {{0.3, 0.08, 1.0}, {0.7, 0.05, 0.5}}, 0.05);
       }},
      {"spikes", [](int64_t n, Rng&) { return MakeSpikes(n, 6); }},
      {"zigzag", [](int64_t n, Rng&) { return MakeZigzagL1Far(n, 4, 0.2); }},
      {"uniform", [](int64_t n, Rng&) { return Distribution::Uniform(n); }},
      {"noisy",
       [](int64_t n, Rng& rng) {
         return MakeNoisy(MakeRandomKHistogram(n, 3, rng, 10.0).dist, 0.5, rng);
       }},
      {"within-zigzag",
       [](int64_t n, Rng& rng) {
         return MakeWithinPieceZigzag(MakeRandomKHistogram(n, 4, rng, 10.0), 0.8);
       }},
  };
}

TEST(GreedyDifferentialTest, ZooAcrossSeedsAndStrategies) {
  for (const Family& family : Zoo()) {
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      Rng rng(0xD1FF + 97 * seed);
      // All intervals on a small domain (the reference is O(n^2 r) per
      // iteration); sample endpoints on a sparser, larger one.
      for (CandidateStrategy strategy :
           {CandidateStrategy::kAllIntervals, CandidateStrategy::kSampleEndpoints}) {
        const bool all = strategy == CandidateStrategy::kAllIntervals;
        const int64_t n = all ? 48 : 512;
        const Distribution dist = family.make(n, rng);
        const AliasSampler sampler(dist);
        const GreedyParams params = ComputeGreedyParams(n, 4, 0.25, all ? 0.2 : 0.02);
        const GreedyEstimator est = GreedyEstimator::Draw(sampler, params, rng);
        ExpectMatchesReference(est, Options(4, 0.25, strategy), params,
                               std::string(family.name) + " seed " +
                                   std::to_string(seed) + " " +
                                   CandidateStrategyName(strategy));
      }
    }
  }
}

/// A shared estimator over a full-support distribution, so the endpoint
/// list is long enough to thin.
struct Shared {
  GreedyParams params;
  GreedyEstimator est;
};

Shared MakeShared(int64_t n, int64_t r, uint64_t seed) {
  Rng rng(seed);
  const AliasSampler sampler(MakeZipf(n, 0.8));
  GreedyParams params = ComputeGreedyParams(n, 4, 0.25, 0.05);
  if (r > 0) params.r = r;
  GreedyEstimator est = GreedyEstimator::Draw(sampler, params, rng);
  return Shared{params, std::move(est)};
}

TEST(GreedyDifferentialTest, ForcedThinning) {
  const Shared s = MakeShared(256, 0, 11);
  LearnOptions opt = Options(4, 0.25, CandidateStrategy::kSampleEndpoints);
  opt.max_candidates = 50;
  const LearnResult fast = LearnHistogramWithEstimator(s.est, opt, s.params);
  EXPECT_LT(fast.endpoints_after_thinning, fast.endpoints_before_thinning);
  EXPECT_LE(fast.candidates_per_iter, 50);
  ExpectIdentical(fast, reference::LearnHistogramWithEstimator(s.est, opt, s.params),
                  "max_candidates 50");
}

TEST(GreedyDifferentialTest, WithoutEndpointNeighbors) {
  for (uint64_t seed : {12, 13, 14}) {
    const Shared s = MakeShared(384, 0, seed);
    LearnOptions opt = Options(4, 0.25, CandidateStrategy::kSampleEndpoints);
    opt.include_endpoint_neighbors = false;
    ExpectMatchesReference(s.est, opt, s.params,
                           "no neighbours, seed " + std::to_string(seed));
  }
}

TEST(GreedyDifferentialTest, IterationsOverride) {
  const Shared s = MakeShared(256, 0, 15);
  for (int64_t iterations : {int64_t{1}, int64_t{2}, 3 * s.params.iterations}) {
    for (CandidateStrategy strategy :
         {CandidateStrategy::kAllIntervals, CandidateStrategy::kSampleEndpoints}) {
      LearnOptions opt = Options(4, 0.25, strategy);
      opt.iterations_override = iterations;
      ExpectMatchesReference(s.est, opt, s.params,
                             "iterations " + std::to_string(iterations) + " " +
                                 CandidateStrategyName(strategy));
    }
  }
}

TEST(GreedyDifferentialTest, OddAndEvenR) {
  // r = 257 takes the 4-byte median index; the others the 1-byte one.
  for (int64_t r : {1, 2, 3, 4, 5, 8, 257}) {
    const Shared s = MakeShared(r > 100 ? 96 : 256, r, 16 + static_cast<uint64_t>(r));
    ASSERT_EQ(s.est.group().r(), r);
    for (CandidateStrategy strategy :
         {CandidateStrategy::kAllIntervals, CandidateStrategy::kSampleEndpoints}) {
      ExpectMatchesReference(s.est, Options(4, 0.25, strategy), s.params,
                             "r " + std::to_string(r) + " " +
                                 CandidateStrategyName(strategy));
    }
  }
}

/// Draws `m` values from `sampler` as a SampleSet.
SampleSet DrawSet(const Sampler& sampler, int64_t m, Rng& rng) {
  return SampleSet::FromDraws(sampler.n(), sampler.DrawMany(m, rng));
}

TEST(GreedyDifferentialTest, HandBuiltGroupWithUnequalSetSizes) {
  // Sets of different sizes normalize their collision counts by different
  // C(|S^j|, 2): the median must be taken over ratios, not raw counts.
  for (uint64_t seed : {21, 22, 23, 24, 25}) {
    Rng rng(seed);
    const int64_t n = 128;
    const AliasSampler sampler(MakeGaussianMixture(n, {{0.4, 0.1, 1.0}}, 0.1));
    std::vector<SampleSet> sets;
    for (int64_t m : {300, 4000, 900, 12000, 50, 2500, 7000}) {
      sets.push_back(DrawSet(sampler, m, rng));
    }
    const GreedyEstimator est(DrawSet(sampler, 3000, rng),
                              SampleSetGroup(std::move(sets)));
    GreedyParams params = ComputeGreedyParams(n, 3, 0.25, 0.05);
    params.r = est.group().r();
    for (CandidateStrategy strategy :
         {CandidateStrategy::kAllIntervals, CandidateStrategy::kSampleEndpoints}) {
      ExpectMatchesReference(est, Options(3, 0.25, strategy), params,
                             "unequal sets, seed " + std::to_string(seed) + " " +
                                 CandidateStrategyName(strategy));
    }
  }
}

TEST(GreedyDifferentialTest, SparseSampleSets) {
  // Domains above kDenseDomainLimit use the sparse SampleSet backend; the
  // table's prefix rows come from the same public Count/Collisions calls.
  const int64_t n = SampleSet::kDenseDomainLimit * 2;
  Rng rng(31);
  const AliasSampler sampler(MakeSpikes(n, 40));
  const GreedyParams params = ComputeGreedyParams(n, 4, 0.25, 0.02);
  const GreedyEstimator est = GreedyEstimator::Draw(sampler, params, rng);
  ExpectMatchesReference(est, Options(4, 0.25, CandidateStrategy::kSampleEndpoints),
                         params, "sparse backend");
}

}  // namespace
}  // namespace histk
