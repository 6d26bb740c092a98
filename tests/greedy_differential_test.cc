// Differential test: the candidate-cost-table search in core/greedy.cc
// against the per-candidate reference in tests/greedy_reference.h. Every
// LearnResult field must match bit for bit — priority entries, tiling
// values, estimated_cost, candidates_per_iter and the thinning counts.
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
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

/// How the steps of a learn met the tiling they were applied to: how many
/// J covered more than one piece, and how many were exactly one existing
/// piece (a step that leaves the tiling as it was).
struct StepShapes {
  int64_t spanning = 0;
  int64_t equal_to_piece = 0;
};

/// Replays `result`'s priority entries over [0, n): each step records J
/// first, then its remnants, under one rank.
StepShapes ReplaySteps(const LearnResult& result, int64_t n) {
  StepShapes shapes;
  std::vector<Interval> pieces = {Interval::Full(n)};
  int64_t rank = 0;
  for (const PriorityEntry& entry : result.priority.entries()) {
    if (entry.rank == rank) continue;
    rank = entry.rank;
    const Interval J = entry.interval;
    size_t first = 0;
    while (pieces[first].hi < J.lo) ++first;
    size_t last = first;
    while (last + 1 < pieces.size() && pieces[last + 1].lo <= J.hi) ++last;
    if (last > first) ++shapes.spanning;
    if (last == first && pieces[first] == J) ++shapes.equal_to_piece;
    std::vector<Interval> next;
    if (pieces[first].lo < J.lo) next.push_back(Interval(pieces[first].lo, J.lo - 1));
    next.push_back(J);
    if (J.hi < pieces[last].hi) next.push_back(Interval(J.hi + 1, pieces[last].hi));
    pieces.erase(pieces.begin() + static_cast<ptrdiff_t>(first),
                 pieces.begin() + static_cast<ptrdiff_t>(last + 1));
    pieces.insert(pieces.begin() + static_cast<ptrdiff_t>(first), next.begin(),
                  next.end());
  }
  return shapes;
}

TEST(GreedyDifferentialTest, ColumnReuseOverManyIterations) {
  // k = 16 run for 48 iterations: most pieces survive many iterations, so
  // the scan reads most of its per-piece columns from earlier iterations.
  // Across the runs, some step's J covers several pieces and some step's J
  // is exactly an existing piece, the two ways a column's piece can end.
  StepShapes seen;
  for (const Family& family : Zoo()) {
    for (uint64_t seed : {1, 2}) {
      Rng rng(0xC01 + 31 * seed);
      for (CandidateStrategy strategy :
           {CandidateStrategy::kAllIntervals, CandidateStrategy::kSampleEndpoints}) {
        const bool all = strategy == CandidateStrategy::kAllIntervals;
        const int64_t n = all ? 64 : 512;
        const Distribution dist = family.make(n, rng);
        const AliasSampler sampler(dist);
        GreedyParams params = ComputeGreedyParams(n, 16, 0.25, all ? 0.01 : 0.001);
        params.iterations = 48;
        const GreedyEstimator est = GreedyEstimator::Draw(sampler, params, rng);
        const LearnResult fast =
            LearnHistogramWithEstimator(est, Options(16, 0.25, strategy), params);
        ExpectIdentical(fast,
                        reference::LearnHistogramWithEstimator(
                            est, Options(16, 0.25, strategy), params),
                        std::string(family.name) + " seed " + std::to_string(seed) +
                            " " + CandidateStrategyName(strategy));
        const StepShapes shapes = ReplaySteps(fast, n);
        seen.spanning += shapes.spanning;
        seen.equal_to_piece += shapes.equal_to_piece;
      }
    }
  }
  EXPECT_GT(seen.spanning, 0);
  EXPECT_GT(seen.equal_to_piece, 0);
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

TEST(GreedyDifferentialTest, SampleEndpointsAcrossSeeds) {
  for (uint64_t seed : {12, 13, 14}) {
    const Shared s = MakeShared(384, 0, seed);
    ExpectMatchesReference(s.est, Options(4, 0.25, CandidateStrategy::kSampleEndpoints),
                           s.params, "seed " + std::to_string(seed));
  }
}

TEST(GreedyDifferentialTest, IterationCounts) {
  const Shared s = MakeShared(256, 0, 15);
  for (int64_t iterations : {int64_t{1}, int64_t{2}, 3 * s.params.iterations}) {
    for (CandidateStrategy strategy :
         {CandidateStrategy::kAllIntervals, CandidateStrategy::kSampleEndpoints}) {
      GreedyParams params = s.params;
      params.iterations = iterations;
      ExpectMatchesReference(s.est, Options(4, 0.25, strategy), params,
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
  // C(|S^j|, 2): the median must be taken over ratios, not raw counts. The
  // second size list has a set whose collision count passes 2^32, so the table's
  // collision rows take 64-bit words instead of 32-bit ones.
  const std::vector<std::vector<int64_t>> size_lists = {
      {300, 4000, 900, 12000, 50, 2500, 7000}, {300, 1000000, 900}};
  for (const std::vector<int64_t>& sizes : size_lists) {
    for (uint64_t seed : {21, 22, 23, 24, 25}) {
      Rng rng(seed);
      const int64_t n = 128;
      const AliasSampler sampler(MakeGaussianMixture(n, {{0.4, 0.1, 1.0}}, 0.1));
      std::vector<SampleSet> sets;
      for (int64_t m : sizes) sets.push_back(DrawSet(sampler, m, rng));
      const GreedyEstimator est(DrawSet(sampler, 3000, rng),
                                SampleSetGroup(std::move(sets)));
      GreedyParams params = ComputeGreedyParams(n, 3, 0.25, 0.05);
      params.r = est.group().r();
      for (CandidateStrategy strategy :
           {CandidateStrategy::kAllIntervals, CandidateStrategy::kSampleEndpoints}) {
        ExpectMatchesReference(est, Options(3, 0.25, strategy), params,
                               "unequal sets (r " + std::to_string(sizes.size()) +
                                   "), seed " + std::to_string(seed) + " " +
                                   CandidateStrategyName(strategy));
      }
    }
  }
}

/// Counts over n elements that sum to m and whose collisions, the sum of
/// C(c, 2), are exactly `collisions`: one heavy element, `slack` draws
/// short of the largest c with C(c, 2) <= collisions, the remainder split
/// greedily into C(c, 2) terms, the rest single draws, all placed at
/// positions shuffled by `rng`.
std::vector<int64_t> CountsWithCollisions(int64_t n, int64_t m, uint64_t collisions,
                                          int64_t slack, Rng& rng) {
  auto pairs = [](int64_t c) { return static_cast<uint64_t>(c) * (c - 1) / 2; };
  auto largest_within = [&](uint64_t budget) {
    int64_t c = 1;
    while (pairs(c + 1) <= budget) ++c;
    return c;
  };
  std::vector<int64_t> parts = {largest_within(collisions) - slack};
  for (uint64_t rest = collisions - pairs(parts[0]); rest > 0;) {
    parts.push_back(largest_within(rest));
    rest -= pairs(parts.back());
  }
  const int64_t used = std::accumulate(parts.begin(), parts.end(), int64_t{0});
  EXPECT_LE(used, m);
  parts.resize(parts.size() + static_cast<size_t>(m - used), 1);
  EXPECT_LE(static_cast<int64_t>(parts.size()), n);
  std::vector<int64_t> positions(static_cast<size_t>(n));
  std::iota(positions.begin(), positions.end(), int64_t{0});
  rng.Shuffle(positions);
  std::vector<int64_t> counts(static_cast<size_t>(n), 0);
  for (size_t i = 0; i < parts.size(); ++i) {
    counts[static_cast<size_t>(positions[i])] = parts[i];
  }
  return counts;
}

TEST(GreedyDifferentialTest, LaneBoundaryAtTwoToThe24Collisions) {
  // Equal-size sets whose largest collision prefix (the whole domain's) is
  // 2^24 - 1 take float lanes; at 2^24 the count keys stay on double lanes.
  // Set 0 of a group holds the largest prefix, and every second set repeats
  // the one before it, so median keys tie across sets on both widths (the
  // fill takes the lowest tied index; any tied set gives the same z_J).
  // d in {2, 15, 16, 17, 33} covers the lane tails of both widths; r = 13
  // is the paper's r at n = 256.
  const int64_t n = 512;
  const int64_t m = 6200;
  for (const uint64_t largest : {kFloatLaneLimit - 1, kFloatLaneLimit}) {
    for (const int64_t r : {1, 2, 13, 17}) {
      Rng rng(0x1A7E + largest + 131 * static_cast<uint64_t>(r));
      std::vector<SampleSet> sets;
      for (int64_t j = 0; j < r; ++j) {
        if (j % 2 == 1) {
          sets.push_back(sets.back());
          continue;
        }
        const uint64_t collisions = j == 0 ? largest : largest - rng.UniformInt(4000);
        const auto slack = static_cast<int64_t>(rng.UniformInt(4));
        sets.push_back(SampleSet::FromCounts(
            n, CountsWithCollisions(n, m, collisions, slack, rng)));
      }
      ASSERT_EQ(sets[0].Collisions(Interval::Full(n)), largest);
      const SampleSetGroup group(std::move(sets));
      const bool float_lanes = largest < kFloatLaneLimit;
      ASSERT_EQ(MedianFillUsesFloatLanes(group), float_lanes);

      for (const int64_t d : {2, 15, 16, 17, 33}) {
        // d = 2: one main-set value, element 0, and its one neighbour, 1.
        // Otherwise every element is a main-set value and max_candidates
        // thins them to d.
        std::vector<int64_t> main_counts(static_cast<size_t>(n), 1);
        if (d == 2) {
          main_counts.assign(static_cast<size_t>(n), 0);
          main_counts[0] = 40;
        }
        const GreedyEstimator est(SampleSet::FromCounts(n, main_counts), group);
        GreedyParams params = ComputeGreedyParams(n, 3, 0.25, 0.05);
        params.r = r;
        LearnOptions opt = Options(3, 0.25, CandidateStrategy::kSampleEndpoints);
        opt.max_candidates = d * (d + 1) / 2;
        const std::string what = std::string(float_lanes ? "float" : "double") +
                                 " lanes, r " + std::to_string(r) + ", d " +
                                 std::to_string(d);
        const LearnResult fast = LearnHistogramWithEstimator(est, opt, params);
        ASSERT_EQ(fast.endpoints_after_thinning, d) << what;
        ExpectIdentical(fast, reference::LearnHistogramWithEstimator(est, opt, params),
                        what);
      }
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


/// A GreedyEstimator over hand-set counts: the main set's, then one
/// collision set per entry of `sets`.
GreedyEstimator FromCounts(int64_t n, const std::vector<int64_t>& main,
                           const std::vector<std::vector<int64_t>>& sets) {
  std::vector<SampleSet> group;
  for (const std::vector<int64_t>& counts : sets) {
    group.push_back(SampleSet::FromCounts(n, counts));
  }
  return GreedyEstimator(SampleSet::FromCounts(n, main), SampleSetGroup(std::move(group)));
}

/// Every interval whose reference c_J is the minimum over all intervals,
/// in enumeration order.
std::vector<Interval> MinimalCandidates(const reference::GreedyState& state, int64_t n) {
  double best = std::numeric_limits<double>::infinity();
  std::vector<Interval> at;
  for (int64_t a = 0; a < n; ++a) {
    for (int64_t b = a; b < n; ++b) {
      const double c = state.CostWith(Interval(a, b));
      if (c < best) {
        best = c;
        at.clear();
      }
      if (c == best) at.push_back(Interval(a, b));
    }
  }
  return at;
}

TEST(GreedyDifferentialTest, RemnantsOutsideTheTable) {
  // A main set with a few isolated samples: the endpoints are short runs
  // around them, none within 1 of 0 or n - 1. A remnant reaching the
  // domain's ends, or ending next to an endpoint whose neighbour is not one,
  // has an end outside the endpoint list, so its cost comes from the
  // estimator; the others are read from the table.
  const int64_t n = 512;
  std::vector<int64_t> main(static_cast<size_t>(n), 0);
  for (const auto& [value, count] : std::vector<std::pair<int64_t, int64_t>>{
           {60, 5}, {61, 3}, {200, 4}, {330, 6}, {331, 2}, {470, 3}}) {
    main[static_cast<size_t>(value)] = count;
  }
  for (uint64_t seed : {41, 42, 43}) {
    Rng rng(seed);
    const AliasSampler sampler(MakeRandomKHistogram(n, 4, rng, 10.0).dist);
    std::vector<SampleSet> sets;
    for (int64_t j = 0; j < 5; ++j) sets.push_back(DrawSet(sampler, 3000, rng));
    const GreedyEstimator est(SampleSet::FromCounts(n, main),
                              SampleSetGroup(std::move(sets)));
    GreedyParams params = ComputeGreedyParams(n, 4, 0.25, 0.05);
    params.r = est.group().r();
    for (int64_t iterations : {1, 3, 8}) {
      params.iterations = iterations;
      const LearnOptions opt = Options(4, 0.25, CandidateStrategy::kSampleEndpoints);
      const LearnResult fast = LearnHistogramWithEstimator(est, opt, params);
      ASSERT_EQ(fast.endpoints_after_thinning, 14);
      ExpectIdentical(fast, reference::LearnHistogramWithEstimator(est, opt, params),
                      "seed " + std::to_string(seed) + ", " +
                          std::to_string(iterations) + " iterations");
    }
  }
}

TEST(GreedyDifferentialTest, ExactTiesAcrossPieces) {
  // A mirror-symmetric group, flat apart from an end spike on each side and
  // a central one. The first step cuts out the centre; in the second, the
  // left piece's candidates and the right piece's mirrored ones have
  // bit-identical c_J. Their filter values come from different prefix sums
  // and need not tie, yet the search must return the reference's choice:
  // the first tied pair in enumeration order.
  const int64_t n = 32;
  auto mirrored = [&](int64_t end, int64_t centre) {
    std::vector<int64_t> counts(static_cast<size_t>(n), 1);
    counts.front() = counts.back() = end;
    counts[n / 2 - 1] = counts[n / 2] = centre;
    return counts;
  };
  const GreedyEstimator est =
      FromCounts(n, mirrored(6, 20), {mirrored(4, 10), mirrored(5, 11), mirrored(6, 12)});

  // The group does what the comment says.
  reference::GreedyState state(est, n);
  PriorityHistogram priority(n);
  const std::vector<Interval> first = MinimalCandidates(state, n);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0], Interval(n / 2 - 1, n / 2));
  state.Apply(first[0], priority);
  const std::vector<Interval> second = MinimalCandidates(state, n);
  ASSERT_GE(second.size(), 2u);
  EXPECT_EQ(second.front(), Interval(0, 0));
  EXPECT_EQ(second.back(), Interval(n - 1, n - 1));

  GreedyParams params = ComputeGreedyParams(n, 4, 0.25, 0.05);
  params.r = est.group().r();
  for (CandidateStrategy strategy :
       {CandidateStrategy::kAllIntervals, CandidateStrategy::kSampleEndpoints}) {
    for (int64_t iterations : {2, 3, 6}) {
      const LearnOptions opt = Options(4, 0.25, strategy);
      params.iterations = iterations;
      const LearnResult fast = LearnHistogramWithEstimator(est, opt, params);
      const std::string what = std::to_string(iterations) + " iterations, " +
                               CandidateStrategyName(strategy);
      ASSERT_GE(fast.priority.entries().size(), 4u) << what;
      const PriorityEntry& second_step = fast.priority.entries()[3];
      EXPECT_EQ(second_step.rank, 2) << what;
      EXPECT_EQ(second_step.interval, Interval(0, 0)) << what;
      ExpectIdentical(fast, reference::LearnHistogramWithEstimator(est, opt, params),
                      what);
    }
  }
}

TEST(GreedyDifferentialTest, AllCandidatesTie) {
  // Inputs on which most pairs tie, or tie up to rounding, so the second
  // pass re-evaluates most rows.
  const int64_t n = 48;
  const std::vector<int64_t> flat(static_cast<size_t>(n), 3);
  std::vector<int64_t> one_item(static_cast<size_t>(n), 0);
  one_item[17] = 40;
  struct Case {
    const char* name;
    GreedyEstimator est;
  };
  const Case cases[] = {
      {"every sample on one item", FromCounts(n, one_item, {one_item, one_item, one_item})},
      {"equal counts everywhere", FromCounts(n, flat, {flat, flat, flat, flat, flat})},
  };
  for (const Case& c : cases) {
    GreedyParams params = ComputeGreedyParams(n, 4, 0.25, 0.05);
    params.r = c.est.group().r();
    for (CandidateStrategy strategy :
         {CandidateStrategy::kAllIntervals, CandidateStrategy::kSampleEndpoints}) {
      for (int64_t iterations : {1, 2, 6}) {
        params.iterations = iterations;
        ExpectMatchesReference(c.est, Options(4, 0.25, strategy), params,
                               std::string(c.name) + ", " + std::to_string(iterations) +
                                   " iterations, " + CandidateStrategyName(strategy));
      }
    }
  }
}

}  // namespace
}  // namespace histk
