// SampleSetGroup::Draw's direct route against the per-set route.
//
// A kCounts DatasetSampler draws each one-block set of a sequential group
// straight into the set's 32-bit row (Sampler::DrawCountsInto): the
// group plan's Poisson totals, then each fix-up pick counted where it
// lands. Before that route, every set went through a SampleCounter and
// the count kernel's DrawCounts. This suite draws each group twice, once
// directly and once through PerSetRouteSampler, which forwards only
// DrawManyInto and DrawCounts and so keeps the per-set route, and asserts
// identical prefix rows and the same rng state afterwards:
//
//   1. Bare oracles: the ingest shape (r = 207, m = 10,954, n = 256,
//      20,000 items), equal-mass entries, a support with gaps, m exactly
//      at kDrawsPerBinomial draws per entry, and a seed whose first Poisson
//      vector overshoots m and is redrawn.
//   2. Through BudgetedSampler: unlimited (with and without an inert
//      policy), a budget that runs out mid-group (the same error, draw
//      count and phases), and a far deadline (a hardened session, which
//      declines the direct route).
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dist/count_kernel.h"
#include "dist/dataset.h"
#include "dist/generators.h"
#include "dist/sampler.h"
#include "engine/budget.h"
#include "engine/runtime.h"
#include "sample/sample_set.h"
#include "util/interval.h"
#include "util/rng.h"

namespace histk {
namespace {

/// Forwards only the per-set draw functions: SampleSetGroup::Draw over it
/// draws every set through a SampleCounter and DrawCounts.
class PerSetRouteSampler final : public Sampler {
 public:
  explicit PerSetRouteSampler(const Sampler& inner) : inner_(inner) {}

  int64_t n() const override { return inner_.n(); }
  void DrawManyInto(int64_t* out, int64_t m, Rng& rng) const override {
    inner_.DrawManyInto(out, m, rng);
  }
  void DrawCounts(int64_t m, Rng& rng, CountSink& sink,
                  int threads) const override {
    inner_.DrawCounts(m, rng, sink, threads);
  }

 private:
  const Sampler& inner_;
};

/// The kernel a kCounts DatasetSampler over `items` builds: its distinct
/// items ascending, weighted by occurrence.
CountKernel DatasetKernel(int64_t n, const std::vector<int64_t>& items) {
  std::vector<int64_t> occ(static_cast<size_t>(n), 0);
  for (int64_t item : items) ++occ[static_cast<size_t>(item)];
  std::vector<CountKernel::Run> runs;
  for (int64_t v = 0; v < n; ++v) {
    const int64_t c = occ[static_cast<size_t>(v)];
    if (c > 0) runs.push_back({v, 1, static_cast<long double>(c)});
  }
  return CountKernel(std::move(runs));
}

/// Both groups' sets have the same prefix counts and prefix collisions.
void ExpectSameRows(const SampleSetGroup& got, const SampleSetGroup& want,
                    const std::string& what) {
  ASSERT_EQ(got.r(), want.r()) << what;
  ASSERT_EQ(got.n(), want.n()) << what;
  for (int64_t j = 0; j < got.r(); ++j) {
    const SampleSet& a = got.set(j);
    const SampleSet& b = want.set(j);
    ASSERT_EQ(a.m(), b.m()) << what << " set " << j;
    for (int64_t v = 0; v < got.n(); ++v) {
      const Interval prefix(0, v);
      ASSERT_EQ(a.Count(prefix), b.Count(prefix)) << what << " set " << j << " v " << v;
      ASSERT_EQ(a.Collisions(prefix), b.Collisions(prefix))
          << what << " set " << j << " v " << v;
    }
  }
}

/// Draws r sets of m from `oracle` by both routes from `seed`; asserts the
/// same rows and the same rng state after.
void ExpectRoutesAgree(const DatasetSampler& oracle, int64_t r, int64_t m,
                       uint64_t seed, const std::string& what) {
  const PerSetRouteSampler per_set(oracle);
  Rng direct_rng(seed);
  const SampleSetGroup direct = SampleSetGroup::Draw(oracle, r, m, direct_rng);
  Rng per_set_rng(seed);
  const SampleSetGroup routed = SampleSetGroup::Draw(per_set, r, m, per_set_rng);
  ExpectSameRows(direct, routed, what);
  EXPECT_EQ(direct_rng.NextU64(), per_set_rng.NextU64()) << what;
}

/// Whether `oracle` takes a set of m straight into a row (drawn from a
/// throwaway rng).
bool TakesDirectRoute(const Sampler& oracle, int64_t m) {
  std::vector<uint32_t> counts(static_cast<size_t>(oracle.n()), 0);
  DrawBlockBuffers scratch;
  Rng rng(1);
  return oracle.DrawCountsInto(m, rng, counts.data(), scratch);
}

/// Items of a random 8-histogram over [0, n), as ingest_test ships them.
std::vector<int64_t> HistogramItems(int64_t n, int64_t count, uint64_t seed) {
  Rng gen(seed);
  const HistogramSpec spec = MakeRandomKHistogram(n, 8, gen, 25.0);
  return AliasSampler(spec.dist).DrawMany(count, gen);
}

TEST(GroupRouteTest, IngestShapeMatchesPerSetRoute) {
  const DatasetSampler oracle(256, HistogramItems(256, 20000, 0xE13A),
                              AliasKernel::kCounts);
  ASSERT_TRUE(TakesDirectRoute(oracle, 10954));
  ExpectRoutesAgree(oracle, 207, 10954, 3, "ingest");
}

TEST(GroupRouteTest, EqualMassEntriesMatchPerSetRoute) {
  // 48 values five times each, 16 values twice, one value 40 times: three
  // masses, so runs of entries share one Poisson table.
  std::vector<int64_t> items;
  for (int64_t v = 0; v < 64; ++v) items.insert(items.end(), v < 48 ? 5 : 2, v);
  items.insert(items.end(), 40, 63);
  const DatasetSampler oracle(64, items, AliasKernel::kCounts);
  ASSERT_TRUE(TakesDirectRoute(oracle, 3000));
  ExpectRoutesAgree(oracle, 23, 3000, 17, "equal mass");
}

TEST(GroupRouteTest, SupportWithGapsMatchesPerSetRoute) {
  // Only multiples of 7 and a few values past 400 occur in [0, 512).
  Rng gen(0x6A95);
  std::vector<int64_t> items;
  for (int i = 0; i < 4000; ++i) {
    items.push_back(7 * static_cast<int64_t>(gen.UniformInt(50)));
  }
  for (int64_t v : {401, 433, 499, 511}) items.insert(items.end(), 9, v);
  const DatasetSampler oracle(512, items, AliasKernel::kCounts);
  ASSERT_TRUE(TakesDirectRoute(oracle, 5000));
  ExpectRoutesAgree(oracle, 31, 5000, 29, "gaps");
}

TEST(GroupRouteTest, ThresholdDrawsPerEntryMatchPerSetRoute) {
  const std::vector<int64_t> items = HistogramItems(128, 3000, 0x7E5);
  const DatasetSampler oracle(128, items, AliasKernel::kCounts);
  const int64_t at = CountKernel::kDrawsPerBinomial * DatasetKernel(128, items).size();
  // At the threshold the set is one planned block, drawn directly; one
  // draw short, it is drawn per draw through DrawCounts.
  ASSERT_TRUE(TakesDirectRoute(oracle, at));
  ASSERT_FALSE(TakesDirectRoute(oracle, at - 1));
  ExpectRoutesAgree(oracle, 41, at, 31, "at threshold");
  ExpectRoutesAgree(oracle, 41, at - 1, 31, "under threshold");
}

TEST(GroupRouteTest, OvershootRedrawMatchesPerSetRoute) {
  // Find a seed whose first Poisson vector totals more than m, so the
  // direct route's first set overwrites its row with a redraw.
  const std::vector<int64_t> items = HistogramItems(64, 5000, 0x0E5);
  const DatasetSampler oracle(64, items, AliasKernel::kCounts);
  const CountKernel kernel = DatasetKernel(64, items);
  const int64_t m = 2000;
  ASSERT_GE(m, CountKernel::kDrawsPerBinomial * kernel.size());
  const CountKernel::GroupPlan plan(kernel, m);
  std::vector<int64_t> totals(static_cast<size_t>(kernel.size()));
  std::optional<uint64_t> seed;
  for (uint64_t s = 1; s < 200000 && !seed; ++s) {
    Rng probe(s);
    if (plan.DrawTotals(probe, totals.data()) > m) seed = s;
  }
  ASSERT_TRUE(seed.has_value()) << "no seed overshoots m";
  ExpectRoutesAgree(oracle, 5, m, *seed, "overshoot");
}

TEST(GroupRouteTest, ReplayKernelDeclinesTheDirectRoute) {
  const DatasetSampler oracle(256, HistogramItems(256, 20000, 0xE13A));
  EXPECT_FALSE(TakesDirectRoute(oracle, 10954));
}

/// One group through a meter over `oracle`: the sets, or the budget error
/// that cut the group, then the meter's counters and the rng's next word.
struct MeteredGroup {
  std::optional<SampleSetGroup> group;
  std::optional<BudgetExhaustedError> error;
  int64_t drawn = 0;
  std::vector<BudgetedSampler::PhaseDraws> phases;
  uint64_t next = 0;
};

MeteredGroup DrawMetered(const Sampler& oracle, int64_t budget,
                         const RunPolicy* policy, int64_t r, int64_t m,
                         uint64_t seed) {
  const BudgetedSampler meter(oracle, budget, policy);
  meter.BeginPhase("test-draw");
  Rng rng(seed);
  MeteredGroup out;
  try {
    out.group = SampleSetGroup::Draw(meter, r, m, rng);
  } catch (const BudgetExhaustedError& e) {
    out.error = e;
  }
  out.drawn = meter.samples_drawn();
  out.phases = meter.phases();
  out.next = rng.NextU64();
  return out;
}

void ExpectSameMetering(const MeteredGroup& got, const MeteredGroup& want,
                        const std::string& what) {
  ASSERT_EQ(got.group.has_value(), want.group.has_value()) << what;
  if (got.group) ExpectSameRows(*got.group, *want.group, what);
  ASSERT_EQ(got.error.has_value(), want.error.has_value()) << what;
  if (got.error) {
    EXPECT_STREQ(got.error->what(), want.error->what()) << what;
    EXPECT_EQ(got.error->requested(), want.error->requested()) << what;
    EXPECT_EQ(got.error->drawn(), want.error->drawn()) << what;
  }
  EXPECT_EQ(got.drawn, want.drawn) << what;
  ASSERT_EQ(got.phases.size(), want.phases.size()) << what;
  for (size_t i = 0; i < got.phases.size(); ++i) {
    EXPECT_EQ(got.phases[i].phase, want.phases[i].phase) << what;
    EXPECT_EQ(got.phases[i].samples, want.phases[i].samples) << what;
  }
  EXPECT_EQ(got.next, want.next) << what;
}

class MeteredGroupRouteTest : public ::testing::Test {
 protected:
  static constexpr int64_t kR = 40;
  static constexpr int64_t kM = 10954;

  MeteredGroupRouteTest()
      : oracle_(256, HistogramItems(256, 20000, 0xE13A), AliasKernel::kCounts),
        per_set_(oracle_) {}

  void ExpectAgree(int64_t budget, const RunPolicy* policy, uint64_t seed,
                   const std::string& what) {
    const MeteredGroup direct = DrawMetered(oracle_, budget, policy, kR, kM, seed);
    const MeteredGroup routed = DrawMetered(per_set_, budget, policy, kR, kM, seed);
    ExpectSameMetering(direct, routed, what);
  }

  const DatasetSampler oracle_;
  const PerSetRouteSampler per_set_;
};

TEST_F(MeteredGroupRouteTest, UnlimitedMatchesPerSetRoute) {
  const BudgetedSampler meter(oracle_);
  ASSERT_TRUE(TakesDirectRoute(meter, kM));
  ExpectAgree(BudgetedSampler::kUnlimited, nullptr, 5, "unlimited");
  const RunPolicy inert;
  const BudgetedSampler inert_meter(oracle_, BudgetedSampler::kUnlimited, &inert);
  ASSERT_TRUE(TakesDirectRoute(inert_meter, kM));
  ExpectAgree(BudgetedSampler::kUnlimited, &inert, 5, "inert policy");
}

TEST_F(MeteredGroupRouteTest, BudgetCutMidGroupMatchesPerSetRoute) {
  // Room for 17 and a half sets: the 18th request is rejected whole.
  const int64_t budget = 17 * kM + kM / 2;
  const MeteredGroup direct = DrawMetered(oracle_, budget, nullptr, kR, kM, 7);
  ASSERT_TRUE(direct.error.has_value());
  EXPECT_EQ(direct.drawn, 17 * kM);
  EXPECT_EQ(direct.error->requested(), kM);
  ExpectAgree(budget, nullptr, 7, "budget cut");
}

TEST_F(MeteredGroupRouteTest, FarDeadlineMatchesPerSetRoute) {
  RunPolicy far;
  far.deadline = Deadline::AfterMillis(24 * 3600 * 1000);
  ASSERT_TRUE(far.armed());
  // A hardened meter declines, drawing and metering nothing.
  const BudgetedSampler meter(oracle_, BudgetedSampler::kUnlimited, &far);
  ASSERT_FALSE(TakesDirectRoute(meter, kM));
  EXPECT_EQ(meter.samples_drawn(), 0);
  ExpectAgree(BudgetedSampler::kUnlimited, &far, 11, "far deadline");
}

}  // namespace
}  // namespace histk
