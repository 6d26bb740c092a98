#include "stream/reservoir.h"

#include <vector>

#include <gtest/gtest.h>

namespace histk {
namespace {

TEST(ReservoirTest, KeepsEverythingBelowCapacity) {
  Reservoir r(10, 801);
  for (int64_t i = 0; i < 7; ++i) r.Add(i * 11);
  EXPECT_EQ(r.stream_size(), 7);
  ASSERT_EQ(r.sample().size(), 7u);
  for (int64_t i = 0; i < 7; ++i) EXPECT_EQ(r.sample()[static_cast<size_t>(i)], i * 11);
}

TEST(ReservoirTest, CapsAtCapacity) {
  Reservoir r(5, 802);
  for (int64_t i = 0; i < 1000; ++i) r.Add(i);
  EXPECT_EQ(r.stream_size(), 1000);
  EXPECT_EQ(r.sample().size(), 5u);
}

TEST(ReservoirTest, UniformInclusionProbability) {
  // Each of 50 stream items should land in a 10-slot reservoir with
  // probability 1/5; average over many independent reservoirs.
  const int trials = 4000;
  std::vector<int> hits(50, 0);
  for (int t = 0; t < trials; ++t) {
    Reservoir r(10, 900 + static_cast<uint64_t>(t));
    for (int64_t i = 0; i < 50; ++i) r.Add(i);
    for (int64_t v : r.sample()) ++hits[static_cast<size_t>(v)];
  }
  for (int64_t i = 0; i < 50; ++i) {
    EXPECT_NEAR(static_cast<double>(hits[static_cast<size_t>(i)]) / trials, 0.2, 0.03)
        << "item " << i;
  }
}

TEST(ReservoirTest, DeterministicGivenSeed) {
  Reservoir a(8, 77), b(8, 77);
  for (int64_t i = 0; i < 500; ++i) {
    a.Add(i % 13);
    b.Add(i % 13);
  }
  EXPECT_EQ(a.sample(), b.sample());
}

TEST(ReservoirTest, CapacityOneHoldsExactlyOneStreamElement) {
  // Degenerate reservoir: one slot, long stream. The invariant in Add pins
  // size == min(seen, 1) on every step; the retained element must be real.
  Reservoir r(1, 805);
  for (int64_t i = 0; i < 300; ++i) r.Add(i * 3);
  EXPECT_EQ(r.stream_size(), 300);
  ASSERT_EQ(r.sample().size(), 1u);
  EXPECT_EQ(r.sample()[0] % 3, 0);
  EXPECT_LT(r.sample()[0], 900);
}

TEST(ReservoirTest, EmptyReservoirReportsEmptySample) {
  const Reservoir r(4, 806);
  EXPECT_EQ(r.stream_size(), 0);
  EXPECT_TRUE(r.sample().empty());
}

TEST(ReservoirDeathTest, RejectsZeroCapacity) {
  EXPECT_DEATH(Reservoir(0, 1), "capacity");
}

}  // namespace
}  // namespace histk
