// Power and plumbing of the histogram-property testers
// (core/property_tester.h): the CDKL22-flavored is-k-histogram tester must
// accept true tiling k-histograms and reject certified far instances (each
// at >= 95% empirical rate across families x seeds), the DKN17-flavored
// closeness tester must accept identical pairs and reject certified far
// pairs, and the deterministic building blocks (plans, refinements,
// decisions) must honor their structural contracts. The power checks run
// on the replay kernel and on the count kernel (same law, its own stream).
#include "core/property_tester.h"

#include <gtest/gtest.h>

#include "baseline/far_instances.h"
#include "dist/generators.h"
#include "dist/sampler.h"
#include "util/rng.h"

namespace histk {
namespace {

PropertyTestConfig PropertyConfig(int64_t k, double eps, double scale) {
  PropertyTestConfig cfg;
  cfg.k = k;
  cfg.eps = eps;
  cfg.sample_scale = scale;
  return cfg;
}

constexpr AliasKernel kKernels[] = {AliasKernel::kReplay, AliasKernel::kCounts};

int PropertyAcceptCount(const Distribution& d, const PropertyTestConfig& cfg,
                        int trials, uint64_t seed,
                        AliasKernel kernel = AliasKernel::kReplay) {
  const AliasSampler sampler(d, kernel);
  Rng rng(seed);
  int accepted = 0;
  for (int t = 0; t < trials; ++t) {
    accepted += TestIsKHistogram(sampler, cfg, rng).accepted ? 1 : 0;
  }
  return accepted;
}

ClosenessConfig CloseConfig(int64_t k, double eps, double scale) {
  ClosenessConfig cfg;
  cfg.k_p = k;
  cfg.k_q = k;
  cfg.eps = eps;
  cfg.sample_scale = scale;
  return cfg;
}

int CloseAcceptCount(const Distribution& p, const Distribution& q,
                     const ClosenessConfig& cfg, int trials, uint64_t seed,
                     AliasKernel kernel = AliasKernel::kReplay) {
  const AliasSampler sp(p, kernel);
  const AliasSampler sq(q, kernel);
  Rng rng(seed);
  int accepted = 0;
  for (int t = 0; t < trials; ++t) {
    accepted += TestCloseness(sp, sq, cfg, rng).accepted ? 1 : 0;
  }
  return accepted;
}

// ---------------------------------------------------------------- power

TEST(PropertyTesterPowerTest, AcceptsTrueKHistogramsAcrossFamiliesAndSeeds) {
  // Aggregate acceptance across (k, seed) cells must clear 95%.
  for (const AliasKernel kernel : kKernels) {
    int accepted = 0;
    int trials = 0;
    for (const int64_t k : {2, 4, 6}) {
      for (const uint64_t seed : {401u, 402u}) {
        Rng gen(1000 * seed + static_cast<uint64_t>(k));
        const HistogramSpec spec = MakeRandomKHistogram(256, k, gen, 20.0);
        accepted += PropertyAcceptCount(spec.dist, PropertyConfig(k, 0.3, 0.5), 5,
                                        seed, kernel);
        trials += 5;
      }
    }
    EXPECT_GE(accepted * 100, trials * 95)
        << AliasKernelName(kernel) << ": " << accepted << "/" << trials;
  }
}

TEST(PropertyTesterPowerTest, AcceptsUniformAndNestedClasses) {
  // Uniform is a 1-histogram, hence a k-histogram for every k; a
  // 2-histogram must also pass the k=6 test.
  EXPECT_EQ(PropertyAcceptCount(Distribution::Uniform(256), PropertyConfig(6, 0.3, 0.5),
                                10, 404),
            10);
  Rng gen(405);
  const HistogramSpec spec = MakeRandomKHistogram(256, 2, gen, 10.0);
  EXPECT_GE(PropertyAcceptCount(spec.dist, PropertyConfig(6, 0.3, 0.5), 10, 406), 9);
}

TEST(PropertyTesterPowerTest, RejectsCertifiedFarInstancesAcrossFamilies) {
  // families x seeds aggregate rejection >= 95%: DP-certified spikes and
  // zipf (coarse structure), the analytic global zigzag and the L1-optimal-
  // DP-certified within-piece zigzag (fine structure the coarse masses
  // cannot see). The eps-amplitude zigzags need the aggregated-collision
  // budget, i.e. scale >= ~1 (bench_e14 sweeps the power curve).
  for (const AliasKernel kernel : kKernels) {
    int rejected = 0;
    int trials = 0;
    auto run = [&](const Distribution& d, const PropertyTestConfig& cfg,
                   uint64_t seed) {
      const int accepted = PropertyAcceptCount(d, cfg, 5, seed, kernel);
      rejected += 5 - accepted;
      trials += 5;
    };
    for (const int64_t k : {2, 4}) {
      const auto spikes = MakeL2FarSpikes(256, k, 0.3);
      ASSERT_TRUE(spikes.has_value());
      run(spikes->dist, PropertyConfig(k, 0.3, 0.5), 500 + static_cast<uint64_t>(k));
      run(MakeL1FarZigzag(256, k, 0.4).dist, PropertyConfig(k, 0.4, 2.0),
          520 + static_cast<uint64_t>(k));
      const auto within =
          MakeL1FarWithinPieceZigzag(256, k, 0.3, 530 + static_cast<uint64_t>(k));
      ASSERT_TRUE(within.has_value());
      run(within->dist, PropertyConfig(k, 0.3, 0.5), 540 + static_cast<uint64_t>(k));
    }
    // Zipf heads only certify at small eps (the class is L2-thin there).
    const auto zipf = MakeL2FarZipf(512, 2, 0.1);
    ASSERT_TRUE(zipf.has_value());
    run(zipf->dist, PropertyConfig(2, 0.1, 0.5), 512);
    EXPECT_GE(rejected * 100, trials * 95)
        << AliasKernelName(kernel) << ": " << rejected << "/" << trials;
  }
}

TEST(ClosenessPowerTest, AcceptsIdenticalPairsAcrossSeeds) {
  for (const AliasKernel kernel : kKernels) {
    int accepted = 0;
    int trials = 0;
    for (const int64_t k : {2, 6}) {
      for (const uint64_t seed : {601u, 602u}) {
        Rng gen(2000 * seed + static_cast<uint64_t>(k));
        const HistogramSpec spec = MakeRandomKHistogram(256, k, gen, 15.0);
        accepted += CloseAcceptCount(spec.dist, spec.dist, CloseConfig(k, 0.3, 0.5),
                                     5, seed, kernel);
        trials += 5;
      }
    }
    EXPECT_GE(accepted * 100, trials * 95)
        << AliasKernelName(kernel) << ": " << accepted << "/" << trials;
  }
}

TEST(ClosenessPowerTest, RejectsCertifiedFarPairsAcrossFamiliesAndSeeds) {
  for (const AliasKernel kernel : kKernels) {
    int rejected = 0;
    int trials = 0;
    for (const int64_t k : {2, 8}) {
      const uint64_t seed = 701 + static_cast<uint64_t>(k);
      const auto mass =
          MakeFarPairMassShift(256, k, 0.3, seed + static_cast<uint64_t>(k));
      ASSERT_TRUE(mass.has_value());
      EXPECT_GE(mass->certified_distance, 0.3);
      rejected += 5 - CloseAcceptCount(mass->p, mass->q, CloseConfig(k, 0.3, 0.5), 5,
                                       seed, kernel);
      trials += 5;
      const auto indep =
          MakeFarPairIndependent(256, k, 0.3, seed + 31 * static_cast<uint64_t>(k));
      ASSERT_TRUE(indep.has_value());
      rejected += 5 - CloseAcceptCount(indep->p, indep->q, CloseConfig(k, 0.3, 0.5),
                                       5, seed, kernel);
      trials += 5;
    }
    EXPECT_GE(rejected * 100, trials * 95)
        << AliasKernelName(kernel) << ": " << rejected << "/" << trials;
  }
}

TEST(ClosenessPowerTest, AsymmetricPieceBudgetsWork) {
  // p a 2-histogram, q a 6-histogram, genuinely different.
  Rng gen(801);
  const HistogramSpec p = MakeRandomKHistogram(256, 2, gen, 15.0);
  const HistogramSpec q = MakeRandomKHistogram(256, 6, gen, 15.0);
  ClosenessConfig cfg;
  cfg.k_p = 2;
  cfg.k_q = 6;
  cfg.eps = 0.3;
  cfg.sample_scale = 0.5;
  if (p.dist.L1DistanceTo(q.dist) >= 0.3) {
    EXPECT_LE(CloseAcceptCount(p.dist, q.dist, cfg, 5, 802), 0);
  }
  EXPECT_EQ(CloseAcceptCount(p.dist, p.dist, cfg, 5, 803), 5);
}

// ------------------------------------------------------------- structure

TEST(PropertyTesterPlanTest, PartitionTilesTheDomainWithBoundedMass) {
  Rng gen(900);
  const HistogramSpec spec = MakeRandomKHistogram(512, 5, gen, 12.0);
  PropertyTestConfig cfg = PropertyConfig(5, 0.2, 1.0);
  // A candidate that IS the truth: plan masses must match and parts tile.
  const TilingHistogram candidate =
      TilingHistogram::FromRightEnds(512, spec.right_ends,
                                     [&] {
                                       std::vector<double> values;
                                       int64_t lo = 0;
                                       for (int64_t hi : spec.right_ends) {
                                         values.push_back(spec.dist.p(lo));
                                         lo = hi + 1;
                                       }
                                       return values;
                                     }());
  const VerificationPlan plan = BuildVerificationPlan(candidate, cfg);
  ASSERT_FALSE(plan.parts.empty());
  int64_t expect_lo = 0;
  double total_mass = 0.0;
  const double cap = cfg.eps / (8.0 * static_cast<double>(cfg.k));
  for (size_t a = 0; a < plan.parts.size(); ++a) {
    EXPECT_EQ(plan.parts[a].lo, expect_lo);
    EXPECT_GE(plan.parts[a].hi, plan.parts[a].lo);
    expect_lo = plan.parts[a].hi + 1;
    total_mass += plan.candidate_mass[a];
    // Mass cap holds unless the piece ran out of elements to split.
    if (plan.parts[a].length() > 1) {
      EXPECT_LE(plan.candidate_mass[a], cap * 1.5);
    }
  }
  EXPECT_EQ(expect_lo, 512);
  EXPECT_NEAR(total_mass, 1.0, 1e-9);
}

TEST(PropertyTesterPlanTest, DegenerateCandidateFallsBackToUniformMasses) {
  const TilingHistogram zero = TilingHistogram::Flat(64, 0.0);
  const VerificationPlan plan = BuildVerificationPlan(zero, PropertyConfig(1, 0.5, 1.0));
  ASSERT_FALSE(plan.parts.empty());
  double total = 0.0;
  for (double m : plan.candidate_mass) total += m;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(PropertyTesterTest, ReportsSampleAccountingAndOverride) {
  const AliasSampler sampler(Distribution::Uniform(128));
  PropertyTestConfig cfg = PropertyConfig(2, 0.3, 0.2);
  cfg.r_override = 5;
  Rng rng(910);
  const PropertyTestOutcome out = TestIsKHistogram(sampler, cfg, rng);
  EXPECT_EQ(out.params.verify_r, 5);
  EXPECT_EQ(out.total_samples,
            out.params.learn.TotalSamples() + out.params.verify_r * out.params.verify_m);
  ASSERT_TRUE(out.candidate.has_value());
  EXPECT_LE(out.candidate->k(), 2);
  EXPECT_EQ(out.candidate->n(), 128);
  EXPECT_GE(out.refinement_parts, 1);
  EXPECT_LE(out.fitted_pieces, 2);
}

TEST(ClosenessTest, CommonRefinementIsTheCoarsestCommonPartition) {
  const TilingHistogram a =
      TilingHistogram::FromRightEnds(100, {49, 99}, {0.01, 0.01});
  const TilingHistogram b =
      TilingHistogram::FromRightEnds(100, {19, 49, 99}, {0.01, 0.01, 0.01});
  const std::vector<Interval> parts = CommonRefinement(a, b);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], Interval(0, 19));
  EXPECT_EQ(parts[1], Interval(20, 49));
  EXPECT_EQ(parts[2], Interval(50, 99));
}

TEST(ClosenessTest, ReportsSampleAccountingAndOverride) {
  const AliasSampler p(Distribution::Uniform(64));
  const AliasSampler q(Distribution::Uniform(64));
  ClosenessConfig cfg = CloseConfig(2, 0.4, 0.2);
  cfg.r_override = 3;
  Rng rng(920);
  const ClosenessOutcome out = TestCloseness(p, q, cfg, rng);
  EXPECT_EQ(out.params.verify_r, 3);
  EXPECT_EQ(out.total_samples, out.params.learn_p.TotalSamples() +
                                   out.params.learn_q.TotalSamples() +
                                   2 * out.params.verify_r * out.params.verify_m);
  EXPECT_TRUE(out.accepted);
  EXPECT_GT(out.threshold, 0.0);
  ASSERT_TRUE(out.candidate_p.has_value());
  ASSERT_TRUE(out.candidate_q.has_value());
  EXPECT_LE(out.refinement_parts, out.candidate_p->k() + out.candidate_q->k());
}

// ------------------------------------------------------------ validation

TEST(PropertyTesterValidationTest, RejectsBadConfigsWithoutAborting) {
  PropertyTestConfig cfg;
  cfg.k = 0;
  EXPECT_FALSE(ValidatePropertyTestConfig(64, cfg).ok());
  cfg.k = 2;
  cfg.eps = 0.0;
  EXPECT_FALSE(ValidatePropertyTestConfig(64, cfg).ok());
  cfg.eps = 1e-80;  // blows the formulas past int64
  EXPECT_FALSE(ValidatePropertyTestConfig(64, cfg).ok());
  cfg.eps = 0.3;
  cfg.sample_scale = -1.0;
  EXPECT_FALSE(ValidatePropertyTestConfig(64, cfg).ok());
  cfg.sample_scale = 1.0;
  cfg.r_override = -1;
  EXPECT_FALSE(ValidatePropertyTestConfig(64, cfg).ok());
  cfg.r_override = 0;
  EXPECT_TRUE(ValidatePropertyTestConfig(64, cfg).ok());
}

TEST(ClosenessValidationTest, RejectsBadConfigsWithoutAborting) {
  ClosenessConfig cfg;
  cfg.k_p = 0;
  EXPECT_FALSE(ValidateClosenessConfig(64, cfg).ok());
  cfg.k_p = 2;
  cfg.k_q = 65;
  EXPECT_FALSE(ValidateClosenessConfig(64, cfg).ok());
  cfg.k_q = 2;
  cfg.eps = 2.0;
  EXPECT_FALSE(ValidateClosenessConfig(64, cfg).ok());
  cfg.eps = 0.3;
  EXPECT_TRUE(ValidateClosenessConfig(64, cfg).ok());
}

TEST(PropertyTesterParamsTest, VerifyRateIsSubquadraticInEpsAndSublinearInN) {
  // The verification budget must follow the CDKL22 shape: ~sqrt growth in
  // n (at fixed k, eps) and ~eps^-2 growth — far below the reference
  // testers' eps^-4.
  const PropertyTesterParams small = ComputePropertyTesterParams(1 << 10, 4, 0.2);
  const PropertyTesterParams big = ComputePropertyTesterParams(1 << 14, 4, 0.2);
  const double n_growth = static_cast<double>(big.verify_m) /
                          static_cast<double>(small.verify_m);
  EXPECT_LT(n_growth, 6.0);  // 16x the domain, ~4x the budget
  const PropertyTesterParams loose = ComputePropertyTesterParams(1 << 10, 4, 0.4);
  const PropertyTesterParams tight = ComputePropertyTesterParams(1 << 10, 4, 0.1);
  const double eps_growth = static_cast<double>(tight.verify_m) /
                            static_cast<double>(loose.verify_m);
  EXPECT_LT(eps_growth, 20.0);  // 4x tighter eps, ~16x the budget (not 256x)
}

}  // namespace
}  // namespace histk
