// Drift detection on a sampled stream: re-test a "simple histogram" null
// hypothesis over sliding batches and flag when the distribution stops
// looking like a small histogram. Each batch is one budgeted TestSpec run
// against that batch's oracle — the per-batch sample bill is right in the
// report, which is what a monitoring deployment meters and pays for.
//
// Scenario: a latency-bucket distribution is normally piecewise-flat
// (SLO tiers). A regression scatters probability mass inside one tier
// (bimodal within-tier behaviour) — total tier weights barely move, so
// per-tier counters miss it, but the tester's collision statistics see the
// within-tier non-uniformity immediately.
//
//   build/examples/example_streaming_anomaly
#include <cstdio>
#include <iostream>

#include "dist/distribution.h"
#include "dist/generators.h"
#include "dist/sampler.h"
#include "engine/engine.h"
#include "util/interval.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/table.h"

int main() {
  using namespace histk;
  constexpr int64_t kN = 512;     // latency buckets
  constexpr int64_t kTiers = 4;   // SLO tiers = histogram pieces
  constexpr int64_t kBatches = 10;
  constexpr int64_t kRegressionAt = 6;  // batches >= this are anomalous

  Rng rng(99);
  const HistogramSpec healthy = MakeStaircase(kN, kTiers);

  // The regression: inside tier 2, half the buckets go cold and the other
  // half double — tier weight unchanged (the Theorem 5 construction,
  // weaponized as a monitoring test case).
  Distribution degraded = healthy.dist;
  {
    const Interval tier(healthy.right_ends[1] + 1, healthy.right_ends[2]);
    std::vector<double> w = degraded.DensePmf();
    std::vector<int64_t> elems;
    for (int64_t i = tier.lo; i <= tier.hi; ++i) elems.push_back(i);
    rng.Shuffle(elems);
    for (size_t idx = 0; idx < elems.size(); ++idx) {
      w[static_cast<size_t>(elems[idx])] *= (idx < elems.size() / 2) ? 0.0 : 2.0;
    }
    degraded = Distribution::FromWeights(std::move(w));
  }

  // The scatter keeps tier weights intact and spreads the damage across
  // many buckets, so it is far in L1 (distance ~ tier weight) but NOT far
  // in L2 (distance ~ weight/sqrt(tier length)) — exactly the regime where
  // the paper's L1 tester (Theorem 4) is the right tool.
  TestSpec spec;
  spec.config.k = kTiers;
  spec.config.eps = 0.2;
  spec.config.norm = Norm::kL1;
  spec.config.sample_scale = 5e-4;  // of the 2^13/eps^5 union-bound formula
  spec.config.r_override = 9;

  std::printf("tier weights healthy vs degraded (counters see nothing):\n");
  int64_t lo = 0;
  for (int64_t end : healthy.right_ends) {
    std::printf("  tier %s: %.4f vs %.4f\n", Interval(lo, end).ToString().c_str(),
                healthy.dist.Weight(Interval(lo, end)),
                degraded.Weight(Interval(lo, end)));
    lo = end + 1;
  }

  Table table({"batch", "source", "tester verdict", "samples", "flat pieces"});
  int false_alarms = 0, caught = 0;
  for (int64_t b = 0; b < kBatches; ++b) {
    const bool anomalous = b >= kRegressionAt;
    const AliasSampler sampler(anomalous ? degraded : healthy.dist);
    const Engine engine(sampler);
    spec.seed = 99 + static_cast<uint64_t>(b);  // fresh draws per batch
    const Result<Report> run = engine.Run(spec);
    if (!run.ok()) {
      std::printf("spec rejected: %s\n", run.status().ToString().c_str());
      return 1;
    }
    const Report& report = *run;
    const bool accepted = report.outcome == TaskOutcome::kAccepted;
    if (anomalous && !accepted) ++caught;
    if (!anomalous && !accepted) ++false_alarms;
    table.AddRow({std::to_string(b), anomalous ? "DEGRADED" : "healthy",
                  accepted ? "ok" : "ALERT", FmtI(report.telemetry.samples_drawn),
                  std::to_string(report.test->flat_partition.size())});
  }
  table.Print(std::cout);
  std::printf("\ncaught %d/%d anomalous batches, %d false alarms on %d healthy\n",
              caught, static_cast<int>(kBatches - kRegressionAt), false_alarms,
              static_cast<int>(kRegressionAt));
  return 0;
}
