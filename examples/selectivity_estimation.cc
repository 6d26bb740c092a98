// Selectivity estimation — the database scenario from the paper's
// introduction, as two engine tasks over one oracle session.
//
// A query optimizer wants the selectivity of range predicates
// (age BETWEEN x AND y) without scanning the table. We model the age
// attribute of an employees table as a mixture and open an Engine session
// whose oracle samples rows:
//
//   * EstimateSpec — learn a k-piece synopsis under a sample budget, then
//     answer range-selectivity and quantile queries from it (the session's
//     ground truth fills in the exact values for comparison);
//   * CompareSpec — score the paper's learner against equi-width /
//     equi-depth / compressed histograms built from the same sample budget
//     and the exact v-optimal optimum.
//
//   build/examples/example_selectivity_estimation
#include <cmath>
#include <cstdio>
#include <iostream>

#include "dist/distribution.h"
#include "dist/generators.h"
#include "dist/sampler.h"
#include "engine/engine.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/table.h"

int main() {
  using namespace histk;
  constexpr int64_t kDomain = 128;  // ages 0..127
  constexpr int64_t kBuckets = 10;

  // Age distribution: student hump, working-age plateau, retirement bump.
  const Distribution ages = MakeGaussianMixture(
      kDomain, {{0.18, 0.035, 1.0}, {0.38, 0.10, 2.4}, {0.55, 0.07, 1.0}}, 0.08);
  const AliasSampler row_sampler(ages);
  const Engine engine(row_sampler, ages);

  // Range predicates of different widths, plus the quartiles.
  EstimateSpec spec;
  spec.seed = 42;
  spec.k = kBuckets;
  spec.eps = 0.12;
  spec.quantile_levels = {0.25, 0.5, 0.75, 0.95};
  Rng qrng(7);
  for (int q = 0; q < 12; ++q) {
    const int64_t width = 4 + static_cast<int64_t>(qrng.UniformInt(40));
    const int64_t lo = qrng.UniformInRange(0, kDomain - width);
    spec.ranges.emplace_back(lo, lo + width - 1);
  }

  const Result<Report> run = engine.Run(spec);
  if (!run.ok()) {
    std::printf("spec rejected: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const Report& report = *run;
  std::printf("rows sampled: %s, histogram buckets: %lld (%s in %.1f ms)\n\n",
              FmtI(report.telemetry.samples_drawn).c_str(),
              static_cast<long long>(kBuckets), TaskOutcomeName(report.outcome),
              report.telemetry.wall_ms);

  Table table({"predicate", "true sel.", "estimate", "|error|"});
  double worst = 0;
  for (const auto& sel : report.estimate->selectivity) {
    const double err = std::fabs(sel.estimate - *sel.truth);
    worst = std::max(worst, err);
    table.AddRow({"age in " + sel.range.ToString(), FmtF(*sel.truth, 4),
                  FmtF(sel.estimate, 4), FmtF(err, 4)});
  }
  table.Print(std::cout);
  std::printf("worst |error|: %.4f\n\n", worst);

  std::printf("age quantiles from the synopsis:");
  for (const auto& qa : report.estimate->quantiles) {
    std::printf("  p%.0f=%lld", qa.q * 100, static_cast<long long>(qa.value));
  }
  std::printf("\n\n");

  // How does the paper's synopsis rank against the classic choices on the
  // same budget? One CompareSpec answers with SSE-vs-truth rows.
  CompareSpec cmp;
  cmp.seed = 42;
  cmp.k = kBuckets;
  cmp.eps = 0.12;
  const Result<Report> cmp_run = engine.Run(cmp);
  if (!cmp_run.ok()) {
    std::printf("spec rejected: %s\n", cmp_run.status().ToString().c_str());
    return 1;
  }
  const Report& ranking = *cmp_run;
  Table rank_table({"method", "pieces", "SSE vs truth", "samples"});
  for (const CompareRow& row : ranking.compare) {
    rank_table.AddRow({row.method, std::to_string(row.pieces), FmtE(row.sse),
                       FmtI(row.samples)});
  }
  rank_table.Print(std::cout);
  return 0;
}
