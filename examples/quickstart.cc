// Quickstart: open a budgeted oracle session, learn a near-optimal
// k-histogram from samples alone, and inspect the engine's report — then
// see what a too-small budget does (a typed outcome, not an abort).
//
//   build/examples/example_quickstart
#include <cstdio>

#include "baseline/voptimal_dp.h"
#include "core/greedy.h"
#include "dist/generators.h"
#include "dist/sampler.h"
#include "engine/engine.h"
#include "histogram/tiling.h"
#include "util/interval.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/table.h"

int main() {
  using namespace histk;

  // An "unknown" distribution over [0, 64): a 4-piece histogram the
  // algorithm will only ever see through i.i.d. samples.
  Rng rng(2012);  // PODS 2012
  const HistogramSpec secret = MakeRandomKHistogram(/*n=*/64, /*k=*/4, rng, 25.0);
  const AliasSampler oracle(secret.dist);

  // The session: oracle + ground truth (the truth is only used by
  // evaluation tasks; the learner never sees it).
  const Engine engine(oracle, secret.dist);

  // Learn: Algorithm 1 with the Theorem 2 candidate restriction, as a task
  // spec. reduce_to also asks for a strict 4-piece reduction of the
  // bicriteria output.
  LearnSpec spec;
  spec.seed = 2012;
  spec.options.k = 4;
  spec.options.eps = 0.1;
  spec.reduce_to = 4;

  const Result<Report> run = engine.Run(spec);
  if (!run.ok()) {
    std::printf("spec rejected: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const Report& report = *run;
  const LearnResult& result = *report.learn;

  std::printf("outcome       : %s in %.1f ms\n", TaskOutcomeName(report.outcome),
              report.telemetry.wall_ms);
  std::printf("samples drawn : %s  (l=%s, r=%s sets of m=%s)\n",
              FmtI(report.telemetry.samples_drawn).c_str(),
              FmtI(result.params.l).c_str(), FmtI(result.params.r).c_str(),
              FmtI(result.params.m).c_str());
  for (const auto& phase : report.telemetry.phases) {
    std::printf("  phase %-17s: %s draws\n", phase.phase.c_str(),
                FmtI(phase.samples).c_str());
  }
  std::printf("greedy steps  : %lld, candidate intervals/step: %s\n",
              static_cast<long long>(result.params.iterations),
              FmtI(report.telemetry.candidates_per_iter).c_str());

  // How good is it? Compare against the true pmf and the exact optimum.
  const double err = result.tiling.L2SquaredErrorTo(secret.dist);
  const double opt = VOptimalSse(secret.dist, 4);
  std::printf("||p - H||_2^2 : %.3e   (exact 4-piece optimum: %.3e)\n", err, opt);
  std::printf("theorem band  : err <= OPT + 8*eps = %.3f  -> holds: %s\n",
              opt + 8 * spec.options.eps, err <= opt + 8 * spec.options.eps ? "yes" : "NO");

  // The raw output is a priority histogram with k*ln(1/eps) intervals; the
  // spec's reduce_to produced the strict 4-piece version for display.
  const TilingHistogram& compact = *report.reduced;
  std::printf("\nlearned histogram, reduced to 4 pieces (raw output had %lld):\n",
              static_cast<long long>(result.tiling.k()));
  for (int64_t j = 0; j < compact.k(); ++j) {
    const Interval piece = compact.pieces()[static_cast<size_t>(j)];
    std::printf("  %-9s density %.5f\n", piece.ToString().c_str(),
                compact.values()[static_cast<size_t>(j)]);
  }
  std::printf("\ntrue boundaries: ");
  for (int64_t end : secret.right_ends) std::printf("%lld ", static_cast<long long>(end));
  std::printf("\n");

  // Budgets are hard caps with typed outcomes: the same task under a
  // too-small budget reports kBudgetExhausted instead of aborting, and the
  // partial telemetry shows where the draws went.
  LearnSpec capped = spec;
  capped.budget = 10'000;
  const Report partial = *engine.Run(capped);
  std::printf("\nsame task, budget %lld: outcome %s after %s draws (<= budget)\n",
              static_cast<long long>(capped.budget),
              TaskOutcomeName(partial.outcome),
              FmtI(partial.telemetry.samples_drawn).c_str());
  return 0;
}
