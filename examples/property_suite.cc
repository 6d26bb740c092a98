// Histogram-property testing demo: the two reference-free questions the
// engine answers beyond the source paper, driven entirely through the
// facade —
//
//   * "is this distribution a k-histogram AT ALL?" (PropertyTestSpec,
//     CDKL22-flavored learn-then-verify, core/property_tester.h), and
//   * "did the distribution CHANGE between two data sets?" (ClosenessSpec,
//     DKN17-flavored two-oracle comparison on the common candidate
//     refinement).
//
// Scenario: a monitoring pipeline snapshots an attribute's distribution
// every hour. First it checks the attribute is histogram-shaped at all (if
// not, a k-piece synopsis would mislead every consumer); then it compares
// today's snapshot against yesterday's to decide whether the cached synopsis
// must be rebuilt — both from samples alone, with a hard oracle budget.
//
//   build/example_property_suite
#include <cstdio>
#include <iostream>

#include "baseline/far_instances.h"
#include "core/property_tester.h"
#include "dist/distribution.h"
#include "dist/generators.h"
#include "dist/sampler.h"
#include "engine/engine.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/table.h"

int main() {
  using namespace histk;
  constexpr int64_t kN = 1024;
  constexpr int64_t kK = 6;

  Rng rng(4242);
  const HistogramSpec yesterday = MakeRandomKHistogram(kN, kK, rng, 15.0);

  // --------------------------------------------- is it a histogram at all?
  std::printf("== property-test: is the attribute a %lld-histogram?\n\n",
              static_cast<long long>(kK));
  struct Case {
    const char* name;
    Distribution dist;
    const char* truth;
  };
  std::vector<Case> cases;
  cases.push_back({"hourly snapshot (true 6-hist)", yesterday.dist, "YES"});
  const auto corrupted = MakeL1FarWithinPieceZigzag(kN, kK, 0.3, 4243);
  if (corrupted) {
    // Same piece masses as a k-histogram — only sub-piece evidence can
    // catch it.
    cases.push_back({"corrupted feed (within-piece zigzag)", corrupted->dist, "NO"});
  }
  const auto spikes = MakeL2FarSpikes(kN, kK, 0.2);
  if (spikes) cases.push_back({"dedup failure (isolated spikes)", spikes->dist, "NO"});

  PropertyTestSpec ptest;
  ptest.seed = 4242;
  ptest.budget = 2'000'000;  // hard oracle cap, metered per phase
  ptest.config.k = kK;
  ptest.config.eps = 0.3;
  ptest.config.sample_scale = 0.35;

  Table table({"case", "truth", "verdict", "samples", "parts", "exceptions"});
  for (const Case& c : cases) {
    const AliasSampler oracle(c.dist);
    const Engine engine(oracle);
    const Result<Report> report = engine.Run(ptest);
    if (!report.ok()) {
      std::fprintf(stderr, "spec rejected: %s\n", report.status().ToString().c_str());
      return 1;
    }
    const PropertyTestOutcome& out = *report->property_test;
    table.AddRow({c.name, c.truth, out.accepted ? "ACCEPT" : "REJECT",
                  FmtI(report->telemetry.samples_drawn), FmtI(out.refinement_parts),
                  FmtI(out.exception_parts)});
  }
  table.Print(std::cout);

  // ------------------------------------------------- did it change today?
  std::printf("\n== closeness: rebuild the synopsis?\n\n");
  Rng drift_rng(4244);
  std::vector<std::pair<const char*, Distribution>> todays = {
      {"today == yesterday", yesterday.dist},
      {"small drift (2% noise)", MakeNoisy(yesterday.dist, 0.02, drift_rng)},
  };
  Rng regime_rng(4245);
  todays.emplace_back("regime change (new 6-hist)",
                      MakeRandomKHistogram(kN, kK, regime_rng, 15.0).dist);

  ClosenessSpec close;
  close.seed = 4242;
  close.budget = 2'000'000;
  close.config.k_p = kK;
  close.config.k_q = kK;
  close.config.eps = 0.3;
  close.config.sample_scale = 0.35;

  const AliasSampler oracle_p(yesterday.dist);
  Table drift({"today's feed", "verdict", "refinement", "statistic", "action"});
  for (const auto& [name, dist] : todays) {
    const AliasSampler oracle_q(dist);
    ClosenessSpec spec = close;
    spec.other = &oracle_q;
    const Engine engine(oracle_p);
    const Result<Report> report = engine.Run(spec);
    if (!report.ok()) {
      std::fprintf(stderr, "spec rejected: %s\n", report.status().ToString().c_str());
      return 1;
    }
    const ClosenessOutcome& out = *report->closeness;
    drift.AddRow({name, out.accepted ? "CLOSE" : "FAR", FmtI(out.refinement_parts),
                  FmtE(out.statistic), out.accepted ? "keep synopsis" : "rebuild"});
  }
  drift.Print(std::cout);

  std::printf(
      "\nBoth tasks ran as budgeted engine sessions: invalid specs and\n"
      "exhausted budgets are typed outcomes, and every run is replayable\n"
      "from its seed at any draw_threads count.\n");
  return 0;
}
