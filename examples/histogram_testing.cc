// Property-testing demo: decide from samples alone whether a data
// distribution is (close to) a small histogram — Algorithm 2 in both norms,
// driven through the engine facade.
//
// Scenario: a data-quality audit wants to know if an attribute's
// distribution is "simple" (piecewise constant with few pieces) before
// committing to a compact histogram synopsis. Reading all n bins is exactly
// what the sub-linear tester avoids.
//
//   build/examples/example_histogram_testing
#include <cstdio>
#include <iostream>

#include "baseline/far_instances.h"
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

  Rng rng(1234);

  struct Case {
    const char* name;
    Distribution dist;
    const char* truth;
  };
  std::vector<Case> cases;
  cases.push_back(
      {"exact 6-histogram", MakeRandomKHistogram(kN, kK, rng, 15.0).dist, "YES"});
  cases.push_back({"uniform (1 piece)", Distribution::Uniform(kN), "YES"});
  cases.push_back({"slightly noisy 6-hist",
                   MakeNoisy(MakeRandomKHistogram(kN, kK, rng, 15.0).dist, 0.02, rng),
                   "close"});
  cases.push_back({"zigzag (L1-far)", MakeZigzagL1Far(kN, kK, 0.4), "NO (L1)"});
  const auto spikes = MakeL2FarSpikes(kN, kK, 0.2);
  if (spikes) cases.push_back({"isolated spikes (L2-far)", spikes->dist, "NO (L2)"});

  // Two test specs per case; the engine validates them and meters draws.
  TestSpec l2;
  l2.seed = 1234;
  l2.config.k = kK;
  l2.config.eps = 0.2;
  l2.config.norm = Norm::kL2;
  l2.config.r_override = 9;

  TestSpec l1 = l2;
  l1.config.norm = Norm::kL1;
  l1.config.eps = 0.4;
  l1.config.sample_scale = 0.002;  // the 2^13/eps^5 constant is union-bound slack

  Table table({"distribution", "truth", "L2 verdict", "L1 verdict", "L2 samples",
               "L1 samples"});
  for (const auto& c : cases) {
    const AliasSampler sampler(c.dist);
    const Engine engine(sampler);
    const Result<Report> run2 = engine.Run(l2);
    const Result<Report> run1 = engine.Run(l1);
    if (!run2.ok() || !run1.ok()) {
      std::printf("spec rejected: %s\n",
                  (!run2.ok() ? run2 : run1).status().ToString().c_str());
      return 1;
    }
    const Report& r2 = *run2;
    const Report& r1 = *run1;
    table.AddRow({c.name, c.truth,
                  r2.outcome == TaskOutcome::kAccepted ? "accept" : "reject",
                  r1.outcome == TaskOutcome::kAccepted ? "accept" : "reject",
                  FmtI(r2.telemetry.samples_drawn), FmtI(r1.telemetry.samples_drawn)});
  }
  table.Print(std::cout);
  std::printf(
      "\nNotes: both testers read a sub-linear number of samples (domain\n"
      "size n=%lld). 'close' inputs may legitimately go either way — the\n"
      "property-testing promise only separates exact members from eps-far\n"
      "ones. The L1 tester needs ~sqrt(kn) samples (Thms 4-5), the L2\n"
      "tester only polylog(n) (Thm 3).\n",
      static_cast<long long>(kN));
  return 0;
}
