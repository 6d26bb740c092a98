// E14 — the histogram-property testers (core/property_tester.h): sample
// complexity and power of the CDKL22-flavored is-k-histogram tester and the
// DKN17-flavored closeness tester, as shipped behind the engine's
// PropertyTestSpec / ClosenessSpec.
//
// Three question groups:
//   1. budget — the derived sample counts vs n, k, eps, and the savings
//      ratio against the paper's reference L2 tester at the same (n, eps)
//      (the CDKL22 rate should win by orders of magnitude and grow ~sqrt(n)
//      rather than rebuying eps^-4 per set);
//   2. power — accept rates on true k-histograms / identical pairs and on
//      certified far instances (spikes, within-piece zigzag, mass-shift and
//      independent far pairs); the acceptance bar is >= 95% / <= 5%;
//   3. runtime — end-to-end wall seconds per tester run at the smoke combo.
//
// HISTK_E14_SMOKE=1 shrinks the grid to the n=256 combo and 3 trials so CI
// finishes in seconds; the emitted BENCH_e14.json then matches the
// checked-in bench/baselines/BENCH_e14.json record-for-record. The full run
// (scheduled bench-full workflow) sweeps n, k, eps.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "baseline/far_instances.h"
#include "benchutil/harness.h"
#include "core/property_tester.h"
#include "dist/generators.h"
#include "dist/sampler.h"
#include "stats/bounds.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace histk {
namespace {

bool SmokeMode() {
  const char* flag = std::getenv("HISTK_E14_SMOKE");
  return flag != nullptr && std::string(flag) == "1";
}

constexpr double kScale = 0.5;  // all runs at half the formula budgets

std::string ComboTag(int64_t n, int64_t k, double eps) {
  return "n" + std::to_string(n) + "_k" + std::to_string(k) + "_eps" +
         std::to_string(static_cast<int>(eps * 100));
}

PropertyTestConfig PropertyConfig(int64_t k, double eps) {
  PropertyTestConfig cfg;
  cfg.k = k;
  cfg.eps = eps;
  cfg.sample_scale = kScale;
  return cfg;
}

ClosenessConfig CloseConfig(int64_t k, double eps) {
  ClosenessConfig cfg;
  cfg.k_p = k;
  cfg.k_q = k;
  cfg.eps = eps;
  cfg.sample_scale = kScale;
  return cfg;
}

void RunExperiment() {
  const bool smoke = SmokeMode();
  PrintExperimentHeader(
      "e14: histogram-property testers (is-k-histogram + closeness)",
      "CDKL22-rate is-k-histogram and DKN17-rate closeness testing as "
      "budgeted engine tasks: sub-eps^-4 budgets with >= 95% empirical power",
      std::string("YES = random tiling k-histograms / identical pairs; NO = "
                  "certified far instances and far pairs; scale 0.5; ") +
          (smoke ? "SMOKE grid (n=256, 3 trials)" : "full grid (6 trials)"));

  struct Combo {
    int64_t n, k;
    double eps;
  };
  std::vector<Combo> combos = {{256, 4, 0.3}};
  if (!smoke) {
    combos.push_back({1024, 4, 0.3});
    combos.push_back({4096, 4, 0.3});
    combos.push_back({1024, 8, 0.3});
    combos.push_back({1024, 4, 0.2});
  }
  const int64_t trials = smoke ? 3 : 6;

  // ---------------------------------------------------------- 1. budgets
  Table budget_table({"n", "k", "eps", "ptest samples", "ref L2 samples",
                      "savings", "closeness samples"});
  for (const Combo c : combos) {
    const PropertyTesterParams pt =
        ComputePropertyTesterParams(c.n, c.k, c.eps, kScale);
    const TesterParams ref = ComputeL2TesterParams(c.n, c.eps, kScale);
    const ClosenessParams cl = ComputeClosenessParams(c.n, c.k, c.k, c.eps, kScale);
    const std::string tag = ComboTag(c.n, c.k, c.eps);
    NextBenchLabel("ptest_total_" + tag + "_samples");
    MeasureScalar(1, [&](int64_t) { return static_cast<double>(pt.TotalSamples()); });
    NextBenchLabel("ptest_vs_l2ref_" + tag + "_savings_x");
    MeasureScalar(1, [&](int64_t) {
      return static_cast<double>(ref.TotalSamples()) /
             static_cast<double>(pt.TotalSamples());
    });
    NextBenchLabel("close_total_" + tag + "_samples");
    MeasureScalar(1, [&](int64_t) { return static_cast<double>(cl.TotalSamples()); });
    budget_table.AddRow({FmtI(c.n), std::to_string(c.k), FmtF(c.eps, 2),
                         FmtI(pt.TotalSamples()), FmtI(ref.TotalSamples()),
                         FmtF(static_cast<double>(ref.TotalSamples()) /
                                  static_cast<double>(pt.TotalSamples()),
                              1) + "x",
                         FmtI(cl.TotalSamples())});
  }
  budget_table.Print(std::cout);

  // ------------------------------------------------------------ 2. power
  Table power_table({"n", "k", "eps", "yes-rate", "spikes", "within-zz",
                     "pair-yes", "pair-mass", "pair-indep"});
  for (const Combo c : combos) {
    const std::string tag = ComboTag(c.n, c.k, c.eps);
    const PropertyTestConfig pcfg = PropertyConfig(c.k, c.eps);
    const ClosenessConfig ccfg = CloseConfig(c.k, c.eps);
    Rng rng(0xE14 ^ static_cast<uint64_t>(c.n * 131 + c.k * 7 +
                                          static_cast<int64_t>(c.eps * 100)));

    NextBenchLabel("ptest_yes_" + tag + "_rate");
    const AcceptRate yes = MeasureRate(trials, [&](int64_t) {
      const HistogramSpec spec = MakeRandomKHistogram(c.n, c.k, rng, 20.0);
      const AliasSampler sampler(spec.dist);
      return TestIsKHistogram(sampler, pcfg, rng).accepted;
    });

    const auto spikes = MakeL2FarSpikes(c.n, c.k, c.eps);
    AcceptRate no_spikes{0, 0, 0, 0};
    if (spikes) {
      const AliasSampler sampler(spikes->dist);
      NextBenchLabel("ptest_no_spikes_" + tag + "_false_accept");
      no_spikes = MeasureRate(trials, [&](int64_t) {
        return TestIsKHistogram(sampler, pcfg, rng).accepted;
      });
    }

    const auto within = MakeL1FarWithinPieceZigzag(c.n, c.k, c.eps, 0xE14 + c.n);
    AcceptRate no_within{0, 0, 0, 0};
    if (within) {
      const AliasSampler sampler(within->dist);
      NextBenchLabel("ptest_no_withinzz_" + tag + "_false_accept");
      no_within = MeasureRate(trials, [&](int64_t) {
        return TestIsKHistogram(sampler, pcfg, rng).accepted;
      });
    }

    NextBenchLabel("close_yes_" + tag + "_rate");
    const AcceptRate pair_yes = MeasureRate(trials, [&](int64_t) {
      const HistogramSpec spec = MakeRandomKHistogram(c.n, c.k, rng, 15.0);
      const AliasSampler sp(spec.dist);
      const AliasSampler sq(spec.dist);
      return TestCloseness(sp, sq, ccfg, rng).accepted;
    });

    const auto mass_pair = MakeFarPairMassShift(c.n, c.k, c.eps, 0xE14 + c.k);
    AcceptRate pair_mass{0, 0, 0, 0};
    if (mass_pair) {
      const AliasSampler sp(mass_pair->p);
      const AliasSampler sq(mass_pair->q);
      NextBenchLabel("close_no_massshift_" + tag + "_false_accept");
      pair_mass = MeasureRate(trials, [&](int64_t) {
        return TestCloseness(sp, sq, ccfg, rng).accepted;
      });
    }

    const auto indep_pair = MakeFarPairIndependent(c.n, c.k, c.eps, 0xE14 + 3 * c.k);
    AcceptRate pair_indep{0, 0, 0, 0};
    if (indep_pair) {
      const AliasSampler sp(indep_pair->p);
      const AliasSampler sq(indep_pair->q);
      NextBenchLabel("close_no_indep_" + tag + "_false_accept");
      pair_indep = MeasureRate(trials, [&](int64_t) {
        return TestCloseness(sp, sq, ccfg, rng).accepted;
      });
    }

    power_table.AddRow({FmtI(c.n), std::to_string(c.k), FmtF(c.eps, 2),
                        FmtRate(yes), spikes ? FmtRate(no_spikes) : "n/a",
                        within ? FmtRate(no_within) : "n/a", FmtRate(pair_yes),
                        mass_pair ? FmtRate(pair_mass) : "n/a",
                        indep_pair ? FmtRate(pair_indep) : "n/a"});
  }
  power_table.Print(std::cout);

  // ---------------------------------------------------------- 3. runtime
  {
    const Combo c = combos.front();
    Rng gen(0xE14F);
    const HistogramSpec spec = MakeRandomKHistogram(c.n, c.k, gen, 20.0);
    const AliasSampler sampler(spec.dist);
    const PropertyTestConfig pcfg = PropertyConfig(c.k, c.eps);
    Rng rng(0xE14E);
    NextBenchLabel("ptest_run_" + ComboTag(c.n, c.k, c.eps) + "_s");
    MeasureScalar(trials, [&](int64_t) {
      const WallTimer timer;
      benchmark::DoNotOptimize(TestIsKHistogram(sampler, pcfg, rng).accepted);
      return timer.ElapsedSeconds();
    });
    const AliasSampler sq(spec.dist);
    const ClosenessConfig ccfg = CloseConfig(c.k, c.eps);
    NextBenchLabel("close_run_" + ComboTag(c.n, c.k, c.eps) + "_s");
    MeasureScalar(trials, [&](int64_t) {
      const WallTimer timer;
      benchmark::DoNotOptimize(TestCloseness(sampler, sq, ccfg, rng).accepted);
      return timer.ElapsedSeconds();
    });
  }

  std::printf(
      "\nshape check: yes-rates >= 0.95 and no-rates <= 0.05 everywhere; the\n"
      "ptest budget beats the reference L2 tester by a widening factor as\n"
      "eps tightens (eps^-2 vs eps^-4) and grows ~sqrt(n) across the n\n"
      "column. BENCH_e14.json accumulates the records; CI smoke-diffs the\n"
      "n=256 subset against bench/baselines/BENCH_e14.json.\n");
}

void BM_E14(benchmark::State& state) {
  for (auto _ : state) RunExperiment();
}
BENCHMARK(BM_E14)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace histk

BENCHMARK_MAIN();
