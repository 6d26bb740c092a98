// E2 — Theorem 1 vs Theorem 2 running time: full O(n^2) interval
// enumeration vs sample-endpoint candidates.
//
// Shared samples, fixed (k, eps); sweep n. The full enumeration's
// per-iteration cost grows ~n^2 while the restricted set's cost is governed
// by the (thinned) sample-endpoint count, independent of n^2 — the paper's
// O~((k/eps)^2 n^2) -> O~((k/eps)^2 ln n)-style collapse. Quality on shared
// samples must stay essentially identical (Theorem 2 gives up 3*eps at
// most; in practice far less).
//
// The learn-scaling grid (n x k, eps 0.3, scale 0.25, kCounts sampler,
// histkd's default) then splits a cold learn into draw, candidate-table
// fill and scan time plus the table's bytes, recorded in BENCH_e2.json.
// Each cell also records the fill's cost per candidate pair
// (fill_ns_per_pair), the scan's cost per pair per iteration run
// (scan_ns_per_pair), and prints the lane width its median selection ran on:
// float when every collision set's count stays below 2^24, else double
// (MedianFillUsesFloatLanes). greedy_differential_test pins the search's
// answers to the per-candidate reference (tests/greedy_reference.h).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "benchutil/harness.h"
#include "core/greedy.h"
#include "dist/distribution.h"
#include "dist/generators.h"
#include "dist/sampler.h"
#include "histogram/tiling.h"
#include "stats/bounds.h"
#include "stats/estimators.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace histk {
namespace {

constexpr int64_t kK = 4;
constexpr double kEps = 0.2;
// A fixed, n-independent sample budget isolates the enumeration cost and
// keeps the endpoint set sparse relative to large domains.
constexpr double kScaleAt1024 = 0.25;

struct Prepared {
  Distribution dist;
  GreedyParams params;
  std::unique_ptr<GreedyEstimator> est;
};

Prepared Prepare(int64_t n) {
  Rng rng(0xE2 + static_cast<uint64_t>(n));
  Prepared p{MakeRandomKHistogram(n, kK, rng, 30.0).dist, {}, {}};
  // Same absolute sample counts for every n (formula at n=1024, fixed).
  p.params = ComputeGreedyParams(1024, kK, kEps, kScaleAt1024);
  p.params.r = 9;  // identical for both strategies; shrinks the constant
  const AliasSampler sampler(p.dist);
  p.est = std::make_unique<GreedyEstimator>(GreedyEstimator::Draw(sampler, p.params, rng));
  return p;
}

LearnOptions Options(CandidateStrategy strategy) {
  LearnOptions opt;
  opt.k = kK;
  opt.eps = kEps;
  opt.strategy = strategy;
  opt.max_candidates = 500'000;
  return opt;
}

void RunStrategyTable() {
  Table table({"n", "cands(slow)", "cands(fast)", "t_slow(s)", "t_fast(s)", "speedup",
               "err_slow", "err_fast"});

  for (int64_t n : {256, 1024, 2048, 16384, 65536}) {
    const Prepared prep = Prepare(n);
    const bool run_slow = n <= 2048;

    double t_slow = 0.0, err_slow = 0.0;
    int64_t cand_slow = n * (n + 1) / 2;
    if (run_slow) {
      WallTimer timer;
      const LearnResult rs = LearnHistogramWithEstimator(
          *prep.est, Options(CandidateStrategy::kAllIntervals), prep.params);
      t_slow = timer.ElapsedSeconds();
      err_slow = rs.tiling.L2SquaredErrorTo(prep.dist);
      cand_slow = rs.candidates_per_iter;
    }

    WallTimer timer;
    const LearnResult rf = LearnHistogramWithEstimator(
        *prep.est, Options(CandidateStrategy::kSampleEndpoints), prep.params);
    const double t_fast = timer.ElapsedSeconds();
    const double err_fast = rf.tiling.L2SquaredErrorTo(prep.dist);

    table.AddRow({FmtI(n), run_slow ? FmtI(cand_slow) : "-", FmtI(rf.candidates_per_iter),
                  run_slow ? FmtF(t_slow, 3) : "-", FmtF(t_fast, 3),
                  run_slow ? FmtF(t_slow / std::max(t_fast, 1e-9), 1) + "x" : "-",
                  run_slow ? FmtE(err_slow, 2) : "-", FmtE(err_fast, 2)});
  }
  table.Print(std::cout);
  std::printf(
      "\nshape check: t_slow grows ~n^2 (4x per doubling of candidates);\n"
      "t_fast is flat in n once the endpoint set saturates; errors match\n"
      "on shared samples (Theorem 2's quality cost is negligible here).\n");
}

/// One cold learn split into its phases. The search's poll hook runs once
/// per table-fill row and then once per scan row, so the (d+1)-th call
/// marks the end of the fill (plus the first iteration's O(d r) remnant
/// costs); everything after it is the per-iteration scans.
struct LearnSplit {
  double draw_ms = 0.0;
  double fill_ms = 0.0;
  double scan_ms = 0.0;
  double table_bytes = 0.0;
  double fill_ns_per_pair = 0.0;
  double scan_ns_per_pair = 0.0;  ///< scan time / (iterations run x pairs)
  bool float_lanes = false;  ///< the fill's median selection ran on floats
};

LearnSplit TimeColdLearn(int64_t n, int64_t k, uint64_t seed) {
  Rng rng(seed);
  const Distribution dist = MakeRandomKHistogram(n, k, rng, 20.0).dist;
  const AliasSampler sampler(dist, AliasKernel::kCounts);
  LearnOptions options;
  options.k = k;
  options.eps = 0.3;
  options.sample_scale = 0.25;
  const GreedyParams params = ComputeLearnParams(n, options);

  LearnSplit split;
  WallTimer draw_timer;
  const GreedyEstimator est = GreedyEstimator::Draw(sampler, params, rng);
  split.draw_ms = draw_timer.ElapsedMillis();

  std::vector<double> polls_ms;
  const WallTimer search_timer;
  const LearnResult result = LearnHistogramWithEstimator(
      est, options, params, [&] { polls_ms.push_back(search_timer.ElapsedMillis()); });
  const double search_ms = search_timer.ElapsedMillis();
  const auto d = static_cast<size_t>(result.endpoints_after_thinning);
  split.fill_ms = polls_ms.size() > d ? polls_ms[d] : search_ms;
  split.scan_ms = search_ms - split.fill_ms;
  split.table_bytes = static_cast<double>(result.candidate_table_bytes);
  split.fill_ns_per_pair =
      split.fill_ms * 1e6 / static_cast<double>(result.candidates_per_iter);
  // Every iteration run polls once per row, d times.
  const size_t iterations = d > 0 ? polls_ms.size() / d - 1 : 0;
  if (iterations > 0) {
    split.scan_ns_per_pair =
        split.scan_ms * 1e6 /
        (static_cast<double>(iterations) * static_cast<double>(result.candidates_per_iter));
  }
  split.float_lanes = MedianFillUsesFloatLanes(est.group());
  return split;
}

void RunScalingGrid() {
  std::printf(
      "\nlearn-scaling grid: eps=0.3, scale=0.25, kCounts sampler, sample "
      "endpoints, 3 seeds per cell (mean shown)\n");
  Table table({"n", "k", "draw(ms)", "fill(ms)", "fill(ns/pair)", "lanes", "scan(ms)",
               "scan(ns/pair)", "table(MiB)"});
  constexpr int64_t kTrials = 3;
  for (int64_t n : {256, 4096, 65536}) {
    for (int64_t k : {4, 16}) {
      std::vector<LearnSplit> runs;
      for (int64_t t = 0; t < kTrials; ++t) {
        runs.push_back(TimeColdLearn(n, k, 0xE2A0 + 131 * static_cast<uint64_t>(t)));
      }
      const std::string tag = "learn_n" + std::to_string(n) + "_k" + std::to_string(k);
      auto record = [&](const char* metric, double LearnSplit::*field) {
        NextBenchLabel(tag + "_" + metric);
        return MeasureScalar(kTrials, [&](int64_t t) {
          return runs[static_cast<size_t>(t)].*field;
        });
      };
      const ScalarStats draw = record("draw_ms", &LearnSplit::draw_ms);
      const ScalarStats fill = record("fill_ms", &LearnSplit::fill_ms);
      const ScalarStats scan = record("scan_ms", &LearnSplit::scan_ms);
      const ScalarStats bytes = record("table_bytes", &LearnSplit::table_bytes);
      const ScalarStats per_pair =
          record("fill_ns_per_pair", &LearnSplit::fill_ns_per_pair);
      const ScalarStats scan_per_pair =
          record("scan_ns_per_pair", &LearnSplit::scan_ns_per_pair);
      const auto floats = std::count_if(
          runs.begin(), runs.end(), [](const LearnSplit& s) { return s.float_lanes; });
      const std::string lanes = floats == kTrials ? "float"
                                : floats == 0     ? "double"
                                                  : "mixed";
      table.AddRow({FmtI(n), FmtI(k), FmtF(draw.mean, 2), FmtF(fill.mean, 1),
                    FmtF(per_pair.mean, 1), lanes, FmtF(scan.mean, 1),
                    FmtF(scan_per_pair.mean, 2), FmtF(bytes.mean / (1024.0 * 1024.0), 2)});
    }
  }
  table.Print(std::cout);
}

void RunExperiment() {
  PrintExperimentHeader(
      "e2: enumeration runtime and learn scaling (Thm 1 vs 2)",
      "running time drops from O~((k/eps)^2 n^2) to ~n-independent; the "
      "candidate-cost table makes the search cost about what the draws cost",
      "strategy table: k=4, eps=0.2, shared samples (budget fixed across n), "
      "slow strategy skipped for n > 2048; scaling grid: n x k, eps=0.3, "
      "scale=0.25, kCounts");
  RunStrategyTable();
  RunScalingGrid();
}

// google-benchmark timing of the per-strategy kernel at one mid-size n,
// for stable-state numbers alongside the table.
void BM_SlowEnumeration(benchmark::State& state) {
  static const Prepared prep = Prepare(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LearnHistogramWithEstimator(
        *prep.est, Options(CandidateStrategy::kAllIntervals), prep.params));
  }
}
BENCHMARK(BM_SlowEnumeration)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_FastEnumeration(benchmark::State& state) {
  static const Prepared prep = Prepare(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LearnHistogramWithEstimator(
        *prep.est, Options(CandidateStrategy::kSampleEndpoints), prep.params));
  }
}
BENCHMARK(BM_FastEnumeration)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_E2(benchmark::State& state) {
  for (auto _ : state) RunExperiment();
}
BENCHMARK(BM_E2)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace histk

BENCHMARK_MAIN();
