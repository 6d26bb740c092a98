// E12 — bucket backend at huge domains: construction and sampling costs
// must follow k, not n.
//
// Sweep n in {2^24, 2^27, 2^30} x k in {10, 100, 1000}: build a random
// tiling k-histogram (bucket backend above the auto threshold — all of
// these), construct its AliasSampler, draw 10^6 samples single-threaded and
// through the sharded 8-worker path, and answer a batch of interval/
// quantile queries. The headline shape: per-draw time is flat across a
// 64x growth in n (the alias table has k columns, not n), and build time is
// O(k) — constructing n = 2^30 with k = 10 is ~instant where the dense
// backend would need an 8 GB vector.
//
// The recorded BENCH_e12.json is the first entry of the perf trajectory
// tracked in ROADMAP.md.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <iostream>

#include "benchutil/harness.h"
#include "dist/distribution.h"
#include "dist/generators.h"
#include "dist/quantiles.h"
#include "dist/sampler.h"
#include "util/interval.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace histk {
namespace {

constexpr int64_t kDraws = 1'000'000;

struct Cell {
  double build_s = 0.0;
  double alias_build_s = 0.0;
  double draw_s = 0.0;
  double sharded_s = 0.0;
  double query_s = 0.0;
};

Cell Measure(int64_t n, int64_t k) {
  Rng rng(0xE12 ^ static_cast<uint64_t>(n) ^ (static_cast<uint64_t>(k) << 40));
  Cell cell;

  WallTimer build_timer;
  const HistogramSpec spec = MakeRandomKHistogram(n, k, rng, 25.0);
  cell.build_s = build_timer.ElapsedSeconds();

  WallTimer alias_timer;
  const AliasSampler sampler(spec.dist);
  cell.alias_build_s = alias_timer.ElapsedSeconds();

  Rng draw_rng(7);
  WallTimer draw_timer;
  const auto draws = sampler.DrawMany(kDraws, draw_rng);
  cell.draw_s = draw_timer.ElapsedSeconds();
  benchmark::DoNotOptimize(draws.data());

  Rng shard_rng(7);
  WallTimer shard_timer;
  const auto sharded = sampler.DrawManySharded(kDraws, shard_rng, 8);
  cell.sharded_s = shard_timer.ElapsedSeconds();
  benchmark::DoNotOptimize(sharded.data());

  WallTimer query_timer;
  double acc = 0.0;
  for (int q = 0; q < 1000; ++q) {
    const int64_t a = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(n)));
    const int64_t b = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(n)));
    const Interval I(std::min(a, b), std::max(a, b));
    acc += spec.dist.Weight(I) + spec.dist.IntervalSse(I);
    acc += static_cast<double>(Quantile(spec.dist, rng.NextDouble()));
  }
  benchmark::DoNotOptimize(acc);
  cell.query_s = query_timer.ElapsedSeconds();
  return cell;
}

void RunExperiment() {
  PrintExperimentHeader(
      "e12: huge-domain bucket backend (build + DrawMany vs n, k)",
      "representation cost follows k, not n: O(k) build, O(1)/draw sampling",
      "random tiling k-histograms, bucket backend; 10^6 draws per cell; "
      "sharded path uses 8 workers in 2^16-draw chunks");

  Table table({"n", "k", "build(s)", "alias(s)", "ns/draw", "ns/draw(x8)",
               "q/s"});
  for (int64_t n : {int64_t{1} << 24, int64_t{1} << 27, int64_t{1} << 30}) {
    for (int64_t k : {10, 100, 1000}) {
      NextBenchLabel("n=2^" + std::to_string(63 - __builtin_clzll(n)) +
                     ",k=" + std::to_string(k));
      Cell cell;
      const ScalarStats per_draw_ns = MeasureScalar(3, [&](int64_t) {
        cell = Measure(n, k);
        return cell.draw_s / static_cast<double>(kDraws) * 1e9;
      });
      table.AddRow({FmtI(n), FmtI(k), FmtE(cell.build_s, 2),
                    FmtE(cell.alias_build_s, 2), FmtF(per_draw_ns.mean, 1),
                    FmtF(cell.sharded_s / static_cast<double>(kDraws) * 1e9, 1),
                    FmtE(3000.0 / cell.query_s, 2)});
    }
  }
  table.Print(std::cout);
  std::printf(
      "\nshape check: ns/draw is flat in n (alias over k buckets + uniform\n"
      "offset) and build time tracks k only. ns/draw(x8) uses the sharded\n"
      "path, whose output is byte-identical at any worker count; its\n"
      "wall-clock gain scales with the cores actually available (on a\n"
      "single-core host it matches the serial loop, as chunking overhead\n"
      "is ~5%%). The dense backend cannot even represent these domains\n"
      "(2^30 doubles = 8 GB).\n");
}

void BM_E12(benchmark::State& state) {
  for (auto _ : state) RunExperiment();
}
BENCHMARK(BM_E12)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace histk

BENCHMARK_MAIN();
