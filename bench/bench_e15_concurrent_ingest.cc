// E15 — lock-free concurrent ingest (stream/concurrent_histogram.h): the
// cost of the telemetry pipeline this repo now runs Engine tasks from.
//
// Three question groups:
//   1. insert — ns per Record() from w concurrent writer threads. The
//      design target is a handful of ns (one relaxed fetch_add plus key
//      arithmetic) and near-flat scaling across w: writers land on
//      distinct shards, so adding threads must not add contention;
//   2. read side — Snapshot() (O(shards x buckets) relaxed loads) and
//      snapshot Merge (O(buckets) adds), both in microseconds: cheap
//      enough to run on a scrape/alert cadence;
//   3. end-to-end — ingested snapshot -> ToBucketDistribution bridge ->
//      TelemetrySession -> Engine learn on a small latency domain: the full
//      "synopsis from live traffic" path of `histk_cli ingest | learn
//      --from-sketch`, which must stay interactive (well under a second).
//
// HISTK_E15_SMOKE=1 shrinks the stream to 2^20 values and skips the
// multi-writer sweep so CI finishes in seconds; the emitted BENCH_e15.json
// then matches bench/baselines/BENCH_e15.json record-for-record (CI
// smoke-diffs it via perf_diff.py --strict-labels). The full run (the
// scheduled bench-full workflow) sweeps w in {1, 2, 4, 8} on a 2^23-value
// stream.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "benchutil/harness.h"
#include "engine/engine.h"
#include "engine/telemetry.h"
#include "stream/concurrent_histogram.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/table.h"
#include "util/timer.h"

namespace histk {
namespace {

bool SmokeMode() {
  const char* flag = std::getenv("HISTK_E15_SMOKE");
  return flag != nullptr && std::string(flag) == "1";
}

// Latency-shaped values (sub-second in "nanoseconds"), pre-generated so the
// timed region is Record() and nothing else.
std::vector<uint64_t> MakeValues(int64_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> values(static_cast<size_t>(count));
  for (uint64_t& v : values) v = rng.NextU64() % 1'000'000;
  return values;
}

// Wall seconds for `writers` threads to push their pre-assigned slices.
double TimedIngest(ConcurrentHistogram& hist,
                   const std::vector<std::vector<uint64_t>>& slices) {
  const WallTimer timer;
  if (slices.size() == 1) {
    for (uint64_t v : slices[0]) hist.Record(v);
    return timer.ElapsedSeconds();
  }
  std::vector<std::thread> pool;
  pool.reserve(slices.size());
  for (const std::vector<uint64_t>& slice : slices) {
    pool.emplace_back([&hist, &slice] {
      for (uint64_t v : slice) hist.Record(v);
    });
  }
  for (std::thread& t : pool) t.join();
  return timer.ElapsedSeconds();
}

double MeasureInsertNs(int writers, int64_t total_values, int64_t trials) {
  std::vector<std::vector<uint64_t>> slices(static_cast<size_t>(writers));
  for (int w = 0; w < writers; ++w) {
    slices[static_cast<size_t>(w)] =
        MakeValues(total_values / writers, 0xE15 + static_cast<uint64_t>(w));
  }
  return MeasureScalar(trials, [&](int64_t) {
    ConcurrentHistogram hist;  // fresh counters per trial
    const double s = TimedIngest(hist, slices);
    return s * 1e9 / static_cast<double>(total_values);
  }).mean;
}

void RunExperiment() {
  const bool smoke = SmokeMode();
  const int64_t kStream = smoke ? (int64_t{1} << 20) : (int64_t{1} << 23);
  const int64_t trials = smoke ? 3 : 5;

  PrintExperimentHeader(
      "e15: lock-free concurrent ingest (sharded log-bucket histograms)",
      "Record() is a few ns and near-flat across writer counts (per-thread "
      "shards, relaxed atomics, no locks); snapshot+merge stay in "
      "microseconds; telemetry-to-learned-synopsis is interactive",
      std::string("values = u64 latencies < 1e6, default mantissa bits; ") +
          (smoke ? "SMOKE (2^20 values, w=1 only)" : "full (2^23 values, w sweep)"));

  // ---------------------------------------------------------- 1. inserts
  Table insert_table({"writers", "ns/insert"});
  NextBenchLabel("ingest_record_w1_ns_per_insert");
  const double w1 = MeasureInsertNs(1, kStream, trials);
  insert_table.AddRow({"1", FmtF(w1, 2)});
  if (!smoke) {
    for (int w : {2, 4, 8}) {
      NextBenchLabel("sweep_ingest_record_w" + std::to_string(w) +
                     "_ns_per_insert");
      const double ns = MeasureInsertNs(w, kStream, trials);
      insert_table.AddRow({std::to_string(w), FmtF(ns, 2)});
    }
  }
  insert_table.Print(std::cout);

  // --------------------------------------------------------- 2. read side
  ConcurrentHistogram hist;
  for (uint64_t v : MakeValues(kStream, 0xE15F)) hist.Record(v);

  NextBenchLabel("ingest_snapshot_us");
  const double snap_us = MeasureScalar(trials, [&](int64_t) {
    const WallTimer timer;
    benchmark::DoNotOptimize(hist.Snapshot().TotalCount());
    return timer.ElapsedSeconds() * 1e6;
  }).mean;

  const HistogramSnapshot left = hist.Snapshot();
  const HistogramSnapshot right = left;
  NextBenchLabel("ingest_merge_us");
  const double merge_us = MeasureScalar(trials, [&](int64_t) {
    // The copy stays outside the timed region so the label measures the
    // Merge walk itself, not accumulator setup.
    HistogramSnapshot acc = left;
    const WallTimer timer;
    acc.Merge(right);
    benchmark::DoNotOptimize(acc.TotalCount());
    return timer.ElapsedSeconds() * 1e6;
  }).mean;

  Table read_table({"op", "us"});
  read_table.AddRow({"snapshot", FmtF(snap_us, 1)});
  read_table.AddRow({"merge", FmtF(merge_us, 1)});
  read_table.Print(std::cout);

  // -------------------------------------------------------- 3. end-to-end
  // A small service-latency domain (256 distinct "milliseconds") keeps the
  // learner at the e14 smoke combo's cost; the wide-domain ingest cost is
  // already covered by groups 1-2, and greedy-learn runtime vs n is
  // bench_e2's question, not this one.
  ConcurrentHistogram narrow;
  for (uint64_t v : MakeValues(kStream, 0xE15F)) narrow.Record(v % 256);

  NextBenchLabel("ingest_bridge_learn_s");
  MeasureScalar(trials, [&](int64_t trial) {
    const WallTimer timer;
    const Result<TelemetrySession> session =
        TelemetrySession::FromSnapshot(narrow.Snapshot());
    HISTK_CHECK(session.ok());
    LearnSpec spec;
    spec.seed = 0xE15 + static_cast<uint64_t>(trial);
    spec.options.k = 4;
    spec.options.eps = 0.3;
    // Half-scale budgets, like bench_e14: the question is pipeline latency,
    // not learner accuracy, and scale cancels in the baseline diff.
    spec.options.sample_scale = 0.5;
    const Result<Report> report = session->Run(spec);
    HISTK_CHECK(report.ok() && report->learn.has_value());
    benchmark::DoNotOptimize(report->learn->tiling.k());
    return timer.ElapsedSeconds();
  });

  std::printf(
      "\nshape check: w1 ns/insert in the single digits to low tens; the\n"
      "full-mode sweep stays near-flat from w=1 to w=8 (per-thread shards:\n"
      "more writers, same per-insert cost); snapshot and merge are\n"
      "microsecond-scale; bridge+learn completes in interactive time.\n"
      "BENCH_e15.json accumulates the records; CI smoke-diffs against\n"
      "bench/baselines/BENCH_e15.json.\n");
}

void BM_E15(benchmark::State& state) {
  for (auto _ : state) RunExperiment();
}
BENCHMARK(BM_E15)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace histk

BENCHMARK_MAIN();
