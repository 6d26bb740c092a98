// E13 — the draw pipeline itself: alias kernel throughput and the fused
// draw→SampleSet path against the materialize-then-count baseline.
//
// Five question groups:
//   1. alias ns/draw — the batched DrawManyInto replay kernel
//      (byte-identical to the historical stream), dense (n = 2^20) and
//      bucketed (n = 2^30, k = 1000); there is no fixed bar, perf_diff
//      tracks both rows against the checked-in baseline (which records
//      dense at 23.9 ns/draw and bucketed at 12.9). Full mode adds a
//      w in {1,2,4,8} threads sweep over the sharded draw/count paths of
//      a kCounts bucket sampler for the weekly multi-core runner.
//   2. fused vs materialize — SampleSet::Draw (Sampler::DrawCounts through
//      SampleCounter) against the historical pipeline that materializes an
//      m-element draw vector and re-scans it (plus, sparse, copies and
//      globally sorts it). Reported per variant and as a speedup ratio;
//      the acceptance bar is >= 2x at m = 10^7 on the bucketed backend.
//   3. scaling — the bucketed pipeline comparison at m = 10^6..10^8.
//   4. the count kernel (AliasKernel::kCounts) — SampleSet::Draw over a
//      dense, a bucketed and a dataset oracle at n = 256, in ns per
//      requested draw at m = 2^16, 2^20 and 2^22, plus the same-run
//      replay/counts time ratio on the dataset oracle (the histkd case).
//      These rows run at full size in smoke mode too: a block costs
//      O(support) binomials, so even m = 2^22 takes about a millisecond.
//   5. one ingest-shaped group — the draw layer of a histkd `test` request
//      on 20,000 inline items: SampleSetGroup::Draw of r = 207 sets of
//      m = 10,954 draws over n = 256 from a kCounts DatasetSampler, split
//      into the whole group, the set assembly alone (pre-drawn count
//      vectors written into the group's rows, as the oracle's
//      DrawCountsInto writes its draws, then the prefix pass), the
//      per-set-route-over-direct speedup (the same group drawn through a
//      forwarding oracle that has only DrawManyInto and DrawCounts, so
//      each set goes through a SampleCounter and the kernel's DrawCounts,
//      over the group drawn straight into its rows: the median ratio over
//      interleaved pairs in one run; CI requires >= 1.15), the
//      conditional binomial chain alone (ns per support entry; single sets
//      still draw through it), the group plan that the group path draws
//      through (its build in us, its bytes, and ns per support entry for
//      the r blocks through DrawCounts with the build and the fix-up draws
//      included), the chain-over-plan speedup (the same kind of median;
//      CI requires >= 2), and the minor page faults a warm group
//      costs (median over 20 groups). It runs first, and at full size in
//      smoke mode too: once earlier rows free their large batches, glibc's
//      dynamic mmap threshold rises, and the fault count would no longer
//      show whether the group's own storage stays resident.
//
// HISTK_E13_SMOKE=1 shrinks every other batch to <= 10^6 draws and skips the
// 10^8 rows so CI can run the experiment in seconds; the emitted
// BENCH_e13.json then matches the checked-in bench/baselines/BENCH_e13.json
// record-for-record, which tools/perf_diff.py compares against.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "benchutil/harness.h"
#include "dist/count_kernel.h"
#include "dist/dataset.h"
#include "dist/distribution.h"
#include "dist/generators.h"
#include "dist/sampler.h"
#include "engine/budget.h"
#include "engine/runtime.h"
#include "sample/counter.h"
#include "sample/sample_set.h"
#include "util/math_util.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/table.h"
#include "util/timer.h"

namespace histk {
namespace {

bool SmokeMode() {
  const char* flag = std::getenv("HISTK_E13_SMOKE");
  return flag != nullptr && std::string(flag) == "1";
}

Distribution DenseDist() {
  Rng rng(0xE13D);
  return MakeRandomKHistogram(int64_t{1} << 20, 200, rng, 25.0).dist;
}

Distribution BucketDist() {
  Rng rng(0xE13B);
  return MakeRandomKHistogram(int64_t{1} << 30, 1000, rng, 25.0).dist;
}

/// ns/draw of the bare batched kernel into a preallocated buffer.
double AliasOnlyNs(const AliasSampler& sampler, int64_t m,
                   std::vector<int64_t>& buf) {
  Rng rng(7);
  WallTimer timer;
  sampler.DrawManyInto(buf.data(), m, rng);
  const double s = timer.ElapsedSeconds();
  benchmark::DoNotOptimize(buf.data());
  return s / static_cast<double>(m) * 1e9;
}

enum class Pipeline {
  kLegacyCopy,   // DrawMany + FromDraws(const&): the PR 3 baseline (sparse
                 // domains copy AND globally sort the batch)
  kMaterialize,  // DrawMany + FromDraws(&&): move-in, still one global sort
  kFused,        // SampleSet::Draw: DrawCounts through SampleCounter
};

/// End-to-end seconds for draw→SampleSet under one pipeline variant.
double PipelineSeconds(const AliasSampler& sampler, int64_t m, Pipeline p) {
  Rng rng(11);
  WallTimer timer;
  int64_t got = 0;
  switch (p) {
    case Pipeline::kLegacyCopy: {
      const std::vector<int64_t> draws = sampler.DrawMany(m, rng);
      const SampleSet s = SampleSet::FromDraws(sampler.n(), draws);
      got = s.m();
      break;
    }
    case Pipeline::kMaterialize: {
      std::vector<int64_t> draws = sampler.DrawMany(m, rng);
      const SampleSet s = SampleSet::FromDraws(sampler.n(), std::move(draws));
      got = s.m();
      break;
    }
    case Pipeline::kFused: {
      const SampleSet s = SampleSet::Draw(sampler, m, rng);
      got = s.m();
      break;
    }
  }
  const double sec = timer.ElapsedSeconds();
  benchmark::DoNotOptimize(got);
  return sec;
}

/// Wall seconds for one DrawManySharded batch at a fixed worker count.
double ShardedDrawSeconds(const AliasSampler& sampler, int64_t m, int workers) {
  Rng rng(17);
  WallTimer timer;
  const std::vector<int64_t> draws = sampler.DrawManySharded(m, rng, workers);
  const double sec = timer.ElapsedSeconds();
  benchmark::DoNotOptimize(draws.data());
  return sec;
}

/// End-to-end seconds for the sharded fused path: DrawCounts(threads >= 1)
/// through SampleCounter's per-worker shards (lock-free Consume, merge at
/// Build).
double ShardedCountSeconds(const AliasSampler& sampler, int64_t m, int workers) {
  Rng rng(13);
  WallTimer timer;
  SampleCounter counter(sampler.n(), m);
  sampler.DrawCounts(m, rng, counter, workers);
  const SampleSet s = counter.Build();
  int64_t got = s.m();
  const double sec = timer.ElapsedSeconds();
  benchmark::DoNotOptimize(got);
  return sec;
}

/// Wall seconds for one batch through the budget meter; `policy` may be
/// null (the historical meter), inert, or armed (chunked deadline/cancel
/// checks at the metering points).
double MeteredDrawSeconds(const AliasSampler& sampler, int64_t m,
                          const RunPolicy* policy) {
  Rng rng(23);
  WallTimer timer;
  const BudgetedSampler metered(sampler, BudgetedSampler::kUnlimited, policy);
  const std::vector<int64_t> draws = metered.DrawMany(m, rng);
  const double sec = timer.ElapsedSeconds();
  benchmark::DoNotOptimize(draws.data());
  return sec;
}

/// Same batch as a fully governed session: SessionGovernor admission, an
/// armed policy, and the permit released at the end — the complete
/// resilient-session shape minus the Engine bookkeeping.
double GovernedDrawSeconds(const AliasSampler& sampler, int64_t m,
                           const RunPolicy* policy, SessionGovernor& governor) {
  Rng rng(23);
  WallTimer timer;
  Result<SessionGovernor::Permit> permit = governor.Admit(m);
  const BudgetedSampler metered(sampler, BudgetedSampler::kUnlimited, policy);
  const std::vector<int64_t> draws = metered.DrawMany(m, rng);
  permit->Release();
  const double sec = timer.ElapsedSeconds();
  benchmark::DoNotOptimize(draws.data());
  return sec;
}

/// Seconds for one SampleSet::Draw of m draws (the engine's draw path).
double SampleSetDrawSeconds(const Sampler& sampler, int64_t m) {
  Rng rng(29);
  WallTimer timer;
  const SampleSet s = SampleSet::Draw(sampler, m, rng);
  const double sec = timer.ElapsedSeconds();
  benchmark::DoNotOptimize(s.m());
  return sec;
}

/// Writes pre-drawn count vectors, the next one per DrawCountsInto call,
/// into the group's rows, so SampleSetGroup::Draw over it times only the
/// assembly of the sets: storage, the writes and the prefix pass.
class PreDrawnSampler final : public Sampler {
 public:
  struct Vector {
    std::vector<int64_t> values;
    std::vector<int64_t> counts;
  };

  PreDrawnSampler(int64_t n, std::vector<Vector> vectors)
      : n_(n), vectors_(std::move(vectors)) {}

  int64_t n() const override { return n_; }
  void DrawManyInto(int64_t* /*out*/, int64_t /*m*/, Rng& /*rng*/) const override {
    std::abort();  // only the group's direct route is replayed
  }
  bool DrawCountsInto(int64_t /*m*/, Rng& /*rng*/, uint32_t* counts,
                      DrawBlockBuffers& /*scratch*/) const override {
    const Vector& v = vectors_[next_++ % vectors_.size()];
    for (size_t j = 0; j < v.values.size(); ++j) {
      counts[v.values[j]] += static_cast<uint32_t>(v.counts[j]);
    }
    return true;
  }

 private:
  int64_t n_;
  std::vector<Vector> vectors_;
  mutable size_t next_ = 0;
};

/// Forwards only the per-set draw functions, so SampleSetGroup::Draw over
/// it takes the per-set route: a SampleCounter and DrawCounts per set.
class PerSetRouteSampler final : public Sampler {
 public:
  explicit PerSetRouteSampler(const Sampler& inner) : inner_(inner) {}

  int64_t n() const override { return inner_.n(); }
  void DrawManyInto(int64_t* out, int64_t m, Rng& rng) const override {
    inner_.DrawManyInto(out, m, rng);
  }
  void DrawCounts(int64_t m, Rng& rng, CountSink& sink,
                  int threads) const override {
    inner_.DrawCounts(m, rng, sink, threads);
  }

 private:
  const Sampler& inner_;
};

/// An order-free sink that keeps only a checksum and lends one draw
/// scratch, as a group's counters do: the count kernel's own cost.
class DiscardSink final : public CountSink {
 public:
  void Consume(const int64_t* draws, int64_t len, int64_t /*offset*/) override {
    for (int64_t i = 0; i < len; ++i) sum_ += draws[i];
  }
  bool OrderFree() const override { return true; }
  void ConsumeRuns(const int64_t* values, const int64_t* counts, int64_t len,
                   int64_t /*offset*/) override {
    for (int64_t i = 0; i < len; ++i) sum_ += values[i] * counts[i];
  }
  DrawBlockBuffers* DrawScratch() override { return &scratch_; }
  int64_t sum() const { return sum_; }

 private:
  int64_t sum_ = 0;
  DrawBlockBuffers scratch_;
};

int64_t MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

/// The file comment's item 5: the ingest-shaped group.
void RunIngestGroup(int64_t trials) {
  constexpr int64_t kN = 256;
  constexpr int64_t kR = 207;     // ceil(16 ln 6n^2) at n = 256
  constexpr int64_t kM = 10954;   // the L2 tester's m at ingest_test's k, eps
  Rng gen(0xE13A);
  const HistogramSpec spec = MakeRandomKHistogram(kN, 8, gen, 25.0);
  std::vector<int64_t> items = AliasSampler(spec.dist).DrawMany(20000, gen);
  std::vector<CountKernel::Run> support;
  {
    std::vector<int64_t> occ(static_cast<size_t>(kN), 0);
    for (int64_t item : items) ++occ[static_cast<size_t>(item)];
    for (int64_t v = 0; v < kN; ++v) {
      const int64_t c = occ[static_cast<size_t>(v)];
      if (c > 0) support.push_back({v, 1, static_cast<long double>(c)});
    }
  }
  const DatasetSampler oracle(kN, std::move(items), AliasKernel::kCounts);
  const CountKernel kernel(support);

  auto draw_group = [&](Rng& rng) {
    const SampleSetGroup g = SampleSetGroup::Draw(oracle, kR, kM, rng);
    benchmark::DoNotOptimize(g.TotalSamples());
  };
  const PerSetRouteSampler per_set(oracle);
  // Faults per warm group: the median over 20 groups after one warm-up.
  // The median, because the allocator may grow its heap once on the way to
  // a steady state (the first block freed raises glibc's mmap threshold, so
  // the next one is the first to come from the heap); what a long-running
  // server pays per request is the steady state.
  Rng warm_rng(31);
  draw_group(warm_rng);
  std::vector<double> group_faults;
  for (int g = 0; g < 20; ++g) {
    const int64_t before = MinorFaults();
    draw_group(warm_rng);
    group_faults.push_back(static_cast<double>(MinorFaults() - before));
  }
  const double faults = Median(group_faults);

  NextBenchLabel("ingest_group_draw_s");
  const ScalarStats whole = MeasureScalar(trials, [&](int64_t t) {
    Rng rng(37 + static_cast<uint64_t>(t));
    WallTimer timer;
    draw_group(rng);
    return timer.ElapsedSeconds();
  });

  std::vector<PreDrawnSampler::Vector> vectors(static_cast<size_t>(kR));
  {
    Rng rng(41);
    const auto room = static_cast<size_t>(kernel.max_runs());
    for (PreDrawnSampler::Vector& v : vectors) {
      v.values.resize(room);
      v.counts.resize(room);
      const int64_t runs = kernel.DrawBlock(kM, rng, v.values.data(), v.counts.data());
      v.values.resize(static_cast<size_t>(runs));
      v.counts.resize(static_cast<size_t>(runs));
    }
  }
  const PreDrawnSampler predrawn(kN, std::move(vectors));
  // The same group by either route, in pairs that alternate which goes
  // first; the speedup is the median of the pairs' ratios.
  auto time_route = [&](const Sampler& sampler, uint64_t seed) {
    Rng rng(seed);
    WallTimer timer;
    const SampleSetGroup g = SampleSetGroup::Draw(sampler, kR, kM, rng);
    const double sec = timer.ElapsedSeconds();
    benchmark::DoNotOptimize(g.TotalSamples());
    return sec;
  };
  std::vector<double> per_set_s;
  std::vector<double> route_ratios;
  for (int64_t t = 0; t < 3 * trials; ++t) {
    const uint64_t seed = 53 + static_cast<uint64_t>(t);
    double routed = 0.0;
    double direct = 0.0;
    if (t % 2 == 0) {
      routed = time_route(per_set, seed);
      direct = time_route(oracle, seed);
    } else {
      direct = time_route(oracle, seed);
      routed = time_route(per_set, seed);
    }
    per_set_s.push_back(routed);
    route_ratios.push_back(routed / direct);
  }
  NextBenchLabel("ingest_group_route_speedup");
  MeasureScalar(1, [&](int64_t) { return Median(route_ratios); });

  NextBenchLabel("ingest_assembly_s");
  const ScalarStats assembly = MeasureScalar(trials, [&](int64_t) {
    Rng rng(43);
    WallTimer timer;
    const SampleSetGroup g = SampleSetGroup::Draw(predrawn, kR, kM, rng);
    const double sec = timer.ElapsedSeconds();
    benchmark::DoNotOptimize(g.TotalSamples());
    return sec;
  });

  // The binomial chain and the group plan (build included, the way
  // SampleSetGroup::Draw spends it) each draw the group's r blocks, in
  // pairs that alternate which goes first. The speedup is the median of
  // the pairs' ratios: a load spike on a shared host slows both halves of
  // a pair, not one record.
  auto ns_per_entry = [&](double sec) {
    return sec / static_cast<double>(kR * kernel.size()) * 1e9;
  };
  auto time_chain = [&](uint64_t seed) {
    Rng rng(seed);
    std::vector<int64_t> values(static_cast<size_t>(kernel.max_runs()));
    std::vector<int64_t> counts(values.size());
    int64_t runs = 0;
    WallTimer timer;
    for (int64_t i = 0; i < kR; ++i) {
      runs += kernel.DrawBlock(kM, rng, values.data(), counts.data());
    }
    const double sec = timer.ElapsedSeconds();
    benchmark::DoNotOptimize(runs);
    return ns_per_entry(sec);
  };
  auto time_plan = [&](uint64_t seed) {
    Rng rng(seed);
    DiscardSink sink;
    WallTimer timer;
    for (int64_t i = 0; i < kR; ++i) kernel.DrawCounts(oracle, kM, rng, sink, 0);
    const double sec = timer.ElapsedSeconds();
    benchmark::DoNotOptimize(sink.sum());
    return ns_per_entry(sec);
  };
  const int64_t pairs = 3 * trials;
  std::vector<double> chain_ns;
  std::vector<double> plan_ns;
  std::vector<double> ratios;
  for (int64_t t = 0; t < pairs; ++t) {
    const uint64_t seed = 47 + static_cast<uint64_t>(t);
    double chain = 0.0;
    double plan = 0.0;
    if (t % 2 == 0) {
      chain = time_chain(seed);
      plan = time_plan(seed);
    } else {
      plan = time_plan(seed);
      chain = time_chain(seed);
    }
    chain_ns.push_back(chain);
    plan_ns.push_back(plan);
    ratios.push_back(chain / plan);
  }

  NextBenchLabel("ingest_binomial_ns_per_entry");
  const ScalarStats binomial = MeasureScalar(
      pairs, [&](int64_t t) { return chain_ns[static_cast<size_t>(t)]; });
  double plan_bytes = 0.0;
  NextBenchLabel("ingest_plan_build_us");
  const ScalarStats build = MeasureScalar(trials, [&](int64_t) {
    WallTimer timer;
    const CountKernel::GroupPlan plan(kernel, kM);
    const double sec = timer.ElapsedSeconds();
    plan_bytes = static_cast<double>(plan.bytes());
    return sec * 1e6;
  });
  NextBenchLabel("ingest_plan_ns_per_entry");
  const ScalarStats planned = MeasureScalar(
      pairs, [&](int64_t t) { return plan_ns[static_cast<size_t>(t)]; });
  NextBenchLabel("ingest_plan_bytes");
  MeasureScalar(1, [&](int64_t) { return plan_bytes; });
  NextBenchLabel("ingest_plan_speedup");
  MeasureScalar(1, [&](int64_t) { return Median(ratios); });

  NextBenchLabel("ingest_group_minflt");
  MeasureScalar(1, [&](int64_t) { return faults; });

  Table table({"r x m", "support", "group ms", "per-set route ms", "route speedup",
               "assembly ms", "binomial ns/entry", "plan ns/entry",
               "plan build us", "plan KB", "minor faults/group"});
  table.AddRow({std::to_string(kR) + " x " + std::to_string(kM),
                std::to_string(kernel.size()), FmtF(whole.mean * 1e3, 3),
                FmtF(Median(per_set_s) * 1e3, 3), FmtF(Median(route_ratios), 2),
                FmtF(assembly.mean * 1e3, 3), FmtF(binomial.mean, 1),
                FmtF(planned.mean, 1), FmtF(build.mean, 1),
                FmtF(plan_bytes / 1024.0, 1), FmtF(faults, 1)});
  table.Print(std::cout);
}

std::string FmtM(int64_t m) {
  if (m % 1000000 == 0) return std::to_string(m / 1000000) + "e6";
  return std::to_string(m);
}

void RunExperiment() {
  const bool smoke = SmokeMode();
  PrintExperimentHeader(
      "e13: draw pipeline (batched alias kernels + fused draw->SampleSet)",
      "the fused draw->count path beats materialize-then-count >= 2x at "
      "m = 10^7 (bucketed)",
      smoke ? "SMOKE mode: batches <= 10^6 draws, 10^8 rows skipped"
            : "dense n=2^20 (k=200) and bucketed n=2^30 (k=1000) random "
              "k-histograms; replay kernel unless marked counts");

  // ---- the ingest-shaped group, first (the file comment's item 5) ----
  RunIngestGroup(smoke ? 5 : 9);

  const Distribution dense = DenseDist();
  const Distribution bucket = BucketDist();
  const AliasSampler dense_replay(dense);
  const AliasSampler bucket_replay(bucket);
  const int64_t alias_m = smoke ? 1000000 : 10000000;
  const int64_t trials = smoke ? 2 : 3;

  // ---- 1. bare kernel throughput -------------------------------------
  Table kernels({"table", "kernel", "m", "ns/draw", "Mdraws/s"});
  {
    std::vector<int64_t> buf(static_cast<size_t>(alias_m));
    struct Row {
      const char* table;
      const char* kernel;
      const AliasSampler* sampler;
    };
    const Row rows[] = {{"dense", "replay", &dense_replay},
                        {"bucket", "replay", &bucket_replay}};
    for (const Row& row : rows) {
      NextBenchLabel(std::string("alias_") + row.table + "_" + row.kernel +
                     "_ns_per_draw");
      const ScalarStats ns = MeasureScalar(trials, [&](int64_t) {
        return AliasOnlyNs(*row.sampler, alias_m, buf);
      });
      kernels.AddRow({row.table, row.kernel, FmtM(alias_m), FmtF(ns.mean, 1),
                      FmtF(1000.0 / ns.mean, 0)});
    }
    if (!smoke) {
      // One deep batch: m = 10^8 draws through the bucket replay kernel.
      std::vector<int64_t> deep(static_cast<size_t>(100000000));
      NextBenchLabel("alias_bucket_replay_m1e8_ns_per_draw");
      const ScalarStats ns = MeasureScalar(2, [&](int64_t) {
        return AliasOnlyNs(bucket_replay, 100000000, deep);
      });
      kernels.AddRow({"bucket", "replay", "100e6", FmtF(ns.mean, 1),
                      FmtF(1000.0 / ns.mean, 0)});
    }
  }
  kernels.Print(std::cout);

  // ---- 2 + 3. fused vs materialize, scaling in m ---------------------
  Table pipes({"table", "m", "legacy(s)", "move(s)", "fused(s)",
               "fused ns/draw", "speedup vs legacy"});
  struct Config {
    const char* table;
    const AliasSampler* sampler;
    int64_t m;
  };
  std::vector<Config> configs;
  if (smoke) {
    configs.push_back({"dense", &dense_replay, 1000000});
    configs.push_back({"bucket", &bucket_replay, 1000000});
  } else {
    configs.push_back({"dense", &dense_replay, 10000000});
    configs.push_back({"bucket", &bucket_replay, 1000000});
    configs.push_back({"bucket", &bucket_replay, 10000000});
    configs.push_back({"bucket", &bucket_replay, 100000000});
  }
  for (const Config& cfg : configs) {
    const int64_t t = cfg.m >= 100000000 ? 1 : trials;
    const std::string tag =
        std::string("pipeline_") + cfg.table + "_m" + FmtM(cfg.m);
    NextBenchLabel(tag + "_legacy_s");
    const ScalarStats legacy = MeasureScalar(t, [&](int64_t) {
      return PipelineSeconds(*cfg.sampler, cfg.m, Pipeline::kLegacyCopy);
    });
    NextBenchLabel(tag + "_materialize_s");
    const ScalarStats mat = MeasureScalar(t, [&](int64_t) {
      return PipelineSeconds(*cfg.sampler, cfg.m, Pipeline::kMaterialize);
    });
    NextBenchLabel(tag + "_fused_s");
    const ScalarStats fused = MeasureScalar(t, [&](int64_t) {
      return PipelineSeconds(*cfg.sampler, cfg.m, Pipeline::kFused);
    });
    NextBenchLabel(tag + "_speedup_x");
    MeasureScalar(1, [&](int64_t) { return legacy.mean / fused.mean; });
    pipes.AddRow({cfg.table, FmtM(cfg.m), FmtE(legacy.mean, 2),
                  FmtE(mat.mean, 2), FmtE(fused.mean, 2),
                  FmtF(fused.mean / static_cast<double>(cfg.m) * 1e9, 1),
                  FmtF(legacy.mean / fused.mean, 2)});
  }
  pipes.Print(std::cout);

  // ---- 4. sharded fused counts: the lock-free shard merge ------------
  // Since histk-verify, SampleCounter::Consume takes no lock: each worker
  // owns a shard (CountSink::AcquireShard) and Build() merges them. w=1 is
  // the unsharded fused path; w=8 prices the shard set-up + merge and, on
  // multi-core hosts, the parallel win.
  Table sharded({"table", "m", "workers", "seconds", "ns/draw", "vs w1"});
  for (const Config& cfg : configs) {
    if (cfg.m > alias_m) continue;  // deep rows covered by group 3
    const std::string tag =
        std::string("shard_") + cfg.table + "_m" + FmtM(cfg.m);
    double w1_mean = 0.0;
    for (const int workers : {1, 8}) {
      NextBenchLabel(tag + "_w" + std::to_string(workers) + "_s");
      const ScalarStats s = MeasureScalar(trials, [&](int64_t) {
        return ShardedCountSeconds(*cfg.sampler, cfg.m, workers);
      });
      if (workers == 1) w1_mean = s.mean;
      sharded.AddRow({cfg.table, FmtM(cfg.m), std::to_string(workers),
                      FmtE(s.mean, 2),
                      FmtF(s.mean / static_cast<double>(cfg.m) * 1e9, 1),
                      workers == 1 ? "1.00" : FmtF(w1_mean / s.mean, 2)});
      if (workers != 1) {
        NextBenchLabel(tag + "_w" + std::to_string(workers) + "_speedup_x");
        MeasureScalar(1, [&](int64_t) { return w1_mean / s.mean; });
      }
    }
  }
  sharded.Print(std::cout);

  // ---- 5. threads sweep (full mode only) -----------------------------
  // w in {1,2,4,8} over DrawManySharded and the sharded DrawCounts on a
  // kCounts bucket sampler, the two served paths: the draw path runs the
  // replay stream, the counts path the count kernel. This is the sharded
  // speedup curve the weekly bench-full run measures on a multi-core
  // runner (on a 1-core host every w should sit near 1.0x — that flat
  // curve is itself the record that sharding overhead is negligible).
  if (!smoke) {
    const AliasSampler bucket_counts(bucket, AliasKernel::kCounts);
    const int64_t sweep_m = 10000000;
    Table sweep({"path", "m", "workers", "seconds", "ns/draw", "vs w1"});
    struct SweepPath {
      const char* name;
      double (*run)(const AliasSampler&, int64_t, int);
    };
    const SweepPath paths[] = {{"draw", &ShardedDrawSeconds},
                               {"counts", &ShardedCountSeconds}};
    for (const SweepPath& path : paths) {
      double w1_mean = 0.0;
      for (const int workers : {1, 2, 4, 8}) {
        const std::string tag = std::string("sweep_") + path.name +
                                "_bucket_counts_m" + FmtM(sweep_m) + "_w" +
                                std::to_string(workers);
        NextBenchLabel(tag + "_s");
        const ScalarStats s = MeasureScalar(trials, [&](int64_t) {
          return path.run(bucket_counts, sweep_m, workers);
        });
        if (workers == 1) w1_mean = s.mean;
        sweep.AddRow({path.name, FmtM(sweep_m), std::to_string(workers),
                      FmtE(s.mean, 2),
                      FmtF(s.mean / static_cast<double>(sweep_m) * 1e9, 1),
                      workers == 1 ? "1.00" : FmtF(w1_mean / s.mean, 2)});
        if (workers != 1) {
          NextBenchLabel(tag + "_speedup_x");
          MeasureScalar(1, [&](int64_t) { return w1_mean / s.mean; });
        }
      }
    }
    sweep.Print(std::cout);
  }

  // ---- 6. session runtime overhead -----------------------------------
  // The resilient-session guard rails priced on the bucket replay kernel:
  // plain is the historical meter (no policy), inert attaches a RunPolicy
  // that never arms (must be one null/flag branch per request — the <= 1%
  // bar), armed runs the chunked deadline+cancel checks with a far-future
  // deadline, governed adds SessionGovernor admission and release. None of
  // these rows may drift from plain by more than noise: the runtime's whole
  // design is that sessions not under threat pay nothing.
  {
    const int64_t m = alias_m;
    RunPolicy inert;  // no deadline, no cancel, no retries: hardened() false
    RunPolicy armed;
    armed.deadline = Deadline::AfterMillis(3600 * 1000);
    armed.cancel = CancelToken::Create();
    SessionGovernor governor(SessionGovernor::Limits{});
    Table runtime({"variant", "m", "seconds", "ns/draw", "overhead vs plain"});
    const RunPolicy* policies[] = {nullptr, &inert, &armed, &armed};
    const char* names[] = {"plain", "inert_policy", "armed", "governed"};
    (void)MeteredDrawSeconds(bucket_replay, m, nullptr);  // warm-up batch
    // min-of-trials, not mean: the guard-rail cost is one branch (plain /
    // inert) or one clock read per 2^16 draws (armed), far below run-to-run
    // scheduler noise, and min is the noise-robust floor estimator.
    const int64_t runtime_trials = trials * 3;
    double plain_min = 0.0;
    for (int v = 0; v < 4; ++v) {
      NextBenchLabel(std::string("session_bucket_") + names[v] + "_s");
      const ScalarStats s = MeasureScalar(runtime_trials, [&](int64_t) {
        return v == 3 ? GovernedDrawSeconds(bucket_replay, m, policies[v],
                                            governor)
                      : MeteredDrawSeconds(bucket_replay, m, policies[v]);
      });
      if (v == 0) plain_min = s.min;
      runtime.AddRow({names[v], FmtM(m), FmtE(s.min, 2),
                      FmtF(s.min / static_cast<double>(m) * 1e9, 1),
                      v == 0 ? "--"
                             : FmtF((s.min / plain_min - 1.0) * 100.0, 2) +
                                   "%"});
    }
    runtime.Print(std::cout);
  }

  // ---- 7. count kernel at n = 256 ------------------------------------
  // kCounts draws each 2^16-draw block as a count vector: 256 conditional
  // binomials (dense and dataset) or 8 plus the in-bucket splits (bucket)
  // per block instead of 65536 alias draws. The dataset oracle is the
  // histkd shape: 20,000 items over n = 256.
  {
    Rng gen(0xE13C);
    const HistogramSpec small = MakeRandomKHistogram(256, 4, gen, 25.0);
    std::vector<int64_t> items(20000);
    {
      const AliasSampler item_source(small.dist);
      items = item_source.DrawMany(20000, gen);
    }
    const Distribution small_bucket = Distribution::FromBucketWeights(
        256, {31, 63, 95, 127, 159, 191, 223, 255},
        {1.0, 3.0, 2.0, 5.0, 4.0, 1.0, 2.0, 6.0});
    const AliasSampler dense_counts(small.dist, AliasKernel::kCounts);
    const AliasSampler bucket_counts(small_bucket, AliasKernel::kCounts);
    const DatasetSampler dataset_counts(256, items, AliasKernel::kCounts);
    const DatasetSampler dataset_replay(256, items, AliasKernel::kReplay);
    struct Oracle {
      const char* name;
      const Sampler* sampler;
    };
    const Oracle oracles[] = {{"dense", &dense_counts},
                              {"bucket", &bucket_counts},
                              {"dataset", &dataset_counts}};
    Table counts({"oracle", "m", "ns/draw", "Mdraws/s"});
    for (const Oracle& o : oracles) {
      for (const int64_t m : {int64_t{1} << 16, int64_t{1} << 20, int64_t{1} << 22}) {
        NextBenchLabel(std::string("counts_") + o.name + "_m" + std::to_string(m) +
                       "_ns_per_draw");
        const ScalarStats s = MeasureScalar(trials, [&](int64_t) {
          return SampleSetDrawSeconds(*o.sampler, m) / static_cast<double>(m) * 1e9;
        });
        counts.AddRow({o.name, std::to_string(m), FmtF(s.mean, 2),
                       FmtF(1000.0 / s.mean, 0)});
      }
    }
    // Same-run ratio, interleaved so host drift hits both sides alike.
    const int64_t ratio_m = int64_t{1} << 20;
    double replay_s = 0.0;
    double counts_s = 0.0;
    for (int64_t t = 0; t < trials; ++t) {
      replay_s += SampleSetDrawSeconds(dataset_replay, ratio_m);
      counts_s += SampleSetDrawSeconds(dataset_counts, ratio_m);
    }
    NextBenchLabel("counts_vs_replay_dataset_m" + std::to_string(ratio_m) + "_x");
    MeasureScalar(1, [&](int64_t) { return replay_s / counts_s; });
    counts.AddRow({"dataset replay/counts", std::to_string(ratio_m),
                   FmtF(replay_s / counts_s, 1) + "x", "--"});
    counts.Print(std::cout);
  }

  std::printf(
      "\nshape check: the fused path never allocates the m-element draw\n"
      "vector, and on sparse domains it replaces the global sort with\n"
      "cache-resident partition sorts — that is where the speedup comes\n"
      "from.\n");
}

void BM_E13(benchmark::State& state) {
  for (auto _ : state) RunExperiment();
}
BENCHMARK(BM_E13)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace histk

BENCHMARK_MAIN();
