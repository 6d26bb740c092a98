// E16 — the histkd serving core (serve/server.h): what one daemon process
// sustains once learned synopses are cached, and what the edges cost.
//
// Five question groups:
//   1. throughput — requests/s through Submit + the worker pool for
//      cache-hit estimate traffic at w workers. Hits bypass the governor
//      and draw nothing, so this is the pure serving path: parse, dataset
//      fingerprint, canonical key, cached-synopsis answer, envelope;
//   2. latency split — ns per cache-hit estimate (HandleLine, steady
//      state) versus seconds per cold learn (miss path: admission, engine
//      session, cache insert). The gap is the cache's whole value
//      proposition — repeat traffic must not pay the learner;
//   3. governor saturation — rejections/s when every session slot is
//      held. The typed-503 fast path runs before any engine work, so a
//      saturated daemon must shed load at queue speed, not learn speed;
//   4. request parse — µs per ParseRequestJson of a line shipping 20,000
//      inline items, shaped like perfbench's ingest_test lines. Integer
//      arrays parse into one packed int64 vector, read in 64-byte blocks
//      (api/json.h), so this is a scan of the line, not 20,000 generic
//      JSON values; serve_parse_packed_speedup is a per-element
//      ScanJsonI64 scan of the same items over the parse;
//   5. dataset resolve — µs per DatasetStore::Resolve of that line's
//      items, on a reuse (already stored) and on a load (empty store).
//      The items are hashed a word at a time in the pass that checks them
//      (serve/fingerprint.h), so a reuse costs a few plain reads of the
//      items: serve_read_over_resolve_reuse is one summing pass over a
//      reuse.
//
// HISTK_E16_SMOKE=1 shrinks request counts and skips the worker sweep so
// CI finishes in seconds; the emitted BENCH_e16.json then matches
// bench/baselines/BENCH_e16.json record-for-record (CI smoke-diffs it via
// perf_diff.py --strict-labels). The full run sweeps w in {1, 2, 4, 8}.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "api/request.h"
#include "benchutil/harness.h"
#include "dist/io.h"
#include "engine/runtime.h"
#include "serve/dataset_store.h"
#include "serve/server.h"
#include "util/math_util.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/table.h"
#include "util/timer.h"

namespace histk {
namespace {

bool SmokeMode() {
  const char* flag = std::getenv("HISTK_E16_SMOKE");
  return flag != nullptr && std::string(flag) == "1";
}

// A small k-histogram-shaped workload, inlined into every request so the
// serving path pays dataset resolution (parse + fingerprint + store hit)
// the way real repeat traffic does.
std::string InlineDatasetJson() {
  Rng rng(0xE16);
  std::string items = "[";
  for (int i = 0; i < 2000; ++i) {
    if (i > 0) items += ", ";
    // Four plateaus over n = 256 with distinct masses.
    const uint64_t plateau = rng.NextU64() % 4;
    const uint64_t value = plateau * 64 + rng.NextU64() % 64;
    items += std::to_string(value);
  }
  items += "]";
  return items;
}

std::string LearnLine(const std::string& dataset, uint64_t seed,
                      const std::string& id) {
  return "{\"id\": \"" + id + "\", \"kind\": \"learn\", \"k\": 4, "
         "\"eps\": 0.3, \"scale\": 0.25, \"seed\": " + std::to_string(seed) +
         ", \"dataset\": " + dataset + "}";
}

std::string EstimateLine(const std::string& dataset, uint64_t seed,
                         const std::string& id) {
  return "{\"id\": \"" + id + "\", \"kind\": \"estimate\", \"k\": 4, "
         "\"eps\": 0.3, \"scale\": 0.25, \"seed\": " + std::to_string(seed) +
         ", \"quantiles\": [0.25, 0.5, 0.9], \"ranges\": [[0, 64], [64, 192]]"
         ", \"dataset\": " + dataset + "}";
}

std::string InlineRef(const std::string& items) {
  return "{\"items\": " + items + "}";
}

// Uploads the dataset via one learn and returns the fingerprint reference
// repeat traffic uses ({"fingerprint": "..."}), so steady-state requests
// are a few hundred bytes instead of re-shipping the items every line.
std::string WarmAndGetRef(serve::HistkdServer& server,
                          const std::string& items) {
  const std::string response =
      server.HandleLine(LearnLine(InlineRef(items), 7, "warm"));
  HISTK_CHECK(response.find("\"status\": \"ok\"") != std::string::npos);
  const std::string key = "\"fingerprint\": \"";
  const size_t at = response.find(key);
  HISTK_CHECK(at != std::string::npos);
  return "{\"fingerprint\": \"" + response.substr(at + key.size(), 16) + "\"}";
}

// A compact property-test line shipping `count` items over n = 256, the
// shape of perfbench's ingest_test requests.
std::string IngestLine(int count) {
  Rng rng(0xE16 + 1);
  std::string line =
      "{\"id\":\"ingest\",\"kind\":\"test\",\"k\":4,\"eps\":0.3,"
      "\"seed\":1,\"norm\":\"l2\",\"n\":256,\"dataset\":{\"items\":[";
  for (int i = 0; i < count; ++i) {
    if (i > 0) line += ',';
    line += std::to_string(rng.NextU64() % 256);
  }
  line += "]}}";
  return line;
}

// The packed array's scan before it read blocks: from the items array's
// '[', one ScanJsonI64 and one push_back per element, with the generic
// parser's whitespace and separator steps.
std::vector<int64_t> ScanItemsPerElement(const std::string& line) {
  const char* p = line.data() + line.find("\"items\":[") + 9;
  const char* const end = line.data() + line.size();
  auto skip_space = [&] {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) ++p;
  };
  std::vector<int64_t> out;
  while (true) {
    skip_space();
    int64_t value = 0;
    p = ScanJsonI64(p, end, value);
    HISTK_CHECK(p != nullptr);
    out.push_back(value);
    skip_space();
    HISTK_CHECK(p < end);
    if (*p++ == ']') return out;
  }
}

serve::ServeOptions Options(int workers) {
  serve::ServeOptions options;
  options.workers = workers;
  options.queue_limit = 1 << 16;  // throughput runs queue entire batches
  return options;
}

// Requests/s for `count` cache-hit estimates pushed through Submit on a
// fresh server with `workers` workers (cache warmed outside the timer).
double MeasureHitThroughput(const std::string& items, int workers,
                            int64_t count, int64_t trials) {
  return MeasureScalar(trials, [&](int64_t) {
    serve::HistkdServer server(Options(workers));
    const std::string ref = WarmAndGetRef(server, items);
    const std::string line = EstimateLine(ref, 7, "hit");
    std::mutex mu;
    int64_t ok = 0;
    const WallTimer timer;
    for (int64_t i = 0; i < count; ++i) {
      server.Submit(line, [&mu, &ok](std::string response) {
        const bool hit =
            response.find("\"cache\": \"hit\"") != std::string::npos;
        const std::lock_guard<std::mutex> lock(mu);
        ok += hit;
      });
    }
    server.Drain();
    const double seconds = timer.ElapsedSeconds();
    HISTK_CHECK(ok == count);
    return static_cast<double>(count) / seconds;
  }).mean;
}

void RunExperiment() {
  const bool smoke = SmokeMode();
  const int64_t kHits = smoke ? 2000 : 20000;
  const int64_t kRejects = smoke ? 2000 : 20000;
  const int64_t trials = smoke ? 3 : 5;
  const std::string items = InlineDatasetJson();

  PrintExperimentHeader(
      "e16: histkd serving (request API + learned-synopsis cache)",
      "cache-hit estimates serve at queue speed from the synopsis cache "
      "(no oracle draws, no governor slot); cold learns pay the engine "
      "once; a saturated governor sheds load with typed 503s at far above "
      "learn rate",
      std::string("inline dataset: 2000 items over n = 256, k = 4, "
                  "eps = 0.3, scale = 0.25; ") +
          (smoke ? "SMOKE (2k requests, w=1 only)"
                 : "full (20k requests, w sweep)"));

  // -------------------------------------------------- 1. hit throughput
  Table tput_table({"workers", "req/s"});
  NextBenchLabel("serve_hit_w1_req_per_s");
  const double w1 = MeasureHitThroughput(items, 1, kHits, trials);
  tput_table.AddRow({"1", FmtF(w1, 0)});
  if (!smoke) {
    for (int w : {2, 4, 8}) {
      NextBenchLabel("sweep_serve_hit_w" + std::to_string(w) + "_req_per_s");
      const double rps = MeasureHitThroughput(items, w, kHits, trials);
      tput_table.AddRow({std::to_string(w), FmtF(rps, 0)});
    }
  }
  tput_table.Print(std::cout);

  // ------------------------------------------------------ 2. latency split
  serve::HistkdServer server(Options(1));
  const std::string ref = WarmAndGetRef(server, items);

  NextBenchLabel("serve_estimate_hit_ns");
  const int64_t kLatencyBatch = smoke ? 200 : 1000;
  const double hit_ns = MeasureScalar(trials, [&](int64_t) {
    const std::string line = EstimateLine(ref, 7, "lat");
    const WallTimer timer;
    for (int64_t i = 0; i < kLatencyBatch; ++i) {
      benchmark::DoNotOptimize(server.HandleLine(line));
    }
    return timer.ElapsedSeconds() * 1e9 / static_cast<double>(kLatencyBatch);
  }).mean;

  NextBenchLabel("serve_cold_learn_s");
  uint64_t fresh_seed = 1000;  // new seed every call: every learn is a miss
  const double cold_s = MeasureScalar(trials, [&](int64_t) {
    const WallTimer timer;
    const std::string response =
        server.HandleLine(LearnLine(ref, ++fresh_seed, "cold"));
    HISTK_CHECK(response.find("\"cache\": \"miss\"") != std::string::npos);
    return timer.ElapsedSeconds();
  }).mean;

  Table lat_table({"path", "per request"});
  lat_table.AddRow({"estimate (cache hit)", FmtF(hit_ns / 1e3, 1) + " us"});
  lat_table.AddRow({"learn (cold miss)", FmtF(cold_s * 1e3, 2) + " ms"});
  lat_table.Print(std::cout);

  // ------------------------------------------------ 3. governor saturation
  serve::ServeOptions saturated = Options(1);
  saturated.governor.max_sessions = 1;
  serve::HistkdServer full(saturated);
  // Load the dataset while the slot is free, then hold the only session
  // slot so every oracle-touching request takes the typed-rejection fast
  // path. The accessor is const (frontends only read counters); the bench
  // claims a slot the way an in-flight session would.
  const std::string full_ref = WarmAndGetRef(full, items);
  SessionGovernor& governor =
      const_cast<SessionGovernor&>(full.governor());  // NOLINT
  const Result<SessionGovernor::Permit> held = governor.Admit(1);
  HISTK_CHECK(held.ok());

  NextBenchLabel("governor_reject_per_s");
  const double reject_per_s = MeasureScalar(trials, [&](int64_t) {
    // A fresh seed fragments the synopsis key, so this is a would-be cold
    // learn: it must shed at the governor, not serve from cache.
    const std::string line = LearnLine(full_ref, 99, "shed");
    const WallTimer timer;
    for (int64_t i = 0; i < kRejects; ++i) {
      const std::string response = full.HandleLine(line);
      HISTK_CHECK(response.find("\"status\": \"unavailable\"") !=
                  std::string::npos);
    }
    return static_cast<double>(kRejects) / timer.ElapsedSeconds();
  }).mean;

  Table shed_table({"path", "req/s"});
  shed_table.AddRow({"typed 503 (slots full)", FmtF(reject_per_s, 0)});
  shed_table.Print(std::cout);

  // ------------------------------------ 4-5. request parse, dataset resolve
  // The store's side of the parsed line: a reuse (a re-shipped dataset
  // that is already stored: one pass to check, hash and probe, then the
  // content guard) and a load into an empty store (the same pass plus the
  // sampler build). Each gated figure is a same-run ratio: the median, over
  // interleaved rounds, of the per-round ratio of two timings, which a CI
  // floor can trust across machines. The rounds time four calls:
  //   * the parse (ParseRequestJson of the whole line);
  //   * the per-element scan the packed parse replaced: ScanJsonI64 and a
  //     push_back per item over the same array (serve_parse_packed_speedup
  //     is its time over the parse's);
  //   * a resolve reuse;
  //   * one plain read of the parsed items, a sum
  //     (serve_read_over_resolve_reuse is its time over the reuse's: what
  //     a reuse costs beyond touching each item once).
  const std::string ingest = IngestLine(20000);
  const int64_t kCalls = smoke ? 50 : 300;
  const Result<api::RequestSpec> parsed = api::ParseRequestJson(ingest);
  HISTK_CHECK(parsed.ok() && parsed->dataset.items.size() == 20000);
  HISTK_CHECK(ScanItemsPerElement(ingest) == parsed->dataset.items);
  const serve::ServeOptions defaults;
  serve::DatasetStore store(defaults.max_datasets, defaults.kernel);
  auto resolve = [&](serve::DatasetStore& into) {
    const Result<std::shared_ptr<serve::ServedDataset>> ds =
        into.Resolve(parsed->dataset, parsed->n, parsed->reservoir);
    HISTK_CHECK(ds.ok());
    benchmark::DoNotOptimize(ds);
  };
  resolve(store);  // the load; every later Resolve on `store` is a reuse
  auto per_call_us = [](int64_t calls, const std::function<void()>& call) {
    const WallTimer timer;
    for (int64_t i = 0; i < calls; ++i) call();
    return timer.ElapsedSeconds() * 1e6 / static_cast<double>(calls);
  };
  const std::vector<std::function<double()>> timings = {
      [&] {
        return per_call_us(kCalls, [&] {
          const Result<api::RequestSpec> req = api::ParseRequestJson(ingest);
          HISTK_CHECK(req.ok());
          benchmark::DoNotOptimize(req);
        });
      },
      [&] {
        return per_call_us(kCalls, [&] {
          const std::vector<int64_t> items = ScanItemsPerElement(ingest);
          benchmark::DoNotOptimize(items.data());
        });
      },
      [&] { return per_call_us(kCalls, [&] { resolve(store); }); },
      [&] {
        return per_call_us(4 * kCalls, [&] {
          const std::vector<int64_t>& items = parsed->dataset.items;
          int64_t sum = std::accumulate(items.begin(), items.end(), int64_t{0});
          benchmark::DoNotOptimize(sum);
        });
      },
  };
  enum { kParse, kPerElement, kReuse, kRead };
  const int64_t rounds = 3 * trials;
  std::vector<std::vector<double>> us(timings.size());
  std::vector<double> packed_speedup;
  std::vector<double> read_over_reuse;
  for (int64_t t = 0; t < rounds; ++t) {
    double round[4];
    // Forward on even rounds, backward on odd ones.
    for (size_t i = 0; i < timings.size(); ++i) {
      const size_t at = t % 2 == 0 ? i : timings.size() - 1 - i;
      round[at] = timings[at]();
      us[at].push_back(round[at]);
    }
    packed_speedup.push_back(round[kPerElement] / round[kParse]);
    read_over_reuse.push_back(round[kRead] / round[kReuse]);
  }
  auto record = [&](const char* label, const std::vector<double>& values) {
    NextBenchLabel(label);
    return MeasureScalar(static_cast<int64_t>(values.size()),
                         [&](int64_t t) { return values[static_cast<size_t>(t)]; });
  };
  const ScalarStats parse = record("serve_parse_items20000_us", us[kParse]);
  const ScalarStats reuse = record("serve_resolve_reuse_items20000_us", us[kReuse]);
  NextBenchLabel("serve_resolve_load_items20000_us");
  const ScalarStats load = MeasureScalar(trials, [&](int64_t) {
    return per_call_us(kCalls, [&] {
      serve::DatasetStore empty(defaults.max_datasets, defaults.kernel);
      resolve(empty);
    });
  });
  const ScalarStats per_element =
      record("serve_parse_per_element_items20000_us", us[kPerElement]);
  const ScalarStats read = record("serve_read_items20000_us", us[kRead]);
  const double ratios[] = {Median(packed_speedup), Median(read_over_reuse)};
  const char* const ratio_labels[] = {"serve_parse_packed_speedup",
                                      "serve_read_over_resolve_reuse"};
  for (int i = 0; i < 2; ++i) {
    NextBenchLabel(ratio_labels[i]);
    MeasureScalar(1, [&](int64_t) { return ratios[i]; });
  }

  Table parse_table({"request line", "parse", "per-element scan", "speedup",
                     "resolve (reuse)", "resolve (load)", "plain read",
                     "read / reuse"});
  parse_table.AddRow({std::to_string(ingest.size() / 1024) +
                          " KB, 20,000 inline items",
                      FmtF(parse.mean, 1) + " us", FmtF(per_element.mean, 1) + " us",
                      FmtF(ratios[0], 2), FmtF(reuse.mean, 1) + " us",
                      FmtF(load.mean, 1) + " us", FmtF(read.mean, 1) + " us",
                      FmtF(ratios[1], 3)});
  parse_table.Print(std::cout);

  std::printf(
      "\nshape check: hit throughput is tens of thousands of req/s and\n"
      "grows (or at worst stays flat) with workers; a cache-hit estimate\n"
      "is microseconds while a cold learn is milliseconds — orders of\n"
      "magnitude apart; governor rejections outpace hit serving (no\n"
      "engine work on the shed path); a 20,000-item line parses in\n"
      "well under a millisecond, and resolving its stored items costs a\n"
      "small fraction of that. BENCH_e16.json accumulates the\n"
      "records; CI smoke-diffs against bench/baselines/BENCH_e16.json.\n");
}

void BM_E16(benchmark::State& state) {
  for (auto _ : state) RunExperiment();
}
BENCHMARK(BM_E16)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace histk

BENCHMARK_MAIN();
