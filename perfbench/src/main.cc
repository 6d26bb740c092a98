// perfbench_driver — one benchmark run of histkd on one workload.
//
//   perfbench_driver --workload hit_read|cold_miss|ingest_test --seed N
//                    --seconds S --trace 0|1 --histkd PATH --run-dir DIR
//
// Starts histkd on a Unix socket (default flags plus --workers 3), sets it
// up kSetups times (median = setup_s), then drives the last one closed-
// loop for S seconds from one thread. Every response is checked (status,
// cache state, zero draws on estimate hits) and a seeded subset is
// byte-compared against an in-process HistkdServer::HandleLine replay.
// Throughput, latency and daemon CPU are taken over the quiet windows of
// the measured phase (see windows.h); ok_share covers every request.
// With --trace 1 the same lines are also replayed in-process through the
// layers' public calls (see trace.h) and the per-layer metrics are
// printed instead of the end-to-end ones. The last stdout line is the
// run's JSON result; DIR receives the run's detail file, the span file
// and the daemon log.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/json.h"
#include "client.h"
#include "latency.h"
#include "scan.h"
#include "serve/server.h"
#include "trace.h"
#include "windows.h"
#include "workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string histkd;
  std::string run_dir;
};

// One set-up is a single-threaded chain of warm learns, about 0.6 s, and a
// burst of host load can stretch one by a fifth; setup_s is the median of
// five, so one or two such set-ups do not move it.
constexpr int kSetups = 5;

// A run whose percentiles rest on fewer samples than this flags them.
constexpr int64_t kMinPercentileSamples = 100;

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--histkd") {
      args.histkd = value;
    } else if (flag == "--run-dir") {
      args.run_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && !args.histkd.empty() &&
         !args.run_dir.empty() && args.seconds > 0;
}

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double ClientCpuSeconds() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

const std::string kShutdown = R"({"id":"shutdown","kind":"shutdown"})";

/// The empty string when `response` is a correct answer to `line`.
std::string CheckResponse(const RequestLine& line, const std::string& response) {
  if (ScanString(response, "id") != line.id) return "id mismatch";
  const std::string status = ScanString(response, "status");
  if (status != "ok") return "status " + status + ": " + ScanString(response, "error");
  const std::string cache = ScanString(response, "cache");
  if (cache != CacheExpectName(line.cache)) {
    return std::string("cache ") + cache + ", expected " + CacheExpectName(line.cache);
  }
  double drawn = -1.0;
  if (!ScanNumber(response, "samples_drawn", drawn)) return "no samples_drawn";
  // A learn hit replays the original session's report (its telemetry
  // documents the learning cost); an estimate hit must have drawn nothing.
  if (line.kind == Kind::kEstimate && line.cache == CacheExpect::kHit && drawn != 0.0) {
    return "estimate hit drew samples";
  }
  return std::string();
}

/// A counter from a stats response: stats.<group>.<field>.
int64_t StatsField(const std::string& response, const char* group, const char* field) {
  histk::Result<histk::api::JsonValue> parsed = histk::api::ParseJson(response);
  if (!parsed.ok()) throw std::runtime_error("unparseable stats response");
  const histk::api::JsonValue* stats = parsed->Find("stats");
  const histk::api::JsonValue* g = stats == nullptr ? nullptr : stats->Find(group);
  const histk::api::JsonValue* f = g == nullptr ? nullptr : g->Find(field);
  if (f == nullptr || !f->AsI64().ok()) {
    throw std::runtime_error(std::string("stats lacks ") + group + "." + field);
  }
  return *f->AsI64();
}

/// Fields whose values the traced replay must reproduce exactly: tilings,
/// test decisions and estimate answers.
bool SameResults(const std::string& traced, const std::string& daemon) {
  // Every generated kind answers with a tiling or a decision; comparing
  // two responses that carry neither would prove nothing.
  if (ExtractMember(daemon, "tiling").empty() && ExtractMember(daemon, "accepted").empty()) {
    return false;
  }
  for (const char* key : {"cache", "tiling", "reduced", "estimate", "accepted",
                          "flat_partition", "candidate", "candidate_p", "candidate_q"}) {
    if (ExtractMember(traced, key) != ExtractMember(daemon, key)) return false;
  }
  return true;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;
  std::string note;
};

struct Kept {
  std::string line;
  std::string response;
};

/// Runs `fn`, naming the daemon's state in any error it throws.
template <typename Fn>
void WithDaemon(Daemon& daemon, Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string(e.what()) + " (histkd " + daemon.State() + ")");
  }
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) throw std::runtime_error("unknown workload " + args.workload);
  StreamGenerator gen(*spec, args.seed);
  const std::string tag = std::string(spec->name) + "-seed" + std::to_string(args.seed) +
                          "-trace" + (args.trace ? "1" : "0");
  const std::string socket_path =
      args.run_dir + "/histkd-" + std::to_string(getpid()) + ".sock";
  const std::string log_path = args.run_dir + "/histkd.log";
  const std::vector<std::string> daemon_args = {"--workers", "3", "--socket",
                                                socket_path};

  std::vector<std::string> failures;
  std::set<int64_t> failed;  // measured line indices that failed a check
  auto fail = [&](int64_t index, const std::string& why) {
    if (failures.size() < 20) failures.push_back(std::to_string(index) + ": " + why);
    if (index >= 0) failed.insert(index);
  };

  // ----------------------------------------------------------- set-up
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<ClosedLoop> loop;
  for (int s = 0; s < kSetups; ++s) {
    const auto t0 = Clock::now();
    daemon = std::make_unique<Daemon>(args.histkd, daemon_args, log_path);
    loop = std::make_unique<ClosedLoop>(
        ConnectAll(socket_path, spec->connections, *daemon, 30.0));
    WithDaemon(*daemon, [&] {
      const auto& phases = gen.setup_phases();
      for (size_t p = 0; p < phases.size(); ++p) {
        const std::vector<RequestLine>& phase = phases[p];
        // Dataset loads go one at a time, so the store sees them in stream
        // order; later phases use every connection.
        const std::vector<std::string> responses = loop->RunAll(phase, p == 0 ? 1 : 0);
        for (size_t i = 0; i < phase.size(); ++i) {
          const std::string why = CheckResponse(phase[i], responses[i]);
          if (!why.empty()) throw std::runtime_error("set-up " + phase[i].id + ": " + why);
        }
      }
    });
    setup_s.push_back(Seconds(t0, Clock::now()));
    if (s + 1 < kSetups) {
      loop->RoundTrip(kShutdown);
      loop.reset();
      if (!daemon->WaitForExit(30.0)) throw std::runtime_error("histkd did not shut down");
    }
  }

  // ----------------------------------------------------------- measure
  const std::string stats_before = loop->RoundTrip(R"({"id":"stats-before","kind":"stats"})");
  // One entry per measured response; figures are taken over the quiet
  // windows once the run is over.
  struct Sample {
    int64_t index;
    Kind kind;
    size_t window;  ///< the window the response arrived in
    double us;
  };
  std::vector<Sample> samples;
  std::vector<Mark> marks;
  double outside_us_sum = 0.0;
  double rtt_us_sum = 0.0;
  double draws = 0.0;
  double candidates = 0.0;
  double request_bytes = 0.0;
  double response_bytes = 0.0;
  int64_t sent = 0;
  int64_t checked_subset = 0;
  std::map<int64_t, Kept> kept;  // by measured index, for the replays
  const int64_t trace_lines = args.trace ? spec->trace_lines : 0;

  const double client_cpu_before = ClientCpuSeconds();
  marks.push_back(ReadMark(*daemon));
  const auto start = marks.back().at;
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(args.seconds));
  WithDaemon(*daemon, [&] {
    loop->Run(
        [&](RequestLine& line) {
          const auto now = Clock::now();
          if (now >= deadline) return false;
          if (now >= marks.back().at + kWindowPeriod) marks.push_back(ReadMark(*daemon));
          line = gen.Next();
          ++sent;
          return true;
        },
        [&](const RequestLine& line, std::string& response, int64_t rtt_ns) {
          const double us = static_cast<double>(rtt_ns) / 1e3;
          samples.push_back({line.index, line.kind, marks.size() - 1, us});
          request_bytes += static_cast<double>(line.text.size() + 1);
          response_bytes += static_cast<double>(response.size() + 1);
          const std::string why = CheckResponse(line, response);
          if (!why.empty()) fail(line.index, why);
          double serve_ms = 0.0;
          if (ScanNumber(response, "serve_ms", serve_ms)) {
            outside_us_sum += us - serve_ms * 1e3;
          }
          rtt_us_sum += us;
          double value = 0.0;
          if (line.cache != CacheExpect::kHit && ScanNumber(response, "samples_drawn", value)) {
            draws += value;
          }
          if (ScanNumber(response, "candidates_per_iter", value)) candidates += value;
          const bool in_subset = checked_subset < spec->check_cap && gen.InCheckSubset(line.index);
          if (line.index < trace_lines || in_subset) {
            if (in_subset) ++checked_subset;
            kept[line.index] = Kept{line.text, std::move(response)};
          }
        });
  });
  // The last window ends when the last in-flight request is answered.
  marks.push_back(ReadMark(*daemon));
  const std::vector<Window> windows = WindowsBetween(marks);
  const double client_cpu_s = ClientCpuSeconds() - client_cpu_before;
  const std::string stats_after = loop->RoundTrip(R"({"id":"stats-after","kind":"stats"})");
  const int64_t peak_rss_kb = daemon->PeakRssKb();
  loop->RoundTrip(kShutdown);
  loop.reset();
  if (!daemon->WaitForExit(30.0)) fail(-1, "histkd did not shut down cleanly");
  daemon.reset();

  // Conservation: the daemon saw exactly the lines sent, none rejected.
  const int64_t expected_total = gen.setup_line_count() + 1 + sent;
  if (StatsField(stats_after, "requests", "total") != expected_total) {
    fail(-1, "stats requests.total " +
                 std::to_string(StatsField(stats_after, "requests", "total")) +
                 " != lines sent " + std::to_string(expected_total));
  }
  for (const char* field : {"failures", "rejected", "no_kind_errors"}) {
    if (StatsField(stats_after, "requests", field) != 0) {
      fail(-1, std::string("stats requests.") + field + " is not 0");
    }
  }
  if (StatsField(stats_after, "governor", "rejected") != 0) {
    fail(-1, "stats governor.rejected is not 0");
  }
  auto delta = [&](const char* group, const char* field) {
    return static_cast<double>(StatsField(stats_after, group, field) -
                               StatsField(stats_before, group, field));
  };

  // ------------------------------------------------ in-process replays
  // The reference server is set up like the daemon and then answers the
  // kept lines in stream order; their responses must match the daemon's
  // byte for byte once the timing fields are zeroed. With --trace 1 the
  // traced replay answers each of the first trace_lines lines right after
  // the reference server does, so both are timed under the same load.
  double handle_ns = 0.0;  // HandleLine time over the traced lines
  LayerTotals layers;
  int64_t traced = 0;
  {
    histk::serve::ServeOptions options;
    options.workers = 3;
    options.fs_refs.allow = false;
    histk::serve::HistkdServer server(options);
    const auto& phases = gen.setup_phases();
    std::mutex mu;
    int64_t bad = 0;
    for (size_t p = 0; p < phases.size(); ++p) {
      for (const RequestLine& line : phases[p]) {
        auto check = [&mu, &bad, &line](const std::string& response) {
          std::lock_guard<std::mutex> lock(mu);
          if (!CheckResponse(line, response).empty()) ++bad;
        };
        if (p == 0) {
          check(server.HandleLine(line.text));
        } else {
          server.Submit(line.text, check);
        }
      }
      server.Drain();
    }
    if (bad > 0) throw std::runtime_error("in-process set-up failed");

    std::unique_ptr<TracedReplay> replay;
    if (args.trace) {
      replay = std::make_unique<TracedReplay>();
      for (const std::vector<RequestLine>& phase : phases) {
        for (const RequestLine& line : phase) replay->Handle(line.text, -1, nullptr);
      }
    }
    Tracer tracer;
    for (auto& [index, entry] : kept) {
      const auto t0 = Clock::now();
      std::string response = server.HandleLine(entry.line);
      const double ns = Seconds(t0, Clock::now()) * 1e9;
      if (!response.empty() && response.back() == '\n') response.pop_back();
      if (ZeroTimings(response) != ZeroTimings(entry.response)) {
        fail(index, "differs from the in-process HandleLine replay");
      }
      if (index >= trace_lines) continue;
      handle_ns += ns;
      ++traced;
      if (!SameResults(replay->Handle(entry.line, index, &tracer), entry.response)) {
        fail(index, "traced replay disagrees with the daemon");
      }
    }
    if (replay != nullptr) {
      layers = SumSelfTimes(tracer.spans());
      WriteSpans(args.run_dir + "/" + tag + ".spans.tsv", tracer.spans());
    }
  }

  // ------------------------------------------------------------ metrics
  const int64_t ok = sent - static_cast<int64_t>(failed.size());
  const double per_req = sent > 0 ? 1.0 / static_cast<double>(sent) : 0.0;
  // Throughput, latency and daemon CPU over the quiet windows only.
  const std::vector<bool> quiet = QuietWindows(windows);
  double quiet_s = 0.0;
  int64_t quiet_ticks = 0;
  int64_t quiet_windows = 0;
  for (size_t w = 0; w < windows.size(); ++w) {
    if (!quiet[w]) continue;
    quiet_s += Seconds(windows[w].begin, windows[w].end);
    quiet_ticks += windows[w].daemon_ticks;
    ++quiet_windows;
  }
  std::vector<int64_t> responses(windows.size(), 0);
  std::array<std::vector<double>, kNumKinds> rtt_us;
  std::vector<double> all_us;
  int64_t quiet_ok = 0;
  for (const Sample& sample : samples) {
    ++responses[sample.window];
    if (!quiet[sample.window]) continue;
    if (failed.count(sample.index) == 0) ++quiet_ok;
    rtt_us[static_cast<size_t>(sample.kind)].push_back(sample.us);
    all_us.push_back(sample.us);
  }
  const int64_t quiet_n = static_cast<int64_t>(all_us.size());
  std::sort(all_us.begin(), all_us.end());
  Histogram all_hist;
  for (double us : all_us) all_hist.Add(us);
  const PercentileReport p50 = Percentile(all_us, 0.5, all_hist);
  const PercentileReport p90 = Percentile(all_us, 0.9, all_hist);
  auto flags = [](const PercentileReport& p) {
    std::string out = "beyond=" + std::to_string(p.beyond);
    if (p.few_beyond) out += " FLAG:fewer-than-10-beyond";
    if (p.in_gap) out += " FLAG:in-histogram-gap";
    if (p.samples < kMinPercentileSamples) out += " FLAG:fewer-than-100-samples";
    return out;
  };

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s", static_cast<int64_t>(setup_s.size()),
         "median of set-ups"},
        {"req_per_s", quiet_s > 0 ? static_cast<double>(quiet_ok) / quiet_s : 0.0, "1/s",
         quiet_n, "ok responses / quiet wall time"},
        {"p50_ms", p50.value_us / 1e3, "ms", p50.samples, flags(p50)},
        {"p90_ms", p90.value_us / 1e3, "ms", p90.samples, flags(p90)},
        {"ok_share", sent > 0 ? static_cast<double>(ok) / static_cast<double>(sent) : 0.0,
         "ratio", sent, ""},
        {"cpu_ms_per_req",
         quiet_n > 0 ? static_cast<double>(quiet_ticks) * 1e3 /
                           static_cast<double>(sysconf(_SC_CLK_TCK)) /
                           static_cast<double>(quiet_n)
                     : 0.0,
         "ms", quiet_n, "daemon utime+stime in quiet windows"},
        {"peak_rss_mb", static_cast<double>(peak_rss_kb) / 1024.0, "MB", 1, "daemon VmHWM"},
    };
  } else {
    const double request_ns = layers.request_ns > 0 ? layers.request_ns : 1.0;
    const double traced_per_req = traced > 0 ? 1.0 / static_cast<double>(traced) : 0.0;
    double layer_sum_ns = 0.0;
    for (int l = 1; l < kNumLayers; ++l) {
      const double self = layers.self_ns[static_cast<size_t>(l)];
      layer_sum_ns += self;
      const std::string name = LayerName(static_cast<Layer>(l));
      metrics.push_back({name + "_us", self / 1e3 * traced_per_req, "us", traced, "traced"});
      metrics.push_back({name + ".share", self / request_ns, "ratio", traced, "traced"});
    }
    metrics.push_back({"histkd.outside_us", outside_us_sum * per_req, "us", sent,
                       "round trip minus serve_ms"});
    metrics.push_back({"histkd.outside.share", rtt_us_sum > 0 ? outside_us_sum / rtt_us_sum : 0.0,
                       "ratio", sent, ""});
    const double lookups = delta("cache", "hits") + delta("cache", "misses");
    const double resolves = delta("datasets", "loads") + delta("datasets", "reuses");
    metrics.push_back({"sample.draws_per_req", draws * per_req, "count", sent,
                       "report telemetry, sessions that ran"});
    metrics.push_back({"core.candidates_per_iter", candidates * per_req, "count", sent,
                       "report telemetry"});
    metrics.push_back({"serve.cache_hit_ratio",
                       lookups > 0 ? delta("cache", "hits") / lookups : 0.0, "ratio", sent,
                       "stats"});
    metrics.push_back({"serve.cache_evictions_per_req", delta("cache", "evictions") * per_req,
                       "count", sent, "stats"});
    metrics.push_back({"serve.store_loads_per_req", delta("datasets", "loads") * per_req,
                       "count", sent, "stats"});
    metrics.push_back({"serve.store_reuse_ratio",
                       resolves > 0 ? delta("datasets", "reuses") / resolves : 0.0, "ratio",
                       sent, "stats"});
    metrics.push_back({"engine.rejected_per_req", delta("requests", "rejected") * per_req,
                       "count", sent, "stats"});
    metrics.push_back({"api.request_kb", request_bytes * per_req / 1024.0, "kB", sent, ""});
    metrics.push_back({"api.response_kb", response_bytes * per_req / 1024.0, "kB", sent, ""});
    metrics.push_back({"traced.coverage", handle_ns > 0 ? layer_sum_ns / handle_ns : 0.0,
                       "ratio", traced, "layer self time / HandleLine time"});
  }

  // ------------------------------------------------------------- report
  const double steal_share = StealShare(marks.front().machine, marks.back().machine);
  std::printf("perfbench %s seed=%llu trace=%d: %lld sent, %lld failed, %lld of %zu windows "
              "quiet, host steal %.1f%%\n",
              spec->name, static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              static_cast<long long>(sent), static_cast<long long>(failed.size()),
              static_cast<long long>(quiet_windows), windows.size(), 100.0 * steal_share);
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.6g %-6s n=%-9lld %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                static_cast<long long>(m.samples), m.note.c_str());
  }
  std::printf("  client_cpu_ms_per_req            %14.6g ms     (load generator)\n",
              client_cpu_s * 1e3 * per_req);
  // Per window: responses, and the share of this machine's CPU time the
  // host took (a trailing * marks the windows left out as not quiet).
  std::printf("  responses / steal %% per window:");
  for (size_t w = 0; w < windows.size(); ++w) {
    std::printf(" %lld/%.0f%s", static_cast<long long>(responses[w]),
                100.0 * windows[w].steal_share, quiet[w] ? "" : "*");
  }
  std::printf("\n");
  std::printf("  set-ups (s):");
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n  per-kind latency in quiet windows (us):\n");
  std::string histograms_json;
  for (int k = 0; k < kNumKinds; ++k) {
    std::vector<double>& kind_us = rtt_us[static_cast<size_t>(k)];
    if (kind_us.empty()) continue;
    std::sort(kind_us.begin(), kind_us.end());
    Histogram hist;
    for (double us : kind_us) hist.Add(us);
    const PercentileReport kp50 = Percentile(kind_us, 0.5, hist);
    const PercentileReport kp90 = Percentile(kind_us, 0.9, hist);
    const char* name = KindName(static_cast<Kind>(k));
    std::printf("    %s: n=%zu p50=%.1f (%s) p90=%.1f (%s)\n", name, kind_us.size(),
                kp50.value_us, flags(kp50).c_str(), kp90.value_us, flags(kp90).c_str());
    std::printf("%s", hist.Render("      ").c_str());
    if (!histograms_json.empty()) histograms_json += ", ";
    histograms_json += "\"" + std::string(name) + "\": [";
    bool first = true;
    for (size_t b = 0; b < hist.counts.size(); ++b) {
      if (hist.counts[b] == 0) continue;
      if (!first) histograms_json += ", ";
      first = false;
      histograms_json += "[";
      histk::api::AppendJsonDouble(histograms_json, BucketLowerUs(static_cast<int>(b)));
      histograms_json += ", " + std::to_string(hist.counts[b]) + "]";
    }
    histograms_json += "]";
  }
  for (const std::string& f : failures) std::printf("  FAILED %s\n", f.c_str());

  const bool correct = failures.empty();
  std::string result = "{\"correct\": ";
  result += correct ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(sent);
  result += ", \"failed\": " + std::to_string(static_cast<int64_t>(failed.size()) +
                                             (correct || !failed.empty() ? 0 : 1));
  result += ", \"metrics\": {";
  std::string detail_metrics;
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::string value;
    histk::api::AppendJsonDouble(value, m.value);
    const std::string sep = i > 0 ? ", " : "";
    result += sep + "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
    detail_metrics += sep + "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
                      m.unit + "\", \"samples\": " + std::to_string(m.samples) + ", \"note\": ";
    histk::api::AppendJsonString(detail_metrics, m.note);
    detail_metrics += "}";
  }
  result += "}}";

  std::string detail = "{\"workload\": \"" + std::string(spec->name) + "\", \"seed\": " +
                       std::to_string(args.seed) + ", \"trace\": " + (args.trace ? "1" : "0") +
                       ", \"result\": " + result + ", \"metrics\": {" + detail_metrics +
                       "}, \"histograms_us\": {" + histograms_json + "}, \"client_cpu_ms_per_req\": ";
  histk::api::AppendJsonDouble(detail, client_cpu_s * 1e3 * per_req);
  detail += ", \"steal_share\": ";
  histk::api::AppendJsonDouble(detail, steal_share);
  detail += ", \"windows\": " + std::to_string(windows.size()) +
            ", \"quiet_windows\": " + std::to_string(quiet_windows);
  detail += ", \"failures\": [";
  for (size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) detail += ", ";
    histk::api::AppendJsonString(detail, failures[i]);
  }
  detail += "]}\n";
  std::ofstream(args.run_dir + "/" + tag + ".json") << detail;

  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload W --seed N --seconds S --trace 0|1 "
                 "--histkd PATH --run-dir DIR\n");
    return 2;
  }
  try {
    return perfbench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
