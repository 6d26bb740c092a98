// The histkd serving core, framed as a library so tests drive the whole
// request loop in-process: `HandleLine` takes one NDJSON request line and
// returns one response envelope line; `Submit`/`Drain` run the same path
// on a fixed worker pool behind a bounded queue.
//
// Concurrency model (everything here must be safe under `workers`
// threads plus arbitrary frontend threads):
//   * Engine sessions are stateless and samplers immutable — any number
//     of workers run concurrently against one ServedDataset entry.
//   * One shared SessionGovernor admits every oracle-touching session;
//     kUnavailable becomes a wire-level 503 with a retry_after_ms hint.
//     A full submit queue is the same typed rejection, before any work.
//   * The synopsis cache and dataset store are internally locked; cache
//     hits bypass the governor entirely (they draw nothing — absorbing
//     repeat traffic without occupying a session slot is the point).
//   * Latency telemetry rides the lock-free ConcurrentHistogram, one per
//     request kind; the `stats` request answers from snapshots plus a
//     few mutex-guarded counters. No atomics (lint: atomics-containment)
//     — the counters are cold, one lock per request.
#ifndef HISTK_SERVE_SERVER_H_
#define HISTK_SERVE_SERVER_H_

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/request.h"
#include "dist/sampler.h"
#include "engine/engine.h"
#include "engine/runtime.h"
#include "serve/dataset_store.h"
#include "serve/synopsis_cache.h"
#include "stream/concurrent_histogram.h"

namespace histk {
namespace serve {

/// Most worker threads a server starts: each worker is one OS thread, so
/// `workers` is clamped to [1, kMaxWorkers] (histkd rejects larger values).
constexpr int kMaxWorkers = 256;

struct ServeOptions {
  /// Worker threads draining the submit queue, clamped to [1, kMaxWorkers].
  int workers = 4;
  /// Submit-queue depth before requests are rejected with kUnavailable.
  int64_t queue_limit = 256;
  /// Shared admission control for every oracle-touching session.
  SessionGovernor::Limits governor;
  /// Learned-synopsis LRU capacity (entries).
  int64_t cache_entries = 64;
  /// Dataset store LRU capacity (entries).
  int64_t max_datasets = 16;
  /// Draw kernel for oracles the store builds. kCounts: sample sets are
  /// drawn as count vectors (same law as replay, its own stream).
  AliasKernel kernel = AliasKernel::kCounts;
  /// What "path"/"sketch" dataset refs may open (default: unrestricted —
  /// the socket frontend tightens this; see histkd --data-root).
  FsRefPolicy fs_refs;
};

class HistkdServer {
 public:
  explicit HistkdServer(const ServeOptions& options);
  ~HistkdServer();

  HistkdServer(const HistkdServer&) = delete;
  HistkdServer& operator=(const HistkdServer&) = delete;

  /// The whole request loop, synchronously: parse, dispatch, respond.
  /// Never throws; every failure is a schema-valid error envelope.
  /// Thread-safe — this IS the worker body.
  std::string HandleLine(const std::string& line);

  /// Queue the line for the worker pool; `done` receives the response
  /// line (possibly immediately, on queue overflow) from an unspecified
  /// thread.
  void Submit(std::string line, std::function<void(std::string)> done);

  /// Blocks until the queue is empty and all workers are idle.
  void Drain();

  /// Set by a `shutdown` request; frontends poll it between lines.
  bool shutdown_requested() const;

  /// The stats payload (one JSON object, no trailing newline) — what a
  /// `stats` request returns under "stats".
  std::string StatsJson() const;

  const SessionGovernor& governor() const { return governor_; }
  SynopsisCache::Counters cache_counters() const { return cache_.counters(); }
  DatasetStore::Counters dataset_counters() const {
    return datasets_.counters();
  }

 private:
  static constexpr size_t kNumKinds = 8;  // RequestKind cardinality

  struct Job {
    std::string line;
    std::function<void(std::string)> done;
  };

  /// Resolve dataset(s), build the spec, consult the cache, run the
  /// session. On success fills `report` and env.cache/env.fingerprint.
  Status RunTask(const api::RequestSpec& req, api::ResponseEnvelope& env,
                 Report& report);

  /// Single accounting point: totals, per-kind latency, failure classes.
  void Account(bool has_kind, api::RequestKind kind,
               const api::ResponseEnvelope& env, double elapsed_ms);

  void WorkerLoop();

  const ServeOptions options_;
  SessionGovernor governor_;
  SynopsisCache cache_;
  DatasetStore datasets_;

  /// Per-request-kind serving latency in microseconds (lock-free ingest;
  /// the stats request reads consistent snapshots).
  std::array<ConcurrentHistogram, kNumKinds> latency_us_;

  mutable std::mutex stats_mu_;
  int64_t requests_total_ = 0;
  int64_t no_kind_errors_ = 0;  ///< unparseable lines (no kind histogram)
  int64_t failures_ = 0;        ///< kind known, request-level failure
  int64_t rejected_ = 0;        ///< kUnavailable (admission or queue full)
  bool shutdown_ = false;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;    ///< work available / stopping
  std::condition_variable drained_cv_;  ///< queue empty and workers idle
  std::deque<Job> queue_;
  int busy_workers_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace serve
}  // namespace histk

#endif  // HISTK_SERVE_SERVER_H_
