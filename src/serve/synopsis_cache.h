// The learned-synopsis LRU: the economic core of the serving daemon. A
// learned k-tiling is a few hundred bytes but costs tens of thousands of
// oracle draws; a repeat learn/estimate request with the same canonical
// key (api::CanonicalSynopsisKey — dataset fingerprint + every
// learn-determining knob) provably reruns the identical session, so the
// cache serves it at memory speed with zero oracle draws and reports
// `"cache": "hit"`.
//
// Entries are immutable and handed out as shared_ptr<const ...>: an
// eviction never invalidates a response another worker is still
// assembling. Only non-degraded sessions are cached — a deadline-truncated
// tiling is a best-effort answer, not a reusable synopsis.
#ifndef HISTK_SERVE_SYNOPSIS_CACHE_H_
#define HISTK_SERVE_SYNOPSIS_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/greedy.h"
#include "engine/engine.h"

namespace histk {
namespace serve {

/// Everything Engine::AnswerFromSynopsis needs to answer a learn or
/// estimate request without touching the oracle: the LearnResult itself
/// plus the original session's telemetry and retry count.
struct CachedSynopsis {
  CachedSynopsis(LearnResult result_in, ReportTelemetry telemetry_in,
                 int64_t retries_in)
      : result(std::move(result_in)),
        telemetry(std::move(telemetry_in)),
        retries(retries_in) {}

  LearnResult result;
  ReportTelemetry telemetry;
  int64_t retries = 0;
};

/// Thread-safe string-keyed LRU. Capacity is an entry count — a synopsis
/// is O(k) memory, so even thousands of entries are negligible next to
/// one served dataset.
class SynopsisCache {
 public:
  explicit SynopsisCache(int64_t capacity);

  /// nullptr on miss. A hit refreshes the entry's LRU position.
  std::shared_ptr<const CachedSynopsis> Lookup(const std::string& key);

  /// Inserts (or replaces) and evicts the least-recently-used entry when
  /// over capacity.
  void Insert(const std::string& key,
              std::shared_ptr<const CachedSynopsis> synopsis);

  struct Counters {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t insertions = 0;
    int64_t evictions = 0;
    int64_t entries = 0;
  };
  Counters counters() const;

 private:
  using LruList =
      std::list<std::pair<std::string, std::shared_ptr<const CachedSynopsis>>>;

  mutable std::mutex mu_;
  int64_t capacity_;
  LruList lru_;  // front = most recently used
  std::unordered_map<std::string, LruList::iterator> index_;
  Counters counters_;
};

}  // namespace serve
}  // namespace histk

#endif  // HISTK_SERVE_SYNOPSIS_CACHE_H_
