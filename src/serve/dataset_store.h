// The daemon's dataset registry: resolves a request's DatasetRef (inline
// items, a server-side item file, a ConcurrentHistogram sketch, or a bare
// content fingerprint) into an immutable, shareable session — oracle,
// Engine, and optional truth — keyed by content fingerprint.
//
// Entries are handed out as shared_ptr and never mutated after
// construction (the one lazy member, the compare-task truth engine, is
// built under std::call_once), so any number of worker threads can run
// concurrent sessions against one entry while the store evicts it behind
// their backs. Clients upload a dataset once, learn its fingerprint from
// the response envelope, and address every follow-up request by
// `{"fingerprint": ...}` — the idiom that makes the synopsis cache
// worthwhile.
#ifndef HISTK_SERVE_DATASET_STORE_H_
#define HISTK_SERVE_DATASET_STORE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/request.h"
#include "dist/dataset.h"
#include "dist/distribution.h"
#include "dist/sampler.h"
#include "engine/engine.h"
#include "util/status.h"

namespace histk {
namespace serve {

/// What filesystem-backed dataset refs ("path"/"sketch") may open.
/// Defaults to unrestricted — right for in-process use and the stdio
/// frontend, where the caller already has filesystem access. A daemon
/// serving untrusted socket clients must either disable fs refs or jail
/// them to a data root, or any client can read server-side files.
struct FsRefPolicy {
  /// false: reject every path/sketch ref (inline items and fingerprints
  /// still work).
  bool allow = true;
  /// Non-empty: canonicalize each ref (realpath, so ".." and symlinks
  /// cannot escape) and require it to live under this directory.
  std::string root;
};

/// One served dataset: the oracle plus the Engine facade(s) over it.
/// Immutable after construction except the lazily built truth engine.
class ServedDataset {
 public:
  /// Item-backed: aborts delegated to DatasetSampler's contract are
  /// pre-checked here and returned as Status instead. `n` = 0 derives the
  /// domain as max(item) + 1.
  static Result<std::shared_ptr<ServedDataset>> FromItems(
      int64_t n, std::vector<int64_t> items, AliasKernel kernel);

  /// Sketch-backed: the snapshot's occupied log-buckets become a
  /// bucket-backed Distribution (exact on the occupied buckets), an
  /// AliasSampler over it is the oracle, and the bridged distribution
  /// doubles as the session truth — same bridge as TelemetrySession.
  /// `wire` is the canonical WriteSnapshot serialization (fingerprinted).
  static Result<std::shared_ptr<ServedDataset>> FromSketchWire(
      const std::string& wire, AliasKernel kernel);

  int64_t n() const { return n_; }
  uint64_t fingerprint() const { return fingerprint_; }
  const std::string& fingerprint_hex() const { return fingerprint_hex_; }
  /// Items ingested (0 for sketch-backed entries).
  int64_t item_count() const { return item_count_; }
  bool sketch_backed() const { return bridged_ != nullptr; }

  /// The session oracle (for ClosenessSpec::other wiring).
  const Sampler& oracle() const;

  /// The default session: item-backed entries have no truth (estimate
  /// answers carry no truth column); sketch-backed entries carry the
  /// bridged distribution as truth.
  const Engine& engine() const { return *engine_; }

  /// Content-equality guards for fingerprint reuse: the 64-bit FNV-1a
  /// fingerprint is not collision-resistant, so the store re-verifies the
  /// actual content whenever new bytes hash onto a live entry — a crafted
  /// collision becomes a typed error instead of silently serving answers
  /// (and cached synopses) computed from different data.
  bool MatchesItems(int64_t n, const std::vector<int64_t>& items) const;
  bool MatchesSketchWire(const std::string& wire) const;

  /// A session with ground truth, for compare tasks: sketch-backed entries
  /// already have one; item-backed entries lazily build the dense
  /// empirical pmf (guarded by kMaxTruthDomain — compare against a huge
  /// item domain would allocate n doubles).
  Result<const Engine*> TruthEngine() const;

  static constexpr int64_t kMaxTruthDomain = int64_t{1} << 22;

 private:
  ServedDataset() = default;

  int64_t n_ = 0;
  uint64_t fingerprint_ = 0;
  std::string fingerprint_hex_;
  int64_t item_count_ = 0;

  // Item-backed members.
  std::unique_ptr<DatasetSampler> items_oracle_;
  // Sketch-backed members (bridged_ doubles as the session truth).
  std::unique_ptr<Distribution> bridged_;
  std::unique_ptr<AliasSampler> sketch_oracle_;
  std::string sketch_wire_;  // canonical bytes, kept for collision checks

  std::unique_ptr<Engine> engine_;

  mutable std::once_flag truth_once_;
  mutable std::unique_ptr<Engine> truth_engine_;
  mutable Status truth_status_;
};

/// Fingerprint-keyed LRU of served datasets.
class DatasetStore {
 public:
  DatasetStore(int64_t max_entries, AliasKernel kernel,
               FsRefPolicy fs_refs = FsRefPolicy{});

  /// Resolves a ref: loads + registers new content (inline/path/sketch),
  /// reuses the existing entry when the fingerprint is already live, and
  /// looks up bare fingerprint refs (InvalidArgument when unknown — the
  /// client must resend the dataset). `n` and `reservoir` are the
  /// request's domain/e cap knobs for fresh loads.
  Result<std::shared_ptr<ServedDataset>> Resolve(const api::DatasetRef& ref,
                                                 int64_t n, int64_t reservoir);

  struct Counters {
    int64_t entries = 0;
    int64_t loads = 0;    ///< fresh content loads
    int64_t reuses = 0;   ///< resolved to an already-live entry
    int64_t evictions = 0;
  };
  Counters counters() const;

 private:
  std::shared_ptr<ServedDataset> LookupLocked(uint64_t fingerprint);
  void InsertLocked(std::shared_ptr<ServedDataset> dataset);
  /// Applies the FsRefPolicy to a path/sketch ref: the path to open on
  /// success (canonicalized when a root is configured), a typed error
  /// when fs refs are disabled or the path escapes the root.
  Result<std::string> CheckFsRef(const std::string& path) const;

  mutable std::mutex mu_;
  int64_t max_entries_;
  AliasKernel kernel_;
  FsRefPolicy fs_refs_;
  Status fs_root_status_ = Status::Ok();  ///< bad --data-root, surfaced per ref
  std::string canonical_root_;
  std::list<std::shared_ptr<ServedDataset>> lru_;  // front = most recent
  std::unordered_map<uint64_t, std::list<std::shared_ptr<ServedDataset>>::iterator>
      index_;
  Counters counters_;
};

}  // namespace serve
}  // namespace histk

#endif  // HISTK_SERVE_DATASET_STORE_H_
