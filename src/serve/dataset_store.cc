#include "serve/dataset_store.h"

#include <cstdlib>

#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dist/io.h"
#include "serve/fingerprint.h"
#include "stream/concurrent_histogram.h"

namespace histk {
namespace serve {

namespace {

/// realpath() wrapper: absolute, symlink- and dot-free, or an error.
Result<std::string> CanonicalPath(const std::string& path) {
  char* resolved = ::realpath(path.c_str(), nullptr);
  if (resolved == nullptr) {
    return Status::InvalidArgument("cannot resolve path \"" + path + "\"");
  }
  std::string out(resolved);
  std::free(resolved);
  return out;
}

/// The typed error for a fingerprint that hashes onto different content.
Status CollisionError(const std::string& hex) {
  return Status::Internal(
      "dataset fingerprint collision on " + hex +
      ": the uploaded content differs from the live entry with the same "
      "fingerprint; it cannot be served under this identity");
}

/// An item list's domain and fingerprint, from one pass over the items.
struct CheckedItems {
  int64_t n = 0;
  uint64_t fingerprint = 0;
};

/// Checks what DatasetSampler would otherwise abort on and resolves the
/// domain (`n` <= 0 derives it as max(item) + 1), which the fingerprint
/// depends on. The pass's max is an unsigned word, so one comparison
/// also finds a negative item.
Result<CheckedItems> CheckItems(int64_t n, const std::vector<int64_t>& items) {
  if (items.empty()) {
    return Status::InvalidArgument("dataset has no items");
  }
  const ItemsFingerprinter hashed(items);
  if (hashed.max_word() >> 63 != 0) {
    return Status::InvalidArgument("dataset items must be >= 0");
  }
  const auto max_item = static_cast<int64_t>(hashed.max_word());
  if (max_item == std::numeric_limits<int64_t>::max()) {
    // No int64 domain [0, n) holds it, and deriving n would overflow.
    return Status::InvalidArgument("dataset item " + std::to_string(max_item) +
                                   " outside every int64 domain");
  }
  if (n <= 0) n = max_item + 1;
  if (max_item >= n) {
    return Status::InvalidArgument(
        "dataset item " + std::to_string(max_item) + " outside domain [0, " +
        std::to_string(n) + ")");
  }
  return CheckedItems{n, hashed.Finish(n)};
}

}  // namespace

Result<std::shared_ptr<ServedDataset>> ServedDataset::FromItems(
    int64_t n, std::vector<int64_t> items, AliasKernel kernel) {
  Result<CheckedItems> checked = CheckItems(n, items);
  if (!checked.ok()) return checked.status();
  return FromCheckedItems(checked->n, checked->fingerprint, std::move(items),
                          kernel);
}

std::shared_ptr<ServedDataset> ServedDataset::FromCheckedItems(
    int64_t n, uint64_t fingerprint, std::vector<int64_t> items,
    AliasKernel kernel) {
  std::shared_ptr<ServedDataset> ds(new ServedDataset());
  ds->n_ = n;
  ds->item_count_ = static_cast<int64_t>(items.size());
  ds->fingerprint_ = fingerprint;
  ds->fingerprint_hex_ = FingerprintHex(fingerprint);
  ds->items_oracle_ =
      std::make_unique<DatasetSampler>(n, std::move(items), kernel);
  ds->engine_ = std::make_unique<Engine>(*ds->items_oracle_);
  return ds;
}

Result<std::shared_ptr<ServedDataset>> ServedDataset::FromSketchWire(
    const std::string& wire, AliasKernel kernel) {
  std::istringstream is(wire);
  Result<HistogramSnapshot> snap = ParseSnapshot(is);
  if (!snap.ok()) return snap.status();
  Result<Distribution> bridged = snap->ToBucketDistribution();
  if (!bridged.ok()) return bridged.status();
  std::shared_ptr<ServedDataset> ds(new ServedDataset());
  ds->n_ = bridged->n();
  ds->fingerprint_ = FingerprintSketchBytes(wire);
  ds->fingerprint_hex_ = FingerprintHex(ds->fingerprint_);
  ds->sketch_wire_ = wire;
  ds->bridged_ = std::make_unique<Distribution>(std::move(*bridged));
  ds->sketch_oracle_ = std::make_unique<AliasSampler>(*ds->bridged_, kernel);
  // Same bridge as TelemetrySession: the bridged distribution doubles as
  // the session truth, so compare/estimate report against the sketch.
  ds->engine_ = std::make_unique<Engine>(*ds->sketch_oracle_, *ds->bridged_);
  return ds;
}

const Sampler& ServedDataset::oracle() const {
  if (items_oracle_ != nullptr) return *items_oracle_;
  return *sketch_oracle_;
}

bool ServedDataset::MatchesItems(int64_t n,
                                 const std::vector<int64_t>& items) const {
  return items_oracle_ != nullptr && n_ == n && items_oracle_->items() == items;
}

bool ServedDataset::MatchesSketchWire(const std::string& wire) const {
  return sketch_oracle_ != nullptr && sketch_wire_ == wire;
}

Result<const Engine*> ServedDataset::TruthEngine() const {
  if (sketch_backed()) return engine_.get();  // already carries truth
  std::call_once(truth_once_, [this] {
    if (n_ > kMaxTruthDomain) {
      truth_status_ = Status::InvalidArgument(
          "compare needs a dense ground truth; domain " + std::to_string(n_) +
          " exceeds the serving cap " + std::to_string(kMaxTruthDomain));
      return;
    }
    truth_engine_ = std::make_unique<Engine>(*items_oracle_,
                                             items_oracle_->EmpiricalDist());
  });
  if (!truth_status_.ok()) return truth_status_;
  return truth_engine_.get();
}

DatasetStore::DatasetStore(int64_t max_entries, AliasKernel kernel,
                           FsRefPolicy fs_refs)
    : max_entries_(max_entries < 1 ? 1 : max_entries),
      kernel_(kernel),
      fs_refs_(std::move(fs_refs)) {
  if (fs_refs_.allow && !fs_refs_.root.empty()) {
    Result<std::string> canonical = CanonicalPath(fs_refs_.root);
    if (canonical.ok()) {
      canonical_root_ = std::move(*canonical);
    } else {
      fs_root_status_ = Status::InvalidArgument(
          "configured data root \"" + fs_refs_.root + "\" does not resolve");
    }
  }
}

Result<std::string> DatasetStore::CheckFsRef(const std::string& path) const {
  if (!fs_refs_.allow) {
    return Status::InvalidArgument(
        "filesystem dataset refs are disabled on this server; send the "
        "items inline or reference a loaded \"fingerprint\"");
  }
  if (fs_refs_.root.empty()) return path;
  if (!fs_root_status_.ok()) return fs_root_status_;
  Result<std::string> canonical = CanonicalPath(path);
  if (!canonical.ok()) {
    // Deliberately the same message an unreadable in-root file produces:
    // out-of-root probes must not learn what exists elsewhere.
    return Status::InvalidArgument("cannot open dataset file \"" + path +
                                   "\"");
  }
  if (*canonical != canonical_root_ &&
      canonical->compare(0, canonical_root_.size() + 1,
                         canonical_root_ + "/") != 0) {
    return Status::InvalidArgument("dataset path \"" + path +
                                   "\" is outside the configured data root");
  }
  return canonical;
}

std::shared_ptr<ServedDataset> DatasetStore::LookupLocked(uint64_t fingerprint) {
  auto it = index_.find(fingerprint);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return *it->second;
}

void DatasetStore::InsertLocked(std::shared_ptr<ServedDataset> dataset) {
  lru_.push_front(std::move(dataset));
  index_[lru_.front()->fingerprint()] = lru_.begin();
  while (static_cast<int64_t>(lru_.size()) > max_entries_) {
    index_.erase(lru_.back()->fingerprint());
    lru_.pop_back();
    ++counters_.evictions;
  }
}

Result<std::shared_ptr<ServedDataset>> DatasetStore::Resolve(
    const api::DatasetRef& ref, int64_t n, int64_t reservoir) {
  using Kind = api::DatasetRef::Kind;
  switch (ref.kind) {
    case Kind::kNone:
      return Status::InvalidArgument(
          "request needs a dataset source (\"items\", \"path\", \"sketch\", "
          "or \"fingerprint\")");

    case Kind::kFingerprint: {
      Result<uint64_t> fp = ParseFingerprintHex(ref.fingerprint);
      if (!fp.ok()) return fp.status();
      std::lock_guard<std::mutex> lock(mu_);
      std::shared_ptr<ServedDataset> ds = LookupLocked(*fp);
      if (ds == nullptr) {
        return Status::InvalidArgument(
            "unknown dataset fingerprint \"" + ref.fingerprint +
            "\" (never loaded, or evicted — resend the dataset)");
      }
      ++counters_.reuses;
      return ds;
    }

    case Kind::kInline: {
      // One pass over the items checks and hashes them; a load hands that
      // fingerprint to the entry it builds.
      Result<CheckedItems> checked = CheckItems(n, ref.items);
      if (!checked.ok()) return checked.status();
      {
        std::lock_guard<std::mutex> lock(mu_);
        std::shared_ptr<ServedDataset> ds = LookupLocked(checked->fingerprint);
        if (ds != nullptr) {
          // The fingerprint is not collision-resistant: reusing a live
          // entry for new bytes demands actual content equality, or a
          // crafted collision silently serves another dataset's answers.
          if (!ds->MatchesItems(checked->n, ref.items)) {
            return CollisionError(ds->fingerprint_hex());
          }
          ++counters_.reuses;
          return ds;
        }
      }
      std::shared_ptr<ServedDataset> built = ServedDataset::FromCheckedItems(
          checked->n, checked->fingerprint, ref.items, kernel_);
      std::lock_guard<std::mutex> lock(mu_);
      std::shared_ptr<ServedDataset> raced = LookupLocked(checked->fingerprint);
      if (raced != nullptr) {
        if (!raced->MatchesItems(checked->n, ref.items)) {
          return CollisionError(raced->fingerprint_hex());
        }
        ++counters_.reuses;
        return raced;
      }
      ++counters_.loads;
      InsertLocked(built);
      return built;
    }

    case Kind::kPath: {
      Result<std::string> checked = CheckFsRef(ref.path);
      if (!checked.ok()) return checked.status();
      std::ifstream file(*checked);
      if (!file) {
        return Status::InvalidArgument("cannot open dataset file \"" +
                                       ref.path + "\"");
      }
      std::vector<int64_t> items;
      Status scan = ScanDataset(
          file, [&items, n, reservoir](int64_t item, int64_t line) -> Status {
            if (item < 0 || (n > 0 && item >= n)) {
              return Status::ParseError(
                  "line " + std::to_string(line) + ": item " +
                  std::to_string(item) + " outside the dataset domain");
            }
            if (static_cast<int64_t>(items.size()) >= reservoir) {
              return Status::InvalidArgument(
                  "dataset exceeds the reservoir cap of " +
                  std::to_string(reservoir) +
                  " items; raise \"reservoir\" or pre-sample the file");
            }
            items.push_back(item);
            return Status::Ok();
          });
      if (!scan.ok()) return scan;
      // Content-addressed from here on — identical file contents resolve
      // to the inline-upload entry and vice versa.
      api::DatasetRef inline_ref;
      inline_ref.kind = Kind::kInline;
      inline_ref.items = std::move(items);
      return Resolve(inline_ref, n, reservoir);
    }

    case Kind::kSketch: {
      Result<std::string> checked = CheckFsRef(ref.path);
      if (!checked.ok()) return checked.status();
      std::ifstream file(*checked);
      if (!file) {
        return Status::InvalidArgument("cannot open sketch file \"" +
                                       ref.path + "\"");
      }
      Result<HistogramSnapshot> snap = ParseSnapshot(file);
      if (!snap.ok()) return snap.status();
      // Canonicalize before fingerprinting: formatting differences in the
      // file must not fragment the store.
      std::ostringstream canonical;
      WriteSnapshot(canonical, *snap);
      const std::string wire = canonical.str();
      const uint64_t fp = FingerprintSketchBytes(wire);
      {
        std::lock_guard<std::mutex> lock(mu_);
        std::shared_ptr<ServedDataset> ds = LookupLocked(fp);
        if (ds != nullptr) {
          if (!ds->MatchesSketchWire(wire)) {
            return CollisionError(ds->fingerprint_hex());
          }
          ++counters_.reuses;
          return ds;
        }
      }
      Result<std::shared_ptr<ServedDataset>> built =
          ServedDataset::FromSketchWire(wire, kernel_);
      if (!built.ok()) return built.status();
      std::lock_guard<std::mutex> lock(mu_);
      std::shared_ptr<ServedDataset> raced = LookupLocked(fp);
      if (raced != nullptr) {
        if (!raced->MatchesSketchWire(wire)) {
          return CollisionError(raced->fingerprint_hex());
        }
        ++counters_.reuses;
        return raced;
      }
      ++counters_.loads;
      InsertLocked(*built);
      return built;
    }
  }
  return Status::Internal("unhandled dataset ref kind");
}

DatasetStore::Counters DatasetStore::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  Counters out = counters_;
  out.entries = static_cast<int64_t>(lru_.size());
  return out;
}

}  // namespace serve
}  // namespace histk
