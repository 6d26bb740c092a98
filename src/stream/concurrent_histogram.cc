#include "stream/concurrent_histogram.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <thread>

#include "api/json.h"
#include "dist/io.h"
#include "util/check.h"

namespace histk {

// ------------------------------------------------------------- snapshot

HistogramSnapshot::HistogramSnapshot()
    : HistogramSnapshot(kLogBucketDefaultMantissaBits,
                        std::vector<uint64_t>(
                            LogBucketKeyCount(kLogBucketDefaultMantissaBits), 0),
                        0) {}

HistogramSnapshot::HistogramSnapshot(int mantissa_bits, std::vector<uint64_t> counts,
                                     uint64_t total)
    : mantissa_bits_(mantissa_bits), counts_(std::move(counts)), total_(total) {
  HISTK_CHECK_MSG(LogBucketMantissaBitsValid(mantissa_bits_),
                  "unsupported mantissa width");
  HISTK_CHECK_MSG(counts_.size() == LogBucketKeyCount(mantissa_bits_),
                  "count array does not match the codec's key count");
  CheckInvariants();
}

HistogramSnapshot HistogramSnapshot::FromCounts(int mantissa_bits,
                                                std::vector<uint64_t> counts,
                                                uint64_t total) {
  return HistogramSnapshot(mantissa_bits, std::move(counts), total);
}

void HistogramSnapshot::CheckInvariants() const {
#if HISTK_CHECKS_ENABLED
  uint64_t sum = 0;
  for (uint64_t c : counts_) sum += c;
  HISTK_CHECK_INVARIANT(sum == total_,
                        "snapshot total must equal the sum of bucket counts");
#endif
}

int64_t HistogramSnapshot::OccupiedBuckets() const {
  int64_t occupied = 0;
  for (uint64_t c : counts_) occupied += c != 0 ? 1 : 0;
  return occupied;
}

std::optional<uint64_t> HistogramSnapshot::MinValueBound() const {
  for (size_t key = 0; key < counts_.size(); ++key) {
    if (counts_[key] != 0) {
      return LogBucketLow(static_cast<uint32_t>(key), mantissa_bits_);
    }
  }
  return std::nullopt;
}

std::optional<uint64_t> HistogramSnapshot::MaxValueBound() const {
  for (size_t key = counts_.size(); key-- > 0;) {
    if (counts_[key] != 0) {
      return LogBucketHigh(static_cast<uint32_t>(key), mantissa_bits_);
    }
  }
  return std::nullopt;
}

double HistogramSnapshot::CdfAt(uint64_t value) const {
  if (total_ == 0) return 0.0;
  const uint32_t key = LogBucketKey(value, mantissa_bits_);
  uint64_t below = 0;
  for (uint32_t k = 0; k < key; ++k) below += counts_[k];
  // Values inside a bucket are modeled as uniform over its range: count the
  // fraction of the bucket at or below `value`.
  const uint64_t lo = LogBucketLow(key, mantissa_bits_);
  const uint64_t hi = LogBucketHigh(key, mantissa_bits_);
  const double in_bucket = static_cast<double>(counts_[key]) *
                           (static_cast<double>(value - lo) + 1.0) /
                           (static_cast<double>(hi - lo) + 1.0);
  return (static_cast<double>(below) + in_bucket) / static_cast<double>(total_);
}

uint64_t HistogramSnapshot::Quantile(double q) const {
  HISTK_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile level must be in [0, 1]");
  HISTK_CHECK_MSG(total_ > 0, "quantile of an empty snapshot");
  const double target = q * static_cast<double>(total_);
  uint64_t cum = 0;
  size_t last_occupied = 0;
  for (size_t key = 0; key < counts_.size(); ++key) {
    if (counts_[key] == 0) continue;
    last_occupied = key;
    const double before = static_cast<double>(cum);
    cum += counts_[key];
    if (static_cast<double>(cum) >= target) {
      const uint64_t lo = LogBucketLow(static_cast<uint32_t>(key), mantissa_bits_);
      const uint64_t hi = LogBucketHigh(static_cast<uint32_t>(key), mantissa_bits_);
      // Linear interpolation within the bucket's value range.
      const double frac =
          std::max(0.0, target - before) / static_cast<double>(counts_[key]);
      const double width = static_cast<double>(hi - lo) + 1.0;
      uint64_t off = static_cast<uint64_t>(frac * width);
      if (off > hi - lo) off = hi - lo;
      return lo + off;
    }
  }
  // q == 1 lands here when rounding pushes target past the last increment.
  return LogBucketHigh(static_cast<uint32_t>(last_occupied), mantissa_bits_);
}

Status HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  if (mantissa_bits_ != other.mantissa_bits_) {
    return Status::InvalidArgument(
        "merge needs matching mantissa widths (" +
        std::to_string(mantissa_bits_) + " vs " +
        std::to_string(other.mantissa_bits_) + ")");
  }
  for (size_t key = 0; key < counts_.size(); ++key) {
    counts_[key] += other.counts_[key];
  }
  total_ += other.total_;
  CheckInvariants();
  return Status::Ok();
}

Result<HistogramSnapshot> HistogramSnapshot::DeltaSince(
    const HistogramSnapshot& earlier) const {
  if (mantissa_bits_ != earlier.mantissa_bits_) {
    return Status::InvalidArgument(
        "delta needs matching mantissa widths (" +
        std::to_string(mantissa_bits_) + " vs " +
        std::to_string(earlier.mantissa_bits_) + ")");
  }
  std::vector<uint64_t> delta(counts_.size(), 0);
  uint64_t total = 0;
  for (size_t key = 0; key < counts_.size(); ++key) {
    if (counts_[key] < earlier.counts_[key]) {
      return Status::InvalidArgument(
          "later snapshot must dominate the earlier one bucketwise (bucket " +
          std::to_string(key) + " went backwards: not an ordered pair of "
          "snapshots of one histogram)");
    }
    delta[key] = counts_[key] - earlier.counts_[key];
    total += delta[key];
  }
  return HistogramSnapshot(mantissa_bits_, std::move(delta), total);
}

Result<HistogramSnapshot> HistogramSnapshot::Decayed(double factor) const {
  if (!(factor >= 0.0 && factor <= 1.0)) {
    return Status::InvalidArgument("decay factor must be in [0, 1]");
  }
  std::vector<uint64_t> decayed(counts_.size(), 0);
  uint64_t total = 0;
  for (size_t key = 0; key < counts_.size(); ++key) {
    decayed[key] = static_cast<uint64_t>(
        std::llround(static_cast<double>(counts_[key]) * factor));
    total += decayed[key];
  }
  return HistogramSnapshot(mantissa_bits_, std::move(decayed), total);
}

Result<Distribution> HistogramSnapshot::ToBucketDistribution() const {
  if (total_ == 0) {
    return Status::InvalidArgument("empty snapshot has no distribution");
  }
  const std::optional<uint64_t> max_bound = MaxValueBound();
  // Distribution domains are int64: the last occupied bucket must end
  // below 2^63 - 1 (so n = end + 1 is representable).
  constexpr uint64_t kMaxEnd =
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) - 1;
  if (*max_bound > kMaxEnd) {
    return Status::InvalidArgument(
        "snapshot range reaches 2^63: too wide for the int64 Distribution "
        "domain — bridge a windowed or re-scaled snapshot instead");
  }
  const int64_t n = static_cast<int64_t>(*max_bound) + 1;
  std::vector<int64_t> right_ends;
  std::vector<double> weights;
  int64_t pos = 0;
  for (size_t key = 0; key < counts_.size(); ++key) {
    if (counts_[key] == 0) continue;
    const int64_t lo =
        static_cast<int64_t>(LogBucketLow(static_cast<uint32_t>(key), mantissa_bits_));
    const int64_t hi =
        static_cast<int64_t>(LogBucketHigh(static_cast<uint32_t>(key), mantissa_bits_));
    if (lo > pos) {  // zero-mass gap run
      right_ends.push_back(lo - 1);
      weights.push_back(0.0);
    }
    right_ends.push_back(hi);
    weights.push_back(static_cast<double>(counts_[key]));
    pos = hi + 1;
  }
  std::optional<Distribution> dist =
      Distribution::TryFromBucketWeights(n, std::move(right_ends), weights);
  if (!dist) {
    return Status::Internal("snapshot bridge built malformed bucket runs");
  }
  return *std::move(dist);
}

// ------------------------------------------------------------- histogram

ConcurrentHistogram::ConcurrentHistogram(int mantissa_bits, int num_shards)
    : mantissa_bits_(mantissa_bits) {
  HISTK_CHECK_MSG(LogBucketMantissaBitsValid(mantissa_bits_),
                  "unsupported mantissa width");
  num_keys_ = LogBucketKeyCount(mantissa_bits_);
  int want = num_shards;
  if (want <= 0) {
    want = static_cast<int>(std::thread::hardware_concurrency());
    if (want < 1) want = 1;
  }
  want = std::min(want, kMaxShards);
  int shards = 1;
  while (shards < want) shards <<= 1;
  shard_mask_ = static_cast<uint32_t>(shards - 1);
  shards_.resize(static_cast<size_t>(shards));
  for (Shard& shard : shards_) {
    shard.counts = std::make_unique<std::atomic<uint64_t>[]>(num_keys_);
    for (uint32_t key = 0; key < num_keys_; ++key) {
      shard.counts[key].store(0, std::memory_order_relaxed);
    }
  }
}

uint32_t ConcurrentHistogram::ThreadSlot() {
  static std::atomic<uint32_t> next_slot{0};
  thread_local const uint32_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

HistogramSnapshot ConcurrentHistogram::Snapshot() const {
  std::vector<uint64_t> counts(num_keys_, 0);
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    for (uint32_t key = 0; key < num_keys_; ++key) {
      // Relaxed is enough: each counter is monotone and the snapshot
      // contract is "bucketwise between the start and end states", not a
      // linearizable cut across buckets.
      const uint64_t c = shard.counts[key].load(std::memory_order_relaxed);
      counts[key] += c;
      total += c;
    }
  }
  return HistogramSnapshot::FromCounts(mantissa_bits_, std::move(counts), total);
}

// ------------------------------------------------------------- wire format

namespace {

constexpr char kTelemetryMagic[] = "histk-telemetry-histogram";
constexpr char kTelemetryVersion[] = "v1";

/// Whitespace-separated tokenizer tracking the 1-based line of each token
/// (the dist/io LineScanner idiom, local to the telemetry grammar).
class SnapshotScanner {
 public:
  explicit SnapshotScanner(std::istream& is) : is_(is) {}

  bool Next(std::string& tok) {
    while (true) {
      while (pos_ < buf_.size() && IsSpace(buf_[pos_])) ++pos_;
      if (pos_ < buf_.size()) break;
      if (!std::getline(is_, buf_)) return false;
      ++line_;
      pos_ = 0;
    }
    const size_t start = pos_;
    while (pos_ < buf_.size() && !IsSpace(buf_[pos_])) ++pos_;
    tok.assign(buf_, start, pos_ - start);
    return true;
  }

  int64_t line() const { return line_ == 0 ? 1 : line_; }

 private:
  static bool IsSpace(char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v';
  }

  std::istream& is_;
  std::string buf_;
  size_t pos_ = 0;
  int64_t line_ = 0;
};

Status ScanError(const SnapshotScanner& sc, const std::string& what) {
  return Status::ParseError("line " + std::to_string(sc.line()) + ": " + what);
}

Status ExpectTok(SnapshotScanner& sc, const char* expect, const char* what) {
  std::string tok;
  if (!sc.Next(tok)) {
    return ScanError(sc, std::string("unexpected end of input, expected ") + what);
  }
  if (tok != expect) {
    return ScanError(sc, std::string("expected ") + what + " '" + expect +
                             "', found '" + tok + "'");
  }
  return Status::Ok();
}

Status NextInt(SnapshotScanner& sc, const char* what, int64_t& out) {
  std::string tok;
  if (!sc.Next(tok)) {
    return ScanError(sc, std::string("unexpected end of input, expected ") + what);
  }
  if (!TokenToI64(tok, out)) {
    return ScanError(sc, std::string("expected integer ") + what + ", found '" +
                             tok + "'");
  }
  return Status::Ok();
}

}  // namespace

void WriteSnapshot(std::ostream& os, const HistogramSnapshot& snap) {
  os << kTelemetryMagic << ' ' << kTelemetryVersion << '\n';
  os << "mantissa_bits " << snap.mantissa_bits() << " buckets "
     << snap.OccupiedBuckets() << " total " << snap.TotalCount() << '\n';
  const std::vector<uint64_t>& counts = snap.counts();
  for (size_t key = 0; key < counts.size(); ++key) {
    if (counts[key] == 0) continue;
    os << key << ' ' << counts[key] << '\n';
  }
}

Result<HistogramSnapshot> ParseSnapshot(std::istream& is) {
  SnapshotScanner sc(is);
  Status s = ExpectTok(sc, kTelemetryMagic, "format magic");
  if (!s.ok()) return s;
  s = ExpectTok(sc, kTelemetryVersion, "format version");
  if (!s.ok()) return s;

  int64_t mantissa_bits = 0, num_buckets = 0, total = 0;
  if (s = ExpectTok(sc, "mantissa_bits", "label"); !s.ok()) return s;
  if (s = NextInt(sc, "mantissa_bits", mantissa_bits); !s.ok()) return s;
  if (s = ExpectTok(sc, "buckets", "label"); !s.ok()) return s;
  if (s = NextInt(sc, "buckets", num_buckets); !s.ok()) return s;
  if (s = ExpectTok(sc, "total", "label"); !s.ok()) return s;
  if (s = NextInt(sc, "total", total); !s.ok()) return s;

  if (!LogBucketMantissaBitsValid(static_cast<int>(mantissa_bits))) {
    return ScanError(sc, "mantissa_bits must be in [" +
                             std::to_string(kLogBucketMinMantissaBits) + ", " +
                             std::to_string(kLogBucketMaxMantissaBits) + "]");
  }
  const int64_t key_count =
      static_cast<int64_t>(LogBucketKeyCount(static_cast<int>(mantissa_bits)));
  if (num_buckets < 0 || num_buckets > key_count) {
    return ScanError(sc, "bucket count out of range");
  }
  if (total < 0) return ScanError(sc, "total must be >= 0");

  std::vector<uint64_t> counts(static_cast<size_t>(key_count), 0);
  uint64_t sum = 0;
  int64_t prev_key = -1;
  for (int64_t i = 0; i < num_buckets; ++i) {
    int64_t key = 0, count = 0;
    if (s = NextInt(sc, "bucket key", key); !s.ok()) return s;
    if (s = NextInt(sc, "bucket count", count); !s.ok()) return s;
    if (key <= prev_key || key >= key_count) {
      return ScanError(sc, "bucket keys must be strictly ascending and within "
                           "the codec's key range");
    }
    if (count < 1) return ScanError(sc, "bucket counts must be >= 1");
    counts[static_cast<size_t>(key)] = static_cast<uint64_t>(count);
    sum += static_cast<uint64_t>(count);
    prev_key = key;
  }
  if (sum != static_cast<uint64_t>(total)) {
    return ScanError(sc, "total " + std::to_string(total) +
                             " does not equal the sum of bucket counts (" +
                             std::to_string(sum) + ")");
  }
  return HistogramSnapshot::FromCounts(static_cast<int>(mantissa_bits),
                                       std::move(counts),
                                       static_cast<uint64_t>(total));
}

std::optional<HistogramSnapshot> ReadSnapshot(std::istream& is) {
  Result<HistogramSnapshot> parsed = ParseSnapshot(is);
  if (!parsed.ok()) return std::nullopt;
  return std::move(parsed).value();
}

void AppendSnapshotJson(std::string& out, const HistogramSnapshot& snap) {
  const int bits = snap.mantissa_bits();
  out += "{\n  \"format\": ";
  api::AppendJsonString(out, kTelemetryMagic);
  out += ",\n  \"version\": 1,\n  \"mantissa_bits\": " + std::to_string(bits);
  out += ",\n  \"max_relative_error\": ";
  api::AppendJsonDouble(out, LogBucketMaxRelativeError(bits));
  out += ",\n  \"total\": " + std::to_string(snap.TotalCount());
  out += ",\n  \"buckets\": [";
  const std::vector<uint64_t>& counts = snap.counts();
  bool first = true;
  for (size_t key = 0; key < counts.size(); ++key) {
    if (counts[key] == 0) continue;
    if (!first) out += ",";
    first = false;
    const uint32_t k32 = static_cast<uint32_t>(key);
    out += "\n    {\"key\": " + std::to_string(key);
    out += ", \"lo\": " + std::to_string(LogBucketLow(k32, bits));
    out += ", \"hi\": " + std::to_string(LogBucketHigh(k32, bits));
    out += ", \"count\": " + std::to_string(counts[key]) + "}";
  }
  out += "\n  ]\n}\n";
}

}  // namespace histk
