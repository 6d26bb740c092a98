// Lock-free concurrent ingest: sharded log-bucketed telemetry histograms.
//
// histk:hot-path — no locks permitted in this file (tools/lint_histk.py).
//
// ConcurrentHistogram is the live-traffic entry point of the repo: many
// writer threads Record(value) u64 telemetry (latencies, sizes, counts)
// while readers take consistent Snapshot()s and interrogate them — without
// a single lock or wait anywhere on the insert path. The design follows
// hg64's lock-free sketch (SNIPPETS.md snippet 1):
//
//   * values are keyed by the log-bucket codec (stream/log_bucket.h):
//     <= (65-b)*2^b buckets at b mantissa bits, relative value error
//     <= 2^-(b+1) (default b = 7: 7424 buckets, <= 0.39%). Memory is
//     bounded by the VALUE RANGE, never by the stream length;
//   * writers are spread over per-thread shards (each a dense array of
//     std::atomic<uint64_t> counters) by a thread-local slot, so under
//     typical thread counts an insert is one uncontended relaxed fetch_add
//     plus a few ALU ops for the key — wait-free, no CAS loops;
//   * readers sum the shards into a plain HistogramSnapshot. Bucket
//     counters only ever grow, so a snapshot taken during writes is a
//     consistent in-between state: every bucket holds at least the count
//     at the snapshot's start and at most the count at its end, and totals
//     across successive snapshots are monotone.
//
// Snapshots are plain values: O(buckets) commutative Merge (cross-shard,
// cross-process via the wire format below), windowed deltas (DeltaSince)
// and exponential decay (Decayed) for drift detection, Quantile / CdfAt /
// TotalCount queries, and a ToBucketDistribution() bridge that maps the
// occupied log-buckets onto bucketed Distribution runs — the door through
// which Engine learn/test/property-test/closeness tasks run on live
// telemetry (see engine/telemetry.h).
//
// Wire format (dist/io style: line-oriented, whitespace-tolerant; readers
// never abort and name the offending line):
//
//   histk-telemetry-histogram v1
//   mantissa_bits <B> buckets <K> total <T>
//   <key> <count>                 (one line per occupied bucket, keys
//   ...                            strictly ascending; counts sum to T)
#ifndef HISTK_STREAM_CONCURRENT_HISTOGRAM_H_
#define HISTK_STREAM_CONCURRENT_HISTOGRAM_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dist/distribution.h"
#include "stream/log_bucket.h"
#include "util/status.h"

namespace histk {

/// An immutable-once-taken view of a ConcurrentHistogram (or a parsed /
/// merged aggregate). Plain value type: copyable, movable, no atomics.
class HistogramSnapshot {
 public:
  /// Empty snapshot at the default mantissa width.
  HistogramSnapshot();

  /// From a dense per-key count array. `counts` must have exactly
  /// LogBucketKeyCount(mantissa_bits) entries and `total` must equal their
  /// sum — the caller (ConcurrentHistogram::Snapshot, the wire parser)
  /// asserts conservation, and checks builds re-verify it via
  /// HISTK_CHECK_INVARIANT.
  static HistogramSnapshot FromCounts(int mantissa_bits,
                                      std::vector<uint64_t> counts, uint64_t total);

  int mantissa_bits() const { return mantissa_bits_; }

  /// Total recorded count (sum over buckets).
  uint64_t TotalCount() const { return total_; }

  /// Dense per-key counts (size LogBucketKeyCount(mantissa_bits)).
  const std::vector<uint64_t>& counts() const { return counts_; }

  /// Number of buckets with a nonzero count.
  int64_t OccupiedBuckets() const;

  /// Smallest / largest bucket range touched by any recorded value, as
  /// [LogBucketLow(first), LogBucketHigh(last)]. Empty when TotalCount()==0.
  std::optional<uint64_t> MinValueBound() const;
  std::optional<uint64_t> MaxValueBound() const;

  /// Fraction of recorded values <= `value`, interpolating linearly inside
  /// the bucket containing `value`. 0 on an empty snapshot. O(buckets).
  double CdfAt(uint64_t value) const;

  /// The q-quantile value, q in [0, 1] (aborts outside; aborts on an empty
  /// snapshot): the bucket where the cumulative count reaches q * total,
  /// interpolated linearly within the bucket, so the result is within the
  /// codec's relative value error of the true stream quantile. q = 0 gives
  /// the first occupied bucket's low end, q = 1 the last's high end.
  uint64_t Quantile(double q) const;

  /// Commutative O(buckets) accumulation: adds `other`'s counts into this
  /// snapshot. InvalidArgument (this snapshot untouched) on a mantissa
  /// width mismatch — snapshots cross process boundaries via the wire
  /// format, so a mixed-width pair is reachable from user input and must
  /// surface as a typed error, never an abort. Checks builds re-verify
  /// count conservation (sum == total) after the merge.
  Status Merge(const HistogramSnapshot& other);

  /// The window between two snapshots of the SAME histogram: per-bucket
  /// counts_ - earlier.counts_. Bucket counters are monotone, so a later
  /// snapshot dominates an earlier one bucketwise; a width mismatch or a
  /// domination violation returns InvalidArgument (the arguments are not
  /// an ordered pair of snapshots of one histogram — with parsed snapshots
  /// in the mix, that is user-reachable). This is the windowed view drift
  /// checks difference against.
  Result<HistogramSnapshot> DeltaSince(const HistogramSnapshot& earlier) const;

  /// Exponentially decayed copy: each count rounded from count * factor.
  /// InvalidArgument unless factor is in [0, 1]. Merge(live.DeltaSince
  /// (prev)) onto a Decayed accumulator implements the classic decayed
  /// sliding window for drift detection.
  Result<HistogramSnapshot> Decayed(double factor) const;

  /// Maps the occupied log-buckets onto a bucket-backed Distribution over
  /// [0, max bucket end]: each occupied bucket becomes a run carrying
  /// exactly count/total of the mass (gaps become zero-mass runs), so
  /// learned/tested synopses are built from the live telemetry itself.
  /// InvalidArgument on an empty snapshot or when the occupied value range
  /// reaches 2^63 (beyond the int64 Distribution domain).
  Result<Distribution> ToBucketDistribution() const;

  bool operator==(const HistogramSnapshot& other) const {
    return mantissa_bits_ == other.mantissa_bits_ && total_ == other.total_ &&
           counts_ == other.counts_;
  }
  bool operator!=(const HistogramSnapshot& other) const { return !(*this == other); }

 private:
  HistogramSnapshot(int mantissa_bits, std::vector<uint64_t> counts, uint64_t total);

  /// Whole-structure invariant (checks builds): counts size matches the
  /// codec and total equals the bucket sum.
  void CheckInvariants() const;

  int mantissa_bits_;
  std::vector<uint64_t> counts_;
  uint64_t total_;
};

/// The lock-free multi-writer histogram. Construct once, share by
/// reference: Record may be called from any number of threads at once, and
/// Snapshot from any thread concurrently with writers.
class ConcurrentHistogram {
 public:
  /// `num_shards` = 0 picks the hardware concurrency; any request is
  /// rounded up to a power of two (so shard selection is a mask, not a
  /// modulo) and clamped to [1, kMaxShards].
  explicit ConcurrentHistogram(int mantissa_bits = kLogBucketDefaultMantissaBits,
                               int num_shards = 0);

  ConcurrentHistogram(const ConcurrentHistogram&) = delete;
  ConcurrentHistogram& operator=(const ConcurrentHistogram&) = delete;

  /// Records one value. Lock-free and wait-free: key arithmetic plus one
  /// relaxed fetch_add on the calling thread's shard.
  void Record(uint64_t value) { Record(value, 1); }

  /// Records `count` occurrences of `value` in one atomic add.
  void Record(uint64_t value, uint64_t count) {
    shards_[ThreadSlot() & shard_mask_]
        .counts[LogBucketKey(value, mantissa_bits_)]
        .fetch_add(count, std::memory_order_relaxed);
  }

  /// Sums the shards into a snapshot. Safe concurrently with writers:
  /// counters are monotone, so the result is bucketwise between the
  /// histogram's states at the call's start and end (totals across
  /// successive snapshots never decrease). O(shards * buckets).
  HistogramSnapshot Snapshot() const;

  int mantissa_bits() const { return mantissa_bits_; }
  int num_shards() const { return static_cast<int>(shard_mask_) + 1; }

  static constexpr int kMaxShards = 64;

 private:
  struct Shard {
    /// Dense per-key counters. Each shard's array is its own heap block,
    /// so distinct shards never share a cache line except possibly at
    /// block edges.
    std::unique_ptr<std::atomic<uint64_t>[]> counts;
  };

  /// Stable per-thread slot (assigned round-robin on first use), masked
  /// into a shard index. Threads beyond the shard count share shards —
  /// still correct, just contended.
  static uint32_t ThreadSlot();

  int mantissa_bits_;
  uint32_t num_keys_;
  uint32_t shard_mask_;
  std::vector<Shard> shards_;
};

/// Writes the histk-telemetry-histogram v1 wire format (occupied buckets
/// only: O(buckets) bytes however long the stream was).
void WriteSnapshot(std::ostream& os, const HistogramSnapshot& snap);

/// Parses the wire format. ParseError (with the 1-based line) on wrong
/// magic/version, an unsupported mantissa width, non-ascending or
/// out-of-range keys, non-positive counts, truncation, or a total that
/// does not equal the bucket sum.
Result<HistogramSnapshot> ParseSnapshot(std::istream& is);

/// ParseSnapshot with the diagnosis discarded.
std::optional<HistogramSnapshot> ReadSnapshot(std::istream& is);

/// Appends one JSON document (ending in a newline): mantissa_bits,
/// max_relative_error, total, and the occupied buckets as {key, lo, hi,
/// count} records. The machine-readable face of `histk_cli ingest --json`.
void AppendSnapshotJson(std::string& out, const HistogramSnapshot& snap);

}  // namespace histk

#endif  // HISTK_STREAM_CONCURRENT_HISTOGRAM_H_
