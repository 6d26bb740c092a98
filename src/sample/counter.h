// SampleCounter: the standard CountSink of the fused draw→SampleSet path.
//
// histk:hot-path — no locks permitted in this file (tools/lint_histk.py).
//
// The historical pipeline materialized every batch twice: DrawMany built an
// m-element vector, and SampleSet::FromDraws re-scanned it (and, for sparse
// domains, copied AND globally sorted it). SampleCounter instead accumulates
// the chunks Sampler::DrawCounts hands it (offsets ignored):
//
//   * dense domains (n <= SampleSet::kDenseDomainLimit): straight into the
//     set's own row (see sample/sample_set.h) — no draw vector or separate
//     count array exists at any point, Build() finalizes the row in place,
//     and the working set per chunk is one cache-resident buffer.
//   * sparse domains: draws are scattered into value-range partitions sized
//     to stay cache-resident, and Build() sorts each partition independently
//     and run-length encodes them in ascending order. That replaces one cold
//     O(m log m) sort over gigabytes with many small sorts over L1/L2-sized
//     slices (plus it never copies the batch), which is where the fused
//     pipeline's ≥2x over materialize-then-count comes from.
//
// The counter is order-free (CountSink::OrderFree), so a kCounts oracle
// feeds it runs (value, count) instead of draws: dense domains add each
// count to its element, sparse domains keep the runs aside and Build()
// merges them, sorted, into the encoded partitions.
//
// Concurrency model (the de-mutexed design): Consume is single-writer and
// lock-free — it feeds the primary accumulator with no synchronization, so
// the sequential DrawCounts path (and a sharded one that resolves to one
// worker) pays nothing. Parallel callers do NOT share it: a sharded
// DrawCounts asks for one shard per worker via AcquireShard()
// (called only from the coordinating thread, before the workers start), each
// worker consumes into its own shard with no shared mutable state, and
// Build() merges primary + shards once after the workers have joined.
// Merging is commutative — dense shards add their count arrays into the
// row, sparse shards concatenate per-partition scatter vectors that Build()
// sorts anyway — so the resulting SampleSet is byte-identical at any worker
// count, exactly as the sharded draw contract requires. Build() is a one-shot
// terminal operation and must happen-after all shard Consume calls (the
// fan-out in dist/sampler.cc joins its workers before returning).
#ifndef HISTK_SAMPLE_COUNTER_H_
#define HISTK_SAMPLE_COUNTER_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "dist/sampler.h"
#include "sample/sample_set.h"

namespace histk {

/// Accumulates draws into per-element occurrence counts and finalizes them
/// as a SampleSet identical to the one FromDraws would have built from the
/// same multiset.
class SampleCounter : public CountSink {
 public:
  /// `expected_draws` is a sizing hint (the engine always knows m); 0 is
  /// valid and merely costs regrowth.
  explicit SampleCounter(int64_t n, int64_t expected_draws = 0);

  /// Single-writer, lock-free; draws must lie in [0, n). Concurrent callers
  /// must each consume into their own shard (AcquireShard), never into the
  /// same sink object.
  void Consume(const int64_t* draws, int64_t len, int64_t offset) override;

  /// Counting reads no order: a kCounts oracle may feed runs.
  bool OrderFree() const override { return true; }

  /// Adds each run's count as is, never expanding it; same threading rule
  /// as Consume.
  void ConsumeRuns(const int64_t* values, const int64_t* counts, int64_t len,
                   int64_t offset) override;

  /// One independent accumulator per worker. Coordinator-thread only (see
  /// CountSink::AcquireShard); shard addresses stay stable until Build().
  CountSink& AcquireShard() override;

  /// The draw scratch of the group this counter fills (null outside a
  /// group): a group's sets share one scratch, and with it the count
  /// kernel's plans.
  DrawBlockBuffers* DrawScratch() override { return scratch_; }

  /// Draws accumulated so far across the primary accumulator and all
  /// shards. Requires quiescence (no in-flight Consume on any shard).
  int64_t total() const;

  /// Merges all shards and finalizes into a SampleSet. One-shot: the
  /// counter's storage is moved out, and further Consume/Build calls on
  /// this instance are invalid. Must happen-after every shard's last
  /// Consume (the sharded draw paths join their workers first).
  SampleSet Build();

 private:
  friend class SampleSetGroup;

  /// Counts into `row` (see SampleSet::DenseRow), where Build() finalizes
  /// the set; an empty row gets a 64-bit row of the counter's own. Lends
  /// `scratch` (not owned; may be null) to the requests that feed it.
  SampleCounter(int64_t n, int64_t expected_draws, SampleSet::DenseRow row,
                DrawBlockBuffers* scratch);

  /// One accumulator: either a dense count array or sparse value-range
  /// partitions (partition of v = v >> shift). Each instance is written by
  /// exactly one thread.
  struct State {
    int64_t total = 0;
    uint64_t* counts = nullptr;               // dense: value v at counts[v]
    uint32_t* narrow = nullptr;               // or here, in a 32-bit row
    std::vector<uint64_t> shard_counts;       // dense shards: behind counts
    std::vector<std::vector<int64_t>> parts;  // sparse backend
    /// Sparse backend: runs fed by ConsumeRuns, as (value, count).
    std::vector<std::pair<int64_t, int64_t>> runs;
  };

  /// The per-worker sink handed out by AcquireShard.
  class ShardSink : public CountSink {
   public:
    explicit ShardSink(const SampleCounter* owner) : owner_(owner) {}
    void Consume(const int64_t* draws, int64_t len, int64_t offset) override;
    bool OrderFree() const override { return true; }
    void ConsumeRuns(const int64_t* values, const int64_t* counts, int64_t len,
                     int64_t offset) override;

   private:
    friend class SampleCounter;
    const SampleCounter* owner_;
    State state_;
  };

  void InitState(State& state) const;
  void ConsumeInto(State& state, const int64_t* draws, int64_t len) const;
  void ConsumeRunsInto(State& state, const int64_t* values,
                       const int64_t* counts, int64_t len) const;

  int64_t n_ = 0;
  int64_t expected_draws_ = 0;
  bool dense_ = false;
  SampleSet::DenseRow row_;  // dense: the set's row
  int shift_ = 0;          // sparse: partition of v = v >> shift_
  size_t num_parts_ = 0;   // sparse: partition count

  DrawBlockBuffers* scratch_ = nullptr;

  State primary_;
  // Owned one by one: shard addresses must survive later AcquireShard calls
  // while earlier shards are still being written by their workers, and a
  // counter that never shards allocates nothing here.
  std::vector<std::unique_ptr<ShardSink>> shards_;
};

}  // namespace histk

#endif  // HISTK_SAMPLE_COUNTER_H_
