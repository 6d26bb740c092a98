// Sample oracles: the access model of the paper.
//
// histk:hot-path — no locks permitted in this file (tools/lint_histk.py).
//
// Every algorithm in histk sees the unknown distribution only through a
// Sampler — the abstract i.i.d. sample oracle. It has two virtual draw
// functions, and every other draw path is a non-virtual wrapper over them:
//
//   * DrawManyInto(out, m, rng)    — the kernel: one virtual dispatch per
//                                    batch, then a dispatch-free inner loop
//                                    writing into caller-owned memory.
//                                    Draw (one sample) and DrawMany (a
//                                    vector) wrap it.
//   * DrawCounts(m, rng, sink, threads)
//                                  — the fused draw→count path: draws are
//                                    produced in kShardChunk-sized blocks
//                                    (cache-resident) and handed to a
//                                    CountSink instead of being materialized
//                                    as one m-element vector. threads = 0 is
//                                    the sequential stream; threads >= 1 the
//                                    sharded stream, fanned out over worker
//                                    threads. DrawManySharded wraps it with a
//                                    sink that writes each chunk at its
//                                    offset.
//
// Decorators (engine/budget.h, engine/fault_injection.h) override exactly
// these two, on the caller's thread: the sharded fan-out runs the inner
// oracle's kernel, never a decorator's. A third virtual, DrawCountsInto,
// is an optional shortcut: a kCounts DatasetSampler draws a group's
// one-block set straight into its row with it, and BudgetedSampler meters
// and forwards it. A decorator that does not override it (its default
// declines) sends every set through DrawCounts, the same stream.
//
// Determinism invariant (relied on by the engine parity suites): for a given
// sampler every sequential path — Draw loops, DrawMany, DrawManyInto,
// DrawCounts(threads = 0) — consumes the rng identically, so seeded runs
// replay regardless of which path a caller uses; the sharded paths consume
// exactly one NextU64 and replay at any worker count. AliasSampler's per-draw
// kernel is additionally byte-identical to the historical sequence.
//
// The one exception is AliasKernel::kCounts feeding an order-free sink
// (CountSink::OrderFree, e.g. SampleCounter): DrawCounts then draws each
// block's count vector directly. Same law as the per-draw path — a
// Multinomial(len, p) vector per block — but its own stream, so the counts
// do not match the replay kernel's under one seed. It keeps the other
// contracts: sequential blocks come from `rng` in order (chunked and
// unchunked callers agree), sharded block c comes from its derived stream
// (worker-count invariant), and every materializing path (Draw, DrawMany,
// DrawManySharded, a sink that is not order-free) still gets the replay
// kernel's i.i.d.-ordered stream.
//
// Samplers are immutable after construction and hold no rng state, so one
// sampler can serve many threads as long as each thread draws from its own
// Rng (fork streams with Rng::Fork()).
//
// Implementations:
//   * AliasSampler  — Walker/Vose alias method over a cache-line-friendly
//                     fused column table. Dense Distribution: one column per
//                     element (O(n) build, O(1)/draw). Bucket-backed: one
//                     column per *bucket* (O(k) build) carrying both its own
//                     and its alias target's run, so a draw touches exactly
//                     one table entry — O(1)/draw independent of n.
//   * CdfSampler    — binary search over the cdf, per element (dense,
//                     O(log n)/draw) or per bucket (bucket-backed,
//                     O(log k)/draw + O(1) within-bucket inversion); the
//                     baseline AliasSampler is validated against.
//   * DatasetSampler (dist/dataset.h) — uniform over a materialized data
//                     set, the CLI's model.
#ifndef HISTK_DIST_SAMPLER_H_
#define HISTK_DIST_SAMPLER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "dist/count_kernel.h"
#include "dist/distribution.h"
#include "util/rng.h"

namespace histk {

struct DrawBlockBuffers;

/// Destination of the fused draw→count path. DrawCounts feeds it draws in
/// chunks (each at most Sampler::kShardChunk long, values in [0, n)), each
/// tagged with its offset: the position of the chunk's first draw in the
/// request, which is its index in DrawManySharded's output. Chunks may
/// arrive in any order — counting sinks ignore the offset (counting is
/// commutative). A sink that reads only counts declares itself OrderFree;
/// a kCounts oracle then hands it each chunk as (value, count) runs. A
/// sharded DrawCounts that fans out to several workers never calls Consume
/// concurrently on the same sink object: it asks for one shard per worker
/// via AcquireShard and each worker consumes into its own shard, so
/// implementations that shard need no locks on the consume path. A fan-out
/// that resolves to one worker consumes into the sink itself.
/// sample/counter.h provides the standard SampleSet-building
/// implementation.
class CountSink {
 public:
  virtual ~CountSink() = default;

  /// Accumulates `len` draws that start at position `offset` of the
  /// request. The buffer is owned by the caller and invalid after return.
  /// Called from one thread at a time per sink object (the object returned
  /// by AcquireShard counts as a distinct sink).
  virtual void Consume(const int64_t* draws, int64_t len, int64_t offset) = 0;

  /// True when the sink depends only on how often each value occurs, not
  /// on the order of the draws: it then also accepts ConsumeRuns. False by
  /// default, so materializing sinks always receive ordered draws.
  virtual bool OrderFree() const { return false; }

  /// Accumulates one chunk as `len` runs: counts[i] >= 1 draws of
  /// values[i], values in [0, n) in no particular order (a value may
  /// repeat). The runs total the chunk's length; `offset` is as in
  /// Consume. Called only on sinks whose OrderFree() is true; the default
  /// aborts.
  virtual void ConsumeRuns(const int64_t* values, const int64_t* counts,
                           int64_t len, int64_t offset);

  /// Returns a sink a single worker thread may Consume into without
  /// synchronizing against other shards. Called only from the coordinating
  /// thread (before the workers that use the shard start), so overrides
  /// need no internal locking; the returned reference must stay valid until
  /// the owning sink is finalized. The default returns *this, which is only
  /// correct for implementations whose Consume tolerates concurrent callers
  /// — shardable accumulators override it (see SampleCounter).
  virtual CountSink& AcquireShard() { return *this; }

  /// Draw scratch the sink lends to the requests that feed it, or null. A
  /// count kernel keeps its group plans in it (dist/count_kernel.h), so a
  /// caller that feeds many sinks of one shape — SampleSetGroup::Draw —
  /// lends them one scratch to share the plans. Read on the coordinating
  /// thread only; decorators that wrap a sink forward it.
  virtual DrawBlockBuffers* DrawScratch() { return nullptr; }
};

/// Abstract i.i.d. sample oracle for a distribution on [0, n).
class Sampler {
 public:
  virtual ~Sampler() = default;

  /// Domain size.
  virtual int64_t n() const = 0;

  /// The draw kernel: writes `m` draws to `out` (caller-allocated, at least
  /// m elements). Every draw path bottoms out here. Decorators
  /// (engine/budget.h) override it to meter the batch.
  virtual void DrawManyInto(int64_t* out, int64_t m, Rng& rng) const = 0;

  /// Fused draw→count: feeds `m` draws to `sink` in kShardChunk-sized
  /// chunks from reused buffers, never materializing the batch.
  ///
  /// threads = 0 is the sequential stream: chunks are drawn in order from
  /// `rng`, which is consumed identically to DrawMany(m), so the two paths
  /// are interchangeable under a fixed seed (kCounts into an order-free
  /// sink excepted: same law, its own stream; see the file comment).
  ///
  /// threads >= 1 is the sharded stream: chunk c is drawn from its own Rng
  /// stream derived from one NextU64() of `rng` (consumed even for m = 0)
  /// and c, and the chunks are processed by up to `threads` workers, each
  /// consuming into its own CountSink::AcquireShard shard (a single worker
  /// runs on the calling thread and consumes into `sink`). The multiset of
  /// draws, and each chunk's offset and content, depend only on (sampler,
  /// m, rng state) — not on the thread count — so seeded runs replay at any
  /// parallelism. The stream is distinct from the sequential one.
  ///
  /// Decorators override it to meter or fault the request whole on the
  /// caller's thread, then delegate; overrides must keep both contracts.
  virtual void DrawCounts(int64_t m, Rng& rng, CountSink& sink,
                          int threads = 0) const;

  /// One set of `m` draws counted straight into a dense 32-bit row: value
  /// v's count lands at counts[v], which the caller zeroed. This is
  /// SampleSetGroup::Draw's sequential route for sets of one block;
  /// `scratch` is the group's, shared by its r sets. A true return leaves
  /// the counts and the rng exactly as DrawCounts(m, rng, sink, 0) into an
  /// order-free sink lending `scratch` would. False means the oracle has no
  /// such draw for m, and nothing was drawn, consumed or metered; the
  /// caller then draws through DrawCounts. The default returns false.
  virtual bool DrawCountsInto(int64_t m, Rng& rng, uint32_t* counts,
                              DrawBlockBuffers& scratch) const;

  /// One draw: a one-element DrawManyInto.
  int64_t Draw(Rng& rng) const;

  /// `m` draws as a vector: allocates and delegates to DrawManyInto.
  std::vector<int64_t> DrawMany(int64_t m, Rng& rng) const;

  /// `m` draws on the sharded stream of DrawCounts(m, rng, sink,
  /// num_threads), materialized: each chunk is written at its offset, so
  /// the output is byte-identical at any worker count. `num_threads` = 0
  /// means hardware concurrency.
  std::vector<int64_t> DrawManySharded(int64_t m, Rng& rng,
                                       int num_threads = 0) const;

  /// Draws per chunk of DrawCounts (and per derived stream when sharded).
  static constexpr int64_t kShardChunk = int64_t{1} << 16;
};

/// Per-worker scratch of a DrawBlockFn, reused across that worker's blocks.
struct DrawBlockBuffers {
  std::vector<int64_t> values;  ///< the block's draws, or its run values
  std::vector<int64_t> counts;  ///< run counts (count kernels only)
  /// A count kernel's group plans, one per block length, all of one kernel
  /// (kept only in a scratch a sink lends, CountSink::DrawScratch, which
  /// carries nothing else; the kernel builds them before its blocks start,
  /// and the blocks only read them).
  std::vector<CountKernel::GroupPlan> plans;
};

/// Draws the `len` draws of one block, which start at position `offset` of
/// the request, from `rng` into `sink`.
using DrawBlockFn = std::function<void(int64_t offset, int64_t len, Rng& rng,
                                       CountSink& sink,
                                       DrawBlockBuffers& buffers)>;

/// The block schedule every DrawCounts implementation shares (its contract
/// is DrawCounts's): m is cut into kShardChunk blocks. threads = 0 draws
/// them in order from `rng`; threads >= 1 spends one NextU64 of `rng` as
/// the root of block c's own stream and fans the blocks out over up to
/// `threads` workers, each with its own CountSink::AcquireShard shard (a
/// single worker runs on the calling thread and feeds `sink`).
void RunDrawBlocks(int64_t m, Rng& rng, CountSink& sink, int threads,
                   const DrawBlockFn& draw_block);

/// Draw kernel of AliasSampler and DatasetSampler. Every per-draw path runs
/// the replay loop; the choice matters only for DrawCounts into an
/// order-free sink, and is made in CountKernel::DrawCounts.
enum class AliasKernel {
  /// Default: per-draw rng consumption byte-identical to the historical
  /// sampler (UniformInt(columns), NextDouble, and — bucket mode, length
  /// > 1 only — UniformInt(len)). Every seeded experiment replays.
  kReplay,
  /// Count-exact oracle (dist/count_kernel.h): DrawCounts into an
  /// order-free sink draws each kShardChunk block's Multinomial(len, p)
  /// count vector in O(support) instead of O(block). A group's sets
  /// (SampleSetGroup::Draw) share one plan of Poisson tables per block
  /// length and draw each block as table lookups plus about 3√len
  /// fix-up draws (a dataset oracle's one-block sets straight into their
  /// rows, Sampler::DrawCountsInto); other sets draw sequential
  /// conditional binomials over the support. Blocks with under 24 draws
  /// per support entry are drawn per draw. Same law as the per-draw
  /// kernel, its own stream; every other path (Draw, DrawMany,
  /// DrawManySharded, ordered sinks) runs the kReplay kernel byte for
  /// byte. histkd's and histk_cli's default.
  kCounts,
};

/// Human-readable kernel name ("replay" / "counts") for CLI and bench
/// labels.
const char* AliasKernelName(AliasKernel kernel);

/// The kernel whose AliasKernelName is `name`; nullopt for any other
/// string.
std::optional<AliasKernel> ParseAliasKernel(std::string_view name);

/// Walker/Vose alias method: O(columns) preprocessing, O(1) amortized per
/// draw, where columns = n (dense) or k (bucket-backed). Zero-mass columns
/// are excluded from the alias table outright, so zero-probability elements
/// are never returned (not even with fp-residue probability).
class AliasSampler : public Sampler {
 public:
  explicit AliasSampler(const Distribution& dist,
                        AliasKernel kernel = AliasKernel::kReplay);

  int64_t n() const override { return n_; }
  AliasKernel kernel() const { return kernel_; }
  void DrawManyInto(int64_t* out, int64_t m, Rng& rng) const override;
  /// kCounts into an order-free sink: the count kernel; otherwise the
  /// per-draw blocks of Sampler::DrawCounts.
  void DrawCounts(int64_t m, Rng& rng, CountSink& sink,
                  int threads = 0) const override;

 private:
  /// Dense column: acceptance threshold and reject target, interleaved so a
  /// draw touches one 16-byte entry (the historical layout touched two
  /// arrays a cache line apart).
  struct DenseCol {
    double prob;    // acceptance threshold; strict <, so prob 0 never accepts
    int64_t alias;  // element drawn on reject
  };

  /// Bucket column: the acceptance threshold plus BOTH candidate runs (own
  /// and alias target), so a draw resolves lo/len with one table load and a
  /// branchless select instead of a second dependent lookup.
  struct BucketCol {
    double prob;
    int64_t lo_self;
    int64_t len_self;
    int64_t lo_alias;
    int64_t len_alias;
  };

  void ReplayDenseInto(int64_t* out, int64_t m, Rng& rng) const;
  void ReplayBucketInto(int64_t* out, int64_t m, Rng& rng) const;

  int64_t n_ = 0;
  bool bucketed_ = false;
  AliasKernel kernel_ = AliasKernel::kReplay;
  std::vector<DenseCol> dense_cols_;
  std::vector<BucketCol> bucket_cols_;
  /// kCounts only: the support as runs (positive columns or buckets); empty
  /// otherwise. The replay columns are built too and serve every per-draw
  /// path.
  CountKernel counts_;
};

/// Inverse-cdf sampling by binary search: O(columns) preprocessing,
/// O(log columns) per draw. Slower than AliasSampler; kept as the
/// independently-correct baseline the alias table is cross-checked against.
class CdfSampler : public Sampler {
 public:
  explicit CdfSampler(const Distribution& dist);

  int64_t n() const override { return n_; }
  void DrawManyInto(int64_t* out, int64_t m, Rng& rng) const override;

 private:
  int64_t DrawImpl(Rng& rng) const;

  int64_t n_ = 0;
  bool bucketed_ = false;
  std::vector<double> cdf_;       // per element (dense) or per bucket;
                                  // back() == 1
  std::vector<int64_t> col_lo_;   // bucket mode: first element per bucket
  std::vector<int64_t> col_len_;  // bucket mode: elements per bucket
  std::vector<double> density_;   // bucket mode: per-element density
};

}  // namespace histk

#endif  // HISTK_DIST_SAMPLER_H_
