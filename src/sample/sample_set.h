// SampleSet: interval statistics of an i.i.d. sample multiset.
//
// The paper's estimators need, for arbitrary intervals I:
//   |S_I|      — number of samples landing in I          (estimates p(I))
//   coll(S_I)  — sum over i in I of C(occ(i, S), 2)      (pairwise collisions)
// and the two normalizations of coll:
//   coll(S_I)/C(|S|, 2)    -> estimates sum_{i in I} p_i^2   (Lemma 1)
//   coll(S_I)/C(|S_I|, 2)  -> estimates ||p_I||_2^2          (Eq. 1/2, GR00)
//
// Both |S_I| and coll(S_I) are sums of per-element quantities, so a prefix
// sum over the domain answers any interval in O(1) (dense backend) or
// O(log #distinct) (sparse backend, for domains too large for dense arrays).
//
// Construction is fused with sampling: Draw accumulates oracle
// chunks through SampleCounter (sample/counter.h) instead of materializing
// an m-element draw vector (a group's planned sets skip even that: the
// oracle counts them into their rows), while FromDraws/FromCounts/FromRuns
// build from data the caller already holds. All construction paths yield
// the same canonical representation for the same multiset.
//
// A dense set is one row of 2(n + 1) words, prefix counts then prefix
// collisions, built in place: the counts accumulate at row[v + 1] and one
// pass turns them into both prefix arrays. A drawn dense SampleSetGroup
// keeps all r rows in one block, in 32-bit words when C(m, 2) < 2^32; a
// set copied out of a group shares that immutable block (it stays alive
// while any set reads it). Dense sets keep no list of
// distinct values; distinct_values() derives it from the prefix counts.
#ifndef HISTK_SAMPLE_SAMPLE_SET_H_
#define HISTK_SAMPLE_SAMPLE_SET_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "dist/sampler.h"
#include "util/interval.h"
#include "util/rng.h"

namespace histk {

/// Immutable multiset of samples from {0,...,n-1} with O(1)/O(log) interval
/// count and collision queries.
class SampleSet {
 public:
  /// Domains up to this size get dense prefix arrays; larger ones fall back
  /// to binary search over distinct values.
  static constexpr int64_t kDenseDomainLimit = int64_t{1} << 21;

  /// Builds from raw draws (values in [0, n)).
  static SampleSet FromDraws(int64_t n, const std::vector<int64_t>& draws);

  /// Move-in overload: sparse domains sort the batch in place instead of
  /// copying it first (at m = 10^7 the copy alone is 80 MB of traffic).
  static SampleSet FromDraws(int64_t n, std::vector<int64_t>&& draws);

  /// Builds from per-element occurrence counts (size n).
  static SampleSet FromCounts(int64_t n, const std::vector<int64_t>& counts);

  /// Pre-counted constructor: occurrence runs as (strictly increasing
  /// values in [0, n), positive counts), the form SampleCounter produces.
  /// Equivalent to FromDraws on the expanded multiset, without expanding.
  static SampleSet FromRuns(int64_t n, std::vector<int64_t> values,
                            const std::vector<int64_t>& counts);

  /// Draws `m` samples from the oracle and builds the set — via the fused
  /// draw→count path (Sampler::DrawCounts + SampleCounter), so the batch is
  /// never materialized. For the per-draw kernel (kReplay), threads = 0
  /// consumes the rng identically to DrawMany(m) and returns exactly the
  /// set FromDraws(n, DrawMany(m)) would; threads >= 1 returns
  /// FromDraws(n, DrawManySharded(m, rng, threads)) — thread-count
  /// invariant, one NextU64 consumed. A kCounts oracle draws each block's
  /// count vector instead: the set has the same law, but is its own
  /// stream (still thread-count invariant when sharded).
  static SampleSet Draw(const Sampler& sampler, int64_t m, Rng& rng,
                        int threads = 0);

  /// Whether a set of m draws fits 32-bit words: no prefix count exceeds
  /// m, and no prefix collision count exceeds C(m, 2).
  static bool FitsNarrowRow(int64_t m);

  int64_t n() const { return n_; }

  /// Total number of samples m = |S|.
  int64_t m() const { return m_; }

  /// |S_I|: samples falling in I.
  int64_t Count(Interval I) const;

  /// coll(S_I) = sum_{i in I} C(occ(i), 2).
  uint64_t Collisions(Interval I) const;

  /// coll(S_I) / C(|S|, 2): unbiased estimate of sum_{i in I} p_i^2
  /// (Lemma 1). Requires m >= 2.
  double SumSquaresEstimate(Interval I) const;

  /// coll(S_I) / C(|S_I|, 2): estimate of ||p_I||_2^2 (Eq. 2). Empty if
  /// |S_I| < 2 (no pairs to count).
  std::optional<double> CondCollisionRate(Interval I) const;

  /// Sorted distinct sampled values (used by the Theorem 2 candidate set).
  /// Dense sets derive the list from their prefix counts on each call.
  std::vector<int64_t> distinct_values() const;

 private:
  friend class SampleCounter;
  friend class SampleSetGroup;

  SampleSet(int64_t n, int64_t m);

  /// Where a dense set's counts accumulate, at row[v + 1] (row[0] is 0):
  /// a 64-bit (`wide`) or 32-bit (`narrow`) row that `block` keeps alive.
  /// Empty, the counter allocates a 64-bit row of its own.
  struct DenseRow {
    std::shared_ptr<const void> block;
    uint64_t* wide = nullptr;
    uint32_t* narrow = nullptr;
  };

  /// Words in one dense row over [0, n): n + 1 prefix counts, then n + 1
  /// prefix collisions.
  static size_t RowWords(int64_t n) { return 2 * (static_cast<size_t>(n) + 1); }

  /// One zeroed 64-bit row over [0, n), ready for counts at row[v + 1].
  static std::shared_ptr<uint64_t[]> NewDenseRow(int64_t n);

  /// Finalizes `row` in place and wraps it as a set: on entry the row holds
  /// value v's count at [v + 1] (and 0 at [0]), on exit its prefix counts
  /// and prefix collisions. `block` keeps the row alive.
  static SampleSet FromDenseRow(int64_t n, uint64_t* row,
                                std::shared_ptr<const void> block);
  static SampleSet FromDenseRow(int64_t n, uint32_t* row,
                                std::shared_ptr<const void> block);

  int64_t n_ = 0;
  int64_t m_ = 0;

  // Dense backend: prefix counts and prefix collision pairs, n + 1 words
  // each, in one row of `block_` (which a group's sets share), through the
  // 64-bit or the 32-bit pair of pointers. All null for sparse sets.
  std::shared_ptr<const void> block_;
  const uint64_t* prefix_count_ = nullptr;
  const uint64_t* prefix_coll_ = nullptr;
  const uint32_t* narrow_count_ = nullptr;
  const uint32_t* narrow_coll_ = nullptr;

  // Sparse backend: distinct values ascending + prefix sums aligned to them.
  std::vector<int64_t> distinct_;
  std::vector<int64_t> sparse_prefix_count_;
  std::vector<uint64_t> sparse_prefix_coll_;
};

/// The r independent sample sets S^1,...,S^r that Algorithm 1/2 draw, with
/// the median-of-r combiners used for z_I.
class SampleSetGroup {
 public:
  /// Draws r sets of m samples each (fused path per set, sequential or
  /// sharded by `threads`; see SampleSet::Draw). Dense sets are built in
  /// place, in one block of r rows. The sets share one draw scratch, so a
  /// kCounts oracle builds its group plan once for all r (its blocks then
  /// differ from SampleSet::Draw's; same law, own stream). A sequential
  /// set of one block in a 32-bit row is first offered to the oracle's
  /// Sampler::DrawCountsInto, which draws it straight into its row (a
  /// kCounts DatasetSampler's planned sets); a declined set, and every
  /// other set, goes through a SampleCounter and DrawCounts. Either way
  /// the sets and the rng come out the same.
  static SampleSetGroup Draw(const Sampler& sampler, int64_t r, int64_t m,
                             Rng& rng, int threads = 0);

  /// Wraps existing sets (all with the same n).
  explicit SampleSetGroup(std::vector<SampleSet> sets);

  int64_t r() const { return static_cast<int64_t>(sets_.size()); }
  int64_t n() const;
  const SampleSet& set(int64_t i) const;

  /// z_I of Algorithm 1: median over sets of coll(S^j_I)/C(|S^j|, 2),
  /// estimating sum_{i in I} p_i^2.
  double MedianSumSquaresEstimate(Interval I) const;

  /// Tester-side z_I: median over sets of coll(S^j_I)/C(|S^j_I|, 2),
  /// estimating ||p_I||_2^2. Sets with |S^j_I| < 2 contribute 0 (they have
  /// observed no collision evidence).
  double MedianCondCollisionRate(Interval I) const;

  /// Total samples drawn across all sets.
  int64_t TotalSamples() const;

 private:
  std::vector<SampleSet> sets_;
};

}  // namespace histk

#endif  // HISTK_SAMPLE_SAMPLE_SET_H_
