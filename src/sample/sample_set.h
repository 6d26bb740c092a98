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
// an m-element draw vector, while FromDraws/FromCounts/FromRuns build from
// data the caller already holds. All construction paths yield the same
// canonical representation for the same multiset.
#ifndef HISTK_SAMPLE_SAMPLE_SET_H_
#define HISTK_SAMPLE_SAMPLE_SET_H_

#include <cstdint>
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
  const std::vector<int64_t>& distinct_values() const { return distinct_; }

 private:
  SampleSet(int64_t n, int64_t m);

  int64_t n_ = 0;
  int64_t m_ = 0;

  // Dense backend: prefix arrays of length n+1 (counts / collision pairs).
  bool dense_ = false;
  std::vector<int64_t> prefix_count_;
  std::vector<uint64_t> prefix_coll_;

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
  /// sharded by `threads`; see SampleSet::Draw).
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
