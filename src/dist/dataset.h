// DatasetSampler: the oracle over a materialized data set.
//
// Following the paper's data-set model, a file of items D (values in
// [0, n)) defines the distribution p = empirical(D), and the sample oracle
// draws uniformly random elements of D. This is exactly what tools/histk_cli
// does with its stdin items, and what experiments use to run the learner on
// "real" data without knowing the generating process.
#ifndef HISTK_DIST_DATASET_H_
#define HISTK_DIST_DATASET_H_

#include <cstdint>
#include <vector>

#include "dist/distribution.h"
#include "dist/sampler.h"
#include "util/rng.h"

namespace histk {

/// Uniform-over-items sample oracle. Immutable; O(1) per draw.
class DatasetSampler : public Sampler {
 public:
  /// Takes ownership of the items. Aborts unless the data set is non-empty
  /// and every item lies in [0, n). Every per-draw path is the historical
  /// Lemire pick over the items; `kernel` chooses only how an order-free
  /// DrawCounts runs: kReplay (default) counts those per-draw picks, kCounts
  /// draws each block's count vector over the distinct items, weighted by
  /// their occurrence counts.
  DatasetSampler(int64_t n, std::vector<int64_t> items,
                 AliasKernel kernel = AliasKernel::kReplay);

  int64_t n() const override { return n_; }
  AliasKernel kernel() const { return kernel_; }
  void DrawManyInto(int64_t* out, int64_t m, Rng& rng) const override;
  void DrawCounts(int64_t m, Rng& rng, CountSink& sink,
                  int threads = 0) const override;
  /// kCounts: the set's Poisson totals by the group plan, then each fix-up
  /// pick added to its item's count (CountKernel::DrawPlannedTotals says
  /// which sets qualify). kReplay declines.
  bool DrawCountsInto(int64_t m, Rng& rng, uint32_t* counts,
                      DrawBlockBuffers& scratch) const override;

  /// Number of items |D|.
  int64_t size() const { return static_cast<int64_t>(items_.size()); }

  const std::vector<int64_t>& items() const { return items_; }

  /// The distribution this oracle samples: p(i) = occ(i, D)/|D|.
  Distribution EmpiricalDist() const;

 private:
  /// The distinct items in ascending order, each weighted by its
  /// occurrence count: the kCounts support.
  std::vector<CountKernel::Run> DistinctRuns() const;

  int64_t n_ = 0;
  AliasKernel kernel_ = AliasKernel::kReplay;
  std::vector<int64_t> items_;
  CountKernel counts_;  // kCounts only; empty otherwise
};

}  // namespace histk

#endif  // HISTK_DIST_DATASET_H_
