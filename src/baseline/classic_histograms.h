// Classic sampling-based histogram constructions the paper contrasts with
// (Section 1: equi-depth and compressed histograms "are quite different
// from the representations considered in this paper") plus simple
// heuristics. CompareSpec builds them from the same sample budget as the
// learner, so the comparison is apples-to-apples.
#ifndef HISTK_BASELINE_CLASSIC_HISTOGRAMS_H_
#define HISTK_BASELINE_CLASSIC_HISTOGRAMS_H_

#include <cstdint>

#include "dist/distribution.h"
#include "histogram/tiling.h"
#include "sample/sample_set.h"

namespace histk {

/// Equi-width: k equal-length pieces; value = estimated piece density.
TilingHistogram EquiWidthFromSamples(int64_t k, const SampleSet& samples);

/// Equi-width against the true pmf (for reference rows).
TilingHistogram EquiWidthExact(const Distribution& p, int64_t k);

/// Equi-depth (Chaudhuri–Motwani–Narasayya style): piece boundaries at
/// sample quantiles, so each piece holds ~m/k samples; value = estimated
/// piece density. Degenerates gracefully when samples concentrate.
TilingHistogram EquiDepthFromSamples(int64_t k, const SampleSet& samples);

/// Compressed (Gibbons–Matias–Poosala style): elements whose sample count
/// exceeds m/k become singleton pieces (up to k/2 of them, heaviest first);
/// the remaining budget is spent equi-depth on the gaps.
TilingHistogram CompressedFromSamples(int64_t k, const SampleSet& samples);

/// Bottom-up greedy merge on the true pmf: start from n singleton pieces,
/// repeatedly merge the adjacent pair whose merge increases SSE the least,
/// until k pieces remain. A strong (but linear-time-in-n) heuristic upper
/// bound on the v-optimal error. O(n log n).
TilingHistogram GreedyMergeExact(const Distribution& p, int64_t k);

}  // namespace histk

#endif  // HISTK_BASELINE_CLASSIC_HISTOGRAMS_H_
