// Exact v-optimal histogram construction.
//
// The textbook O(n^2 k) dynamic program (Jagadish et al., VLDB'98).
// Given the full pmf it finds the tiling k-histogram H* minimizing
// ||p - H||_2^2. The paper's Theorems 1/2 are stated against this H*; the
// reproduction uses it as ground truth (the paper never computes it from
// samples — that is exactly the gap Algorithm 1 fills).
//
// NOTE: interval SSE over an arbitrary (unsorted) sequence does NOT satisfy
// the quadrangle inequality, so SMAWK / divide-and-conquer DP speedups are
// unsound here (they require sorted data as in 1-D k-means). The exact DP
// is therefore quadratic.
#ifndef HISTK_BASELINE_VOPTIMAL_DP_H_
#define HISTK_BASELINE_VOPTIMAL_DP_H_

#include <cstdint>

#include "dist/distribution.h"
#include "histogram/tiling.h"

namespace histk {

/// An optimal tiling k-histogram and its L2^2 error.
struct VOptimalResult {
  TilingHistogram histogram;
  double sse = 0.0;
};

/// Exact v-optimal DP, O(n^2 k) time / O(nk) space. k is clamped to n.
VOptimalResult VOptimalHistogram(const Distribution& p, int64_t k);

/// Just the optimal error ||p - H*||_2^2 (exact DP).
double VOptimalSse(const Distribution& p, int64_t k);

}  // namespace histk

#endif  // HISTK_BASELINE_VOPTIMAL_DP_H_
