#include "baseline/voptimal_dp.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "util/common.h"

namespace histk {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Reconstruction: parent[j][i] = start of the last piece of the best
// (j+1)-piece tiling of [0, i].
VOptimalResult Reconstruct(const Distribution& p, int64_t k,
                           const std::vector<std::vector<int32_t>>& parent,
                           double best_sse) {
  std::vector<int64_t> right_ends;
  int64_t i = p.n() - 1;
  int64_t j = k - 1;
  while (i >= 0) {
    HISTK_CHECK(j >= 0);
    const int64_t start = parent[static_cast<size_t>(j)][static_cast<size_t>(i)];
    right_ends.push_back(i);
    i = start - 1;
    --j;
  }
  std::reverse(right_ends.begin(), right_ends.end());

  std::vector<double> values;
  values.reserve(right_ends.size());
  int64_t lo = 0;
  for (int64_t end : right_ends) {
    values.push_back(p.IntervalMean(Interval(lo, end)));
    lo = end + 1;
  }
  return {TilingHistogram::FromRightEnds(p.n(), right_ends, std::move(values)),
          std::max(0.0, best_sse)};
}

}  // namespace

VOptimalResult VOptimalHistogram(const Distribution& p, int64_t k) {
  HISTK_CHECK(k >= 1);
  const int64_t n = p.n();
  k = std::min(k, n);

  // dp layer j (0-based): min SSE tiling of [0, i] with at most j+1 pieces.
  std::vector<double> prev(static_cast<size_t>(n)), cur(static_cast<size_t>(n));
  std::vector<std::vector<int32_t>> parent(
      static_cast<size_t>(k), std::vector<int32_t>(static_cast<size_t>(n), 0));

  for (int64_t i = 0; i < n; ++i) {
    prev[static_cast<size_t>(i)] = p.IntervalSse(Interval(0, i));
    parent[0][static_cast<size_t>(i)] = 0;
  }
  for (int64_t j = 1; j < k; ++j) {
    auto& par = parent[static_cast<size_t>(j)];
    for (int64_t i = 0; i < n; ++i) {
      if (i < j) {
        // Fewer elements than pieces: singleton pieces fit exactly.
        cur[static_cast<size_t>(i)] = 0.0;
        par[static_cast<size_t>(i)] = static_cast<int32_t>(i);
        continue;
      }
      // Last piece is [s, i]. Restricting s >= j loses nothing: SSE is
      // monotone under interval containment, so a split s < j (whose prefix
      // fits exactly with singletons) is dominated by s = j.
      double best = kInf;
      int32_t best_s = static_cast<int32_t>(j);
      for (int64_t s = j; s <= i; ++s) {
        const double cand =
            prev[static_cast<size_t>(s - 1)] + p.IntervalSse(Interval(s, i));
        if (cand < best) {
          best = cand;
          best_s = static_cast<int32_t>(s);
        }
      }
      cur[static_cast<size_t>(i)] = best;
      par[static_cast<size_t>(i)] = best_s;
    }
    std::swap(prev, cur);
  }
  return Reconstruct(p, k, parent, prev[static_cast<size_t>(n - 1)]);
}

double VOptimalSse(const Distribution& p, int64_t k) {
  return VOptimalHistogram(p, k).sse;
}

}  // namespace histk
