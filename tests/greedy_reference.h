// Test-only reference for Algorithm 1's greedy search: the per-candidate
// cost evaluation the candidate-cost table replaced. Every iteration it
// recomputes c_J = total + PieceCost(J) - (overlapped piece costs) +
// (remnant costs) for every candidate J, each PieceCost taking a main-set
// count and a median over the r collision sets. It is O(d^2 r) per
// iteration, kept only so the differential test can pin the table search
// to it byte for byte.
#ifndef HISTK_TESTS_GREEDY_REFERENCE_H_
#define HISTK_TESTS_GREEDY_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/greedy.h"

namespace histk {
namespace reference {

/// The flattening of the priority histogram built so far, as contiguous
/// pieces with cached cost estimates.
class GreedyState {
 public:
  GreedyState(const GreedyEstimator& estimator, int64_t n) : est_(estimator), n_(n) {
    pieces_.push_back(Interval::Full(n_));
    costs_.push_back(est_.PieceCost(pieces_[0]));
    total_ = costs_[0];
  }

  double total_cost() const { return total_; }

  /// Total estimated cost if J were added (the paper's c_J).
  double CostWith(Interval J) const {
    double delta = est_.PieceCost(J);
    const size_t first = FirstOverlapping(J);
    size_t idx = first;
    for (; idx < pieces_.size() && pieces_[idx].lo <= J.hi; ++idx) {
      delta -= costs_[idx];
    }
    const Interval left_rem(pieces_[first].lo, J.lo - 1);
    if (!left_rem.empty()) delta += est_.PieceCost(left_rem);
    const Interval right_rem(J.hi + 1, pieces_[idx - 1].hi);
    if (!right_rem.empty()) delta += est_.PieceCost(right_rem);
    return total_ + delta;
  }

  /// Replaces the span J overlaps by {left remnant, J, right remnant} and
  /// records the three priority entries.
  void Apply(Interval J, PriorityHistogram& out) {
    const size_t first = FirstOverlapping(J);
    size_t last = first;
    while (last + 1 < pieces_.size() && pieces_[last + 1].lo <= J.hi) ++last;

    const Interval left_rem(pieces_[first].lo, J.lo - 1);
    const Interval right_rem(J.hi + 1, pieces_[last].hi);

    std::vector<Interval> new_pieces;
    std::vector<double> new_costs;
    if (!left_rem.empty()) {
      new_pieces.push_back(left_rem);
      new_costs.push_back(est_.PieceCost(left_rem));
    }
    new_pieces.push_back(J);
    new_costs.push_back(est_.PieceCost(J));
    if (!right_rem.empty()) {
      new_pieces.push_back(right_rem);
      new_costs.push_back(est_.PieceCost(right_rem));
    }

    for (size_t i = first; i <= last; ++i) total_ -= costs_[i];
    for (double c : new_costs) total_ += c;

    pieces_.erase(pieces_.begin() + static_cast<ptrdiff_t>(first),
                  pieces_.begin() + static_cast<ptrdiff_t>(last + 1));
    costs_.erase(costs_.begin() + static_cast<ptrdiff_t>(first),
                 costs_.begin() + static_cast<ptrdiff_t>(last + 1));
    pieces_.insert(pieces_.begin() + static_cast<ptrdiff_t>(first), new_pieces.begin(),
                   new_pieces.end());
    costs_.insert(costs_.begin() + static_cast<ptrdiff_t>(first), new_costs.begin(),
                  new_costs.end());

    const int64_t rank = out.size() == 0 ? 1 : out.entries().back().rank + 1;
    out.AddWithRank(J, Density(J), rank);
    if (!left_rem.empty()) out.AddWithRank(left_rem, Density(left_rem), rank);
    if (!right_rem.empty()) out.AddWithRank(right_rem, Density(right_rem), rank);
  }

  TilingHistogram ToTiling() const {
    std::vector<double> values;
    values.reserve(pieces_.size());
    for (const Interval& piece : pieces_) values.push_back(Density(piece));
    return TilingHistogram(n_, pieces_, values);
  }

 private:
  double Density(Interval I) const {
    return est_.WeightEstimate(I) / static_cast<double>(I.length());
  }

  size_t FirstOverlapping(Interval J) const {
    const auto it = std::lower_bound(
        pieces_.begin(), pieces_.end(), J.lo,
        [](const Interval& piece, int64_t x) { return piece.hi < x; });
    return static_cast<size_t>(it - pieces_.begin());
  }

  const GreedyEstimator& est_;
  int64_t n_;
  std::vector<Interval> pieces_;
  std::vector<double> costs_;
  double total_ = 0.0;
};

/// Theorem 2's endpoint list (samples and their +-1 neighbours), thinned
/// evenly so d(d+1)/2 <= max_candidates (0 = no thinning).
inline std::vector<int64_t> SampleEndpointList(const GreedyEstimator& est, int64_t n,
                                               int64_t max_candidates,
                                               int64_t& before_thinning,
                                               int64_t& after_thinning) {
  std::vector<int64_t> pts;
  for (int64_t v : est.main().distinct_values()) {
    if (v - 1 >= 0) pts.push_back(v - 1);
    pts.push_back(v);
    if (v + 1 <= n - 1) pts.push_back(v + 1);
  }
  std::sort(pts.begin(), pts.end());
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  before_thinning = static_cast<int64_t>(pts.size());
  if (max_candidates > 0) {
    const auto limit = static_cast<size_t>(
        (std::sqrt(8.0 * static_cast<double>(max_candidates) + 1.0) - 1.0) / 2.0);
    if (pts.size() > limit && limit >= 2) {
      std::vector<int64_t> thinned;
      thinned.reserve(limit);
      const double stride =
          static_cast<double>(pts.size() - 1) / static_cast<double>(limit - 1);
      for (size_t i = 0; i < limit; ++i) {
        thinned.push_back(pts[static_cast<size_t>(std::llround(
            static_cast<double>(i) * stride))]);
      }
      thinned.erase(std::unique(thinned.begin(), thinned.end()), thinned.end());
      pts = std::move(thinned);
    }
  }
  after_thinning = static_cast<int64_t>(pts.size());
  return pts;
}

/// LearnHistogramWithEstimator by per-candidate cost evaluation (no
/// candidate-cost table; candidate_table_bytes stays 0).
inline LearnResult LearnHistogramWithEstimator(const GreedyEstimator& estimator,
                                               const LearnOptions& options,
                                               const GreedyParams& params) {
  const int64_t n = estimator.n();
  GreedyState state(estimator, n);
  PriorityHistogram priority(n);
  const int64_t iterations = params.iterations;

  std::vector<int64_t> endpoints;
  int64_t endpoints_before = 0;
  int64_t endpoints_after = 0;
  if (options.strategy == CandidateStrategy::kSampleEndpoints) {
    endpoints = SampleEndpointList(estimator, n, options.max_candidates,
                                   endpoints_before, endpoints_after);
  }

  int64_t candidates = 0;
  for (int64_t iter = 0; iter < iterations; ++iter) {
    double best_cost = std::numeric_limits<double>::infinity();
    Interval best_j;
    candidates = 0;
    auto consider = [&](Interval j) {
      const double c = state.CostWith(j);
      ++candidates;
      if (c < best_cost) {
        best_cost = c;
        best_j = j;
      }
    };
    if (options.strategy == CandidateStrategy::kAllIntervals) {
      for (int64_t a = 0; a < n; ++a) {
        for (int64_t b = a; b < n; ++b) consider(Interval(a, b));
      }
    } else {
      for (size_t ai = 0; ai < endpoints.size(); ++ai) {
        for (size_t bi = ai; bi < endpoints.size(); ++bi) {
          consider(Interval(endpoints[ai], endpoints[bi]));
        }
      }
    }
    if (best_j.empty()) break;
    state.Apply(best_j, priority);
  }

  return LearnResult{std::move(priority), state.ToTiling(),     params,
                     estimator.TotalSamples(), candidates,      state.total_cost(),
                     endpoints_before,         endpoints_after};
}

}  // namespace reference
}  // namespace histk

#endif  // HISTK_TESTS_GREEDY_REFERENCE_H_
