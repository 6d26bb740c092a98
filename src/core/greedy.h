// Algorithm 1: greedy construction of a near-optimal priority k-histogram,
// plus the Theorem 2 variant that restricts candidate intervals to
// endpoints adjacent to observed samples.
//
// Guarantee (Theorems 1/2): against the best tiling k-histogram H*,
//   ||p - H||_2^2 <= ||p - H*||_2^2 + 5*eps   (full candidate enumeration)
//   ||p - H||_2^2 <= ||p - H*||_2^2 + 8*eps   (sample-endpoint candidates)
// using l + r*m = O~((k/eps)^2 ln n) samples.
//
// The algorithm maintains the flattening of its priority histogram as a
// tiling whose pieces carry the estimated cost z_I - y_I^2/|I| (the
// estimated SSE of bucketing I at its estimated mean). Each iteration adds
// the interval J minimizing the total estimated cost of the new tiling;
// the three paper entries (J, y_J), (I_L, y_IL), (I_R, y_IR) are recorded
// in the output priority histogram.
//
// Cost model. With d candidate endpoints (d = n under kAllIntervals) and r
// collision sets, the search first builds a candidate-cost table once per
// learn: struct-of-arrays prefix rows (r collision prefixes, in 32-bit words
// when r <= 256 and each set's collisions fit one, plus one main count prefix
// at every endpoint's lo and hi+1) and, for each of the d(d+1)/2 endpoint
// pairs, the index of the set whose ratio is the median (1 byte per pair for
// r <= 256, else 4), selected on float lanes when the counts allow it
// (MedianFillUsesFloatLanes). Filling it costs O(d^2 r) once. Each
// iteration then costs O(d r) at most for the remnant costs that changed
// (a remnant whose ends are both endpoints is read from the table, the rest
// go through the estimator), O(pieces + d) for the piece-cost prefix sums
// and per-endpoint terms, and a two-pass scan instead of O(d^2 r). The
// first pass groups each row's pairs by the piece their right end falls in
// and keeps one column of minima per piece across iterations, so it costs
// O(d * pieces) plus the pairs whose right end lies in a piece new in this
// iteration. It gets c_J - total up to rounding and keeps each row's
// minimum. An exact pass then re-evaluates, with PieceCost's own
// operations, only the pairs within a proven rounding margin of the
// minimum, so the chosen J is byte-identical to a per-candidate
// evaluation's. The scan's scratch is O(d * pieces) doubles (capped at
// 8 MiB; pieces past the cap are re-scored every iteration), allocated
// once per learn and not counted in candidate_table_bytes. The table is
// bounded by kMaxCandidatePairs (2^24 pairs, at most 64 MiB): sample-
// endpoint lists are thinned to it, and a kAllIntervals learn beyond it is
// rejected by ValidateLearnOptions.
#ifndef HISTK_CORE_GREEDY_H_
#define HISTK_CORE_GREEDY_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "dist/sampler.h"
#include "histogram/priority.h"
#include "histogram/tiling.h"
#include "stats/bounds.h"
#include "stats/estimators.h"
#include "util/rng.h"
#include "util/status.h"

namespace histk {

/// How candidate intervals J are enumerated each greedy step.
enum class CandidateStrategy {
  /// Algorithm 1: all O(n^2) intervals. Exact but time Omega(n^2).
  kAllIntervals,
  /// Theorem 2: only intervals whose endpoints are samples or sample
  /// neighbours (T' = {s-1, s, s+1}); time independent of n^2.
  kSampleEndpoints,
};

const char* CandidateStrategyName(CandidateStrategy s);

/// The candidate-cost table's cap, in endpoint pairs (a <= b): d endpoints
/// make d(d+1)/2 pairs, so the cap admits d <= 5792.
inline constexpr int64_t kMaxCandidatePairs = int64_t{1} << 24;

/// Collision counts below this bound are exact in a float (24-bit
/// significand).
inline constexpr uint64_t kFloatLaneLimit = uint64_t{1} << 24;

/// Whether the candidate-cost table selects its median sets on float lanes
/// (16 keys per pass) rather than double lanes (8): true when every set of
/// `group` has the same size, so raw collision counts order the sets, and
/// every set's total collision count is below kFloatLaneLimit, so every key
/// is exact in a float. Both widths select the same sets.
bool MedianFillUsesFloatLanes(const SampleSetGroup& group);

/// The greedy search's interruption hook: called once per table-fill row
/// and once per scan row. It may throw to abandon the search (the engine
/// throws its deadline/cancel errors from it); an empty hook is never
/// called.
using GreedyPoll = std::function<void()>;

/// Learner configuration.
struct LearnOptions {
  int64_t k = 1;
  double eps = 0.1;
  CandidateStrategy strategy = CandidateStrategy::kSampleEndpoints;
  /// Multiplies the paper's sample-count formulas (l and m); 1.0 = paper
  /// constants. Experiments document the scale they run at.
  double sample_scale = 1.0;
  /// Cap on candidate-set size for kSampleEndpoints: the endpoint list is
  /// thinned evenly if d(d+1)/2 would exceed it. It therefore also bounds
  /// the candidate-cost table's bytes. 0, or any value above
  /// kMaxCandidatePairs, thins to kMaxCandidatePairs.
  int64_t max_candidates = 2'000'000;
};

/// Output of the learner.
struct LearnResult {
  PriorityHistogram priority;      ///< the paper's output representation
  TilingHistogram tiling;          ///< its flattening (what evaluations use)
  GreedyParams params;             ///< sample sizes actually used
  int64_t total_samples = 0;       ///< samples drawn
  int64_t candidates_per_iter = 0; ///< candidate intervals enumerated
  double estimated_cost = 0.0;     ///< final estimated SSE (c of the tiling)
  /// Candidate-endpoint accounting for the kSampleEndpoints strategy: the
  /// endpoint count before and after max_candidates thinning. Equal when no
  /// thinning happened; both 0 under kAllIntervals. A gap between them is
  /// the thinning event surfaced in the Engine report telemetry — it used
  /// to be silent.
  int64_t endpoints_before_thinning = 0;
  int64_t endpoints_after_thinning = 0;
  /// Bytes the candidate-cost table held: the per-pair median-set indices
  /// plus the endpoint prefix rows.
  int64_t candidate_table_bytes = 0;
};

/// Non-aborting validation of everything LearnHistogram would otherwise
/// HISTK_CHECK — including that the derived sample counts are finite and
/// representable (extreme eps/sample_scale can blow the formulas up to
/// inf), and that a kAllIntervals learn fits kMaxCandidatePairs. The facade
/// calls this before touching the oracle, so no user-supplied spec can reach
/// an abort.
Status ValidateLearnOptions(int64_t n, const LearnOptions& options);

/// The options' derived Algorithm 1 parameters (the paper formulas). The
/// single source both LearnHistogram and the engine
/// facade draw from — parity depends on there being exactly one derivation.
GreedyParams ComputeLearnParams(int64_t n, const LearnOptions& options);

/// Runs Algorithm 1 end to end: derives parameters from (n, k, eps), draws
/// samples from the oracle, and greedily builds the histogram.
LearnResult LearnHistogram(const Sampler& sampler, const LearnOptions& options,
                           Rng& rng);

/// The deterministic part of Algorithm 1 on pre-drawn samples: used by
/// tests and by experiments that share samples across strategies. `poll`
/// is the search's interruption hook (see GreedyPoll).
LearnResult LearnHistogramWithEstimator(const GreedyEstimator& estimator,
                                        const LearnOptions& options,
                                        const GreedyParams& params,
                                        const GreedyPoll& poll = {});

}  // namespace histk

#endif  // HISTK_CORE_GREEDY_H_
