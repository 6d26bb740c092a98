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
// learn: struct-of-arrays prefix rows (r collision prefixes plus one main
// count prefix at every endpoint's lo and hi+1) and, for each of the
// d(d+1)/2 endpoint pairs, the index of the set whose ratio is the median
// (1 byte per pair for r <= 256, else 4). Filling it costs O(d^2 r) once;
// each iteration then costs O(d r) for the remnant costs plus an O(d^2)
// scan that recomputes z_J and y_J from the prefix rows in O(1) — instead
// of O(d^2 r) per iteration. The table is bounded by kMaxCandidatePairs
// (2^24 pairs, at most 64 MiB): sample-endpoint lists are thinned to it,
// and a kAllIntervals learn beyond it is rejected by ValidateLearnOptions.
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
  /// Theorem 2 includes the +-1 neighbours of each sample in the endpoint
  /// set T'. Setting this false drops them (ablation E8 measures the cost).
  bool include_endpoint_neighbors = true;
  /// Override the number of greedy iterations (0 = paper's k*ln(1/eps)).
  int64_t iterations_override = 0;
  /// Override the number of collision sample sets r (0 = paper formula).
  int64_t r_override = 0;
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

/// The options' derived Algorithm 1 parameters (paper formulas + the
/// r_override knob). The single source both LearnHistogram and the engine
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
