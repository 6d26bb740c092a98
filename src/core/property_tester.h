// Histogram-property testers beyond the source paper: *is p a k-histogram
// at all?* (no reference given) and *are two histogram distributions
// close?* — the two workloads flagged as open items since the engine facade
// shipped.
//
// Is-k-histogram (CDKL22 flavor — Canonne–Diakonikolas–Kane–Liu, "Near-
// Optimal Bounds for Testing Histogram Distributions", 2022). Two phases:
//
//   1. LEARN: fit a candidate tiling with Algorithm 1 (the greedy learner's
//      flattening machinery, reduced to <= k pieces). The candidate supplies
//      structure, not ground truth: its pieces, refined into sub-intervals
//      of roughly equal candidate mass (<= eps/8k each), form the
//      verification partition.
//   2. VERIFY: draw a fresh sample group and run a tolerant identity check
//      of the sample against the candidate's class — accept iff the
//      part-granularity projection of p fits SOME <= k-piece flattening
//      (greedy chi-square segmentation of the pooled part counts) AND p is
//      flat inside the parts (median conditional collision rates, the same
//      evidence Algorithms 3/4 use). Up to k parts may be excepted (a true
//      k-histogram's jumps straddle at most k parts of the candidate
//      partition) provided their pooled mass stays under eps/4 — bounded
//      exceptions keep both error directions: an accepted run certifies p
//      within ~eps of a k-piece flattening, a rejected one that no k-piece
//      explanation fits.
//
// Sample complexity follows the CDKL22 near-optimal shape
// O(sqrt(nk)/eps + (k + sqrt n)/eps^2) for verification (stats/bounds.h),
// far below the reference testers' eps^-4 / eps^-5 — the point of the
// workload.
//
// Closeness (DKN17 flavor — Diakonikolas–Kane–Nikishkin, "Optimal Algorithms
// and Lower Bounds for Testing Closeness of Structured Distributions",
// 2015/17): both oracles are promised (approximate) histograms with at most
// k_p / k_q pieces. Learn a candidate per oracle, reduce both samples to the
// common <= k_p + k_q bucket refinement of the two candidates, and compare
// fresh per-part counts of m draws each with the reduced-support L2^2
// statistic sum_A [m/(m-1) (X_A(X_A-1) + Y_A(Y_A-1)) - 2 X_A Y_A] / m^2,
// median-combined over verify_r independent pairs. Its mean is exactly
// sum_A (p_A - q_A)^2 for sets of exactly m draws; CDVV14's
// (X_A - Y_A)^2 - X_A - Y_A is unbiased only when the set sizes are
// Poissonized, and runs low by sum_A (p_A^2 + q_A^2) / m here.
//
// Both testers run as budgeted engine TaskSpecs (PropertyTestSpec /
// ClosenessSpec in engine/engine.h); the free functions here are the
// unbudgeted entry points benches and tests drive directly, and the
// decomposed building blocks (plan construction, deterministic decisions on
// pre-drawn groups) are what the facade replays so the two paths cannot
// drift.
#ifndef HISTK_CORE_PROPERTY_TESTER_H_
#define HISTK_CORE_PROPERTY_TESTER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/greedy.h"
#include "dist/distribution.h"
#include "dist/sampler.h"
#include "histogram/tiling.h"
#include "sample/sample_set.h"
#include "stats/bounds.h"
#include "util/interval.h"
#include "util/rng.h"
#include "util/status.h"

namespace histk {

/// Is-k-histogram tester configuration.
struct PropertyTestConfig {
  int64_t k = 1;
  double eps = 0.1;
  /// Distance the farness guarantee is stated in. kL1 (total variation) is
  /// the CDKL22 object; kL2 tightens the fit statistic's per-part weights.
  Norm norm = Norm::kL1;
  /// Multiplies the formula sample counts (learn l/m and verify_m; never
  /// the set counts). 1.0 = formula values.
  double sample_scale = 1.0;
};

/// The verification partition derived from a learned candidate: each
/// candidate piece split into sub-intervals of candidate mass <= eps/(8k),
/// plus the decision thresholds. Deterministic given (candidate, config).
struct VerificationPlan {
  std::vector<Interval> parts;        ///< tiles [0, n) in domain order
  std::vector<int64_t> piece_of;      ///< candidate piece index per part
  std::vector<double> candidate_mass; ///< normalized candidate mass per part
  int64_t n = 0;
  int64_t k = 0;
  double eps = 0.0;
  Norm norm = Norm::kL1;
};

/// Decision plus the evidence it was based on.
struct PropertyTestOutcome {
  bool accepted = false;
  PropertyTesterParams params;
  int64_t total_samples = 0;

  int64_t refinement_parts = 0;  ///< |parts| of the verification plan
  int64_t fitted_pieces = 0;     ///< segments used by the best k-segmentation
  double fit_stat = 0.0;         ///< residual chi-square of that fit (normalized)
  double fit_threshold = 0.0;    ///< acceptance cutoff on fit_stat
  int64_t exception_parts = 0;   ///< parts excluded (non-flat or fit outlier)
  double exception_mass = 0.0;   ///< pooled empirical mass of excluded parts
  double exception_mass_threshold = 0.0;
  /// Aggregated collision excess over the surviving parts (observed minus
  /// flat-expected pairs) and its acceptance cutoff — the fine-grained
  /// non-flatness evidence.
  double collision_stat = 0.0;
  double collision_threshold = 0.0;
  /// Diagnostic only (not part of the decision): empirical L1 gap between
  /// the fresh sample and the candidate's own part masses.
  double candidate_l1 = 0.0;
  /// The learned <= k-piece candidate the plan came from.
  std::optional<TilingHistogram> candidate;
};

/// Non-aborting validation of everything TestIsKHistogram would otherwise
/// HISTK_CHECK, including representability of the derived sample counts.
/// The engine facade calls this before touching the oracle.
Status ValidatePropertyTestConfig(int64_t n, const PropertyTestConfig& config);

/// The config's derived parameters (the bounds formulas).
/// Single source for the free function and the engine facade.
PropertyTesterParams ComputePropertyTestParams(int64_t n,
                                               const PropertyTestConfig& config);

/// The learn options phase 1 runs with (Algorithm 1 at the tester's eps and
/// scale) — exposed so the facade's session learner and the free function
/// derive identical GreedyParams.
LearnOptions PropertyTestLearnOptions(const PropertyTestConfig& config);

/// Builds the verification partition from a learned candidate (callers
/// reduce to <= k pieces first; see TestIsKHistogram).
VerificationPlan BuildVerificationPlan(const TilingHistogram& candidate,
                                       const PropertyTestConfig& config);

/// The deterministic decision on a pre-drawn verification group. Fills the
/// evidence fields; the caller owns params/total_samples/candidate.
PropertyTestOutcome DecidePropertyTest(const VerificationPlan& plan,
                                       const SampleSetGroup& group);

/// Runs the is-k-histogram tester end to end: learn a candidate, build the
/// plan, draw the fresh verification group, decide.
PropertyTestOutcome TestIsKHistogram(const Sampler& sampler,
                                     const PropertyTestConfig& config, Rng& rng);

/// Closeness tester configuration (two oracles, L1/TV farness).
struct ClosenessConfig {
  int64_t k_p = 1;  ///< piece budget promised for the first oracle
  int64_t k_q = 1;  ///< piece budget promised for the second oracle
  double eps = 0.1;
  double sample_scale = 1.0;
};

struct ClosenessOutcome {
  bool accepted = false;
  ClosenessParams params;
  int64_t total_samples = 0;

  int64_t refinement_parts = 0;  ///< |common refinement| (= s <= k_p + k_q)
  double statistic = 0.0;        ///< median normalized chi-square
  double threshold = 0.0;        ///< acceptance cutoff on the statistic
  std::optional<TilingHistogram> candidate_p;
  std::optional<TilingHistogram> candidate_q;
};

Status ValidateClosenessConfig(int64_t n, const ClosenessConfig& config);

ClosenessParams ComputeClosenessTestParams(int64_t n, const ClosenessConfig& config);

/// The learn options each closeness phase runs with (k = k_p or k_q).
LearnOptions ClosenessLearnOptions(const ClosenessConfig& config, int64_t k);

/// The common bucket refinement of two tilings over the same domain: the
/// coarsest partition refining both (<= a.k() + b.k() parts).
std::vector<Interval> CommonRefinement(const TilingHistogram& a,
                                       const TilingHistogram& b);

/// The deterministic decision on pre-drawn verification groups (one per
/// oracle; equal r and per-set m). Fills the evidence fields.
ClosenessOutcome DecideCloseness(const std::vector<Interval>& parts,
                                 const SampleSetGroup& group_p,
                                 const SampleSetGroup& group_q,
                                 const ClosenessConfig& config);

/// Runs the closeness tester end to end over two oracles with one rng
/// stream: learn on p, verify-draw on p, learn on q, verify-draw on q (the
/// order the budgeted facade replays), then decide.
ClosenessOutcome TestCloseness(const Sampler& oracle_p, const Sampler& oracle_q,
                               const ClosenessConfig& config, Rng& rng);

}  // namespace histk

#endif  // HISTK_CORE_PROPERTY_TESTER_H_
