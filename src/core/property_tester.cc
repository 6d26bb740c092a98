#include "core/property_tester.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "histogram/ops.h"
#include "stats/estimators.h"
#include "util/common.h"
#include "util/math_util.h"

namespace histk {

namespace {

// Decision constants. The shapes are the principled part (chi-square fit
// with bias correction, bounded mass-limited exceptions, noise-adaptive
// collision slack); the constants are calibrated on the power suite
// (tests/property_tester_test.cc, bench_e14) the same way the reference
// testers calibrate their union-bound constants.
constexpr double kMassCapFactor = 8.0;       // part candidate-mass <= eps/(8k)
constexpr double kLightMassFactor = 8.0;     // skip flatness below eps/(8|P|)
constexpr double kFlatSlack = 0.25;          // base z slack: eps^2/4 of 1/|A|
constexpr double kFlatNoiseSigmas = 4.0;     // extra slack per z noise sd
constexpr double kFitThresholdDivisor = 8.0; // tau = eps^2/(8|P|) (L1) or eps^2/8 (L2)
constexpr double kExceptionMassDivisor = 4.0;  // pooled excepted mass <= eps/4
constexpr double kClosenessThresholdDivisor = 2.0;  // tau = eps^2/(2s)

/// The chi-square residual of allocating a segment's pooled count to its
/// parts proportionally to length (i.e., of explaining the segment with one
/// flat piece): sum_A [(c_A - C w_A)^2 - C w_A (1 - w_A)], unbiased zero
/// under flatness at part granularity.
///
/// The split search evaluates this for O(k * parts^2) candidate segments,
/// so SegmentChi answers from prefix sums in O(1): expanding the square
/// with w_A = l_A/L gives
///   chi = S_gc2 - (2C/L) S_gcl + (C^2/L^2 + C/L^2) S_gl2 - (C/L) S_gl
/// over the per-part prefix sums of g c^2, g c l, g l^2, g l (g = the fit
/// weight), plus C and L themselves.
struct SegmentView {
  std::vector<double> pre_c;    // counts
  std::vector<double> pre_l;    // lengths
  std::vector<double> pre_gc2;  // g * c^2
  std::vector<double> pre_gcl;  // g * c * l
  std::vector<double> pre_gl2;  // g * l^2
  std::vector<double> pre_gl;   // g * l

  SegmentView(const std::vector<int64_t>& counts, const std::vector<int64_t>& lengths,
              const std::vector<double>& weights) {
    const size_t t = counts.size();
    pre_c.assign(t + 1, 0.0);
    pre_l.assign(t + 1, 0.0);
    pre_gc2.assign(t + 1, 0.0);
    pre_gcl.assign(t + 1, 0.0);
    pre_gl2.assign(t + 1, 0.0);
    pre_gl.assign(t + 1, 0.0);
    for (size_t i = 0; i < t; ++i) {
      const double c = static_cast<double>(counts[i]);
      const double l = static_cast<double>(lengths[i]);
      const double g = weights[i];
      pre_c[i + 1] = pre_c[i] + c;
      pre_l[i + 1] = pre_l[i] + l;
      pre_gc2[i + 1] = pre_gc2[i] + g * c * c;
      pre_gcl[i + 1] = pre_gcl[i] + g * c * l;
      pre_gl2[i + 1] = pre_gl2[i] + g * l * l;
      pre_gl[i + 1] = pre_gl[i] + g * l;
    }
  }
};

double SegmentChi(const SegmentView& v, size_t lo, size_t hi) {
  const double total_count = v.pre_c[hi + 1] - v.pre_c[lo];
  const double total_len = v.pre_l[hi + 1] - v.pre_l[lo];
  if (total_len <= 0.0) return 0.0;
  const double ratio = total_count / total_len;
  return (v.pre_gc2[hi + 1] - v.pre_gc2[lo]) -
         2.0 * ratio * (v.pre_gcl[hi + 1] - v.pre_gcl[lo]) +
         (ratio * ratio + ratio / total_len) * (v.pre_gl2[hi + 1] - v.pre_gl2[lo]) -
         ratio * (v.pre_gl[hi + 1] - v.pre_gl[lo]);
}

struct Segment {
  size_t lo = 0;
  size_t hi = 0;
  double chi = 0.0;
};

/// Greedy chi-square segmentation of the included part sequence into at
/// most k segments: repeatedly split the segment whose best split yields
/// the largest residual reduction. The discrete analogue of the greedy
/// learner's flattening step, run on verification counts.
std::vector<Segment> FitSegments(const SegmentView& v, size_t num_parts, int64_t k) {
  std::vector<Segment> segments;
  if (num_parts == 0) return segments;
  segments.push_back({0, num_parts - 1, SegmentChi(v, 0, num_parts - 1)});
  while (static_cast<int64_t>(segments.size()) < k) {
    double best_gain = 0.0;
    size_t best_seg = 0;
    size_t best_cut = 0;
    double best_left = 0.0;
    double best_right = 0.0;
    for (size_t s = 0; s < segments.size(); ++s) {
      const Segment& seg = segments[s];
      if (seg.lo == seg.hi || seg.chi <= 0.0) continue;
      for (size_t cut = seg.lo; cut < seg.hi; ++cut) {
        const double left = SegmentChi(v, seg.lo, cut);
        const double right = SegmentChi(v, cut + 1, seg.hi);
        const double gain = seg.chi - left - right;
        if (gain > best_gain) {
          best_gain = gain;
          best_seg = s;
          best_cut = cut;
          best_left = left;
          best_right = right;
        }
      }
    }
    if (best_gain <= 0.0) break;
    const Segment old = segments[best_seg];
    segments[best_seg] = {old.lo, best_cut, best_left};
    segments.insert(segments.begin() + static_cast<ptrdiff_t>(best_seg) + 1,
                    {best_cut + 1, old.hi, best_right});
  }
  return segments;
}

}  // namespace

LearnOptions PropertyTestLearnOptions(const PropertyTestConfig& config) {
  LearnOptions options;
  options.k = config.k;
  options.eps = config.eps;
  options.sample_scale = config.sample_scale;
  return options;
}

LearnOptions ClosenessLearnOptions(const ClosenessConfig& config, int64_t k) {
  LearnOptions options;
  options.k = k;
  options.eps = config.eps;
  options.sample_scale = config.sample_scale;
  return options;
}

Status ValidatePropertyTestConfig(int64_t n, const PropertyTestConfig& config) {
  if (n < 2) return Status::InvalidArgument("property test needs a domain of n >= 2");
  if (config.k < 1 || config.k > n) {
    return Status::InvalidArgument("k must be in [1, n]");
  }
  if (!(config.eps > 0.0 && config.eps < 1.0)) {
    return Status::InvalidArgument("eps must be in (0, 1)");
  }
  if (!(config.sample_scale > 0.0)) {
    return Status::InvalidArgument("sample_scale must be positive");
  }
  if (Status s = ValidateLearnOptions(n, PropertyTestLearnOptions(config)); !s.ok()) {
    return s;
  }
  if (!PropertyTesterParamsRepresentable(n, config.k, config.eps,
                                         config.sample_scale)) {
    return Status::InvalidArgument(
        "eps/sample_scale imply a sample count beyond int64");
  }
  return Status::Ok();
}

PropertyTesterParams ComputePropertyTestParams(int64_t n,
                                               const PropertyTestConfig& config) {
  return ComputePropertyTesterParams(n, config.k, config.eps, config.sample_scale);
}

VerificationPlan BuildVerificationPlan(const TilingHistogram& candidate,
                                       const PropertyTestConfig& config) {
  HISTK_CHECK(config.k >= 1);
  HISTK_CHECK(config.eps > 0.0 && config.eps < 1.0);
  VerificationPlan plan;
  plan.n = candidate.n();
  plan.k = config.k;
  plan.eps = config.eps;
  plan.norm = config.norm;

  // Normalized non-negative candidate piece masses. A degenerate candidate
  // (all-zero after clamping) falls back to length-proportional masses so
  // the plan still tiles the domain.
  const int64_t pieces = candidate.k();
  std::vector<double> mass(static_cast<size_t>(pieces), 0.0);
  double total = 0.0;
  for (int64_t j = 0; j < pieces; ++j) {
    const Interval piece = candidate.pieces()[static_cast<size_t>(j)];
    const double v = candidate.values()[static_cast<size_t>(j)];
    mass[static_cast<size_t>(j)] = std::max(v, 0.0) * static_cast<double>(piece.length());
    total += mass[static_cast<size_t>(j)];
  }
  for (int64_t j = 0; j < pieces; ++j) {
    mass[static_cast<size_t>(j)] =
        total > 0.0 ? mass[static_cast<size_t>(j)] / total
                    : static_cast<double>(
                          candidate.pieces()[static_cast<size_t>(j)].length()) /
                          static_cast<double>(plan.n);
  }

  const double mass_cap = config.eps / (kMassCapFactor * static_cast<double>(config.k));
  for (int64_t j = 0; j < pieces; ++j) {
    const Interval piece = candidate.pieces()[static_cast<size_t>(j)];
    const double piece_mass = mass[static_cast<size_t>(j)];
    int64_t splits = static_cast<int64_t>(std::ceil(piece_mass / mass_cap));
    splits = std::max<int64_t>(1, std::min(splits, piece.length()));
    // Equal-length split (the candidate is flat inside the piece, so equal
    // length IS equal candidate mass).
    const int64_t len = piece.length();
    for (int64_t t = 0; t < splits; ++t) {
      const int64_t lo = piece.lo + t * len / splits;
      const int64_t hi = piece.lo + (t + 1) * len / splits - 1;
      HISTK_CHECK(hi >= lo);
      plan.parts.emplace_back(lo, hi);
      plan.piece_of.push_back(j);
      plan.candidate_mass.push_back(piece_mass * static_cast<double>(hi - lo + 1) /
                                    static_cast<double>(len));
    }
  }
  return plan;
}

PropertyTestOutcome DecidePropertyTest(const VerificationPlan& plan,
                                       const SampleSetGroup& group) {
  HISTK_CHECK(!plan.parts.empty());
  HISTK_CHECK(group.r() >= 1);
  PropertyTestOutcome out;
  out.refinement_parts = static_cast<int64_t>(plan.parts.size());

  const double total =
      static_cast<double>(std::max<int64_t>(1, group.TotalSamples()));
  const size_t num_parts = plan.parts.size();
  const double light_mass = plan.eps / (kLightMassFactor * static_cast<double>(num_parts));

  // One pass over (set, part) pairs gathers everything the decision needs:
  // pooled counts, same-set collision pairs, and observed collisions.
  std::vector<int64_t> counts(num_parts, 0);
  std::vector<double> part_pairs(num_parts, 0.0);
  std::vector<double> part_coll(num_parts, 0.0);
  for (int64_t i = 0; i < group.r(); ++i) {
    const SampleSet& set = group.set(i);
    for (size_t a = 0; a < num_parts; ++a) {
      const Interval part = plan.parts[a];
      const int64_t c = set.Count(part);
      counts[a] += c;
      if (part.length() < 2) continue;
      part_pairs[a] += 0.5 * static_cast<double>(c) * static_cast<double>(c - 1);
      part_coll[a] += static_cast<double>(set.Collisions(part));
    }
  }

  // Stage 1: per-part flatness from the pooled conditional collision rate
  // (the Algorithms 3/4 evidence, pooled across the group's sets so thin
  // parts still accumulate pairs), with slack adapted to the rate's own
  // sampling noise so they do not produce spurious exceptions. Parts that
  // survive individually still feed the aggregated excess statistic below,
  // which detects fine-grained non-flatness no single part can witness.
  std::vector<bool> excepted(num_parts, false);
  for (size_t a = 0; a < num_parts; ++a) {
    const Interval part = plan.parts[a];
    const double phat = static_cast<double>(counts[a]) / total;
    out.candidate_l1 += std::abs(phat - plan.candidate_mass[a]);
    if (part.length() < 2 || phat < light_mass || part_pairs[a] < 1.0) continue;
    const double len = static_cast<double>(part.length());
    // z estimates the conditional ||p_A||_2^2 (= 1/len iff flat); its sd
    // under flatness is ~ sqrt(1/(pairs * len)).
    const double z = part_coll[a] / part_pairs[a];
    const double noise =
        kFlatNoiseSigmas * std::sqrt(len / part_pairs[a]);
    const double threshold =
        (1.0 + kFlatSlack * plan.eps * plan.eps + noise) / len;
    if (z > threshold) {
      excepted[a] = true;
      ++out.exception_parts;
      out.exception_mass += phat;
    }
  }

  // Aggregated collision excess over the surviving parts: the sum of
  // (observed - flat-expected) collision pairs detects distributed
  // fine-grained structure (e.g. an eps-amplitude zigzag) whose per-part
  // excess hides inside each part's own noise — aggregation recovers a
  // sqrt(#parts) SNR factor, the sqrt(n)/eps^2 identity term of the CDKL22
  // rate.
  double collision_stat = 0.0;
  double collision_var = 0.0;
  for (size_t a = 0; a < num_parts; ++a) {
    if (excepted[a] || plan.parts[a].length() < 2) continue;
    const double len = static_cast<double>(plan.parts[a].length());
    collision_stat += part_coll[a] - part_pairs[a] / len;
    collision_var += part_pairs[a] / len;
  }
  out.collision_stat = collision_stat;
  out.collision_threshold =
      kFlatNoiseSigmas * std::sqrt(std::max(collision_var, 1.0)) +
      kFlatSlack * plan.eps * plan.eps * collision_var;

  // Stage 2: goodness of fit of the best <= k-piece flattening of the
  // pooled part counts (excepted parts are transparent to the fit).
  std::vector<int64_t> inc_counts;
  std::vector<int64_t> inc_lengths;
  std::vector<double> inc_weights;
  std::vector<size_t> inc_index;
  for (size_t a = 0; a < num_parts; ++a) {
    if (excepted[a]) continue;
    inc_counts.push_back(counts[a]);
    inc_lengths.push_back(plan.parts[a].length());
    inc_weights.push_back(plan.norm == Norm::kL2
                              ? 1.0 / static_cast<double>(plan.parts[a].length())
                              : 1.0);
    inc_index.push_back(a);
  }
  const SegmentView view(inc_counts, inc_lengths, inc_weights);
  const std::vector<Segment> segments = FitSegments(view, inc_counts.size(), plan.k);
  out.fitted_pieces = static_cast<int64_t>(segments.size());

  // Per-part residual terms of the final fit, for the outlier pass.
  std::vector<double> residual(inc_counts.size(), 0.0);
  double stat = 0.0;
  for (const Segment& seg : segments) {
    double seg_count = 0.0;
    double seg_len = 0.0;
    for (size_t i = seg.lo; i <= seg.hi; ++i) {
      seg_count += static_cast<double>(inc_counts[i]);
      seg_len += static_cast<double>(inc_lengths[i]);
    }
    if (seg_len <= 0.0) continue;
    for (size_t i = seg.lo; i <= seg.hi; ++i) {
      const double w = static_cast<double>(inc_lengths[i]) / seg_len;
      const double d = static_cast<double>(inc_counts[i]) - seg_count * w;
      residual[i] = (d * d - seg_count * w * (1.0 - w)) * inc_weights[i];
      stat += residual[i];
    }
  }
  stat /= total * total;

  const double tau =
      plan.norm == Norm::kL2
          ? plan.eps * plan.eps / kFitThresholdDivisor
          : plan.eps * plan.eps /
                (kFitThresholdDivisor * static_cast<double>(num_parts));

  // Stage 3: a true k-histogram's jumps straddle at most k parts of the
  // candidate partition; drop up to k outlier parts (mass-accounted like
  // the flatness exceptions) before holding the fit to tau.
  std::vector<size_t> order(residual.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return residual[a] > residual[b]; });
  int64_t drops = 0;
  for (size_t i = 0; i < order.size() && stat > tau && drops < plan.k; ++i) {
    const size_t idx = order[i];
    if (residual[idx] <= 0.0) break;
    stat -= residual[idx] / (total * total);
    ++drops;
    ++out.exception_parts;
    out.exception_mass +=
        static_cast<double>(inc_counts[idx]) / total;
  }

  out.fit_stat = stat;
  out.fit_threshold = tau;
  out.exception_mass_threshold = plan.eps / kExceptionMassDivisor;
  out.accepted = stat <= tau &&
                 out.collision_stat <= out.collision_threshold &&
                 out.exception_parts <= 2 * plan.k &&
                 out.exception_mass <= out.exception_mass_threshold;
  return out;
}

PropertyTestOutcome TestIsKHistogram(const Sampler& sampler,
                                     const PropertyTestConfig& config, Rng& rng) {
  const int64_t n = sampler.n();
  const PropertyTesterParams params = ComputePropertyTestParams(n, config);
  const LearnOptions options = PropertyTestLearnOptions(config);

  const GreedyEstimator estimator = GreedyEstimator::Draw(sampler, params.learn, rng);
  const LearnResult learned =
      LearnHistogramWithEstimator(estimator, options, params.learn);
  TilingHistogram candidate = ReduceToKPieces(learned.tiling, config.k);

  const VerificationPlan plan = BuildVerificationPlan(candidate, config);
  const SampleSetGroup group =
      SampleSetGroup::Draw(sampler, params.verify_r, params.verify_m, rng);

  PropertyTestOutcome out = DecidePropertyTest(plan, group);
  out.params = params;
  out.total_samples = params.learn.TotalSamples() + group.TotalSamples();
  out.candidate = std::move(candidate);
  return out;
}

Status ValidateClosenessConfig(int64_t n, const ClosenessConfig& config) {
  if (n < 2) return Status::InvalidArgument("closeness test needs a domain of n >= 2");
  if (config.k_p < 1 || config.k_p > n || config.k_q < 1 || config.k_q > n) {
    return Status::InvalidArgument("k_p and k_q must be in [1, n]");
  }
  if (!(config.eps > 0.0 && config.eps < 1.0)) {
    return Status::InvalidArgument("eps must be in (0, 1)");
  }
  if (!(config.sample_scale > 0.0)) {
    return Status::InvalidArgument("sample_scale must be positive");
  }
  if (Status s = ValidateLearnOptions(n, ClosenessLearnOptions(config, config.k_p));
      !s.ok()) {
    return s;
  }
  if (Status s = ValidateLearnOptions(n, ClosenessLearnOptions(config, config.k_q));
      !s.ok()) {
    return s;
  }
  if (!ClosenessParamsRepresentable(n, config.k_p, config.k_q, config.eps,
                                    config.sample_scale)) {
    return Status::InvalidArgument(
        "eps/sample_scale imply a sample count beyond int64");
  }
  return Status::Ok();
}

ClosenessParams ComputeClosenessTestParams(int64_t n, const ClosenessConfig& config) {
  return ComputeClosenessParams(n, config.k_p, config.k_q, config.eps,
                                config.sample_scale);
}

std::vector<Interval> CommonRefinement(const TilingHistogram& a,
                                       const TilingHistogram& b) {
  HISTK_CHECK_MSG(a.n() == b.n(), "common refinement needs one domain");
  std::vector<int64_t> ends;
  ends.reserve(static_cast<size_t>(a.k() + b.k()));
  for (const Interval& piece : a.pieces()) ends.push_back(piece.hi);
  for (const Interval& piece : b.pieces()) ends.push_back(piece.hi);
  std::sort(ends.begin(), ends.end());
  ends.erase(std::unique(ends.begin(), ends.end()), ends.end());
  std::vector<Interval> parts;
  parts.reserve(ends.size());
  int64_t lo = 0;
  for (int64_t hi : ends) {
    parts.emplace_back(lo, hi);
    lo = hi + 1;
  }
  HISTK_CHECK(lo == a.n());
  return parts;
}

ClosenessOutcome DecideCloseness(const std::vector<Interval>& parts,
                                 const SampleSetGroup& group_p,
                                 const SampleSetGroup& group_q,
                                 const ClosenessConfig& config) {
  HISTK_CHECK(!parts.empty());
  HISTK_CHECK(group_p.r() == group_q.r() && group_p.r() >= 1);
  ClosenessOutcome out;
  out.refinement_parts = static_cast<int64_t>(parts.size());

  std::vector<double> stats;
  stats.reserve(static_cast<size_t>(group_p.r()));
  for (int64_t i = 0; i < group_p.r(); ++i) {
    const SampleSet& sp = group_p.set(i);
    const SampleSet& sq = group_q.set(i);
    HISTK_CHECK_MSG(sp.m() == sq.m(),
                    "closeness verification sets must be equal-sized");
    HISTK_CHECK_MSG(sp.m() >= 2, "closeness verification sets need 2 draws");
    const double m = static_cast<double>(sp.m());
    double t = 0.0;
    for (const Interval& part : parts) {
      const double x = static_cast<double>(sp.Count(part));
      const double y = static_cast<double>(sq.Count(part));
      // Each set holds exactly m draws, so X ~ Binomial(m, p_A) and
      // E[X(X-1)] = m(m-1) p_A^2; with Y independent, E[XY] = m^2 p_A q_A.
      // The term's mean is then m^2 (p_A - q_A)^2: an unbiased
      // reduced-support L2^2 estimate. (CDVV14's (X-Y)^2 - X - Y is
      // unbiased only under Poissonized draws; here it runs low by
      // m (p_A^2 + q_A^2).)
      t += m / (m - 1.0) * (x * (x - 1.0) + y * (y - 1.0)) - 2.0 * x * y;
    }
    stats.push_back(t / (m * m));
  }
  // Lower median for even sizes — the same combiner rule as the library's
  // other median-of-r estimators.
  out.statistic = Median(std::move(stats));
  // L1-far by eps on s parts implies reduced L2^2 >= eps^2/s (Cauchy-
  // Schwarz); accept below half of that.
  out.threshold = config.eps * config.eps /
                  (kClosenessThresholdDivisor * static_cast<double>(parts.size()));
  out.accepted = out.statistic <= out.threshold;
  return out;
}

ClosenessOutcome TestCloseness(const Sampler& oracle_p, const Sampler& oracle_q,
                               const ClosenessConfig& config, Rng& rng) {
  HISTK_CHECK_MSG(oracle_p.n() == oracle_q.n(),
                  "closeness oracles must share one domain");
  const int64_t n = oracle_p.n();
  const ClosenessParams params = ComputeClosenessTestParams(n, config);

  // Draw order (all of p, then all of q) is part of the replayed contract:
  // the budgeted facade meters the two oracles in exactly this sequence.
  const GreedyEstimator est_p = GreedyEstimator::Draw(oracle_p, params.learn_p, rng);
  const LearnResult learned_p = LearnHistogramWithEstimator(
      est_p, ClosenessLearnOptions(config, config.k_p), params.learn_p);
  TilingHistogram candidate_p = ReduceToKPieces(learned_p.tiling, config.k_p);
  const SampleSetGroup group_p =
      SampleSetGroup::Draw(oracle_p, params.verify_r, params.verify_m, rng);

  const GreedyEstimator est_q = GreedyEstimator::Draw(oracle_q, params.learn_q, rng);
  const LearnResult learned_q = LearnHistogramWithEstimator(
      est_q, ClosenessLearnOptions(config, config.k_q), params.learn_q);
  TilingHistogram candidate_q = ReduceToKPieces(learned_q.tiling, config.k_q);
  const SampleSetGroup group_q =
      SampleSetGroup::Draw(oracle_q, params.verify_r, params.verify_m, rng);

  const std::vector<Interval> parts = CommonRefinement(candidate_p, candidate_q);
  ClosenessOutcome out = DecideCloseness(parts, group_p, group_q, config);
  out.params = params;
  out.total_samples = params.TotalSamples();
  out.candidate_p = std::move(candidate_p);
  out.candidate_q = std::move(candidate_q);
  return out;
}

}  // namespace histk
