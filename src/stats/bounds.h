// Sample-size formulas from the paper, as runnable parameter calculators.
//
// The paper's constants are worst-case (union bounds over all n^2 intervals
// with Chebyshev + Chernoff slack); they are faithful here, and every
// calculator also accepts a `scale` multiplier so experiments can run the
// same algorithm at a fraction of the formula budget. Benches report both
// the formula value and the budget actually used (see EXPERIMENTS.md).
#ifndef HISTK_STATS_BOUNDS_H_
#define HISTK_STATS_BOUNDS_H_

#include <cstdint>

namespace histk {

/// Parameters of Algorithm 1 (and its Theorem 2 variant).
struct GreedyParams {
  double xi = 0.0;        ///< xi = eps / (k ln(1/eps))
  int64_t l = 0;          ///< main sample count: ln(12 n^2) / (2 xi^2)
  int64_t r = 0;          ///< number of collision sample sets: ln(6 n^2)
  int64_t m = 0;          ///< per-set size: 24 / xi^2
  int64_t iterations = 0; ///< greedy steps: ceil(k ln(1/eps))
  /// Total samples the algorithm draws: l + r * m.
  int64_t TotalSamples() const { return l + r * m; }
};

/// Computes Algorithm 1's parameters for (n, k, eps). `scale` multiplies the
/// sample counts l and m (not r or the iteration count). eps must be in
/// (0, 1); k >= 1; n >= 2.
GreedyParams ComputeGreedyParams(int64_t n, int64_t k, double eps, double scale = 1.0);

/// Non-aborting guards for the calculators below/above: true iff the inputs
/// are legal AND every derived count is finite and fits in int64. Extreme
/// but technically in-range knobs (eps = 1e-80 explodes the eps^-5 term to
/// inf; scale = 1e308 overflows l) would otherwise trip the calculators'
/// HISTK_CHECKs — the engine facade validates with these first so no spec
/// can reach an abort.
bool GreedyParamsRepresentable(int64_t n, int64_t k, double eps, double scale = 1.0);
bool L2TesterParamsRepresentable(int64_t n, double eps, double scale = 1.0);
bool L1TesterParamsRepresentable(int64_t n, int64_t k, double eps, double scale = 1.0);

/// Parameters of the Algorithm 2 testers.
struct TesterParams {
  int64_t r = 0;  ///< number of sample sets: 16 ln(6 n^2)
  int64_t m = 0;  ///< per-set size (norm-dependent, see below)
  int64_t TotalSamples() const { return r * m; }
};

/// Theorem 3 (L2): m = 64 ln(n) / eps^4.
TesterParams ComputeL2TesterParams(int64_t n, double eps, double scale = 1.0);

/// Theorem 4 (L1): m = 2^13 sqrt(k n) / eps^5.
TesterParams ComputeL1TesterParams(int64_t n, int64_t k, double eps, double scale = 1.0);

/// Parameters of the CDKL22-flavored *is-k-histogram* property tester
/// (core/property_tester.h): a learn phase that fits a candidate tiling with
/// Algorithm 1 (same formulas as ComputeGreedyParams at the tester's eps),
/// plus a fresh verification group of verify_r sets of verify_m draws. The
/// verification rate follows the near-optimal
/// O(sqrt(nk)/eps + (k + sqrt(n))/eps^2) shape of CDKL22 — far below the
/// eps^-4 / eps^-5 formulas of the paper's reference testers, which is the
/// point of the workload.
struct PropertyTesterParams {
  GreedyParams learn;    ///< phase-1 candidate fit
  int64_t verify_r = 0;  ///< verification sample sets (median combining)
  int64_t verify_m = 0;  ///< per-set verification draws
  int64_t TotalSamples() const { return learn.TotalSamples() + verify_r * verify_m; }
};

/// Computes the property tester's parameters for (n, k, eps). `scale`
/// multiplies the learn-phase counts (through ComputeGreedyParams) and
/// verify_m, never verify_r.
PropertyTesterParams ComputePropertyTesterParams(int64_t n, int64_t k, double eps,
                                                 double scale = 1.0);
bool PropertyTesterParamsRepresentable(int64_t n, int64_t k, double eps,
                                       double scale = 1.0);

/// Parameters of the DKN17-flavored two-oracle *closeness* tester: one
/// candidate fit per oracle plus verify_r fresh sample-set pairs of
/// verify_m draws per side, compared on the s = k_p + k_q part common
/// refinement at the CDVV14 reduced-support rate
/// O(s^{2/3}/eps^{4/3} + sqrt(s)/eps^2).
struct ClosenessParams {
  GreedyParams learn_p;  ///< candidate fit on the first oracle
  GreedyParams learn_q;  ///< candidate fit on the second oracle
  int64_t verify_r = 0;  ///< verification pairs (median combining)
  int64_t verify_m = 0;  ///< per-set draws, per oracle
  int64_t TotalSamples() const {
    return learn_p.TotalSamples() + learn_q.TotalSamples() + 2 * verify_r * verify_m;
  }
};

ClosenessParams ComputeClosenessParams(int64_t n, int64_t k_p, int64_t k_q, double eps,
                                       double scale = 1.0);
bool ClosenessParamsRepresentable(int64_t n, int64_t k_p, int64_t k_q, double eps,
                                  double scale = 1.0);

/// Theorem 5's lower-bound budget sqrt(k n) (claims_test's
/// LowerBoundClaimTest states its sample counts in units of it).
double LowerBoundBudget(int64_t n, int64_t k);

}  // namespace histk

#endif  // HISTK_STATS_BOUNDS_H_
