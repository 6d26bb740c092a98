// Certified eps-far instances: distributions provably eps-far from every
// tiling k-histogram, used as NO inputs for the testers (claims_test's
// TesterClaimTest) and for soundness tests. "Certified" means the distance
// is established by an explicit computation, not assumed:
//   * L2 families are certified by the exact v-optimal DP — the DP minimum
//     over all k-piece FUNCTIONS lower-bounds the distance to k-histogram
//     distributions.
//   * The L1 zigzag carries the analytic bound (n-k)/n * amplitude (any
//     piece of length L contributes >= (L-1) * amplitude/n).
#ifndef HISTK_BASELINE_FAR_INSTANCES_H_
#define HISTK_BASELINE_FAR_INSTANCES_H_

#include <cstdint>
#include <optional>
#include <string>

#include "dist/distribution.h"

namespace histk {

/// A distribution together with a certified lower bound on its distance
/// (in `norm`) to the class of tiling k-histograms.
struct FarInstance {
  Distribution dist;
  double certified_distance = 0.0;
  Norm norm = Norm::kL1;
  std::string family;
};

/// Spike family, certified via DP: s isolated unit spikes, s searched over
/// a grid until the certified L2 distance exceeds eps (with 5% margin).
/// Empty if no s makes the family eps-far at this (n, k) — L2-far
/// distributions require ||p||_2 >= eps, which bounds k <~ 1/(4 eps^2).
std::optional<FarInstance> MakeL2FarSpikes(int64_t n, int64_t k, double eps);

/// Zipf(s) head-heavy family, certified via DP; tries increasing skews.
std::optional<FarInstance> MakeL2FarZipf(int64_t n, int64_t k, double eps);

/// Alternating zigzag, analytically certified eps-far in L1 (requires even
/// n and an implied amplitude <= 1; aborts otherwise — check with
/// ZigzagAmplitude first).
FarInstance MakeL1FarZigzag(int64_t n, int64_t k, double eps);

/// Within-piece zigzag over a random k-histogram: identical piece masses to
/// a true tiling k-histogram, but an alternating perturbation inside every
/// piece — the adversarial NO instance for coarse-mass-only testers (it
/// fools any decision that never looks below piece granularity). Certified
/// exactly via the L1-optimal DP; empty if no tried amplitude is eps-far at
/// this (n, k).
std::optional<FarInstance> MakeL1FarWithinPieceZigzag(int64_t n, int64_t k, double eps,
                                                      uint64_t seed);

/// A pair of distributions, BOTH tiling k-histograms, with a certified
/// lower bound on their mutual L1 distance — NO instances for the
/// closeness tester. Certification is exact: both pmfs are known, so the
/// distance is computed, not bounded.
struct FarPair {
  Distribution p;
  Distribution q;
  double certified_distance = 0.0;
  Norm norm = Norm::kL1;
  std::string family;
};

/// Far pair by mass shift: q moves mass between the pieces of a random
/// k-histogram p (boundaries unchanged). Empty if eps is infeasible at
/// this (n, k) — the shiftable mass bounds the reachable distance.
std::optional<FarPair> MakeFarPairMassShift(int64_t n, int64_t k, double eps,
                                            uint64_t seed);

/// Far pair from two independent random k-histograms (different boundary
/// structure AND different masses), retried over derived seeds until the
/// exact distance clears eps. Empty if no retry is eps-far (only plausible
/// for eps near the diameter).
std::optional<FarPair> MakeFarPairIndependent(int64_t n, int64_t k, double eps,
                                              uint64_t seed);

}  // namespace histk

#endif  // HISTK_BASELINE_FAR_INSTANCES_H_
