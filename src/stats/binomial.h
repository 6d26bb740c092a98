// Exact binomial variates on histk::Rng: the primitive of the kCounts draw
// kernel (dist/count_kernel.h), which draws a block's Multinomial(m, p)
// count vector as a chain of conditional binomials instead of m draws.
//
// histk:hot-path — no locks permitted in this file (tools/lint_histk.py).
//
// Two exact samplers, picked by the mean after folding p > 1/2 onto 1 - p:
//
//   * inversion (n p < 10) — one uniform, then a walk up the pmf from 0
//     by the ratio f(x)/f(x-1); expected n p + 1 steps. A walk that passes
//     n p + 10 sqrt(n p q + 1) (fp residue, never a real outcome at these
//     means) restarts, so the loop always ends.
//   * BTRS (n p >= 10) — Hörmann's transformed rejection with squeeze
//     (J. Stat. Comput. Simul. 46, 1993): O(1) expected uniforms at any n,
//     including n = 2^40.
//
// Log-factorials come from a 16-entry table and the Stirling series beyond
// it, never std::lgamma: glibc's lgamma writes the global `signgam`, a data
// race when sharded draw workers sample concurrently. Everything here is a
// pure function of its arguments and the caller's Rng.
#ifndef HISTK_STATS_BINOMIAL_H_
#define HISTK_STATS_BINOMIAL_H_

#include <cstdint>

#include "util/rng.h"

namespace histk {

/// ln(k!) for k >= 0: exact table below 16, Stirling series (absolute
/// error < 1e-14) from there on.
double LogFactorial(int64_t k);

/// One Binomial(n, p) variate. Requires n >= 0 and p in [0, 1]; n = 0,
/// p = 0 and p = 1 return without consuming the rng.
int64_t Binomial(int64_t n, double p, Rng& rng);

}  // namespace histk

#endif  // HISTK_STATS_BINOMIAL_H_
