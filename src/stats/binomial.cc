// histk:hot-path — no locks permitted in this file (tools/lint_histk.py).
#include "stats/binomial.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "util/check.h"

namespace histk {

namespace {

constexpr int64_t kLogFactorialTableSize = 16;

/// ln(k!) for k < 16.
constexpr double kLogFactorialTable[kLogFactorialTableSize] = {
    0.0,
    0.0,
    0.6931471805599453,
    1.791759469228055,
    3.1780538303479458,
    4.787491742782046,
    6.579251212010101,
    8.525161361065415,
    10.60460290274525,
    12.801827480081469,
    15.104412573075516,
    17.502307845873887,
    19.987214495661885,
    22.552163853123425,
    25.19122118273868,
    27.89927138384089,
};

constexpr double kHalfLog2Pi = 0.91893853320467274178;

/// The Stirling approximation ln Γ(k + 1) ≈ (k + ½) ln(k + 1) − (k + 1) +
/// ½ ln 2π, without its tail.
double StirlingHead(int64_t k) {
  const double x = static_cast<double>(k) + 1.0;
  return (x - 0.5) * std::log(x) - x + kHalfLog2Pi;
}

/// fc(k) = ln k! − StirlingHead(k): the series 1/(12x) − 1/(360x³) +
/// 1/(1260x⁵) − 1/(1680x⁷) at x = k + 1, or the table's exact difference
/// below 16. BTRS compares tails, not whole log-factorials, so its
/// acceptance test never subtracts two numbers near n ln n.
double StirlingTail(int64_t k) {
  if (k < kLogFactorialTableSize) return kLogFactorialTable[k] - StirlingHead(k);
  const double inv = 1.0 / (static_cast<double>(k) + 1.0);
  const double inv2 = inv * inv;
  return inv * (1.0 / 12 - inv2 * (1.0 / 360 - inv2 * (1.0 / 1260 - inv2 / 1680)));
}

/// Inversion for n p < 10, p <= 1/2.
int64_t BinomialInversion(int64_t n, double p, Rng& rng) {
  const double nd = static_cast<double>(n);
  const double q = 1.0 - p;
  const double s = p / q;
  const double a = (nd + 1.0) * s;
  const double f0 = std::exp(nd * std::log1p(-p));
  const double bound = std::min(nd, nd * p + 10.0 * std::sqrt(nd * p * q + 1.0));
  for (;;) {
    double u = rng.NextDouble();
    double f = f0;
    int64_t x = 0;
    while (u >= f) {
      u -= f;
      ++x;
      if (static_cast<double>(x) > bound) break;
      f *= a / static_cast<double>(x) - s;  // f(x) / f(x - 1)
    }
    if (static_cast<double>(x) <= bound) return x;
  }
}

/// Within this distance of the mode, BTRS's exact test multiplies out
/// f(k)/f(m) step by step instead of taking logarithms.
constexpr int64_t kExplicitSpan = 24;

/// Hörmann's BTRS for n p >= 10, p <= 1/2.
int64_t BinomialBtrs(int64_t n, double p, Rng& rng) {
  const double nd = static_cast<double>(n);
  const double spq = std::sqrt(nd * p * (1.0 - p));
  const double b = 1.15 + 2.53 * spq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nd * p + 0.5;
  const double v_r = 0.92 - 4.2 / b;
  // The exact test's constants. Off the fast path's dependency chain, so
  // computing them up front costs throughput, not latency.
  const double alpha = (2.83 + 5.1 / b) * spq;
  const double r = p / (1.0 - p);
  const int64_t m = static_cast<int64_t>(std::floor((nd + 1.0) * p));  // mode
  const double md = static_cast<double>(m);
  const double scale = 1.0 / (md + 1.0);
  for (;;) {
    const double u = rng.NextDouble() - 0.5;
    const double v = rng.NextDouble();
    const double us = 0.5 - std::fabs(u);
    if (us <= 0.0) continue;  // u = -1/2: the hat is unbounded there
    const double x = (2.0 * a / us + b) * u + c;
    if (!(x >= 0.0 && x < nd + 1.0)) continue;  // floor(x) outside [0, n]
    const auto k = static_cast<int64_t>(x);     // floor, as x >= 0
    if (us >= 0.07 && v <= v_r) return k;  // squeeze: inside the box
    // Exact test: accept iff v α / (a/us² + b) <= f(k)/f(m), i.e.
    // hat * ratio_den <= ratio_num * hat_den with the divisions multiplied
    // out.
    const double us2 = us * us;
    const double hat = v * alpha * us2;
    const double hat_den = a + b * us2;
    if (std::abs(k - m) <= kExplicitSpan) {
      // f(i)/f(i-1) = (n - i + 1) r / i, each factor scaled by 1/(m+1) so
      // both products stay near 1 at any n.
      double up = 1.0;
      double down = 1.0;
      for (int64_t i = std::min(k, m) + 1; i <= std::max(k, m); ++i) {
        const double id = static_cast<double>(i);
        up *= (nd - id + 1.0) * r * scale;
        down *= id * scale;
      }
      const bool accept = k > m ? hat * down <= up * hat_den
                                : hat * up <= down * hat_den;
      if (accept) return k;
      continue;
    }
    // ln f(k)/f(m), arranged so each term stays small at any n: the log1p
    // arguments are exact integer differences over the counts.
    const double kd = static_cast<double>(k);
    const double log_ratio =
        (md + 0.5) * std::log1p((md - kd) / (kd + 1.0)) +
        (nd - md + 0.5) * std::log1p((kd - md) / (nd - kd + 1.0)) +
        (kd - md) * std::log(r * (nd - kd + 1.0) / (kd + 1.0)) +
        StirlingTail(m) + StirlingTail(n - m) - StirlingTail(k) -
        StirlingTail(n - k);
    if (std::log(hat / hat_den) <= log_ratio) return k;
  }
}

}  // namespace

double LogFactorial(int64_t k) {
  HISTK_CHECK(k >= 0);
  if (k < kLogFactorialTableSize) return kLogFactorialTable[k];
  return StirlingHead(k) + StirlingTail(k);
}

int64_t Binomial(int64_t n, double p, Rng& rng) {
  HISTK_CHECK(n >= 0 && p >= 0.0 && p <= 1.0);
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;
  if (p > 0.5) return n - Binomial(n, 1.0 - p, rng);
  return static_cast<double>(n) * p < 10.0 ? BinomialInversion(n, p, rng)
                                           : BinomialBtrs(n, p, rng);
}

}  // namespace histk
