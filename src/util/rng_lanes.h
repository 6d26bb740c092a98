// Multi-lane deterministic pseudo-random number generation.
//
// histk:hot-path — no locks permitted in this file (tools/lint_histk.py).
//
// RngLanes runs kSimdLanes independent xoshiro256** generators in lockstep.
// One scalar xoshiro stream is a serial dependency chain — every NextU64
// waits on the previous state update — which caps the draw kernels at the
// chain's latency no matter how wide the core is. Four independent lanes
// break the chain: a vector (or unrolled scalar) step advances all four
// states at once, and the AliasKernel::kSimd draw kernels consume one value
// per lane per step (draw i of a group comes from lane i % kSimdLanes).
//
// Lane states are DERIVED, never free-running: a single 64-bit root (one
// NextU64 of the caller's Rng) seeds all lanes through the same
// splitmix64-based derivation the sharded draw paths use for their chunk
// streams, so a lane stream is a pure function of (root, lane) — replayable
// from a seed, invariant under thread count, and identical whether the
// block is generated by the scalar reference kernel or the AVX2 one.
//
// The layout is struct-of-arrays (s[word][lane]) so a 256-bit load of
// s[word] yields all four lanes' word at once; the AVX2 kernels in
// src/dist/simd/ operate on this array directly and MUST reproduce
// NextLane() bit for bit (enforced by tests/simd_kernel_test.cc).
#ifndef HISTK_UTIL_RNG_LANES_H_
#define HISTK_UTIL_RNG_LANES_H_

#include <cstdint>

#include "util/rng.h"

namespace histk {

/// Lanes per RngLanes block. Fixed at 4 (one AVX2 register of u64); the
/// kSimd stream contract bakes this number in, so it cannot silently track
/// the host's widest vector unit.
inline constexpr int kSimdLanes = 4;

/// kSimdLanes xoshiro256** generators advanced in lockstep.
struct RngLanes {
  /// s[word][lane]: word w of lane l's 256-bit xoshiro state.
  alignas(32) uint64_t s[4][kSimdLanes];

  /// Derives every lane's state from one 64-bit root. Lane l seeds a
  /// splitmix64 stream from root ^ (0x9E3779B97F4A7C15 * (l + 1)) — the
  /// same per-index perturbation a sharded Sampler::DrawCounts applies to
  /// chunk streams — then fills its four state words exactly like
  /// Rng(seed) does.
  explicit RngLanes(uint64_t root);

  /// One xoshiro256** step on every lane; out[l] is lane l's output. The
  /// scalar reference for the vectorized step in src/dist/simd/avx2.cc.
  void NextLanes(uint64_t out[kSimdLanes]) {
    for (int l = 0; l < kSimdLanes; ++l) {
      const uint64_t s1 = s[1][l];
      out[l] = Rotl_(s1 * 5, 7) * 9;
      const uint64_t t = s1 << 17;
      s[2][l] ^= s[0][l];
      s[3][l] ^= s1;
      s[1][l] ^= s[2][l];
      s[0][l] ^= s[3][l];
      s[2][l] ^= t;
      s[3][l] = Rotl_(s[3][l], 45);
    }
  }

 private:
  static uint64_t Rotl_(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
};

}  // namespace histk

#endif  // HISTK_UTIL_RNG_LANES_H_
