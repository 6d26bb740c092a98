// The portable reference implementation of the kSimd draw kernels.
//
// histk:hot-path — no locks permitted in this file (tools/lint_histk.py).
//
// This file DEFINES the kSimd stream: the AVX2 backend in avx2.cc must
// reproduce these loops bit for bit (tests/simd_kernel_test.cc compares the
// two byte-wise on AVX2 hosts). Keep the two files in visual lockstep — one
// group here is one vector iteration there, in the same lane-step order
// (dense: one step; bucket: column-pick step, then offset step).
//
// Everything is integer arithmetic on purpose: the accept test is
// `(lo64(x * ncols) >> 11) < thresh` with thresh precomputed by
// AcceptThreshold, and picks are 128-bit multiply-shifts. No floating point
// means no backend can round differently.
#include <algorithm>
#include <cstdint>

#include "dist/simd/backends.h"
#include "util/rng_lanes.h"

namespace histk {
namespace simd {
namespace internal {

namespace {

/// hi 64 bits of a 64x64 multiply — the range-map idiom spelled out
/// limb-wise in avx2.cc's Mul64Wide.
inline uint64_t MulHi64(uint64_t a, uint64_t b) {
  return static_cast<uint64_t>(
      (static_cast<__uint128_t>(a) * b) >> 64);
}

}  // namespace

void DenseDrawScalar(const DenseTable& table, int64_t* out, int64_t len,
                     uint64_t root) {
  RngLanes lanes(root);
  const uint64_t* cells = table.cells;
  const uint64_t ncols = table.ncols;
  uint64_t x[kSimdLanes];
  int64_t draw[kSimdLanes];
  int64_t i = 0;
  for (; i < len; i += kSimdLanes) {
    lanes.NextLanes(x);
    for (int l = 0; l < kSimdLanes; ++l) {
      const __uint128_t mm = static_cast<__uint128_t>(x[l]) * ncols;
      const uint64_t c = static_cast<uint64_t>(mm >> 64);
      const uint64_t v = static_cast<uint64_t>(mm) >> 11;
      const uint64_t* col = cells + c * kDenseStride;
      draw[l] = v < col[0] ? static_cast<int64_t>(c)
                           : static_cast<int64_t>(col[1]);
    }
    const int64_t take = std::min<int64_t>(kSimdLanes, len - i);
    for (int64_t l = 0; l < take; ++l) out[i + l] = draw[l];
  }
}

void BucketDrawScalar(const BucketTable& table, int64_t* out, int64_t len,
                      uint64_t root) {
  RngLanes lanes(root);
  const uint64_t* cells = table.cells;
  const uint64_t ncols = table.ncols;
  uint64_t x[kSimdLanes];
  uint64_t y[kSimdLanes];
  int64_t draw[kSimdLanes];
  int64_t i = 0;
  for (; i < len; i += kSimdLanes) {
    lanes.NextLanes(x);  // column pick + accept test
    lanes.NextLanes(y);  // in-run offset
    for (int l = 0; l < kSimdLanes; ++l) {
      const __uint128_t mm = static_cast<__uint128_t>(x[l]) * ncols;
      const uint64_t c = static_cast<uint64_t>(mm >> 64);
      const uint64_t v = static_cast<uint64_t>(mm) >> 11;
      const uint64_t* col = cells + c * kBucketStride;
      // Field pairs sit at col+1 (self) and col+3 (alias); the select is an
      // index adjustment, not a second dependent lookup.
      const uint64_t* run = col + (v < col[0] ? 1 : 3);
      const uint64_t off = MulHi64(y[l], run[1]);
      draw[l] = static_cast<int64_t>(run[0] + off);
    }
    const int64_t take = std::min<int64_t>(kSimdLanes, len - i);
    for (int64_t l = 0; l < take; ++l) out[i + l] = draw[l];
  }
}

void UniformDrawScalar(const int64_t* items, uint64_t size, int64_t* out,
                       int64_t len, uint64_t root) {
  RngLanes lanes(root);
  uint64_t x[kSimdLanes];
  int64_t draw[kSimdLanes];
  int64_t i = 0;
  for (; i < len; i += kSimdLanes) {
    lanes.NextLanes(x);
    for (int l = 0; l < kSimdLanes; ++l) {
      draw[l] = items[MulHi64(x[l], size)];
    }
    const int64_t take = std::min<int64_t>(kSimdLanes, len - i);
    for (int64_t l = 0; l < take; ++l) out[i + l] = draw[l];
  }
}

}  // namespace internal
}  // namespace simd
}  // namespace histk
