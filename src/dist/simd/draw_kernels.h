// The AliasKernel::kSimd draw kernels: block-structured, multi-lane,
// backend-dispatched.
//
// histk:hot-path — no locks permitted in this file (tools/lint_histk.py);
// src/dist/simd/ is additionally the ONLY directory allowed to include
// <immintrin.h> or spell vector intrinsics (histk-simd-containment).
//
// This header is intrinsics-free by design: it defines the kSimd stream
// CONTRACT (table layouts + kernel signatures) and the runtime dispatch
// that picks an implementation. Two implementations exist:
//
//   * scalar.cc — the portable reference. Plain C++, four RngLanes lanes
//     advanced in lockstep, all-integer arithmetic. This is the definition
//     of the kSimd stream; it runs everywhere.
//   * avx2.cc  — the vector path, compiled only when the HISTK_SIMD CMake
//     option is ON (file-local -mavx2; the rest of the tree never sees the
//     flag) and selected only when CPUID reports AVX2 at runtime. It MUST
//     produce byte-identical output to scalar.cc for every (table, len,
//     root) — not statistically equivalent, identical — so seeded suites
//     replay the same streams on every CI runner, AVX2 or not
//     (tests/simd_kernel_test.cc enforces this on AVX2 hosts).
//
// Why byte-parity is structural rather than hoped-for: the kernels use no
// floating point at all. The accept test `u01 < prob` of the replay
// kernels becomes the integer test `(lo >> 11) < thresh` with
// thresh = ceil(prob * 2^53) precomputed per column (exact: prob is a
// double, scaling by 2^53 is a power-of-two shift, and ceil of an exactly
// representable value is exact), and column/offset picks are 128-bit
// multiply-shifts. Integer ops have one answer on every backend.
//
// Stream shape (shared by both backends): a kernel call generates `len`
// draws from one 64-bit root. RngLanes(root) derives kSimdLanes xoshiro
// streams; each group of kSimdLanes draws consumes one lane step (dense)
// or two (bucket: column pick + in-run offset), draw g*kSimdLanes + l
// coming from lane l. A partial final group still advances every lane and
// emits the prefix. Callers (AliasSampler::DrawManyInto) cut batches into
// fixed Sampler::kShardChunk blocks and spend one rng NextU64 per block as
// the root, which is what keeps DrawMany / DrawCounts / the sharded paths
// on one stream at any thread count.
#ifndef HISTK_DIST_SIMD_DRAW_KERNELS_H_
#define HISTK_DIST_SIMD_DRAW_KERNELS_H_

#include <cstdint>

namespace histk {
namespace simd {

/// Dense alias table, stride kDenseStride u64 per column:
///   cells[2c]     acceptance threshold in 2^-53 units (ceil(prob * 2^53))
///   cells[2c + 1] alias target (int64 bit pattern)
/// A draw touches exactly one 16-byte entry.
inline constexpr int64_t kDenseStride = 2;

/// Bucket alias table, stride kBucketStride u64 per column:
///   cells[6c]     acceptance threshold in 2^-53 units
///   cells[6c + 1] lo_self    cells[6c + 2] len_self
///   cells[6c + 3] lo_alias   cells[6c + 4] len_alias
///   cells[6c + 5] padding (keeps every field at a scale-8 gather index)
/// Like AliasSampler::BucketCol, each column carries BOTH candidate runs so
/// the accept/reject select never needs a second dependent lookup.
inline constexpr int64_t kBucketStride = 6;

struct DenseTable {
  const uint64_t* cells = nullptr;
  uint64_t ncols = 0;
};

struct BucketTable {
  const uint64_t* cells = nullptr;
  uint64_t ncols = 0;
};

/// Converts an acceptance probability to the integer threshold the kernels
/// compare against: v < thresh  <=>  v * 2^-53 < prob, for v in [0, 2^53).
/// prob 0 maps to 0 (never accepts — zero-mass columns stay undrawable),
/// prob 1 to 2^53 (always accepts).
uint64_t AcceptThreshold(double prob);

/// Writes `len` dense-table draws to out, all lanes derived from root.
using DenseDrawFn = void (*)(const DenseTable& table, int64_t* out,
                             int64_t len, uint64_t root);

/// Writes `len` bucket-table draws to out, all lanes derived from root.
using BucketDrawFn = void (*)(const BucketTable& table, int64_t* out,
                              int64_t len, uint64_t root);

/// Writes `len` uniform picks out of items[0, size) to out (the
/// DatasetSampler oracle: one multiply-shift pick + one gather per draw).
using UniformDrawFn = void (*)(const int64_t* items, uint64_t size,
                               int64_t* out, int64_t len, uint64_t root);

/// Which implementation dispatch resolved to.
enum class SimdBackend {
  kScalar,  ///< portable reference (always available)
  kAvx2,    ///< vectorized path (HISTK_SIMD=ON build + AVX2 CPU)
};

const char* SimdBackendName(SimdBackend backend);

/// True when this binary carries the AVX2 kernels (HISTK_SIMD=ON).
bool SimdAvx2Compiled();

/// True when the running CPU reports AVX2 (false on non-x86 builds).
bool SimdAvx2Supported();

/// The backend Select*DrawFn currently resolves to: kAvx2 iff compiled in,
/// supported by the CPU, and not overridden; kScalar otherwise.
SimdBackend ActiveSimdBackend();

/// Kernel selection, called once at sampler construction (runtime CPUID
/// dispatch happens here, never per draw).
DenseDrawFn SelectDenseDrawFn();
BucketDrawFn SelectBucketDrawFn();
UniformDrawFn SelectUniformDrawFn();

/// Test hook: forces dispatch to one backend while alive (affects samplers
/// CONSTRUCTED during its lifetime — selection is build-time, so existing
/// samplers keep their kernels). Forcing kAvx2 on a host without it is
/// refused (falls back to scalar) rather than allowed to SIGILL. Not for
/// concurrent use: tests construct samplers single-threaded.
class ScopedSimdBackendOverride {
 public:
  explicit ScopedSimdBackendOverride(SimdBackend backend);
  ~ScopedSimdBackendOverride();

  ScopedSimdBackendOverride(const ScopedSimdBackendOverride&) = delete;
  ScopedSimdBackendOverride& operator=(const ScopedSimdBackendOverride&) = delete;

 private:
  int previous_;
};

}  // namespace simd
}  // namespace histk

#endif  // HISTK_DIST_SIMD_DRAW_KERNELS_H_
