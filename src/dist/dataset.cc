#include "dist/dataset.h"

#include <algorithm>
#include <utility>

#include "dist/empirical.h"
#include "util/common.h"

namespace histk {

DatasetSampler::DatasetSampler(int64_t n, std::vector<int64_t> items,
                               AliasKernel kernel)
    : n_(n), kernel_(kernel), items_(std::move(items)) {
  HISTK_CHECK(n_ >= 1);
  HISTK_CHECK_MSG(!items_.empty(), "data set must be non-empty");
  for (int64_t item : items_) {
    HISTK_CHECK_MSG(0 <= item && item < n_, "item out of domain");
  }
  if (kernel_ == AliasKernel::kSimd) {
    simd_uniform_fn_ = simd::SelectUniformDrawFn();
  }
}

void DatasetSampler::DrawManyInto(int64_t* out, int64_t m, Rng& rng) const {
  HISTK_CHECK(m >= 0);
  if (kernel_ == AliasKernel::kSimd) {
    // Same block structure as AliasSampler::SimdInto: one NextU64 root per
    // fixed kShardChunk block keeps every batch path on one stream.
    const uint64_t size = items_.size();
    for (int64_t done = 0; done < m; done += kShardChunk) {
      const int64_t len = std::min<int64_t>(kShardChunk, m - done);
      simd_uniform_fn_(items_.data(), size, out + done, len, rng.NextU64());
    }
    return;
  }
  for (int64_t i = 0; i < m; ++i) {
    out[i] = items_[static_cast<size_t>(rng.UniformInt(items_.size()))];
  }
}

Distribution DatasetSampler::EmpiricalDist() const {
  return EmpiricalDistribution(n_, items_);
}

}  // namespace histk
