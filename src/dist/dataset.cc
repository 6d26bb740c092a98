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
  if (kernel_ == AliasKernel::kCounts) counts_ = CountKernel(DistinctRuns());
}

std::vector<CountKernel::Run> DatasetSampler::DistinctRuns() const {
  std::vector<CountKernel::Run> runs;
  // A count array when the domain is not much larger than the data set,
  // else one sort of a copy.
  if (n_ <= 8 * size()) {
    std::vector<int64_t> occ(static_cast<size_t>(n_), 0);
    for (int64_t item : items_) ++occ[static_cast<size_t>(item)];
    for (int64_t v = 0; v < n_; ++v) {
      const int64_t c = occ[static_cast<size_t>(v)];
      if (c > 0) runs.push_back({v, 1, static_cast<long double>(c)});
    }
    return runs;
  }
  std::vector<int64_t> sorted = items_;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size();) {
    size_t j = i;
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    runs.push_back({sorted[i], 1, static_cast<long double>(j - i)});
    i = j;
  }
  return runs;
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

void DatasetSampler::DrawCounts(int64_t m, Rng& rng, CountSink& sink,
                                int threads) const {
  counts_.DrawCounts(*this, m, rng, sink, threads);
}

Distribution DatasetSampler::EmpiricalDist() const {
  return EmpiricalDistribution(n_, items_);
}

}  // namespace histk
