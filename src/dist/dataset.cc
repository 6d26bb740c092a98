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
  for (int64_t i = 0; i < m; ++i) {
    out[i] = items_[static_cast<size_t>(rng.UniformInt(items_.size()))];
  }
}

void DatasetSampler::DrawCounts(int64_t m, Rng& rng, CountSink& sink,
                                int threads) const {
  counts_.DrawCounts(*this, m, rng, sink, threads);
}

bool DatasetSampler::DrawCountsInto(int64_t m, Rng& rng, uint32_t* counts,
                                    DrawBlockBuffers& scratch) const {
  if (kernel_ != AliasKernel::kCounts) return false;
  const int64_t rest = counts_.DrawPlannedTotals(m, rng, counts, scratch);
  if (rest < 0) return false;
  // DrawManyInto's picks, counted where they land.
  const int64_t* const items = items_.data();
  const uint64_t size = items_.size();
  for (int64_t i = 0; i < rest; ++i) ++counts[items[rng.UniformInt(size)]];
  return true;
}

Distribution DatasetSampler::EmpiricalDist() const {
  return EmpiricalDistribution(n_, items_);
}

}  // namespace histk
