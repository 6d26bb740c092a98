#include "sample/sample_set.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "sample/counter.h"
#include "util/common.h"
#include "util/math_util.h"

namespace histk {

SampleSet::SampleSet(int64_t n, int64_t m) : n_(n), m_(m) {
  HISTK_CHECK(n >= 1 && m >= 0);
}

SampleSet SampleSet::FromDraws(int64_t n, const std::vector<int64_t>& draws) {
  if (n <= kDenseDomainLimit) {
    std::vector<int64_t> counts(static_cast<size_t>(n), 0);
    for (int64_t v : draws) {
      HISTK_CHECK_MSG(v >= 0 && v < n, "draw out of domain");
      ++counts[static_cast<size_t>(v)];
    }
    return FromCounts(n, counts);
  }
  // Sparse: the sort must not mutate the caller's vector, so copy first
  // (callers that can part with the batch use the move-in overload).
  std::vector<int64_t> sorted = draws;
  return FromDraws(n, std::move(sorted));
}

SampleSet SampleSet::FromDraws(int64_t n, std::vector<int64_t>&& draws) {
  if (n <= kDenseDomainLimit) return FromDraws(n, draws);
  // Sparse: sort in place, then run-length encode.
  std::vector<int64_t> sorted = std::move(draws);
  std::sort(sorted.begin(), sorted.end());
  SampleSet s(n, static_cast<int64_t>(sorted.size()));
  s.sparse_prefix_count_.push_back(0);
  s.sparse_prefix_coll_.push_back(0);
  for (size_t i = 0; i < sorted.size();) {
    const int64_t v = sorted[i];
    HISTK_CHECK_MSG(v >= 0 && v < n, "draw out of domain");
    size_t j = i;
    while (j < sorted.size() && sorted[j] == v) ++j;
    const uint64_t occ = static_cast<uint64_t>(j - i);
    s.distinct_.push_back(v);
    s.sparse_prefix_count_.push_back(s.sparse_prefix_count_.back() +
                                     static_cast<int64_t>(occ));
    s.sparse_prefix_coll_.push_back(s.sparse_prefix_coll_.back() + PairCount(occ));
    i = j;
  }
  return s;
}

SampleSet SampleSet::FromRuns(int64_t n, std::vector<int64_t> values,
                              const std::vector<int64_t>& counts) {
  HISTK_CHECK(values.size() == counts.size());
  if (n <= kDenseDomainLimit) {
    // Dense domains keep the dense backend (same policy as FromDraws, so
    // the two construction paths yield indistinguishable sets).
    std::vector<int64_t> full(static_cast<size_t>(n), 0);
    for (size_t i = 0; i < values.size(); ++i) {
      const int64_t v = values[i];
      HISTK_CHECK_MSG(v >= 0 && v < n, "run value out of domain");
      HISTK_CHECK_MSG(counts[i] > 0, "run count must be positive");
      HISTK_CHECK_MSG(i == 0 || values[i - 1] < v, "run values must be increasing");
      full[static_cast<size_t>(v)] = counts[i];
    }
    return FromCounts(n, full);
  }
  int64_t m = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    const int64_t v = values[i];
    HISTK_CHECK_MSG(v >= 0 && v < n, "run value out of domain");
    HISTK_CHECK_MSG(counts[i] > 0, "run count must be positive");
    HISTK_CHECK_MSG(i == 0 || values[i - 1] < v, "run values must be increasing");
    m += counts[i];
  }
  SampleSet s(n, m);
  s.sparse_prefix_count_.reserve(values.size() + 1);
  s.sparse_prefix_coll_.reserve(values.size() + 1);
  s.sparse_prefix_count_.push_back(0);
  s.sparse_prefix_coll_.push_back(0);
  for (size_t i = 0; i < values.size(); ++i) {
    const uint64_t occ = static_cast<uint64_t>(counts[i]);
    s.sparse_prefix_count_.push_back(s.sparse_prefix_count_.back() + counts[i]);
    s.sparse_prefix_coll_.push_back(s.sparse_prefix_coll_.back() + PairCount(occ));
  }
  s.distinct_ = std::move(values);
  return s;
}

SampleSet SampleSet::FromCounts(int64_t n, const std::vector<int64_t>& counts) {
  HISTK_CHECK(static_cast<int64_t>(counts.size()) == n);
  int64_t m = 0;
  size_t distinct = 0;
  for (int64_t c : counts) {
    HISTK_CHECK(c >= 0);
    m += c;
    if (c > 0) ++distinct;
  }
  SampleSet s(n, m);
  s.dense_ = true;
  s.prefix_count_.resize(static_cast<size_t>(n) + 1, 0);
  s.prefix_coll_.resize(static_cast<size_t>(n) + 1, 0);
  s.distinct_.reserve(distinct);
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t occ = static_cast<uint64_t>(counts[static_cast<size_t>(i)]);
    s.prefix_count_[static_cast<size_t>(i) + 1] =
        s.prefix_count_[static_cast<size_t>(i)] + counts[static_cast<size_t>(i)];
    s.prefix_coll_[static_cast<size_t>(i) + 1] =
        s.prefix_coll_[static_cast<size_t>(i)] + PairCount(occ);
    if (occ > 0) s.distinct_.push_back(i);
  }
  return s;
}

SampleSet SampleSet::Draw(const Sampler& sampler, int64_t m, Rng& rng,
                          int threads) {
  SampleCounter counter(sampler.n(), m);
  sampler.DrawCounts(m, rng, counter, threads);
  return counter.Build();
}

int64_t SampleSet::Count(Interval I) const {
  I = I.Intersect(Interval::Full(n_));
  if (I.empty()) return 0;
  if (dense_) {
    return prefix_count_[static_cast<size_t>(I.hi + 1)] -
           prefix_count_[static_cast<size_t>(I.lo)];
  }
  const auto lo = std::lower_bound(distinct_.begin(), distinct_.end(), I.lo);
  const auto hi = std::upper_bound(distinct_.begin(), distinct_.end(), I.hi);
  const size_t a = static_cast<size_t>(lo - distinct_.begin());
  const size_t b = static_cast<size_t>(hi - distinct_.begin());
  return sparse_prefix_count_[b] - sparse_prefix_count_[a];
}

uint64_t SampleSet::Collisions(Interval I) const {
  I = I.Intersect(Interval::Full(n_));
  if (I.empty()) return 0;
  if (dense_) {
    return prefix_coll_[static_cast<size_t>(I.hi + 1)] -
           prefix_coll_[static_cast<size_t>(I.lo)];
  }
  const auto lo = std::lower_bound(distinct_.begin(), distinct_.end(), I.lo);
  const auto hi = std::upper_bound(distinct_.begin(), distinct_.end(), I.hi);
  const size_t a = static_cast<size_t>(lo - distinct_.begin());
  const size_t b = static_cast<size_t>(hi - distinct_.begin());
  return sparse_prefix_coll_[b] - sparse_prefix_coll_[a];
}

double SampleSet::SumSquaresEstimate(Interval I) const {
  HISTK_CHECK_MSG(m_ >= 2, "need at least 2 samples for a collision estimate");
  return static_cast<double>(Collisions(I)) /
         static_cast<double>(PairCount(static_cast<uint64_t>(m_)));
}

std::optional<double> SampleSet::CondCollisionRate(Interval I) const {
  const int64_t c = Count(I);
  if (c < 2) return std::nullopt;
  return static_cast<double>(Collisions(I)) /
         static_cast<double>(PairCount(static_cast<uint64_t>(c)));
}

SampleSetGroup SampleSetGroup::Draw(const Sampler& sampler, int64_t r, int64_t m,
                                    Rng& rng, int threads) {
  HISTK_CHECK(r >= 1 && m >= 2);
  std::vector<SampleSet> sets;
  sets.reserve(static_cast<size_t>(r));
  for (int64_t i = 0; i < r; ++i) {
    sets.push_back(SampleSet::Draw(sampler, m, rng, threads));
  }
  return SampleSetGroup(std::move(sets));
}

SampleSetGroup::SampleSetGroup(std::vector<SampleSet> sets) : sets_(std::move(sets)) {
  HISTK_CHECK(!sets_.empty());
  for (const auto& s : sets_) HISTK_CHECK(s.n() == sets_.front().n());
}

int64_t SampleSetGroup::n() const { return sets_.front().n(); }

const SampleSet& SampleSetGroup::set(int64_t i) const {
  HISTK_CHECK(i >= 0 && i < r());
  return sets_[static_cast<size_t>(i)];
}

namespace {

// Hot path for the greedy candidate loop: reuse one scratch buffer instead
// of allocating a vector per median query.
double MedianInPlace(std::vector<double>& vals) {
  const size_t mid = (vals.size() - 1) / 2;
  std::nth_element(vals.begin(), vals.begin() + static_cast<ptrdiff_t>(mid), vals.end());
  return vals[mid];
}

}  // namespace

double SampleSetGroup::MedianSumSquaresEstimate(Interval I) const {
  thread_local std::vector<double> vals;
  vals.clear();
  for (const auto& s : sets_) vals.push_back(s.SumSquaresEstimate(I));
  return MedianInPlace(vals);
}

double SampleSetGroup::MedianCondCollisionRate(Interval I) const {
  thread_local std::vector<double> vals;
  vals.clear();
  for (const auto& s : sets_) vals.push_back(s.CondCollisionRate(I).value_or(0.0));
  return MedianInPlace(vals);
}

int64_t SampleSetGroup::TotalSamples() const {
  int64_t total = 0;
  for (const auto& s : sets_) total += s.m();
  return total;
}

}  // namespace histk
