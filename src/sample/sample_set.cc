// histk:hot-path — no locks permitted in this file (tools/lint_histk.py).
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

namespace {

/// Turns a row's counts (value v at [v + 1]) into prefix counts and prefix
/// collisions in place; returns m. The running sums stay in registers: the
/// two halves share a block, so reading count[i - 1] back would wait on the
/// store just made.
template <typename Word>
uint64_t FinalizeRow(Word* count, int64_t n) {
  Word* const coll = count + n + 1;
  uint64_t count_sum = 0;
  uint64_t coll_sum = 0;
  coll[0] = 0;
  for (size_t i = 1; i <= static_cast<size_t>(n); ++i) {
    const uint64_t occ = count[i];
    count_sum += occ;
    coll_sum += PairCount(occ);
    count[i] = static_cast<Word>(count_sum);
    coll[i] = static_cast<Word>(coll_sum);
  }
  return count_sum;
}

/// The values whose prefix count steps up: the sampled ones, ascending.
template <typename Word>
std::vector<int64_t> DistinctFromPrefix(const Word* prefix_count, int64_t n) {
  std::vector<int64_t> values;
  for (int64_t v = 0; v < n; ++v) {
    if (prefix_count[v + 1] != prefix_count[v]) values.push_back(v);
  }
  return values;
}

}  // namespace

bool SampleSet::FitsNarrowRow(int64_t m) {
  return PairCount(static_cast<uint64_t>(m)) <= UINT32_MAX;
}

std::shared_ptr<uint64_t[]> SampleSet::NewDenseRow(int64_t n) {
  HISTK_CHECK(n >= 1);
  return std::shared_ptr<uint64_t[]>(new uint64_t[RowWords(n)]());
}

SampleSet SampleSet::FromDenseRow(int64_t n, uint64_t* row,
                                  std::shared_ptr<const void> block) {
  SampleSet s(n, static_cast<int64_t>(FinalizeRow(row, n)));
  s.block_ = std::move(block);
  s.prefix_count_ = row;
  s.prefix_coll_ = row + n + 1;
  return s;
}

SampleSet SampleSet::FromDenseRow(int64_t n, uint32_t* row,
                                  std::shared_ptr<const void> block) {
  const uint64_t m = FinalizeRow(row, n);
  HISTK_CHECK_MSG(FitsNarrowRow(static_cast<int64_t>(m)),
                  "too many draws for a 32-bit row");
  SampleSet s(n, static_cast<int64_t>(m));
  s.block_ = std::move(block);
  s.narrow_count_ = row;
  s.narrow_coll_ = row + n + 1;
  return s;
}

SampleSet SampleSet::FromDraws(int64_t n, const std::vector<int64_t>& draws) {
  if (n <= kDenseDomainLimit) {
    std::shared_ptr<uint64_t[]> row = NewDenseRow(n);
    uint64_t* const counts = row.get() + 1;
    for (int64_t v : draws) {
      HISTK_CHECK_MSG(v >= 0 && v < n, "draw out of domain");
      ++counts[v];
    }
    return FromDenseRow(n, row.get(), row);
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
    std::shared_ptr<uint64_t[]> row = NewDenseRow(n);
    for (size_t i = 0; i < values.size(); ++i) {
      const int64_t v = values[i];
      HISTK_CHECK_MSG(v >= 0 && v < n, "run value out of domain");
      HISTK_CHECK_MSG(counts[i] > 0, "run count must be positive");
      HISTK_CHECK_MSG(i == 0 || values[i - 1] < v, "run values must be increasing");
      row[static_cast<size_t>(v) + 1] = static_cast<uint64_t>(counts[i]);
    }
    return FromDenseRow(n, row.get(), row);
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
  std::shared_ptr<uint64_t[]> row = NewDenseRow(n);
  for (size_t i = 0; i < counts.size(); ++i) {
    HISTK_CHECK(counts[i] >= 0);
    row[i + 1] = static_cast<uint64_t>(counts[i]);
  }
  return FromDenseRow(n, row.get(), row);
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
  if (narrow_count_ != nullptr) {
    return static_cast<int64_t>(narrow_count_[I.hi + 1] - narrow_count_[I.lo]);
  }
  if (prefix_count_ != nullptr) {
    return static_cast<int64_t>(prefix_count_[I.hi + 1] - prefix_count_[I.lo]);
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
  if (narrow_coll_ != nullptr) {
    return narrow_coll_[I.hi + 1] - narrow_coll_[I.lo];
  }
  if (prefix_coll_ != nullptr) {
    return prefix_coll_[I.hi + 1] - prefix_coll_[I.lo];
  }
  const auto lo = std::lower_bound(distinct_.begin(), distinct_.end(), I.lo);
  const auto hi = std::upper_bound(distinct_.begin(), distinct_.end(), I.hi);
  const size_t a = static_cast<size_t>(lo - distinct_.begin());
  const size_t b = static_cast<size_t>(hi - distinct_.begin());
  return sparse_prefix_coll_[b] - sparse_prefix_coll_[a];
}

std::vector<int64_t> SampleSet::distinct_values() const {
  if (narrow_count_ != nullptr) return DistinctFromPrefix(narrow_count_, n_);
  if (prefix_count_ != nullptr) return DistinctFromPrefix(prefix_count_, n_);
  return distinct_;
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
  const int64_t n = sampler.n();
  // A dense group's rows share one block, in 32-bit words when m draws fit
  // them: the sets cost one allocation. Sparse sets keep their own storage.
  const size_t row_words = SampleSet::RowWords(n);
  const size_t words = row_words * static_cast<size_t>(r);
  std::shared_ptr<const void> block;
  uint64_t* wide_rows = nullptr;
  uint32_t* narrow_rows = nullptr;
  if (n <= SampleSet::kDenseDomainLimit && SampleSet::FitsNarrowRow(m)) {
    std::shared_ptr<uint32_t[]> rows(new uint32_t[words]());
    narrow_rows = rows.get();
    block = std::move(rows);
  } else if (n <= SampleSet::kDenseDomainLimit) {
    std::shared_ptr<uint64_t[]> rows(new uint64_t[words]());
    wide_rows = rows.get();
    block = std::move(rows);
  }
  std::vector<SampleSet> sets;
  sets.reserve(static_cast<size_t>(r));
  // Every set draws m from the same oracle: one draw scratch serves them
  // all, and a count kernel keeps its plans there (dist/count_kernel.h).
  DrawBlockBuffers scratch;
  // A sequential set of one block in a 32-bit row may be drawn straight
  // into it (Sampler::DrawCountsInto). An oracle that declines one set
  // declines them all, so the rest go through DrawCounts untried.
  bool into_rows = threads == 0 && narrow_rows != nullptr &&
                   m <= Sampler::kShardChunk;
  for (int64_t i = 0; i < r; ++i) {
    const size_t at = row_words * static_cast<size_t>(i);
    if (into_rows) {
      uint32_t* const row = narrow_rows + at;
      if (sampler.DrawCountsInto(m, rng, row + 1, scratch)) {
        sets.push_back(SampleSet::FromDenseRow(n, row, block));
        continue;
      }
      into_rows = false;
    }
    SampleSet::DenseRow row;
    if (block != nullptr) {
      row.block = block;
      row.wide = wide_rows != nullptr ? wide_rows + at : nullptr;
      row.narrow = narrow_rows != nullptr ? narrow_rows + at : nullptr;
    }
    SampleCounter counter(n, m, std::move(row), &scratch);
    sampler.DrawCounts(m, rng, counter, threads);
    sets.push_back(counter.Build());
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
