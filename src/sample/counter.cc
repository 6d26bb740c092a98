// histk:hot-path — no locks permitted in this file (tools/lint_histk.py).
#include "sample/counter.h"

#include <algorithm>

#include "sample/sample_set.h"
#include "util/check.h"

namespace histk {

namespace {

/// Partition count for the sparse backend. The scatter pass keeps one
/// active write stream per partition, so the count is capped at 2^8 — past
/// that, the streams outgrow the TLB and the scatter dominates (measured:
/// 8192 partitions at m = 10^7 cost more than they saved in sort time).
/// Within a partition, RadixSortLowBits is cache- and skew-immune anyway,
/// so partitions do not need to be L1-sized. Power of two, so the partition
/// of a value is one shift.
int64_t PickPartitions(int64_t expected) {
  int64_t target = expected / 4096;
  target = std::max<int64_t>(target, int64_t{1} << 6);
  target = std::min<int64_t>(target, int64_t{1} << 8);
  int64_t pow2 = 1;
  while (pow2 < target) pow2 <<= 1;
  return pow2;
}

int BitWidth(int64_t v) {
  int bits = 0;
  while (v > 0) {
    ++bits;
    v >>= 1;
  }
  return bits;
}

/// LSD radix sort of `v` over its low `low_bits` bits only (all values in a
/// partition share the high bits). Skew-immune: a pmf that funnels most
/// draws into one partition costs the same O(passes * n) as a balanced one,
/// where comparison sorting would fall out of cache and pay O(n log n) cold
/// comparisons — that skew is exactly what a k-histogram pmf produces.
void RadixSortLowBits(std::vector<int64_t>& v, int low_bits,
                      std::vector<int64_t>& scratch) {
  const size_t n = v.size();
  scratch.resize(n);
  int64_t* src = v.data();
  int64_t* dst = scratch.data();
  for (int shift = 0; shift < low_bits; shift += 8) {
    size_t count[256] = {};
    for (size_t i = 0; i < n; ++i) {
      ++count[(static_cast<uint64_t>(src[i]) >> shift) & 0xFF];
    }
    size_t pos[256];
    size_t acc = 0;
    for (int b = 0; b < 256; ++b) {
      pos[b] = acc;
      acc += count[b];
    }
    for (size_t i = 0; i < n; ++i) {
      dst[pos[(static_cast<uint64_t>(src[i]) >> shift) & 0xFF]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != v.data()) std::copy(src, src + n, v.data());
}

/// Below this size the fixed per-pass work of radix sorting outweighs a
/// cache-resident std::sort.
constexpr size_t kRadixMinPartition = 2048;

/// Dense counting into a 64-bit or a 32-bit row.
template <typename Word>
void CountDraws(Word* counts, int64_t n, const int64_t* draws, int64_t len) {
  for (int64_t i = 0; i < len; ++i) {
    const int64_t v = draws[i];
    HISTK_CHECK_MSG(v >= 0 && v < n, "draw out of domain");
    ++counts[v];
  }
}

/// Adds a shard's counts into the set's row.
template <typename Word>
void AddCounts(Word* dst, const uint64_t* src, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] += static_cast<Word>(src[i]);
}

int64_t RunDraws(const std::vector<std::pair<int64_t, int64_t>>& runs) {
  int64_t total = 0;
  for (const auto& run : runs) total += run.second;
  return total;
}

}  // namespace

SampleCounter::SampleCounter(int64_t n, int64_t expected_draws)
    : SampleCounter(n, expected_draws, SampleSet::DenseRow{}, nullptr) {}

SampleCounter::SampleCounter(int64_t n, int64_t expected_draws,
                             SampleSet::DenseRow row, DrawBlockBuffers* scratch)
    : n_(n),
      expected_draws_(expected_draws),
      row_(std::move(row)),
      scratch_(scratch) {
  HISTK_CHECK(n >= 1 && expected_draws >= 0);
  dense_ = n <= SampleSet::kDenseDomainLimit;
  if (dense_) {
    if (row_.block == nullptr) {
      std::shared_ptr<uint64_t[]> own = SampleSet::NewDenseRow(n);
      row_.wide = own.get();
      row_.block = std::move(own);
    }
    // Counts go to row[v + 1]; row[0] stays the prefix sums' zero.
    if (row_.narrow != nullptr) {
      primary_.narrow = row_.narrow + 1;
    } else {
      primary_.counts = row_.wide + 1;
    }
  } else {
    HISTK_CHECK(row_.block == nullptr);
    const int64_t parts = PickPartitions(expected_draws);
    const int value_bits = BitWidth(n - 1);
    const int part_bits = BitWidth(parts - 1);
    shift_ = value_bits > part_bits ? value_bits - part_bits : 0;
    num_parts_ = static_cast<size_t>(((n - 1) >> shift_) + 1);
    InitState(primary_);
  }
}

void SampleCounter::InitState(State& state) const {
  if (dense_) {
    state.shard_counts.assign(static_cast<size_t>(n_), 0);
    state.counts = state.shard_counts.data();
    return;
  }
  state.parts.resize(num_parts_);
  if (expected_draws_ > 0) {
    // Pre-size for a uniform spread plus slack: the scatter loop then almost
    // never reallocates (skewed pmfs overflow a few partitions, which just
    // grow geometrically like any vector).
    const size_t per_part = static_cast<size_t>(
        expected_draws_ / static_cast<int64_t>(num_parts_));
    for (auto& part : state.parts) part.reserve(per_part + per_part / 4 + 16);
  }
}

void SampleCounter::ConsumeInto(State& state, const int64_t* draws,
                                int64_t len) const {
  HISTK_CHECK(len >= 0);
  if (dense_ && state.narrow != nullptr) {
    CountDraws(state.narrow, n_, draws, len);
  } else if (dense_) {
    CountDraws(state.counts, n_, draws, len);
  } else {
    for (int64_t i = 0; i < len; ++i) {
      const int64_t v = draws[i];
      HISTK_CHECK_MSG(v >= 0 && v < n_, "draw out of domain");
      state.parts[static_cast<size_t>(v >> shift_)].push_back(v);
    }
  }
  state.total += len;
}

void SampleCounter::ConsumeRunsInto(State& state, const int64_t* values,
                                    const int64_t* counts, int64_t len) const {
  HISTK_CHECK(len >= 0);
  // The sum stays in a register: state.total may alias the counts.
  int64_t total = 0;
  for (int64_t i = 0; i < len; ++i) {
    const int64_t v = values[i];
    const int64_t c = counts[i];
    HISTK_CHECK_MSG(v >= 0 && v < n_, "run value out of domain");
    HISTK_CHECK_MSG(c > 0, "run count must be positive");
    if (dense_ && state.narrow != nullptr) {
      state.narrow[v] += static_cast<uint32_t>(c);
    } else if (dense_) {
      state.counts[v] += static_cast<uint64_t>(c);
    } else {
      state.runs.emplace_back(v, c);
    }
    total += c;
  }
  state.total += total;
}

void SampleCounter::Consume(const int64_t* draws, int64_t len,
                            int64_t /*offset*/) {
  ConsumeInto(primary_, draws, len);
}

void SampleCounter::ConsumeRuns(const int64_t* values, const int64_t* counts,
                                int64_t len, int64_t /*offset*/) {
  ConsumeRunsInto(primary_, values, counts, len);
}

void SampleCounter::ShardSink::Consume(const int64_t* draws, int64_t len,
                                       int64_t /*offset*/) {
  owner_->ConsumeInto(state_, draws, len);
}

void SampleCounter::ShardSink::ConsumeRuns(const int64_t* values,
                                           const int64_t* counts, int64_t len,
                                           int64_t /*offset*/) {
  owner_->ConsumeRunsInto(state_, values, counts, len);
}

CountSink& SampleCounter::AcquireShard() {
  shards_.push_back(std::make_unique<ShardSink>(this));
  InitState(shards_.back()->state_);
  return *shards_.back();
}

int64_t SampleCounter::total() const {
  int64_t total = primary_.total;
  for (const auto& shard : shards_) total += shard->state_.total;
  return total;
}

SampleSet SampleCounter::Build() {
  const int64_t grand_total = total();
  // Fold every shard into the primary accumulator. Both merges are
  // commutative and order-insensitive up to the sort below, so the result
  // is independent of how chunks were spread over workers.
  if (dense_) {
    for (const auto& shard : shards_) {
      const uint64_t* const src = shard->state_.counts;
      if (primary_.narrow != nullptr) {
        AddCounts(primary_.narrow, src, n_);
      } else {
        AddCounts(primary_.counts, src, n_);
      }
    }
    shards_.clear();
    primary_.counts = nullptr;
    primary_.narrow = nullptr;
    if (row_.narrow != nullptr) {
      return SampleSet::FromDenseRow(n_, row_.narrow, std::move(row_.block));
    }
    return SampleSet::FromDenseRow(n_, row_.wide, std::move(row_.block));
  }
  std::vector<std::pair<int64_t, int64_t>>& runs = primary_.runs;
  for (const auto& shard : shards_) {
    State& state = shard->state_;
    for (size_t p = 0; p < num_parts_; ++p) {
      std::vector<int64_t>& dst = primary_.parts[p];
      std::vector<int64_t>& src = state.parts[p];
      dst.insert(dst.end(), src.begin(), src.end());
      src = {};  // release as we go: peak memory stays ~one batch
    }
    runs.insert(runs.end(), state.runs.begin(), state.runs.end());
    state.runs = {};
  }
  shards_.clear();
  // Fed runs, sorted, merge into the encode below value by value.
  std::sort(runs.begin(), runs.end());
  size_t next_run = 0;
  // Sort each partition independently (cache-resident), then run-length
  // encode in ascending partition order — the concatenation is globally
  // sorted, so the runs arrive exactly as FromDraws would emit them.
  std::vector<int64_t> values;
  std::vector<int64_t> counts;
  // Worst case every draw is distinct; reserving that keeps the encode loop
  // allocation-free at the cost of one transient m-element pair of arrays
  // (still far under the two m-element vectors the materialized path held).
  // Runs bound the distinct values by their own number instead.
  const size_t max_distinct = std::min(
      static_cast<size_t>(grand_total),
      static_cast<size_t>(grand_total - RunDraws(runs)) + runs.size());
  values.reserve(max_distinct);
  counts.reserve(max_distinct);
  int64_t encoded = 0;
  auto emit = [&](int64_t v, int64_t c) {
    if (!values.empty() && values.back() == v) {
      counts.back() += c;
    } else {
      values.push_back(v);
      counts.push_back(c);
    }
    encoded += c;
  };
  // Fed runs below `bound` go out first, so the output stays ascending.
  auto emit_runs_below = [&](int64_t bound) {
    for (; next_run < runs.size() && runs[next_run].first < bound; ++next_run) {
      emit(runs[next_run].first, runs[next_run].second);
    }
  };
  std::vector<int64_t> scratch;
  for (auto& part : primary_.parts) {
    if (shift_ > 0 && part.size() >= kRadixMinPartition) {
      RadixSortLowBits(part, shift_, scratch);
    } else if (shift_ > 0) {
      std::sort(part.begin(), part.end());
    }
    // shift_ == 0: every value in the partition is identical already.
    for (size_t i = 0; i < part.size();) {
      const int64_t v = part[i];
      size_t j = i;
      while (j < part.size() && part[j] == v) ++j;
      emit_runs_below(v);
      emit(v, static_cast<int64_t>(j - i));
      emit_runs_below(v + 1);
      i = j;
    }
    part = {};  // release as we go: peak memory stays ~one batch
  }
  emit_runs_below(n_);
  primary_.parts = {};
  primary_.runs = {};
  HISTK_CHECK_INVARIANT(encoded == grand_total,
                        "run-length encode lost or duplicated draws");
  return SampleSet::FromRuns(n_, std::move(values), counts);
}

}  // namespace histk
