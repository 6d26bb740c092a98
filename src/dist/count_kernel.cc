// histk:hot-path — no locks permitted in this file (tools/lint_histk.py).
#include "dist/count_kernel.h"

#include <algorithm>
#include <cmath>

#include "dist/sampler.h"
#include "stats/binomial.h"
#include "util/check.h"

namespace histk {

namespace {

/// A plan's table covers λ ± kTableSigmas √λ; each walked tail holds
/// under 1e-4 of an entry's mass at every λ.
constexpr double kTableSigmas = 4.0;

/// Guide cells per table value: at two, a lookup almost always lands on
/// its value or the one before it.
constexpr size_t kGuideCellsPerValue = 2;

/// The pmf ratio f(x - 1) / f(x) = x / λ, the one step of the left walk.
double DownRatio(int64_t x, double lambda) {
  return static_cast<double>(x) / lambda;
}

}  // namespace

CountKernel::CountKernel(std::vector<Run> runs) {
  runs.erase(std::remove_if(runs.begin(), runs.end(),
                            [](const Run& r) { return !(r.mass > 0.0L); }),
             runs.end());
  HISTK_CHECK_MSG(!runs.empty(), "count kernel needs a positive-mass entry");
  std::stable_sort(runs.begin(), runs.end(),
                   [](const Run& a, const Run& b) { return a.mass > b.mass; });
  const size_t k = runs.size();
  lo_.resize(k);
  len_.resize(k);
  cond_.resize(k);
  weight_.resize(k);
  // suffix[i & 1]: the mass of entries i, i + 2, i + 4, ... (entry i's
  // chain from i on).
  long double suffix[2] = {0.0L, 0.0L};
  for (size_t i = k; i-- > 0;) {
    HISTK_CHECK(runs[i].len >= 1);
    suffix[i & 1] += runs[i].mass;
    lo_[i] = runs[i].lo;
    len_[i] = runs[i].len;
    cond_[i] = std::min(1.0, static_cast<double>(runs[i].mass / suffix[i & 1]));
    unit_runs_ = unit_runs_ && runs[i].len == 1;
    max_runs_ = std::min(max_runs_ + runs[i].len, Sampler::kShardChunk);
  }
  // Each chain's last entry takes what is left of its share.
  cond_[k - 1] = 1.0;
  if (k >= 2) cond_[k - 2] = 1.0;
  const long double total = suffix[0] + suffix[1];
  even_share_ = static_cast<double>(suffix[0] / total);
  for (size_t i = 0; i < k; ++i) {
    weight_[i] = static_cast<double>(runs[i].mass / total);
  }
}

CountKernel::GroupPlan::GroupPlan(const CountKernel& kernel, int64_t len)
    : kernel_(&kernel), len_(len) {
  HISTK_CHECK(!kernel.cond_.empty() && len >= 1);
  const double block = static_cast<double>(len);
  const double big_lambda = std::max(0.0, block - 3.0 * std::sqrt(block));
  const size_t k = kernel.cond_.size();
  const std::vector<double>& weight = kernel.weight_;
  entries_.resize(k);
  // Entries are in decreasing mass, so equal masses sit together: each
  // run of them shares the table of its first entry (a k-histogram's
  // support has k distinct masses).
  std::vector<size_t> tables;
  size_t cdf_size = 0;
  size_t guide_size = 0;
  for (size_t i = 0; i < k; ++i) {
    if (i > 0 && weight[i] == weight[i - 1]) continue;
    Entry& e = entries_[i];
    e.lambda = big_lambda * weight[i];
    const double spread = kTableSigmas * std::sqrt(e.lambda);
    e.first = static_cast<int64_t>(std::max(0.0, std::floor(e.lambda - spread)));
    const auto last_value = static_cast<int64_t>(std::floor(e.lambda + spread)) + 1;
    const auto size = static_cast<size_t>(last_value - e.first + 1);
    HISTK_CHECK_MSG(size <= UINT16_MAX, "group plan entry too wide");
    e.cdf_at = static_cast<uint32_t>(cdf_size);
    e.guide_at = static_cast<uint32_t>(guide_size);
    e.last = static_cast<uint32_t>(size - 1);
    e.cells = static_cast<double>(size * kGuideCellsPerValue);
    cdf_size += size + 1;
    guide_size += size * kGuideCellsPerValue + 1;
    tables.push_back(i);
  }
  HISTK_CHECK_MSG(cdf_size <= UINT32_MAX, "group plan too large");
  cdf_.resize(cdf_size);
  guide_.resize(guide_size);
  for (const size_t i : tables) {
    Entry& e = entries_[i];
    double* const cdf = cdf_.data() + e.cdf_at;
    // The pmf ratios f(x) / f(x - 1) = λ / x, each independent of the
    // others, then one prefix product: no division on the chain.
    for (uint32_t t = 1; t <= e.last; ++t) {
      cdf[t] = e.lambda / static_cast<double>(e.first + t);
    }
    double p = e.first == 0
                   ? std::exp(-e.lambda)
                   : std::exp(static_cast<double>(e.first) * std::log(e.lambda) -
                              e.lambda - LogFactorial(e.first));
    e.p_first = p;
    // The left tail, summed down from `first` until the terms (which
    // shrink at least geometrically there) no longer move it.
    double left = 0.0;
    double term = p;
    for (int64_t x = e.first; x > 0; --x) {
      term *= DownRatio(x, e.lambda);
      left += term;
      if (term < left * 0x1p-60) break;
    }
    e.left = left;
    double acc = left + p;
    cdf[0] = acc;
    for (uint32_t t = 1; t <= e.last; ++t) {
      p *= cdf[t];
      acc += p;
      cdf[t] = acc;
    }
    e.p_last = p;
    cdf[e.last + 1] = 2.0;  // above every u: ends the lookup's scan
    // Value t owns the guide cells g with cdf[t - 1] <= g / cells <
    // cdf[t]. Each bound is rounded up, never down, so a cell may start
    // one value low (one more step) but never past the value a u in it
    // needs, whatever the rounding of u * cells.
    uint16_t* const guide = guide_.data() + e.guide_at;
    const auto cells = static_cast<uint32_t>(e.cells);
    const double up = e.cells * (1.0 + 0x1p-40);
    uint32_t from = 0;
    for (uint32_t t = 0; t < e.last; ++t) {
      const uint32_t to =
          std::min(cells + 1, static_cast<uint32_t>(cdf[t] * up) + 1);
      for (uint32_t g = from; g < to; ++g) guide[g] = static_cast<uint16_t>(t);
      from = std::max(from, to);
    }
    for (uint32_t g = from; g <= cells; ++g) {
      guide[g] = static_cast<uint16_t>(e.last);
    }
  }
  for (size_t i = 1; i < k; ++i) {
    if (weight[i] == weight[i - 1]) entries_[i] = entries_[i - 1];
  }
}

int64_t CountKernel::GroupPlan::table_first(int64_t i) const {
  return entries_[static_cast<size_t>(i)].first;
}

int64_t CountKernel::GroupPlan::table_last(int64_t i) const {
  const Entry& e = entries_[static_cast<size_t>(i)];
  return e.first + e.last;
}

size_t CountKernel::GroupPlan::bytes() const {
  return entries_.size() * sizeof(Entry) + cdf_.size() * sizeof(double) +
         guide_.size() * sizeof(uint16_t);
}

int64_t CountKernel::GroupPlan::WalkTail(const Entry& e, double u) const {
  if (u < e.left) {
    // Down from first - 1: `acc` is P(N <= x - 1), which exceeds u.
    double acc = e.left;
    double p = e.p_first;
    for (int64_t x = e.first; x > 0; --x) {
      p *= DownRatio(x, e.lambda);  // now f(x - 1)
      acc -= p;                     // now P(N <= x - 2)
      if (x == 1 || acc <= u) return x - 1;
    }
    return 0;
  }
  // Up from the table's last value; past λ + 40√λ + 40 the walk is fp
  // residue, never a real outcome.
  double acc = cdf_[e.cdf_at + e.last];
  double p = e.p_last;
  int64_t x = e.first + e.last;
  const double bound = e.lambda + 40.0 * std::sqrt(e.lambda) + 40.0;
  while (u >= acc) {
    if (static_cast<double>(++x) > bound) return -1;
    p *= e.lambda / static_cast<double>(x);
    acc += p;
  }
  return x;
}

inline int64_t CountKernel::GroupPlan::Invert(const Entry& e, double u) const {
  if (u >= e.left) {
    const double* const cdf = cdf_.data() + e.cdf_at;
    uint32_t t = guide_[e.guide_at + static_cast<uint32_t>(u * e.cells)];
    // One step without a branch, then a scan that almost never runs.
    t += u >= cdf[t] ? 1 : 0;
    while (u >= cdf[t]) ++t;
    if (t <= e.last) return e.first + t;
  }
  return WalkTail(e, u);
}

inline int64_t CountKernel::GroupPlan::Draw(const Entry& e, Rng& rng) const {
  for (;;) {
    const int64_t x = Invert(e, rng.NextDouble());
    if (x >= 0) return x;
  }
}

int64_t CountKernel::GroupPlan::Quantile(int64_t i, double u) const {
  return Invert(entries_[static_cast<size_t>(i)], u);
}

int64_t CountKernel::GroupPlan::DrawTotals(Rng& rng, int64_t* totals) const {
  int64_t sum = 0;
  for (size_t i = 0; i < entries_.size(); ++i) {
    totals[i] = Draw(entries_[i], rng);
    sum += totals[i];
  }
  return sum;
}

int64_t CountKernel::GroupPlan::DrawTotals(Rng& rng, uint32_t* counts) const {
  const int64_t* const lo = kernel_->lo_.data();
  int64_t sum = 0;
  for (size_t i = 0; i < entries_.size(); ++i) {
    const int64_t x = Draw(entries_[i], rng);
    counts[lo[i]] = static_cast<uint32_t>(x);
    sum += x;
  }
  return sum;
}

int64_t CountKernel::EmitShare(size_t i, int64_t share, Rng& rng,
                               int64_t* values, int64_t* counts,
                               int64_t runs) const {
  const int64_t lo = lo_[i];
  const int64_t width = len_[i];
  if (width == 1) {
    values[runs] = lo;
    counts[runs++] = share;
  } else if (share < width) {
    for (int64_t d = 0; d < share; ++d) {
      values[runs] = lo + static_cast<int64_t>(
                              rng.UniformInt(static_cast<uint64_t>(width)));
      counts[runs++] = 1;
    }
  } else {
    int64_t rest = share;
    for (int64_t j = 0; rest > 0; ++j) {
      const int64_t c =
          Binomial(rest, 1.0 / static_cast<double>(width - j), rng);
      if (c == 0) continue;
      values[runs] = lo + j;
      counts[runs++] = c;
      rest -= c;
    }
  }
  return runs;
}

int64_t CountKernel::DrawBlock(int64_t len, Rng& rng, int64_t* values,
                               int64_t* counts) const {
  int64_t runs = 0;
  // left[c]: the draws chain c has yet to place.
  int64_t left[2];
  left[0] = Binomial(len, even_share_, rng);
  left[1] = len - left[0];
  for (size_t i = 0; left[0] + left[1] > 0 && i < cond_.size(); ++i) {
    int64_t& chain_left = left[i & 1];
    if (chain_left == 0) continue;
    const int64_t share = Binomial(chain_left, cond_[i], rng);
    if (share == 0) continue;
    chain_left -= share;
    runs = EmitShare(i, share, rng, values, counts, runs);
  }
  HISTK_CHECK_INVARIANT(left[0] + left[1] == 0,
                        "count kernel left draws unplaced");
  return runs;
}

void CountKernel::DrawPlannedBlock(const GroupPlan& plan, const Sampler& oracle,
                                   int64_t offset, Rng& rng, CountSink& sink,
                                   DrawBlockBuffers& buffers) const {
  const int64_t len = plan.len();
  const auto room = static_cast<size_t>(std::min(len, max_runs_));
  // The per-entry totals sit behind the runs' counts.
  buffers.counts.resize(room + cond_.size());
  int64_t* const totals = buffers.counts.data() + room;
  int64_t placed = 0;
  do {
    placed = plan.DrawTotals(rng, totals);
  } while (placed > len);
  const int64_t rest = len - placed;
  buffers.values.resize(std::max(room, static_cast<size_t>(rest)));
  int64_t* const values = buffers.values.data();
  int64_t* const counts = buffers.counts.data();
  int64_t runs = 0;
  for (size_t i = 0; i < cond_.size(); ++i) {
    const int64_t share = totals[i];
    if (share == 0) continue;
    // One-element runs inline: the dense and dataset oracles' only kind,
    // and about 2.7 of the plan's 15 ns per entry through EmitShare.
    if (len_[i] == 1) {
      values[runs] = lo_[i];
      counts[runs++] = share;
    } else {
      runs = EmitShare(i, share, rng, values, counts, runs);
    }
  }
  sink.ConsumeRuns(values, counts, runs, offset);
  if (rest > 0) {
    oracle.DrawManyInto(values, rest, rng);
    sink.Consume(values, rest, offset);
  }
}

const CountKernel::GroupPlan& CountKernel::PlanFor(DrawBlockBuffers& scratch,
                                                   int64_t len) const {
  std::vector<GroupPlan>& store = scratch.plans;
  if (!store.empty() && store.front().kernel() != this) store.clear();
  for (const GroupPlan& plan : store) {
    if (plan.len() == len) return plan;
  }
  return store.emplace_back(*this, len);
}

int64_t CountKernel::DrawPlannedTotals(int64_t m, Rng& rng, uint32_t* counts,
                                       DrawBlockBuffers& scratch) const {
  if (cond_.empty() || !unit_runs_ || m > Sampler::kShardChunk ||
      m < kDrawsPerBinomial * size()) {
    return -1;
  }
  // DrawPlannedBlock's draws, less the runs: each entry's total is written
  // to its element, and a redraw overwrites the same elements.
  const GroupPlan& plan = PlanFor(scratch, m);
  int64_t placed = 0;
  do {
    placed = plan.DrawTotals(rng, counts);
  } while (placed > m);
  return m - placed;
}

void CountKernel::DrawCounts(const Sampler& oracle, int64_t m, Rng& rng,
                             CountSink& sink, int threads) const {
  if (cond_.empty() || !sink.OrderFree()) {
    oracle.Sampler::DrawCounts(m, rng, sink, threads);
    return;
  }
  const int64_t per_draw_below = kDrawsPerBinomial * size();
  // The plans for this request's block lengths (at most two: full blocks
  // and the tail), built here on the calling thread; the blocks, on any
  // worker, only read them.
  const std::vector<GroupPlan>* plans = nullptr;
  if (DrawBlockBuffers* scratch = sink.DrawScratch()) {
    for (const int64_t len :
         {std::min(m, Sampler::kShardChunk), m % Sampler::kShardChunk}) {
      if (len >= per_draw_below) PlanFor(*scratch, len);
    }
    plans = &scratch->plans;
  }
  RunDrawBlocks(m, rng, sink, threads,
                [&](int64_t offset, int64_t len, Rng& block_rng,
                    CountSink& out, DrawBlockBuffers& buffers) {
                  if (len < per_draw_below) {
                    buffers.values.resize(static_cast<size_t>(len));
                    oracle.DrawManyInto(buffers.values.data(), len, block_rng);
                    out.Consume(buffers.values.data(), len, offset);
                    return;
                  }
                  if (plans != nullptr) {
                    for (const GroupPlan& plan : *plans) {
                      if (plan.len() != len) continue;
                      DrawPlannedBlock(plan, oracle, offset, block_rng, out,
                                       buffers);
                      return;
                    }
                  }
                  // A block emits at most one run per element it can
                  // reach, and at most one per draw.
                  const auto room = static_cast<size_t>(std::min(len, max_runs_));
                  buffers.values.resize(room);
                  buffers.counts.resize(room);
                  const int64_t runs =
                      DrawBlock(len, block_rng, buffers.values.data(),
                                buffers.counts.data());
                  out.ConsumeRuns(buffers.values.data(), buffers.counts.data(),
                                  runs, offset);
                });
}

}  // namespace histk
