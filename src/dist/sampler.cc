// histk:hot-path — no locks permitted in this file (tools/lint_histk.py).
#include "dist/sampler.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <thread>

#include "util/check.h"

namespace histk {

namespace {

/// Vose pairing over columns whose scaled heights average 1 (scaled[i] =
/// mass_i * num_columns). Zero-mass columns go through it like any other
/// small column: they end up all-alias (prob 0 with a strict < draw), and
/// the pairing is what spreads the large columns' excess across them — mass
/// conservation depends on every column being filled to height 1.
/// `heaviest` is the index of a maximal-mass column, the safe alias for
/// leftover zero columns.
void BuildVose(std::vector<long double> scaled, size_t heaviest,
               std::vector<double>& prob, std::vector<int64_t>& alias) {
  const size_t n = scaled.size();
  prob.assign(n, 0.0);
  alias.assign(n, 0);

  std::vector<size_t> small, large;
  for (size_t i = 0; i < n; ++i) {
    if (scaled[i] < 1.0L) {
      small.push_back(i);
    } else {
      large.push_back(i);
    }
  }

  while (!small.empty() && !large.empty()) {
    const size_t s = small.back();
    small.pop_back();
    const size_t l = large.back();
    large.pop_back();
    prob[s] = static_cast<double>(scaled[s]);
    alias[s] = static_cast<int64_t>(l);
    scaled[l] -= 1.0L - scaled[s];
    if (scaled[l] < 1.0L) {
      small.push_back(l);
    } else {
      large.push_back(l);
    }
  }
  // Leftovers hold fp residue around 1: accept outright. A positive column
  // accepting itself is always correct; residue this far from 1 cannot
  // happen for positive columns, but guard anyway so a zero-adjacent fp
  // quirk can never make a column self-accept spuriously.
  for (size_t l : large) prob[l] = 1.0;
  for (size_t s : small) {
    if (scaled[s] > 0.5L) {
      prob[s] = 1.0;
    } else {
      prob[s] = 0.0;
      alias[s] = static_cast<int64_t>(heaviest);
    }
  }
}

#if HISTK_CHECKS_ENABLED
/// Invariant: the alias table conserves mass — each column's effective draw
/// probability (its own acceptance mass plus the rejection mass every other
/// column aliases to it) must reproduce the column's true mass. This is the
/// contract BuildVose's pairing establishes and every draw kernel relies on.
void CheckAliasInvariants(const std::vector<double>& prob,
                          const std::vector<int64_t>& alias,
                          const std::vector<long double>& true_scaled) {
  const size_t n = prob.size();
  std::vector<long double> effective(n, 0.0L);
  for (size_t j = 0; j < n; ++j) {
    HISTK_CHECK_INVARIANT(prob[j] >= 0.0 && prob[j] <= 1.0,
                          "alias column acceptance out of [0, 1]");
    HISTK_CHECK_INVARIANT(alias[j] >= 0 && alias[j] < static_cast<int64_t>(n),
                          "alias target out of range");
    effective[j] += static_cast<long double>(prob[j]);
    effective[static_cast<size_t>(alias[j])] += 1.0L - static_cast<long double>(prob[j]);
  }
  for (size_t j = 0; j < n; ++j) {
    const long double err = effective[j] - true_scaled[j];
    const long double tol = 1e-9L + 1e-6L * true_scaled[j];
    HISTK_CHECK_INVARIANT(err <= tol && -err <= tol,
                          "alias table does not conserve column mass");
  }
}
#endif  // HISTK_CHECKS_ENABLED

}  // namespace

const char* AliasKernelName(AliasKernel kernel) {
  switch (kernel) {
    case AliasKernel::kReplay:
      return "replay";
    case AliasKernel::kCounts:
      return "counts";
  }
  return "unknown";
}

std::optional<AliasKernel> ParseAliasKernel(std::string_view name) {
  for (AliasKernel kernel : {AliasKernel::kReplay, AliasKernel::kCounts}) {
    if (name == AliasKernelName(kernel)) return kernel;
  }
  return std::nullopt;
}

void CountSink::ConsumeRuns(const int64_t* /*values*/,
                            const int64_t* /*counts*/, int64_t /*len*/,
                            int64_t /*offset*/) {
  HISTK_CHECK_MSG(false, "ConsumeRuns on a sink that is not order-free");
}

void RunDrawBlocks(int64_t m, Rng& rng, CountSink& sink, int threads,
                   const DrawBlockFn& draw_block) {
  HISTK_CHECK(m >= 0 && threads >= 0);
  constexpr int64_t kBlock = Sampler::kShardChunk;
  if (threads == 0) {
    DrawBlockBuffers buffers;
    for (int64_t done = 0; done < m; done += kBlock) {
      draw_block(done, std::min(kBlock, m - done), rng, sink, buffers);
    }
    return;
  }
  // One root value regardless of m or thread count: chunk c's stream is a
  // function of (root, c) only, which is what makes the result invariant
  // under the worker count.
  const uint64_t root = rng.NextU64();
  const int64_t num_chunks = (m + kBlock - 1) / kBlock;
  std::atomic<int64_t> next{0};
  auto work = [&](CountSink& shard) {
    DrawBlockBuffers buffers;
    for (int64_t c; (c = next.fetch_add(1, std::memory_order_relaxed)) < num_chunks;) {
      uint64_t state =
          root ^ (0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(c) + 1));
      Rng chunk_rng(SplitMix64(state));
      const int64_t lo = c * kBlock;
      draw_block(lo, std::min(kBlock, m - lo), chunk_rng, shard, buffers);
    }
  };
  const int64_t workers = std::min<int64_t>(threads, num_chunks);
  if (workers <= 1) {
    work(sink);
    return;
  }
  // One count shard per worker, acquired here before any worker starts, so
  // workers never contend on the sink: counting parallelizes exactly like
  // drawing, and the shards merge into the same multiset at any worker
  // count.
  std::vector<CountSink*> shards;
  for (int64_t t = 0; t < workers; ++t) shards.push_back(&sink.AcquireShard());
  std::vector<std::thread> pool;
  pool.reserve(shards.size());
  for (CountSink* shard : shards) pool.emplace_back(work, std::ref(*shard));
  for (std::thread& w : pool) w.join();
}

void Sampler::DrawCounts(int64_t m, Rng& rng, CountSink& sink,
                         int threads) const {
  RunDrawBlocks(m, rng, sink, threads,
                [this](int64_t offset, int64_t len, Rng& block_rng,
                       CountSink& out, DrawBlockBuffers& buffers) {
                  buffers.values.resize(static_cast<size_t>(len));
                  DrawManyInto(buffers.values.data(), len, block_rng);
                  out.Consume(buffers.values.data(), len, offset);
                });
}

bool Sampler::DrawCountsInto(int64_t /*m*/, Rng& /*rng*/, uint32_t* /*counts*/,
                             DrawBlockBuffers& /*scratch*/) const {
  return false;
}

int64_t Sampler::Draw(Rng& rng) const {
  int64_t v = 0;
  DrawManyInto(&v, 1, rng);
  return v;
}

std::vector<int64_t> Sampler::DrawMany(int64_t m, Rng& rng) const {
  HISTK_CHECK(m >= 0);
  std::vector<int64_t> draws(static_cast<size_t>(m));
  DrawManyInto(draws.data(), m, rng);
  return draws;
}

std::vector<int64_t> Sampler::DrawManySharded(int64_t m, Rng& rng,
                                              int num_threads) const {
  HISTK_CHECK(m >= 0);
  if (num_threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    num_threads = hw == 0 ? 1 : static_cast<int>(hw);
  }
  // Chunks land in disjoint slices, so the default AcquireShard (*this) is
  // safe to share across workers.
  struct SliceWriter final : CountSink {
    int64_t* out = nullptr;
    void Consume(const int64_t* draws, int64_t len, int64_t offset) override {
      std::copy(draws, draws + len, out + offset);
    }
  } writer;
  std::vector<int64_t> out(static_cast<size_t>(m));
  writer.out = out.data();
  DrawCounts(m, rng, writer, num_threads);
  return out;
}

AliasSampler::AliasSampler(const Distribution& dist, AliasKernel kernel)
    : n_(dist.n()), bucketed_(dist.is_bucketed()), kernel_(kernel) {
  std::vector<double> prob;
  std::vector<int64_t> alias;
  if (!bucketed_) {
    const size_t n = static_cast<size_t>(n_);
    // Column heights scaled so the average is 1. Kept in long double: the
    // mass shuffled out of large columns must not drift, or near-boundary
    // columns would mis-split by more than an ulp. p(i) is read exactly
    // once per element (it is a virtual-free but branchy accessor, and the
    // historical loop paid it three times).
    std::vector<long double> scaled(n);
    size_t heaviest = 0;
    double heaviest_p = -1.0;
    for (size_t i = 0; i < n; ++i) {
      const double pi = dist.p(static_cast<int64_t>(i));
      scaled[i] = static_cast<long double>(pi) * static_cast<long double>(n_);
      if (pi > heaviest_p) {
        heaviest_p = pi;
        heaviest = i;
      }
    }
    if (kernel_ == AliasKernel::kCounts) {
      std::vector<CountKernel::Run> runs(n);
      for (size_t i = 0; i < n; ++i) {
        runs[i] = {static_cast<int64_t>(i), 1, scaled[i]};
      }
      counts_ = CountKernel(std::move(runs));
    }
#if HISTK_CHECKS_ENABLED
    const std::vector<long double> true_scaled = scaled;
#endif
    BuildVose(std::move(scaled), heaviest, prob, alias);
#if HISTK_CHECKS_ENABLED
    CheckAliasInvariants(prob, alias, true_scaled);
#endif
    dense_cols_.resize(n);
    for (size_t i = 0; i < n; ++i) dense_cols_[i] = {prob[i], alias[i]};
    return;
  }

  // Bucket mode: one column per run, weighted by the run's total mass. A
  // draw lands in a column and is then placed uniformly inside the run, so
  // both the table and each draw are independent of n.
  const std::vector<int64_t>& hi = dist.bucket_right_ends();
  const std::vector<double>& density = dist.bucket_densities();
  const size_t k = hi.size();
  std::vector<int64_t> col_lo(k), col_len(k);
  std::vector<long double> scaled(k);
  size_t heaviest = 0;
  long double heaviest_mass = -1.0L;
  int64_t lo = 0;
  for (size_t j = 0; j < k; ++j) {
    const int64_t len = hi[j] - lo + 1;
    col_lo[j] = lo;
    col_len[j] = len;
    const long double mass =
        static_cast<long double>(density[j]) * static_cast<long double>(len);
    scaled[j] = mass * static_cast<long double>(k);
    if (mass > heaviest_mass) {
      heaviest_mass = mass;
      heaviest = j;
    }
    lo = hi[j] + 1;
  }
  if (kernel_ == AliasKernel::kCounts) {
    std::vector<CountKernel::Run> runs(k);
    for (size_t j = 0; j < k; ++j) runs[j] = {col_lo[j], col_len[j], scaled[j]};
    counts_ = CountKernel(std::move(runs));
  }
#if HISTK_CHECKS_ENABLED
  const std::vector<long double> true_scaled = scaled;
#endif
  BuildVose(std::move(scaled), heaviest, prob, alias);
#if HISTK_CHECKS_ENABLED
  CheckAliasInvariants(prob, alias, true_scaled);
#endif
  // Fuse each column with its alias target's run: the draw loop then needs
  // exactly one table entry per draw, never a second dependent lookup.
  bucket_cols_.resize(k);
  for (size_t j = 0; j < k; ++j) {
    const size_t a = static_cast<size_t>(alias[j]);
    bucket_cols_[j] = {prob[j], col_lo[j], col_len[j], col_lo[a], col_len[a]};
  }
}

void AliasSampler::ReplayDenseInto(int64_t* out, int64_t m, Rng& rng) const {
  const DenseCol* const cols = dense_cols_.data();
  const uint64_t ncols = static_cast<uint64_t>(dense_cols_.size());
  for (int64_t i = 0; i < m; ++i) {
    const auto c = static_cast<size_t>(rng.UniformInt(ncols));
    const double u = rng.NextDouble();
    const DenseCol& col = cols[c];
    out[i] = u < col.prob ? static_cast<int64_t>(c) : col.alias;
  }
}

void AliasSampler::ReplayBucketInto(int64_t* out, int64_t m, Rng& rng) const {
  const BucketCol* const cols = bucket_cols_.data();
  const uint64_t ncols = static_cast<uint64_t>(bucket_cols_.size());
  for (int64_t i = 0; i < m; ++i) {
    const auto c = static_cast<size_t>(rng.UniformInt(ncols));
    const double u = rng.NextDouble();
    const BucketCol& col = cols[c];
    const bool self = u < col.prob;
    const int64_t run_lo = self ? col.lo_self : col.lo_alias;
    const int64_t run_len = self ? col.len_self : col.len_alias;
    // Single-element runs skip the offset draw; multi-element runs spend
    // one extra UniformInt to place the sample. (The branch is required for
    // byte-compatibility with the historical stream, not a perf choice.)
    out[i] = run_len == 1
                 ? run_lo
                 : run_lo + static_cast<int64_t>(
                                rng.UniformInt(static_cast<uint64_t>(run_len)));
  }
}

void AliasSampler::DrawManyInto(int64_t* out, int64_t m, Rng& rng) const {
  HISTK_CHECK(m >= 0);
  bucketed_ ? ReplayBucketInto(out, m, rng) : ReplayDenseInto(out, m, rng);
}

void AliasSampler::DrawCounts(int64_t m, Rng& rng, CountSink& sink,
                              int threads) const {
  counts_.DrawCounts(*this, m, rng, sink, threads);
}

CdfSampler::CdfSampler(const Distribution& dist)
    : n_(dist.n()), bucketed_(dist.is_bucketed()) {
  if (!bucketed_) {
    const size_t n = static_cast<size_t>(n_);
    cdf_.resize(n);
    long double acc = 0.0L;
    for (size_t i = 0; i < n; ++i) {
      acc += static_cast<long double>(dist.p(static_cast<int64_t>(i)));
      cdf_[i] = static_cast<double>(acc);
    }
    // NextDouble() < 1, so the search needs cdf_.back() >= 1 to stay in
    // range. Saturate from the LAST POSITIVE index onward: raising only
    // cdf_.back() would hand fp residue (~1e-16 mass) to a zero-mass tail.
    size_t last_pos = n - 1;
    while (last_pos > 0 && dist.p(static_cast<int64_t>(last_pos)) == 0.0) --last_pos;
    if (cdf_.back() < 1.0) {
      for (size_t i = last_pos; i < n; ++i) cdf_[i] = 1.0;
    }
    return;
  }

  const std::vector<int64_t>& hi = dist.bucket_right_ends();
  density_ = dist.bucket_densities();
  const size_t k = hi.size();
  cdf_.resize(k);
  col_lo_.resize(k);
  col_len_.resize(k);
  long double acc = 0.0L;
  int64_t lo = 0;
  for (size_t j = 0; j < k; ++j) {
    const int64_t len = hi[j] - lo + 1;
    col_lo_[j] = lo;
    col_len_[j] = len;
    acc += static_cast<long double>(density_[j]) * static_cast<long double>(len);
    cdf_[j] = static_cast<double>(acc);
    lo = hi[j] + 1;
  }
  // Same saturation rule at bucket granularity.
  size_t last_pos = k - 1;
  while (last_pos > 0 && density_[last_pos] == 0.0) --last_pos;
  if (cdf_.back() < 1.0) {
    for (size_t j = last_pos; j < k; ++j) cdf_[j] = 1.0;
  }
}

int64_t CdfSampler::DrawImpl(Rng& rng) const {
  const double u = rng.NextDouble();
  // First column with cdf > u. A zero-mass column repeats its predecessor's
  // cdf, so it can never be the first — zero-mass elements are never drawn.
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const auto j = static_cast<size_t>(it - cdf_.begin());
  if (!bucketed_) return static_cast<int64_t>(j);
  // Invert the within-bucket (linear) cdf arithmetically; the division is
  // safe because a selected bucket strictly raised the cdf past u.
  const double prev = j == 0 ? 0.0 : cdf_[j - 1];
  int64_t off = static_cast<int64_t>((u - prev) / density_[j]);
  off = std::min<int64_t>(std::max<int64_t>(off, 0), col_len_[j] - 1);
  return col_lo_[j] + off;
}

void CdfSampler::DrawManyInto(int64_t* out, int64_t m, Rng& rng) const {
  HISTK_CHECK(m >= 0);
  for (int64_t i = 0; i < m; ++i) out[i] = DrawImpl(rng);
}

}  // namespace histk
