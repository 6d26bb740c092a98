// histk:hot-path — no locks permitted in this file (tools/lint_histk.py).
#include "dist/count_kernel.h"

#include <algorithm>

#include "dist/sampler.h"
#include "stats/binomial.h"
#include "util/check.h"

namespace histk {

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
  // suffix[i & 1]: the mass of entries i, i + 2, i + 4, ... (entry i's
  // chain from i on).
  long double suffix[2] = {0.0L, 0.0L};
  for (size_t i = k; i-- > 0;) {
    HISTK_CHECK(runs[i].len >= 1);
    suffix[i & 1] += runs[i].mass;
    lo_[i] = runs[i].lo;
    len_[i] = runs[i].len;
    cond_[i] = std::min(1.0, static_cast<double>(runs[i].mass / suffix[i & 1]));
    max_runs_ = std::min(max_runs_ + runs[i].len, Sampler::kShardChunk);
  }
  // Each chain's last entry takes what is left of its share.
  cond_[k - 1] = 1.0;
  if (k >= 2) cond_[k - 2] = 1.0;
  even_share_ = static_cast<double>(suffix[0] / (suffix[0] + suffix[1]));
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
  }
  HISTK_CHECK_INVARIANT(left[0] + left[1] == 0,
                        "count kernel left draws unplaced");
  return runs;
}

void CountKernel::DrawCounts(const Sampler& oracle, int64_t m, Rng& rng,
                             CountSink& sink, int threads) const {
  if (cond_.empty() || !sink.OrderFree()) {
    oracle.Sampler::DrawCounts(m, rng, sink, threads);
    return;
  }
  RunDrawBlocks(m, rng, sink, threads,
                [&](int64_t offset, int64_t len, Rng& block_rng,
                    CountSink& out, DrawBlockBuffers& buffers) {
                  if (len < kDrawsPerBinomial * size()) {
                    buffers.values.resize(static_cast<size_t>(len));
                    oracle.DrawManyInto(buffers.values.data(), len, block_rng);
                    out.Consume(buffers.values.data(), len, offset);
                    return;
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
