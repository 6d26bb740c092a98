// CountKernel: the AliasKernel::kCounts block sampler.
//
// histk:hot-path — no locks permitted in this file (tools/lint_histk.py).
//
// Every estimator in histk reads a sample set only through its per-element
// counts, so m i.i.d. draws fed to an order-free CountSink have the same
// law as one Multinomial(m, p) count vector. CountKernel draws that vector
// per kShardChunk block, by sequential conditional binomials over the
// oracle's support: entry i — a run [lo, lo + len) of total mass w_i — gets
// Binomial(left, w_i / (w_i + w_{i+2} + ...)) of its chain's `left`
// unplaced draws. A run of several elements then splits its share
// uniformly, which is again a multinomial: by one binomial per element when
// the share covers the run, else by one uniform pick per draw.
//
// The entries form two chains, the even and the odd positions, and one
// binomial first splits the block between them. The chains are walked
// interleaved, so consecutive binomials do not wait on each other: each
// binomial's trial count depends on the one two steps back, which lets the
// CPU overlap them (about 20% off a block at 256 entries).
//
// Entries are kept in decreasing mass, so a block stops once its draws are
// placed. A block costs O(entries) binomials plus at most its length in
// in-run work, against its length in alias draws. A binomial costs about
// as much as kDrawsPerBinomial draws (at small means, where inversion
// walks the pmf), so a block shorter than that many draws per entry is
// drawn per draw by the oracle's DrawManyInto instead (same law, cheaper).
#ifndef HISTK_DIST_COUNT_KERNEL_H_
#define HISTK_DIST_COUNT_KERNEL_H_

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace histk {

class CountSink;
class Sampler;

class CountKernel {
 public:
  /// Draws per support entry below which a block is drawn per draw. In
  /// four smoke runs of bench_e13 (Release, a shared 4-vCPU VM at 2 GHz),
  /// a block at histkd's ingest shape, 10,954 draws over 256 entries, cost
  /// 63-80 ns per entry in conditional binomials, and a dataset draw
  /// counted into a set cost 2.8-4.4 ns (the replay path, 14-16x the count
  /// kernel's cost per draw at m = 2^20). Within a run, that puts the
  /// break-even at 17-28 draws per entry. The threshold stays 24: moving
  /// it changes which blocks are drawn per draw, and with them every
  /// seeded kCounts stream.
  static constexpr int64_t kDrawsPerBinomial = 24;

  /// One support entry: elements [lo, lo + len), total mass `mass` (any
  /// positive scale; only ratios matter). Entries of mass <= 0 are dropped.
  struct Run {
    int64_t lo = 0;
    int64_t len = 1;
    long double mass = 0.0L;
  };

  /// No support: DrawCounts always runs the oracle's per-draw blocks.
  CountKernel() = default;

  /// Requires at least one entry of positive mass.
  explicit CountKernel(std::vector<Run> runs);

  /// Sampler::DrawCounts for `oracle`. With a support and an order-free
  /// `sink`, each block of RunDrawBlocks's schedule is a count vector
  /// (`oracle.DrawManyInto` draws the blocks shorter than
  /// kDrawsPerBinomial draws per entry); otherwise this is the oracle's
  /// per-draw Sampler::DrawCounts.
  void DrawCounts(const Sampler& oracle, int64_t m, Rng& rng, CountSink& sink,
                  int threads) const;

  /// Writes one block's count vector as runs (values[j], counts[j]) and
  /// returns how many; both arrays need room for min(len, max_runs())
  /// runs. Exposed for the distributional tests.
  int64_t DrawBlock(int64_t len, Rng& rng, int64_t* values,
                    int64_t* counts) const;

  /// Number of support entries.
  int64_t size() const { return static_cast<int64_t>(cond_.size()); }

  /// Elements the support covers, capped at Sampler::kShardChunk: with the
  /// block length, the bound on the runs one block emits.
  int64_t max_runs() const { return max_runs_; }

 private:
  std::vector<int64_t> lo_;
  std::vector<int64_t> len_;
  /// P(entry i | the draw fell in i's chain and missed the chain's earlier
  /// entries); each chain's last is exactly 1.
  std::vector<double> cond_;
  /// P(a draw falls in the even chain).
  double even_share_ = 1.0;
  int64_t max_runs_ = 0;
};

}  // namespace histk

#endif  // HISTK_DIST_COUNT_KERNEL_H_
