// CountKernel: the AliasKernel::kCounts block sampler.
//
// histk:hot-path — no locks permitted in this file (tools/lint_histk.py).
//
// Every estimator in histk reads a sample set only through its per-element
// counts, so m i.i.d. draws fed to an order-free CountSink have the same
// law as one Multinomial(m, p) count vector. CountKernel draws that vector
// per kShardChunk block, over the oracle's support: entry i is a run
// [lo, lo + len) of total mass w_i (normalized to sum 1). It has two ways
// to draw a block of `len` draws.
//
// The chain (DrawBlock): sequential conditional binomials. Entry i gets
// Binomial(left, w_i / (w_i + w_{i+2} + ...)) of its chain's `left`
// unplaced draws. The entries form two chains, the even and the odd
// positions, and one binomial first splits the block between them. The
// chains are walked interleaved, so each binomial's trial count depends on
// the one two steps back, which lets the CPU overlap them. Entries are kept
// in decreasing mass, so a block stops once its draws are placed. Every
// binomial sets up its own parameters, which is most of its cost.
//
// The group plan (GroupPlan): Poissonization with a fix-up. The plan fixes
// Λ = len − 3√len and, per entry, a CDF and guide table of Poisson(λ_i),
// λ_i = Λ w_i, with an exact pmf walk past the table's ends. A block draws
// N_i ~ Poisson(λ_i) independently, one uniform per entry; redraws the
// whole vector while T = ΣN_i > len (probability about 1e-3); and then
// adds the len − T remaining draws one by one through the oracle's
// DrawManyInto. This is exactly Multinomial(len, w): given T = t,
// independent Poissons with means proportional to w are Multinomial(t, w);
// the redraw keeps a vector or not by t alone, so a kept vector is still
// Multinomial(t, w) given its t; and t draws from Multinomial(t, w) plus
// len − t independent draws from w are Multinomial(len, w) whatever t is.
// The plan consumes no randomness and depends only on (kernel, len); built
// once, it turns every later block of that length into table lookups.
//
// In both paths a run of several elements then splits its share
// uniformly, which is again a multinomial: by one binomial per element when
// the share covers the run, else by one uniform pick per draw.
//
// When each path runs (DrawCounts; an order-free sink is required for
// either, else every block is drawn per draw):
//   * a block under kDrawsPerBinomial draws per support entry is drawn per
//     draw by the oracle's DrawManyInto (same law, cheaper);
//   * a longer block uses the plan for its length when the sink lends a
//     draw scratch (CountSink::DrawScratch) — SampleSetGroup::Draw lends
//     one per group, so its r sets share the plan; the plan is built on the
//     calling thread before any worker starts and read by all of them;
//   * every other long block — single SampleSet::Draw sets, sinks without
//     a scratch — runs the chain.
// A group's set that would be one planned block (sequential, m <=
// kShardChunk, at least kDrawsPerBinomial draws per entry, one-element
// entries, a 32-bit row) skips DrawCounts and the sink when its oracle
// can: DrawPlannedTotals writes the plan's totals straight into the row,
// and the oracle adds its fix-up picks there (Sampler::DrawCountsInto; a
// kCounts DatasetSampler does, metered by BudgetedSampler unless the
// session is hardened). The rng and the counts are DrawCounts's.
#ifndef HISTK_DIST_COUNT_KERNEL_H_
#define HISTK_DIST_COUNT_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace histk {

class CountSink;
class Sampler;
struct DrawBlockBuffers;

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

  /// The Poisson tables of one kernel for blocks of one length (see the
  /// file comment); entries of equal mass share one table. Immutable once
  /// built; any number of threads may draw from one plan, each with its
  /// own Rng.
  class GroupPlan {
   public:
    /// Requires a kernel with a support and len >= 1. The plan keeps a
    /// pointer to `kernel`, which must outlive it.
    GroupPlan(const CountKernel& kernel, int64_t len);

    const CountKernel* kernel() const { return kernel_; }
    int64_t len() const { return len_; }

    /// Draws N_i ~ Poisson(λ_i) for every entry, independently and in
    /// entry order, into totals[0, kernel.size()); returns their sum T.
    int64_t DrawTotals(Rng& rng, int64_t* totals) const;

    /// DrawTotals written to the elements instead: N_i at
    /// counts[kernel.run_lo(i)], for a kernel whose entries are all one
    /// element wide. The same uniforms, the same T.
    int64_t DrawTotals(Rng& rng, uint32_t* counts) const;

    /// The value DrawTotals draws for entry i from a uniform u in [0, 1):
    /// the smallest x with P(N <= x) > u, by the table or a tail walk; -1
    /// when the walk runs out on fp residue (a draw then takes a new u).
    int64_t Quantile(int64_t i, double u) const;

    /// Entry i's mean λ_i.
    double lambda(int64_t i) const {
      return entries_[static_cast<size_t>(i)].lambda;
    }

    /// The values entry i's table covers, [table_first, table_last]; a
    /// draw outside them walks the pmf from the table's end.
    int64_t table_first(int64_t i) const;
    int64_t table_last(int64_t i) const;

    /// Heap bytes the plan holds.
    size_t bytes() const;

   private:
    struct Entry {
      double left;      ///< P(N < first): below it, walk down
      double cells;     ///< guide cells; guide_[guide_at + g] is at most
                        ///< the first t with cdf[t] > g / cells
      int64_t first;    ///< the first covered value
      uint32_t cdf_at;  ///< P(N <= first + t) at cdf_[cdf_at + t], then a
                        ///< sentinel 2 at t = last + 1
      uint32_t guide_at;
      uint32_t last;    ///< table index of the last covered value
      double lambda;
      double p_first;   ///< pmf at `first`
      double p_last;    ///< pmf at `first + last`
    };

    /// Quantile for entry `e`: a guide-table lookup, or WalkTail.
    int64_t Invert(const Entry& e, double u) const;

    /// One variate of entry `e`: Invert of a fresh uniform.
    int64_t Draw(const Entry& e, Rng& rng) const;

    /// Inverts uniform `u` outside `e`'s table by walking the pmf from the
    /// table's end; -1 when fp residue runs the walk out (redraw u).
    int64_t WalkTail(const Entry& e, double u) const;

    const CountKernel* kernel_;
    int64_t len_;
    std::vector<Entry> entries_;
    std::vector<double> cdf_;
    std::vector<uint16_t> guide_;
  };

  /// No support: DrawCounts always runs the oracle's per-draw blocks.
  CountKernel() = default;

  /// Requires at least one entry of positive mass.
  explicit CountKernel(std::vector<Run> runs);

  /// Sampler::DrawCounts for `oracle`. With a support and an order-free
  /// `sink`, each block of RunDrawBlocks's schedule is a count vector
  /// (`oracle.DrawManyInto` draws the blocks shorter than
  /// kDrawsPerBinomial draws per entry; the sink's draw scratch, if it
  /// lends one, keeps the group plans); otherwise this is the oracle's
  /// per-draw Sampler::DrawCounts.
  void DrawCounts(const Sampler& oracle, int64_t m, Rng& rng, CountSink& sink,
                  int threads) const;

  /// The planned part of an oracle's Sampler::DrawCountsInto: draws a set
  /// of m draws' Poisson totals by the group plan for m (kept in
  /// `scratch`) straight into counts[v], redrawing while they exceed m, and
  /// returns the m − T draws left. The oracle adds those one at a time, as
  /// DrawPlannedBlock's fix-up does, and then has consumed the rng as
  /// DrawCounts(m, rng, sink, 0) does. Returns -1, drawing nothing, unless
  /// DrawCounts would draw the set as one planned block: every entry one
  /// element wide, m <= Sampler::kShardChunk, and at least
  /// kDrawsPerBinomial draws per entry.
  int64_t DrawPlannedTotals(int64_t m, Rng& rng, uint32_t* counts,
                            DrawBlockBuffers& scratch) const;

  /// Writes one chain-drawn block's count vector as runs (values[j],
  /// counts[j]) and returns how many; both arrays need room for min(len,
  /// max_runs()) runs. Exposed for the distributional tests.
  int64_t DrawBlock(int64_t len, Rng& rng, int64_t* values,
                    int64_t* counts) const;

  /// Number of support entries.
  int64_t size() const { return static_cast<int64_t>(cond_.size()); }

  /// Entry i's elements, [run_lo(i), run_lo(i) + run_len(i)); entries are
  /// in decreasing mass.
  int64_t run_lo(int64_t i) const { return lo_[static_cast<size_t>(i)]; }
  int64_t run_len(int64_t i) const { return len_[static_cast<size_t>(i)]; }

  /// Elements the support covers, capped at Sampler::kShardChunk: with the
  /// block length, the bound on the runs one block emits.
  int64_t max_runs() const { return max_runs_; }

 private:
  /// Writes entry i's share of a block as runs from values[runs] on and
  /// returns the new run count.
  int64_t EmitShare(size_t i, int64_t share, Rng& rng, int64_t* values,
                    int64_t* counts, int64_t runs) const;

  /// One block of plan.len() draws by `plan` into `sink`; the fix-up draws
  /// come from `oracle`.
  void DrawPlannedBlock(const GroupPlan& plan, const Sampler& oracle,
                        int64_t offset, Rng& rng, CountSink& sink,
                        DrawBlockBuffers& buffers) const;

  /// The plan for blocks of `len` draws in `scratch`, built there on first
  /// use (a scratch keeps one kernel's plans; another kernel's go).
  const GroupPlan& PlanFor(DrawBlockBuffers& scratch, int64_t len) const;

  std::vector<int64_t> lo_;
  std::vector<int64_t> len_;
  /// Every entry is one element wide.
  bool unit_runs_ = true;
  /// P(entry i | the draw fell in i's chain and missed the chain's earlier
  /// entries); each chain's last is exactly 1.
  std::vector<double> cond_;
  /// P(a draw falls in entry i).
  std::vector<double> weight_;
  /// P(a draw falls in the even chain).
  double even_share_ = 1.0;
  int64_t max_runs_ = 0;
};

}  // namespace histk

#endif  // HISTK_DIST_COUNT_KERNEL_H_
