#include "core/greedy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>

#include "util/common.h"
#include "util/math_util.h"

namespace histk {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Number of endpoint pairs a <= b over d endpoints.
int64_t CandidatePairs(int64_t d) { return d * (d + 1) / 2; }

/// True when d endpoints' pairs fit the candidate-cost table.
bool FitsCandidateTable(int64_t d) {
  return d <= kMaxCandidatePairs && CandidatePairs(d) <= kMaxCandidatePairs;
}

/// The greedy state: the flattening of the priority histogram built so far,
/// as contiguous pieces with cached cost estimates.
class GreedyState {
 public:
  GreedyState(const GreedyEstimator& estimator, int64_t n)
      : est_(estimator), n_(n) {
    pieces_.push_back(Interval::Full(n_));
    costs_.push_back(est_.PieceCost(pieces_[0]));
    total_ = costs_[0];
  }

  double total_cost() const { return total_; }
  const std::vector<Interval>& pieces() const { return pieces_; }
  const std::vector<double>& costs() const { return costs_; }

  /// Applies J: replaces the overlapped span by {left remnant, J, right
  /// remnant}. Records the paper's three priority entries in `out`.
  void Apply(Interval J, PriorityHistogram& out) {
    const size_t first = FirstOverlapping(J);
    size_t last = first;
    while (last + 1 < pieces_.size() && pieces_[last + 1].lo <= J.hi) ++last;

    const Interval left_rem(pieces_[first].lo, J.lo - 1);
    const Interval right_rem(J.hi + 1, pieces_[last].hi);

    std::vector<Interval> new_pieces;
    std::vector<double> new_costs;
    if (!left_rem.empty()) {
      new_pieces.push_back(left_rem);
      new_costs.push_back(est_.PieceCost(left_rem));
    }
    new_pieces.push_back(J);
    new_costs.push_back(est_.PieceCost(J));
    if (!right_rem.empty()) {
      new_pieces.push_back(right_rem);
      new_costs.push_back(est_.PieceCost(right_rem));
    }

    for (size_t i = first; i <= last; ++i) total_ -= costs_[i];
    for (double c : new_costs) total_ += c;

    pieces_.erase(pieces_.begin() + static_cast<ptrdiff_t>(first),
                  pieces_.begin() + static_cast<ptrdiff_t>(last + 1));
    costs_.erase(costs_.begin() + static_cast<ptrdiff_t>(first),
                 costs_.begin() + static_cast<ptrdiff_t>(last + 1));
    pieces_.insert(pieces_.begin() + static_cast<ptrdiff_t>(first), new_pieces.begin(),
                   new_pieces.end());
    costs_.insert(costs_.begin() + static_cast<ptrdiff_t>(first), new_costs.begin(),
                  new_costs.end());

    // Paper's bookkeeping: all three entries share the new top rank. Values
    // are densities (weight estimate / length); Theorem 2 writes the added
    // value as p(J)/|J| explicitly.
    const int64_t rank = out.size() == 0 ? 1 : out.entries().back().rank + 1;
    out.AddWithRank(J, Density(J), rank);
    if (!left_rem.empty()) out.AddWithRank(left_rem, Density(left_rem), rank);
    if (!right_rem.empty()) out.AddWithRank(right_rem, Density(right_rem), rank);
  }

  /// The current tiling with per-piece estimated densities.
  TilingHistogram ToTiling() const {
    std::vector<double> values;
    values.reserve(pieces_.size());
    for (const Interval& piece : pieces_) values.push_back(Density(piece));
    return TilingHistogram(n_, pieces_, values);
  }

 private:
  double Density(Interval I) const {
    return est_.WeightEstimate(I) / static_cast<double>(I.length());
  }

  /// Index of the first piece intersecting J (pieces tile the domain, so
  /// this is the piece containing J.lo).
  size_t FirstOverlapping(Interval J) const {
    const auto it = std::lower_bound(
        pieces_.begin(), pieces_.end(), J.lo,
        [](const Interval& piece, int64_t x) { return piece.hi < x; });
    HISTK_DCHECK(it != pieces_.end());
    return static_cast<size_t>(it - pieces_.begin());
  }

  const GreedyEstimator& est_;
  int64_t n_;
  std::vector<Interval> pieces_;
  std::vector<double> costs_;
  double total_ = 0.0;
};

/// Candidate endpoint list for Theorem 2: distinct samples and their +-1
/// neighbours, clamped to the domain, thinned evenly so that d(d+1)/2 stays
/// within `max_pairs`. Reports the pre/post-thinning endpoint counts so the
/// caller can surface the truncation.
std::vector<int64_t> SampleEndpointList(const GreedyEstimator& est, int64_t n,
                                        int64_t max_pairs, int64_t& before_thinning,
                                        int64_t& after_thinning) {
  std::vector<int64_t> pts;
  for (int64_t v : est.main().distinct_values()) {
    if (v - 1 >= 0) pts.push_back(v - 1);
    pts.push_back(v);
    if (v + 1 <= n - 1) pts.push_back(v + 1);
  }
  std::sort(pts.begin(), pts.end());
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  before_thinning = static_cast<int64_t>(pts.size());
  // Candidates are all pairs a <= b: d(d+1)/2 <= max_pairs.
  const auto limit = static_cast<size_t>(
      (std::sqrt(8.0 * static_cast<double>(max_pairs) + 1.0) - 1.0) / 2.0);
  if (pts.size() > limit && limit >= 2) {
    std::vector<int64_t> thinned;
    thinned.reserve(limit);
    const double stride =
        static_cast<double>(pts.size() - 1) / static_cast<double>(limit - 1);
    for (size_t i = 0; i < limit; ++i) {
      thinned.push_back(pts[static_cast<size_t>(std::llround(
          static_cast<double>(i) * stride))]);
    }
    thinned.erase(std::unique(thinned.begin(), thinned.end()), thinned.end());
    pts = std::move(thinned);
  }
  after_thinning = static_cast<int64_t>(pts.size());
  return pts;
}

/// Comparators (lo wire, hi wire) that bring the lower median of r values
/// to wire (r - 1) / 2: Batcher's odd-even merge sort on the next power of
/// two, minus the comparators that touch padding wires (which would hold
/// +inf and never move) or that cannot reach the median wire.
std::vector<std::pair<size_t, size_t>> MedianNetwork(size_t r) {
  HISTK_CHECK(r >= 1);
  size_t wires = 1;
  while (wires < r) wires <<= 1;
  std::vector<std::pair<size_t, size_t>> sorter;
  for (size_t p = 1; p < wires; p <<= 1) {
    for (size_t k = p; k >= 1; k >>= 1) {
      for (size_t j = k % p; j + k < wires; j += 2 * k) {
        for (size_t i = 0; i < k && i + j + k < r; ++i) {
          if ((i + j) / (2 * p) == (i + j + k) / (2 * p)) {
            sorter.emplace_back(i + j, i + j + k);
          }
        }
      }
    }
  }
  std::vector<char> needed(r, 0);
  needed[(r - 1) / 2] = 1;
  std::vector<std::pair<size_t, size_t>> kept;
  for (auto it = sorter.rbegin(); it != sorter.rend(); ++it) {
    if (needed[it->first] || needed[it->second]) {
      needed[it->first] = needed[it->second] = 1;
      kept.push_back(*it);
    }
  }
  return {kept.rbegin(), kept.rend()};
}

/// One key per lane for the pairs of one fill row whose medians are
/// selected together: 8 doubles or 16 floats, the same registers either
/// way. The network copies whole Lanes in and out of locals, so the compiler
/// can vectorize a comparator across the lanes.
template <typename Key>
struct Lanes {
  static constexpr size_t kCount = 64 / sizeof(Key);
  Key v[kCount];
};

/// A signed integer as wide as Key. The index search in SelectMedianSets
/// keeps its compare masks and the set indices it selects in these lanes,
/// so each set costs one vector compare and one select.
template <typename Key>
using MaskLane = std::conditional_t<sizeof(Key) == sizeof(int32_t), int32_t, int64_t>;

/// The median selection for one Lanes' worth of pairs: `keys` holds one
/// Lanes per set (r of them), the network runs on copies in `wires`, and
/// found[l] becomes the lowest set index whose key equals lane l's median.
/// It is a free function over raw pointers, and its index search works on
/// mask-width lanes, so that on float lanes it compiles to vector compares
/// and selects whatever is inlined around it: as a member loop selecting
/// `Index` lanes, GCC compiled the search to scalar code, and unrelated
/// edits to Search decided whether the rest vectorized. (On double lanes
/// baseline x86-64 keeps the search scalar.)
template <typename Key>
void SelectMedianSets(const Lanes<Key>* keys, size_t r,
                      const std::pair<size_t, size_t>* network, size_t comparators,
                      Lanes<Key>* wires, MaskLane<Key>* found) {
  constexpr size_t kLanes = Lanes<Key>::kCount;
  using Mask = MaskLane<Key>;
  for (size_t j = 0; j < r; ++j) wires[j] = keys[j];
  for (size_t c = 0; c < comparators; ++c) {
    const auto [lo_wire, hi_wire] = network[c];
    const Lanes<Key> x = wires[lo_wire];
    const Lanes<Key> y = wires[hi_wire];
    Lanes<Key> low;
    Lanes<Key> high;
    for (size_t l = 0; l < kLanes; ++l) {
      low.v[l] = std::min(x.v[l], y.v[l]);
      high.v[l] = std::max(x.v[l], y.v[l]);
    }
    wires[lo_wire] = low;
    wires[hi_wire] = high;
  }
  const Lanes<Key> median = wires[(r - 1) / 2];
  Mask lowest[kLanes] = {};
  for (size_t j = r; j-- > 0;) {
    const auto index = static_cast<Mask>(j);
    for (size_t l = 0; l < kLanes; ++l) {
      const Mask hit = -static_cast<Mask>(keys[j].v[l] == median.v[l]);
      lowest[l] = (lowest[l] & ~hit) | (index & hit);
    }
  }
  for (size_t l = 0; l < kLanes; ++l) found[l] = lowest[l];
}

/// The scan's per-learn scratch (see Search), O(d + r) doubles not counted
/// in CandidateTable::bytes(): double copies of the endpoints and of the
/// main-count prefix through each, reciprocals of the divisors, and per
/// iteration the piece-cost prefix sums, the endpoint terms lhs/rhs, one
/// row of filter terms and every row's minimum.
struct ScanScratch {
  ScanScratch(size_t d, size_t r)
      : endpoint(d), main_hi(d), inv_denom(r), lhs(d), rhs(d), row(d), row_min(d) {}

  std::vector<double> endpoint;
  std::vector<double> main_hi;
  std::vector<double> inv_denom;  ///< 1 / C(|S^j|, 2) per set
  double inv_m = 0.0;             ///< 1 / |S|
  std::vector<double> prefix;     ///< prefix[i] = costs[0] + ... + costs[i-1]
  std::vector<double> lhs;
  std::vector<double> rhs;
  std::vector<double> row;
  std::vector<double> row_min;
};

/// PieceCost(J) for every candidate J = [endpoints[a], endpoints[b]], a <= b,
/// held as O(1) table arithmetic. PieceCost never changes across
/// iterations, so the median over the r collision sets — the expensive
/// part — is resolved once per learn: each pair stores only the index of
/// the set whose ratio coll(S^j_J)/C(|S^j|, 2) is the (lower) median, and
/// z_J and y_J are recomputed from struct-of-arrays prefix rows with the
/// exact operations GreedyEstimator::PieceCost performs, so every cost is
/// bit-identical to it. `Index` is uint8_t when r <= 256, else uint32_t;
/// `Word`, the collision rows' word, is uint32_t when every set's total
/// collision count fits one (NarrowCollisionRows) and r <= 256, else
/// uint64_t.
template <typename Index, typename Word>
class CandidateTable {
 public:
  CandidateTable(const GreedyEstimator& est, std::vector<int64_t> endpoints,
                 const GreedyPoll& poll)
      : endpoints_(std::move(endpoints)),
        d_(endpoints_.size()),
        r_(static_cast<size_t>(est.group().r())),
        main_m_(static_cast<double>(est.main().m())) {
    const SampleSet& main = est.main();
    main_lo_.resize(d_);
    main_hi_.resize(d_);
    coll_lo_.resize(d_ * r_);
    coll_hi_.resize(d_ * r_);
    denom_.resize(r_);
    for (size_t j = 0; j < r_; ++j) {
      const int64_t m = est.group().set(static_cast<int64_t>(j)).m();
      HISTK_CHECK_MSG(m >= 2, "need at least 2 samples for a collision estimate");
      denom_[j] = static_cast<double>(PairCount(static_cast<uint64_t>(m)));
    }
    // Row e holds the prefixes before endpoint e (its lo) and through it
    // (its hi+1); Count/Collisions of [a, b] is then hi[b] - lo[a], exact in
    // integers, on dense and sparse sample sets alike.
    for (size_t e = 0; e < d_; ++e) {
      const Interval before(0, endpoints_[e] - 1);
      const Interval through(0, endpoints_[e]);
      main_lo_[e] = main.Count(before);
      main_hi_[e] = main.Count(through);
      for (size_t j = 0; j < r_; ++j) {
        const SampleSet& set = est.group().set(static_cast<int64_t>(j));
        coll_lo_[j * d_ + e] = static_cast<Word>(set.Collisions(before));
        coll_hi_[j * d_ + e] = static_cast<Word>(set.Collisions(through));
      }
    }

    median_.resize(static_cast<size_t>(CandidatePairs(static_cast<int64_t>(d_))));
    // Equal set sizes: every ratio is a monotone function of its count, so
    // the counts alone order the sets. A count below 2^24 is exact in a
    // float, and min, max and == on exact integers agree in float and
    // double, so float lanes select the same median set as double lanes.
    if (MedianFillUsesFloatLanes(est.group())) {
      FillMedians<float>(poll, [](Word count, size_t) {
        // Through int32, exact here: int32 -> float converts lane-wise,
        // unsigned -> float does not.
        return static_cast<float>(static_cast<int32_t>(count));
      });
    } else if (std::all_of(denom_.begin(), denom_.end(),
                           [&](double x) { return x == denom_[0]; })) {
      FillMedians<double>(
          poll, [](Word count, size_t) { return static_cast<double>(count); });
    } else {
      FillMedians<double>(poll, [this](Word count, size_t j) {
        return static_cast<double>(count) / denom_[j];
      });
    }
  }

  size_t size() const { return d_; }
  int64_t endpoint(size_t e) const { return endpoints_[e]; }

  int64_t bytes() const {
    return static_cast<int64_t>(
        median_.size() * sizeof(Index) + endpoints_.size() * sizeof(int64_t) +
        (main_lo_.size() + main_hi_.size()) * sizeof(int64_t) +
        (coll_lo_.size() + coll_hi_.size()) * sizeof(Word) +
        denom_.size() * sizeof(double));
  }

  /// Index of pair (a, b), a <= b, in enumeration order.
  size_t Pair(size_t a, size_t b) const { return a * d_ - a * (a - 1) / 2 + (b - a); }

  /// GreedyEstimator::PieceCost of [endpoint(a), endpoint(b)], the
  /// `pair`-th candidate in enumeration order.
  double PieceCost(size_t a, size_t b, size_t pair) const {
    const size_t j = median_[pair];
    const double z =
        static_cast<double>(coll_hi_[j * d_ + b] - coll_lo_[j * d_ + a]) / denom_[j];
    const double y = static_cast<double>(main_hi_[b] - main_lo_[a]) / main_m_;
    return z - y * y / static_cast<double>(endpoints_[b] - endpoints_[a] + 1);
  }
  double PieceCost(size_t a, size_t b) const { return PieceCost(a, b, Pair(a, b)); }

  /// The scan's scratch for this table, with its endpoints and main-count
  /// hi prefixes copied to doubles (exact: both stay below 2^53) and the
  /// reciprocals of the divisors.
  ScanScratch MakeScanScratch() const {
    ScanScratch s(d_, r_);
    for (size_t e = 0; e < d_; ++e) {
      s.endpoint[e] = static_cast<double>(endpoints_[e]);
      s.main_hi[e] = static_cast<double>(main_hi_[e]);
    }
    for (size_t j = 0; j < r_; ++j) s.inv_denom[j] = 1.0 / denom_[j];
    s.inv_m = 1.0 / main_m_;
    return s;
  }

  /// Writes out[b] = PieceCost(a, b) + add[b] for b in [begin, end),
  /// begin >= a, PieceCost taken with s's reciprocals in place of its
  /// divisions by C(|S^j|, 2) and m, and returns their minimum (+inf for an
  /// empty range). The median sets' z numerators are gathered first; the
  /// rest is one branch-free loop over contiguous doubles that the compiler
  /// vectorizes.
  double Terms(size_t a, size_t begin, size_t end, const double* add,
               const ScanScratch& s, double* out) const {
    const Index* median = &median_[Pair(a, a) - a];  // indexed by b
    for (size_t b = begin; b < end; ++b) {
      const size_t j = median[b];
      out[b] = static_cast<double>(coll_hi_[j * d_ + b] - coll_lo_[j * d_ + a]) *
               s.inv_denom[j];
    }
    const auto before = static_cast<double>(endpoints_[a] - 1);
    const auto main_lo = static_cast<double>(main_lo_[a]);
    const double inv_m = s.inv_m;
    const double* endpoint = s.endpoint.data();
    const double* main_hi = s.main_hi.data();
    for (size_t b = begin; b < end; ++b) {
      const double y = (main_hi[b] - main_lo) * inv_m;
      out[b] = out[b] - y * y / (endpoint[b] - before) + add[b];
    }
    // Four independent running minima, not one serial chain.
    constexpr size_t kLanes = 4;
    double lanes[kLanes] = {kInf, kInf, kInf, kInf};
    size_t b = begin;
    for (; b + kLanes <= end; b += kLanes) {
      for (size_t l = 0; l < kLanes; ++l) lanes[l] = std::min(lanes[l], out[b + l]);
    }
    double min = kInf;
    for (; b < end; ++b) min = std::min(min, out[b]);
    for (double lane : lanes) min = std::min(min, lane);
    return min;
  }

 private:
  /// Fills median_ in enumeration order. `key(count, j)` must order the
  /// sets like their ratios count / C(|S^j|, 2), so the set at the median
  /// key holds the median ratio.
  template <typename Key, typename KeyFn>
  void FillMedians(const GreedyPoll& poll, KeyFn key) {
    constexpr size_t kLanes = Lanes<Key>::kCount;
    const std::vector<std::pair<size_t, size_t>> network = MedianNetwork(r_);
    std::vector<Lanes<Key>> keys(r_);  // per set
    std::vector<Lanes<Key>> wires(r_);
    MaskLane<Key> found[kLanes];
    size_t pair = 0;
    for (size_t a = 0; a < d_; ++a) {
      if (poll) poll();
      for (size_t b = a; b < d_; b += kLanes) {
        const size_t lanes = std::min(kLanes, d_ - b);
        for (size_t j = 0; j < r_; ++j) {
          const Word lo = coll_lo_[j * d_ + a];
          const Word* hi = &coll_hi_[j * d_ + b];
          Key* row = keys[j].v;
          for (size_t l = 0; l < lanes; ++l) {
            row[l] = key(static_cast<Word>(hi[l] - lo), j);
          }
          for (size_t l = lanes; l < kLanes; ++l) row[l] = Key{0};
        }
        SelectMedianSets(keys.data(), r_, network.data(), network.size(), wires.data(),
                         found);
        for (size_t l = 0; l < lanes; ++l) {
          median_[pair++] = static_cast<Index>(found[l]);
        }
      }
    }
  }

  std::vector<int64_t> endpoints_;
  size_t d_;
  size_t r_;
  double main_m_;
  std::vector<int64_t> main_lo_;
  std::vector<int64_t> main_hi_;
  std::vector<Word> coll_lo_;   ///< r x d, set-major
  std::vector<Word> coll_hi_;   ///< r x d, set-major
  std::vector<double> denom_;   ///< C(|S^j|, 2) per set
  std::vector<Index> median_;   ///< median set per pair, enumeration order
};

/// Whether every set's collision prefixes fit 32-bit words: a prefix's
/// collisions are at most the set's total, so the total decides, however
/// large m is (C(m, 2) itself passes 2^32 from m = 92,682).
bool NarrowCollisionRows(const SampleSetGroup& group) {
  for (int64_t j = 0; j < group.r(); ++j) {
    const SampleSet& set = group.set(j);
    if (set.Collisions(Interval::Full(set.n())) > UINT32_MAX) return false;
  }
  return true;
}

/// Each endpoint's view of the current tiling: the piece containing it and
/// the cost of the remnant it would clip off that piece as a candidate's
/// left end (lo) or right end (hi). A remnant depends only on the endpoint
/// and one bound of its piece, so a cost is recomputed only when that bound
/// moved (`left_from` / `right_to` record the bound it was computed for).
struct EndpointRemnants {
  explicit EndpointRemnants(size_t d)
      : piece(d), left_from(d, -1), left_cost(d), has_left(d), right_to(d, -1),
        right_cost(d), has_right(d) {}

  std::vector<size_t> piece;
  std::vector<int64_t> left_from;
  std::vector<double> left_cost;
  std::vector<char> has_left;
  std::vector<int64_t> right_to;
  std::vector<double> right_cost;
  std::vector<char> has_right;
};

constexpr size_t kNoSlot = std::numeric_limits<size_t>::max();

/// One piece of the current tiling as the scan sees it: its endpoints,
/// [first, end) in the endpoint list (empty when none falls in it), and
/// the ColumnCache slot holding its column, if it has one.
struct PieceScan {
  size_t first = 0;
  size_t end = 0;
  size_t slot = kNoSlot;
  bool fresh = true;  ///< the column is computed in this iteration's scan
};

/// The columns of Search's first pass, g(., P) for each piece P, kept
/// across iterations. A column depends only on its piece's bounds, so it
/// stays valid while the piece survives. `slots` columns of d doubles are
/// allocated once per learn; a piece that finds no free slot is recomputed
/// in every iteration instead.
class ColumnCache {
 public:
  ColumnCache(size_t d, size_t slots) : d_(d), values_(d * slots) {
    for (size_t s = slots; s-- > 0;) free_.push_back(s);
  }

  double* column(size_t slot) { return &values_[slot * d_]; }

  /// Gives each of this iteration's pieces, whose endpoint ranges `scan`
  /// already holds, its slot: the previous iteration's when a piece with
  /// the same bounds had one (not fresh), else a free one (fresh). The
  /// slots of pieces that are gone are freed first.
  void Assign(const std::vector<Interval>& pieces, std::vector<PieceScan>& scan) {
    // Both piece lists tile the domain in order, so one merge finds the
    // pieces that survived.
    size_t old = 0;
    for (size_t p = 0; p < pieces.size(); ++p) {
      for (; old < owners_.size() && owners_[old].lo <= pieces[p].lo; ++old) {
        if (owners_[old] == pieces[p] && slots_[old] != kNoSlot) {
          scan[p].slot = slots_[old];
          scan[p].fresh = false;
        } else {
          Release(slots_[old]);
        }
      }
    }
    for (; old < owners_.size(); ++old) Release(slots_[old]);
    slots_.clear();
    for (PieceScan& piece : scan) {
      if (piece.fresh && piece.first < piece.end && !free_.empty()) {
        piece.slot = free_.back();
        free_.pop_back();
      }
      slots_.push_back(piece.slot);
    }
    owners_ = pieces;
  }

 private:
  void Release(size_t slot) {
    if (slot != kNoSlot) free_.push_back(slot);
  }

  size_t d_;
  std::vector<double> values_;  ///< slot-major, d doubles per column
  std::vector<size_t> free_;
  std::vector<Interval> owners_;  ///< the previous iteration's pieces
  std::vector<size_t> slots_;     ///< and their slots
};

/// The column cache's cap: at most this many bytes of columns per learn.
/// Learns with few pieces (every learn at k ln(1/eps) iterations on
/// cold_miss's shapes) stay far below it.
constexpr size_t kColumnCacheBytes = size_t{8} << 20;

/// Algorithm 1's loop over a fixed endpoint list: per iteration, the
/// remnant costs that changed, then a two-pass scan of the candidate table
/// for the J minimizing c_J, byte-identical to the per-candidate cost
/// evaluation it replaces.
///
/// Remnants. L(a) / R(b) are the costs of the remnants J = [a, b] clips off
/// a's / b's piece (0 when empty). A remnant whose two ends are endpoints
/// is read from the table, which gives GreedyEstimator::PieceCost's bits;
/// the others go through the estimator.
///
/// Filter. With prefix[i] the sum of the first i piece costs,
/// lhs[a] = L(a) + prefix[piece(a)] and rhs[b] = R(b) - prefix[piece(b) + 1],
/// f(a, b) = PC(a, b) + lhs[a] + rhs[b] is c_J - total up to rounding, in
/// O(1) per pair. R(b) depends only on b and its piece, so the first pass
/// groups a row's pairs by b's piece P: g(a, P), the minimum over P's
/// endpoints b >= a of PC(a, b) + R(b), stays fixed while P's bounds do,
/// and row a's minimum is lhs[a] + min over P of (g(a, P) - prefix[P + 1]).
/// The pass keeps one column g(., P) per piece (ColumnCache), computes a
/// column, row by row, only in the iteration where its piece appears, and
/// polls once per row, as the fill does. An iteration then costs O(d q)
/// plus the pairs whose b lies in a new piece. The second pass
/// re-evaluates c_J exactly, with the reference's operations, enumeration
/// order and `<` tie-break, but only in the rows whose minimum lies within
/// `margin` of the global minimum f_min, and there only for the pairs
/// whose f, taken as (PC(a, b) + rhs[b]) + lhs[a], does.
///
/// Margin. Let u = DBL_EPSILON / 2, q the number of pieces and
/// T = |total| + sum |costs|. Every PieceCost is in [-1, 1] (z <= 1,
/// y <= 1, |J| >= 1), and so is every piece cost, L and R, so every partial
/// sum below is at most T + 3 in magnitude. Against the exact sum X_J of PC
/// and the same stored costs, the reference's c_J is a recursive sum of at
/// most q + 4 terms, its PC off by at most 7u, so
/// |c_J - total - X_J| <= (q + 10) u (T + 3) to first order. Both passes
/// take PC with reciprocals (two more roundings: 9u) and two prefix sums,
/// each off by at most (q - 1) u sum |costs|, and add four roundings: the
/// first pass's (PC + R) - prefix[P + 1] added to lhs[a], the second's
/// PC + (R - prefix[piece(b) + 1]) added to lhs[a]. Rounding is monotone,
/// so a row's first-pass minimum is the minimum of its pairs' values
/// f1(J), and both f1(J) and the second pass's f2(J) are within
/// (2q + 20) u (T + 3) of X_J. Together |c_J - total - f(J)| <=
/// E = 4 (q + 8) u (T + 3) for f = f1, f2 and every J. The reference's J*
/// has c_{J*} <= c_J for all J, so
/// f(J*) <= c_{J*} - total + E <= c_J - total + E <= f1(J) + 2E: J* and
/// every pair tied with it have f1 and f2 within
/// 2E = 4 (q + 8) DBL_EPSILON (T + 3) of f_min = min f1. `margin` is 16
/// times that, which also absorbs the higher-order terms and the rounding
/// of f_min + margin. Among the re-evaluated pairs, enumeration order and
/// `<` then pick the first pair of minimal c_J, which is the reference's
/// J. An input where every pair ties costs one extra pass over the table,
/// not extra memory.
template <typename Index, typename Word>
LearnResult Search(const GreedyEstimator& estimator, std::vector<int64_t> endpoints,
                   const GreedyParams& params, const GreedyPoll& poll) {
  const int64_t iterations = params.iterations;
  const CandidateTable<Index, Word> table(estimator, std::move(endpoints), poll);
  const size_t d = table.size();
  GreedyState state(estimator, estimator.n());
  PriorityHistogram priority(estimator.n());
  EndpointRemnants rem(d);
  ScanScratch scratch = table.MakeScanScratch();
  // Each iteration adds at most two pieces, and pieces never outnumber n.
  const auto max_pieces = static_cast<size_t>(
      std::min(estimator.n(), 2 * std::min(iterations, estimator.n()) + 1));
  scratch.prefix.reserve(max_pieces + 1);
  std::vector<PieceScan> scan;
  scan.reserve(max_pieces);
  // Only pieces holding an endpoint need a column, so at most d.
  const size_t cap = kColumnCacheBytes / (sizeof(double) * std::max(d, size_t{1}));
  ColumnCache columns(d, std::min({d, max_pieces, cap}));

  for (int64_t iter = 0; iter < iterations; ++iter) {
    const std::vector<Interval>& pieces = state.pieces();
    const std::vector<double>& costs = state.costs();
    const size_t q = pieces.size();
    scan.assign(q, PieceScan{});
    for (size_t e = 0, p = 0; e < d; ++e) {
      while (pieces[p].hi < table.endpoint(e)) ++p;
      rem.piece[e] = p;
      if (scan[p].first == scan[p].end) scan[p].first = e;
      scan[p].end = e + 1;
    }

    for (size_t p = 0; p < q; ++p) {
      const PieceScan& span = scan[p];
      if (span.first == span.end) continue;
      const Interval piece = pieces[p];
      const bool lo_in_table = table.endpoint(span.first) == piece.lo;
      const bool hi_in_table = table.endpoint(span.end - 1) == piece.hi;
      for (size_t e = span.first; e < span.end; ++e) {
        const int64_t x = table.endpoint(e);
        if (rem.left_from[e] != piece.lo) {
          rem.left_from[e] = piece.lo;
          rem.has_left[e] = x > piece.lo;
          rem.left_cost[e] = !rem.has_left[e] ? 0.0
                             : lo_in_table && table.endpoint(e - 1) == x - 1
                                 ? table.PieceCost(span.first, e - 1)
                                 : estimator.PieceCost(Interval(piece.lo, x - 1));
        }
        if (rem.right_to[e] != piece.hi) {
          rem.right_to[e] = piece.hi;
          rem.has_right[e] = x < piece.hi;
          rem.right_cost[e] = !rem.has_right[e] ? 0.0
                              : hi_in_table && table.endpoint(e + 1) == x + 1
                                  ? table.PieceCost(e + 1, span.end - 1)
                                  : estimator.PieceCost(Interval(x + 1, piece.hi));
        }
      }
    }

    const double total = state.total_cost();
    double abs_costs = 0.0;
    scratch.prefix.assign(1, 0.0);
    for (double c : costs) {
      scratch.prefix.push_back(scratch.prefix.back() + c);
      abs_costs += std::fabs(c);
    }
    for (size_t e = 0; e < d; ++e) {
      scratch.lhs[e] = rem.left_cost[e] + scratch.prefix[rem.piece[e]];
      scratch.rhs[e] = rem.right_cost[e] - scratch.prefix[rem.piece[e] + 1];
    }
    columns.Assign(pieces, scan);

    double f_min = kInf;
    for (size_t a = 0; a < d; ++a) {
      if (poll) poll();
      double best = kInf;
      for (size_t p = rem.piece[a]; p < q; ++p) {
        const PieceScan& span = scan[p];
        if (span.first == span.end) continue;
        double g;
        if (span.fresh) {
          g = table.Terms(a, std::max(a, span.first), span.end, rem.right_cost.data(),
                          scratch, scratch.row.data());
          if (span.slot != kNoSlot) columns.column(span.slot)[a] = g;
        } else {
          g = columns.column(span.slot)[a];
        }
        best = std::min(best, g - scratch.prefix[p + 1]);
      }
      scratch.row_min[a] = scratch.lhs[a] + best;
      f_min = std::min(f_min, scratch.row_min[a]);
    }
    const double margin = 64.0 * static_cast<double>(costs.size() + 8) *
                          std::numeric_limits<double>::epsilon() *
                          (std::fabs(total) + abs_costs + 3.0);
    const double threshold = f_min + margin;

    double best_cost = kInf;
    size_t best_a = d;
    size_t best_b = d;
    for (size_t a = 0, pair = 0; a < d; pair += d - a, ++a) {
      if (scratch.row_min[a] > threshold) continue;
      table.Terms(a, a, d, scratch.rhs.data(), scratch, scratch.row.data());
      const double lhs = scratch.lhs[a];
      const size_t first = rem.piece[a];
      for (size_t b = a; b < d; ++b) {
        if (scratch.row[b] + lhs > threshold) continue;
        double delta = table.PieceCost(a, b, pair + (b - a));
        for (size_t idx = first; idx <= rem.piece[b]; ++idx) delta -= costs[idx];
        if (rem.has_left[a]) delta += rem.left_cost[a];
        if (rem.has_right[b]) delta += rem.right_cost[b];
        const double c = total + delta;
        if (c < best_cost) {
          best_cost = c;
          best_a = a;
          best_b = b;
        }
      }
    }
    if (best_a == d) break;  // no candidate compared below +inf
    state.Apply(Interval(table.endpoint(best_a), table.endpoint(best_b)), priority);
  }

  LearnResult result{std::move(priority), state.ToTiling(), params,
                     estimator.TotalSamples(),
                     iterations > 0 ? CandidatePairs(static_cast<int64_t>(d)) : 0,
                     state.total_cost()};
  result.candidate_table_bytes = table.bytes();
  return result;
}

/// Search with the table's index and row words chosen for the group. Only
/// byte indices take 32-bit rows: r > 256 comes only from hand-set
/// parameters (the formula's r is ln(6 n^2) < 90), so it does not get a
/// fourth copy of Search, whose code adds to every daemon's resident size.
template <typename Index>
LearnResult SearchFor(const GreedyEstimator& estimator, std::vector<int64_t> endpoints,
                      const GreedyParams& params, const GreedyPoll& poll) {
  if constexpr (sizeof(Index) == 1) {
    if (NarrowCollisionRows(estimator.group())) {
      return Search<Index, uint32_t>(estimator, std::move(endpoints), params, poll);
    }
  }
  return Search<Index, uint64_t>(estimator, std::move(endpoints), params, poll);
}

}  // namespace

bool MedianFillUsesFloatLanes(const SampleSetGroup& group) {
  for (int64_t j = 0; j < group.r(); ++j) {
    const SampleSet& set = group.set(j);
    if (set.m() != group.set(0).m() ||
        set.Collisions(Interval::Full(set.n())) >= kFloatLaneLimit) {
      return false;
    }
  }
  return group.r() > 0;
}

const char* CandidateStrategyName(CandidateStrategy s) {
  return s == CandidateStrategy::kAllIntervals ? "all-intervals" : "sample-endpoints";
}

LearnResult LearnHistogramWithEstimator(const GreedyEstimator& estimator,
                                        const LearnOptions& options,
                                        const GreedyParams& params,
                                        const GreedyPoll& poll) {
  const int64_t n = estimator.n();
  HISTK_CHECK(options.k >= 1 && options.eps > 0.0 && options.eps < 1.0);

  std::vector<int64_t> endpoints;
  int64_t endpoints_before = 0;
  int64_t endpoints_after = 0;
  if (options.strategy == CandidateStrategy::kAllIntervals) {
    HISTK_CHECK_MSG(FitsCandidateTable(n),
                    "all-intervals learn exceeds the candidate-table cap");
    endpoints.resize(static_cast<size_t>(n));
    for (int64_t x = 0; x < n; ++x) endpoints[static_cast<size_t>(x)] = x;
  } else {
    const int64_t max_pairs = options.max_candidates > 0
                                  ? std::min(options.max_candidates, kMaxCandidatePairs)
                                  : kMaxCandidatePairs;
    endpoints = SampleEndpointList(estimator, n, max_pairs, endpoints_before,
                                   endpoints_after);
  }

  LearnResult result =
      estimator.group().r() <= 256
          ? SearchFor<uint8_t>(estimator, std::move(endpoints), params, poll)
          : SearchFor<uint32_t>(estimator, std::move(endpoints), params, poll);
  result.endpoints_before_thinning = endpoints_before;
  result.endpoints_after_thinning = endpoints_after;
  return result;
}

Status ValidateLearnOptions(int64_t n, const LearnOptions& options) {
  if (n < 2) return Status::InvalidArgument("learn needs a domain of n >= 2");
  if (options.k < 1 || options.k > n) {
    return Status::InvalidArgument("k must be in [1, n]");
  }
  if (!(options.eps > 0.0 && options.eps < 1.0)) {
    return Status::InvalidArgument("eps must be in (0, 1)");
  }
  if (!(options.sample_scale > 0.0)) {
    return Status::InvalidArgument("sample_scale must be positive");
  }
  if (options.max_candidates < 0) {
    return Status::InvalidArgument(
        "max_candidates must be >= 0 (0 = the candidate-table cap)");
  }
  if (options.strategy == CandidateStrategy::kAllIntervals && !FitsCandidateTable(n)) {
    return Status::InvalidArgument(
        "all-intervals (full_enum) learn needs n(n+1)/2 <= 2^24 candidate pairs "
        "(n <= 5792); use the sample-endpoints strategy");
  }
  if (!GreedyParamsRepresentable(n, options.k, options.eps, options.sample_scale)) {
    return Status::InvalidArgument(
        "eps/sample_scale imply a sample count beyond int64 (the formulas "
        "scale as eps^-2 per k ln(1/eps) step)");
  }
  return Status::Ok();
}

GreedyParams ComputeLearnParams(int64_t n, const LearnOptions& options) {
  return ComputeGreedyParams(n, options.k, options.eps, options.sample_scale);
}

LearnResult LearnHistogram(const Sampler& sampler, const LearnOptions& options,
                           Rng& rng) {
  const GreedyParams params = ComputeLearnParams(sampler.n(), options);
  // All l + r*m draws ride the fused draw→count pipeline inside
  // GreedyEstimator::Draw; the rng consumption matches the historical
  // per-vector path, so seeded runs replay.
  const GreedyEstimator estimator = GreedyEstimator::Draw(sampler, params, rng);
  return LearnHistogramWithEstimator(estimator, options, params);
}

}  // namespace histk
