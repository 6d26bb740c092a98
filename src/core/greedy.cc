#include "core/greedy.h"

#include <algorithm>
#include <cmath>
#include <limits>
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

/// The scan filter's scratch (see Search), O(d + r) doubles allocated once
/// per Search and not counted in CandidateTable::bytes(): double copies of
/// the endpoints and of the main-count prefix through each, reciprocals of
/// the divisors, and per iteration the piece-cost prefix sums, the endpoint
/// terms lhs/rhs, one row of filter values and every row's minimum.
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
/// bit-identical to it. `Index` is uint8_t when r <= 256, else uint32_t.
template <typename Index>
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
        coll_lo_[j * d_ + e] = set.Collisions(before);
        coll_hi_[j * d_ + e] = set.Collisions(through);
      }
    }

    median_.resize(static_cast<size_t>(CandidatePairs(static_cast<int64_t>(d_))));
    // Equal set sizes: every ratio is a monotone function of its count, so
    // the counts alone order the sets. A count below 2^24 is exact in a
    // float, and min, max and == on exact integers agree in float and
    // double, so float lanes select the same median set as double lanes.
    if (MedianFillUsesFloatLanes(est.group())) {
      FillMedians<float>(poll, [](uint64_t count, size_t) {
        // Through int32, exact here: int32 -> float converts lane-wise,
        // uint64 -> float does not.
        return static_cast<float>(static_cast<int32_t>(count));
      });
    } else if (std::all_of(denom_.begin(), denom_.end(),
                           [&](double x) { return x == denom_[0]; })) {
      FillMedians<double>(
          poll, [](uint64_t count, size_t) { return static_cast<double>(count); });
    } else {
      FillMedians<double>(poll, [this](uint64_t count, size_t j) {
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
        (coll_lo_.size() + coll_hi_.size()) * sizeof(uint64_t) +
        denom_.size() * sizeof(double));
  }

  /// GreedyEstimator::PieceCost of [endpoint(a), endpoint(b)], the
  /// `pair`-th candidate in enumeration order.
  double PieceCost(size_t a, size_t b, size_t pair) const {
    const size_t j = median_[pair];
    const double z =
        static_cast<double>(coll_hi_[j * d_ + b] - coll_lo_[j * d_ + a]) / denom_[j];
    const double y = static_cast<double>(main_hi_[b] - main_lo_[a]) / main_m_;
    return z - y * y / static_cast<double>(endpoints_[b] - endpoints_[a] + 1);
  }

  /// The scan filter's scratch for this table, with its endpoints and
  /// main-count hi prefixes copied to doubles (exact: both stay below 2^53)
  /// and the reciprocals of the divisors.
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

  /// Fills s.row[b] for b = a..d-1 with the filter value
  /// f(a, b) = PieceCost(a, b) + s.lhs[a] + s.rhs[b], PieceCost taken with
  /// s's reciprocals in place of its divisions by C(|S^j|, 2) and m, and
  /// returns the row's minimum. `pair` is pair (a, a)'s index. The median
  /// sets' z numerators are gathered first; the rest is one branch-free
  /// loop over contiguous doubles that the compiler vectorizes.
  double FilterRow(size_t a, size_t pair, ScanScratch& s) const {
    double* f = s.row.data();
    const Index* median = &median_[pair - a];  // indexed by b
    for (size_t b = a; b < d_; ++b) {
      const size_t j = median[b];
      f[b] = static_cast<double>(coll_hi_[j * d_ + b] - coll_lo_[j * d_ + a]) *
             s.inv_denom[j];
    }
    const auto before = static_cast<double>(endpoints_[a] - 1);
    const auto main_lo = static_cast<double>(main_lo_[a]);
    const double lhs = s.lhs[a];
    const double inv_m = s.inv_m;
    const double* endpoint = s.endpoint.data();
    const double* main_hi = s.main_hi.data();
    const double* rhs = s.rhs.data();
    for (size_t b = a; b < d_; ++b) {
      const double y = (main_hi[b] - main_lo) * inv_m;
      f[b] = f[b] - y * y / (endpoint[b] - before) + lhs + rhs[b];
    }
    // Four independent running minima, not one serial chain.
    constexpr size_t kLanes = 4;
    double lanes[kLanes] = {kInf, kInf, kInf, kInf};
    size_t b = a;
    for (; b + kLanes <= d_; b += kLanes) {
      for (size_t l = 0; l < kLanes; ++l) lanes[l] = std::min(lanes[l], f[b + l]);
    }
    double row_min = kInf;
    for (; b < d_; ++b) row_min = std::min(row_min, f[b]);
    for (double lane : lanes) row_min = std::min(row_min, lane);
    return row_min;
  }

 private:
  /// One key per lane for the pairs of one row whose medians are selected
  /// together: 8 doubles or 16 floats, the same registers either way. The
  /// network copies whole Lanes in and out of locals, so the compiler can
  /// vectorize a comparator across the lanes.
  template <typename Key>
  struct Lanes {
    static constexpr size_t kCount = 64 / sizeof(Key);
    Key v[kCount];
  };

  /// Fills median_ in enumeration order. `key(count, j)` must order the
  /// sets like their ratios count / C(|S^j|, 2), so the set at the median
  /// key holds the median ratio. The median keys of a Lanes' worth of pairs
  /// of a row come out of one pass of a branch-free selection network, and
  /// each pair's median set is then the lowest-index one whose key equals
  /// it.
  template <typename Key, typename KeyFn>
  void FillMedians(const GreedyPoll& poll, KeyFn key) {
    constexpr size_t kLanes = Lanes<Key>::kCount;
    const std::vector<std::pair<size_t, size_t>> network = MedianNetwork(r_);
    const size_t mid = (r_ - 1) / 2;
    std::vector<Lanes<Key>> keys(r_);  // per set
    std::vector<Lanes<Key>> wires(r_);
    size_t pair = 0;
    for (size_t a = 0; a < d_; ++a) {
      if (poll) poll();
      for (size_t b = a; b < d_; b += kLanes) {
        const size_t lanes = std::min(kLanes, d_ - b);
        for (size_t j = 0; j < r_; ++j) {
          const uint64_t lo = coll_lo_[j * d_ + a];
          const uint64_t* hi = &coll_hi_[j * d_ + b];
          Key* row = keys[j].v;
          for (size_t l = 0; l < lanes; ++l) row[l] = key(hi[l] - lo, j);
          for (size_t l = lanes; l < kLanes; ++l) row[l] = Key{0};
        }
        wires = keys;
        for (const auto& [lo_wire, hi_wire] : network) {
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
        const Lanes<Key> median = wires[mid];
        Index found[kLanes] = {};
        for (size_t j = r_; j-- > 0;) {
          for (size_t l = 0; l < kLanes; ++l) {
            found[l] = keys[j].v[l] == median.v[l] ? static_cast<Index>(j) : found[l];
          }
        }
        for (size_t l = 0; l < lanes; ++l) median_[pair++] = found[l];
      }
    }
  }

  std::vector<int64_t> endpoints_;
  size_t d_;
  size_t r_;
  double main_m_;
  std::vector<int64_t> main_lo_;
  std::vector<int64_t> main_hi_;
  std::vector<uint64_t> coll_lo_;  ///< r x d, set-major
  std::vector<uint64_t> coll_hi_;  ///< r x d, set-major
  std::vector<double> denom_;      ///< C(|S^j|, 2) per set
  std::vector<Index> median_;      ///< median set per pair, enumeration order
};

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

/// Algorithm 1's loop over a fixed endpoint list: per iteration, the
/// remnant costs that changed, then a two-pass scan of the candidate table
/// for the J minimizing c_J, byte-identical to the per-candidate cost
/// evaluation it replaces.
///
/// Filter. With prefix[i] the sum of the first i piece costs, L(a) / R(b)
/// the remnant costs (0 when empty), lhs[a] = L(a) + prefix[piece(a)] and
/// rhs[b] = R(b) - prefix[piece(b) + 1], f(a, b) = PC(a, b) + lhs[a] +
/// rhs[b] is c_J - total up to rounding, in O(1) per pair. The first pass
/// keeps each row's minimum f (polling once per row, as the fill does). The
/// second re-evaluates c_J exactly, with the reference's operations,
/// enumeration order and `<` tie-break, but only in the rows whose minimum
/// lies within `margin` of the global minimum f_min, and there only for
/// the pairs whose f does.
///
/// Margin. Let u = DBL_EPSILON / 2, q the number of pieces and
/// T = |total| + sum |costs|. Every PieceCost is in [-1, 1] (z <= 1,
/// y <= 1, |J| >= 1), and so is every piece cost, L and R. Against the
/// exact sum X_J of PC and the same stored costs, the reference's c_J is a
/// recursive sum of at most q + 4 terms, its PC off by at most 7u, so
/// |c_J - total - X_J| <= (q + 10) u (T + 3) to first order. The filter's
/// prefix sums are each off by at most (q - 1) u sum |costs|, its PC
/// (reciprocals: two more roundings) by 9u, and lhs, rhs and f add four
/// roundings, so |f(J) - X_J| <= (2q + 20) u (T + 3). Together
/// |c_J - total - f(J)| <= E = 4 (q + 8) u (T + 3) for every J. The
/// reference's J* has c_{J*} <= c_J for all J, so
/// f(J*) <= c_{J*} - total + E <= c_J - total + E <= f(J) + 2E: J* and
/// every pair tied with it have f within 2E = 4 (q + 8) DBL_EPSILON (T + 3)
/// of f_min. `margin` is 16 times that, which also absorbs the higher-order
/// terms and the rounding of f_min + margin. Among the re-evaluated pairs,
/// enumeration order and `<` then pick the first pair of minimal c_J,
/// which is the reference's J. An input where every pair ties costs one
/// extra pass over the table, not extra memory.
template <typename Index>
LearnResult Search(const GreedyEstimator& estimator, std::vector<int64_t> endpoints,
                   const GreedyParams& params, const GreedyPoll& poll) {
  const int64_t iterations = params.iterations;
  const CandidateTable<Index> table(estimator, std::move(endpoints), poll);
  const size_t d = table.size();
  GreedyState state(estimator, estimator.n());
  PriorityHistogram priority(estimator.n());
  EndpointRemnants rem(d);
  ScanScratch scratch = table.MakeScanScratch();
  // Each iteration adds at most two pieces, and pieces never outnumber n.
  scratch.prefix.reserve(static_cast<size_t>(
      std::min(estimator.n(), 2 * std::min(iterations, estimator.n()) + 1) + 1));

  for (int64_t iter = 0; iter < iterations; ++iter) {
    const std::vector<Interval>& pieces = state.pieces();
    const std::vector<double>& costs = state.costs();
    size_t p = 0;
    for (size_t e = 0; e < d; ++e) {
      const int64_t x = table.endpoint(e);
      while (pieces[p].hi < x) ++p;
      rem.piece[e] = p;
      if (rem.left_from[e] != pieces[p].lo) {
        const Interval left(pieces[p].lo, x - 1);
        rem.left_from[e] = pieces[p].lo;
        rem.has_left[e] = !left.empty();
        rem.left_cost[e] = rem.has_left[e] ? estimator.PieceCost(left) : 0.0;
      }
      if (rem.right_to[e] != pieces[p].hi) {
        const Interval right(x + 1, pieces[p].hi);
        rem.right_to[e] = pieces[p].hi;
        rem.has_right[e] = !right.empty();
        rem.right_cost[e] = rem.has_right[e] ? estimator.PieceCost(right) : 0.0;
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

    double f_min = kInf;
    for (size_t a = 0, pair = 0; a < d; pair += d - a, ++a) {
      if (poll) poll();
      scratch.row_min[a] = table.FilterRow(a, pair, scratch);
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
      table.FilterRow(a, pair, scratch);
      const size_t first = rem.piece[a];
      for (size_t b = a; b < d; ++b) {
        if (scratch.row[b] > threshold) continue;
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
          ? Search<uint8_t>(estimator, std::move(endpoints), params, poll)
          : Search<uint32_t>(estimator, std::move(endpoints), params, poll);
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
