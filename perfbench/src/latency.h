// Latency summaries: nearest-rank percentiles, a log-bucket histogram per
// request kind, and the two reliability flags every reported percentile
// carries — too few samples beyond it, or a rank that sits at the edge of
// an empty stretch of the histogram (a blend of two costs, where a small
// shift in the mix moves the percentile across the gap).
#ifndef PERFBENCH_LATENCY_H_
#define PERFBENCH_LATENCY_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Log-spaced buckets, kBucketsPerOctave per doubling, from 1 us up.
constexpr int kBucketsPerOctave = 8;
int BucketOf(double us);
double BucketLowerUs(int bucket);

struct Histogram {
  std::vector<int64_t> counts;  ///< indexed by BucketOf
  void Add(double us);
  /// "lo-hi us: count" for every non-empty bucket, one line each.
  std::string Render(const std::string& indent) const;
};

struct PercentileReport {
  double value_us = 0.0;
  int64_t samples = 0;
  int64_t beyond = 0;       ///< samples strictly above the rank
  bool few_beyond = false;  ///< beyond < 10
  bool in_gap = false;      ///< an empty bucket lies within +-1% of ranks
};

/// `sorted_us` ascending. Nearest-rank percentile plus its flags, judged
/// against the histogram of the same samples.
PercentileReport Percentile(const std::vector<double>& sorted_us, double q,
                            const Histogram& hist);

}  // namespace perfbench

#endif  // PERFBENCH_LATENCY_H_
