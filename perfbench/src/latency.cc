#include "latency.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

int BucketOf(double us) {
  if (!(us > 1.0)) return 0;
  return static_cast<int>(std::floor(std::log2(us) * kBucketsPerOctave));
}

double BucketLowerUs(int bucket) {
  return std::exp2(static_cast<double>(bucket) / kBucketsPerOctave);
}

void Histogram::Add(double us) {
  const size_t bucket = static_cast<size_t>(BucketOf(us));
  if (counts.size() <= bucket) counts.resize(bucket + 1, 0);
  ++counts[bucket];
}

std::string Histogram::Render(const std::string& indent) const {
  std::string out;
  for (size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    char line[128];
    std::snprintf(line, sizeof(line), "%s%10.1f - %10.1f us: %lld\n",
                  indent.c_str(), BucketLowerUs(static_cast<int>(b)),
                  BucketLowerUs(static_cast<int>(b) + 1),
                  static_cast<long long>(counts[b]));
    out += line;
  }
  return out;
}

PercentileReport Percentile(const std::vector<double>& sorted_us, double q,
                            const Histogram& hist) {
  PercentileReport report;
  const int64_t n = static_cast<int64_t>(sorted_us.size());
  report.samples = n;
  if (n == 0) {
    report.few_beyond = true;
    return report;
  }
  const int64_t rank =
      std::clamp<int64_t>(static_cast<int64_t>(std::ceil(q * n)) - 1, 0, n - 1);
  report.value_us = sorted_us[static_cast<size_t>(rank)];
  report.beyond = n - 1 - rank;
  report.few_beyond = report.beyond < 10;
  // The percentile is fragile when the samples within +-1% of its rank
  // straddle an empty bucket.
  const int64_t span = std::max<int64_t>(1, n / 100);
  const int lo = BucketOf(sorted_us[static_cast<size_t>(std::max<int64_t>(0, rank - span))]);
  const int hi = BucketOf(sorted_us[static_cast<size_t>(std::min(n - 1, rank + span))]);
  for (int b = lo + 1; b < hi; ++b) {
    if (static_cast<size_t>(b) >= hist.counts.size() || hist.counts[static_cast<size_t>(b)] == 0) {
      report.in_gap = true;
    }
  }
  return report;
}

}  // namespace perfbench
