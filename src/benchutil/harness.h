// Shared experiment-harness helpers for the bench binaries.
#ifndef HISTK_BENCHUTIL_HARNESS_H_
#define HISTK_BENCHUTIL_HARNESS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/math_util.h"
#include "util/table.h"

namespace histk {

/// Accept-rate of a boolean trial with a Wilson 95% interval.
struct AcceptRate {
  double rate = 0.0;
  double ci_low = 0.0;
  double ci_high = 0.0;
  int64_t trials = 0;
};

/// Runs `trial(t)` for t = 0..trials-1 and aggregates.
AcceptRate MeasureRate(int64_t trials, const std::function<bool(int64_t)>& trial);

/// Formats "0.93 [0.85,0.97]".
std::string FmtRate(const AcceptRate& r);

/// Mean/stddev/max summary of a repeated scalar measurement.
struct ScalarStats {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  int64_t trials = 0;
};

ScalarStats MeasureScalar(int64_t trials, const std::function<double(int64_t)>& trial);

/// Prints the standard experiment banner (id, claim, substitution notes)
/// and opens the machine-readable result log for the experiment (below).
void PrintExperimentHeader(const std::string& id, const std::string& claim,
                           const std::string& setup);

/// Machine-readable bench results. PrintExperimentHeader(id, ...) starts a
/// JSON document BENCH_<slug>.json (slug = id up to the first ':',
/// sanitized); every subsequent MeasureRate / MeasureScalar appends one
/// record, and the document is rewritten after each append so partial runs
/// still leave parseable results. Measurements taken before any header
/// (e.g. unit tests) are not recorded.
///
/// Environment: HISTK_BENCH_JSON_DIR redirects the output directory
/// (default "."); HISTK_BENCH_JSON=0 disables emission entirely.
///
/// Sets the label attached to the next recorded measurement (records are
/// otherwise labeled with their sequence index).
void NextBenchLabel(std::string label);

}  // namespace histk

#endif  // HISTK_BENCHUTIL_HARNESS_H_
