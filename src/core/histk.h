// Umbrella header: the public API of histk.
//
// histk reproduces "Approximating and Testing k-Histogram Distributions in
// Sub-linear Time" (Indyk, Levi, Rubinfeld, PODS 2012). The primary entry
// point is the engine facade (engine/engine.h):
//
//   * Engine::Run(TaskSpec)  — budgeted oracle sessions running LearnSpec /
//                              TestSpec / CompareSpec / EstimateSpec tasks,
//                              returning a Result<Report> with uniform
//                              telemetry; invalid specs and exhausted
//                              budgets are typed outcomes, never aborts.
//
// The historical free functions remain available and byte-compatible but
// are DEPRECATED as entry points (new code, the CLI, and the examples go
// through Engine; see the README migration table):
//
//   * LearnHistogram        — Algorithm 1 / Theorem 2 greedy learner
//   * TestKHistogram        — Algorithm 2 property testers (L1 and L2)
//   * MakeLowerBoundPair    — Theorem 5 hard-instance pair
//
// plus the substrates they run on (distributions, samplers, sample-set
// collision statistics, histogram types) and the classic baselines the
// paper positions itself against (exact v-optimal DP, equi-width/-depth,
// compressed histograms, uniformity testing).
#ifndef HISTK_CORE_HISTK_H_
#define HISTK_CORE_HISTK_H_

#include "baseline/classic_histograms.h"
#include "baseline/far_instances.h"
#include "baseline/uniformity.h"
#include "baseline/voptimal_dp.h"
#include "core/flatness.h"
#include "core/greedy.h"
#include "core/lower_bound.h"
#include "core/property_tester.h"
#include "core/tester.h"
#include "baseline/l1_optimal.h"
#include "dist/dataset.h"
#include "dist/distribution.h"
#include "dist/empirical.h"
#include "dist/generators.h"
#include "dist/io.h"
#include "dist/quantiles.h"
#include "dist/sampler.h"
#include "engine/budget.h"
#include "engine/engine.h"
#include "engine/fault_injection.h"
#include "engine/runtime.h"
#include "engine/telemetry.h"
#include "histogram/ops.h"
#include "histogram/priority.h"
#include "histogram/tiling.h"
#include "sample/sample_set.h"
#include "stats/bounds.h"
#include "stats/estimators.h"
#include "stream/concurrent_histogram.h"
#include "stream/log_bucket.h"
#include "stream/reservoir.h"
#include "util/interval.h"
#include "util/rng.h"
#include "util/status.h"

#endif  // HISTK_CORE_HISTK_H_
