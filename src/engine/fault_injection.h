// FaultInjectingSampler: a deterministic chaos decorator for oracles.
//
// Hardened code paths are only trustworthy if every failure branch is
// exercised, and failure branches are only debuggable if the failure is
// replayable. This decorator wraps any Sampler and injects faults from a
// seeded schedule: given the same (schedule seed, rates) and the same
// sequence of draw requests, the exact same requests fault in the exact
// same way — byte-for-byte, at any draw_threads count (the fault decision
// is made once per request on the caller's thread, before any fan-out).
// A request is one call of either virtual draw function, DrawManyInto or
// DrawCounts; Draw, DrawMany and DrawManySharded reach the schedule
// through them.
//
// Three fault kinds:
//
//   * transient unavailability — the request throws
//     TransientUnavailableError before a single sample is served.
//     BudgetedSampler retries it under the session RetryPolicy.
//   * latency spike — the request sleeps spike_ms, then serves normally.
//     Exercises deadline expiry without corrupting any sample stream.
//   * short batch — a DrawManyInto request of m >= 2 draws serves a prefix
//     of the batch (consuming rng for it), then throws
//     TransientUnavailableError. The retry redraws the WHOLE batch into the
//     same caller-owned buffer, so the partial prefix is overwritten and
//     the final stream is deterministic. On DrawCounts a partial prefix
//     would already be accumulated in the sink and a retry would
//     double-count it, so there short batches are demoted to transient
//     faults (thrown before anything is consumed) — no silent wrong
//     answers, ever. So are one-draw requests (a single Draw), whose
//     prefix would always be empty.
//
// The decorator sits UNDER the budget meter:
//
//   Engine → BudgetedSampler → FaultInjectingSampler → real oracle
//
// so a faulted request is not charged (BudgetedSampler accounts a chunk
// only after it is served) and retries are metered as retries, not draws.
#ifndef HISTK_ENGINE_FAULT_INJECTION_H_
#define HISTK_ENGINE_FAULT_INJECTION_H_

#include <cstdint>
#include <vector>

#include "dist/sampler.h"
#include "engine/runtime.h"
#include "util/rng.h"

namespace histk {

/// The seeded fault schedule. Rates are per draw REQUEST (a batch is one
/// request), evaluated in order transient → latency → short-batch on one
/// uniform variate, so the three rates must sum to <= 1.
struct FaultSchedule {
  uint64_t seed = 0;
  double transient_rate = 0.0;
  double latency_rate = 0.0;
  int64_t latency_spike_ms = 2;
  double short_batch_rate = 0.0;

  /// The canonical chaos mix the CLI's --inject-faults flag arms: 12%
  /// transient, 6% latency spikes of 2 ms, 12% short batches.
  static FaultSchedule FromSeed(uint64_t seed);
};

/// Decorator injecting schedule-driven faults. Like BudgetedSampler it is
/// caller-thread-only (one per session; mutable counters, no locks) while
/// the inner sampler may still fan sharded batches out to workers.
class FaultInjectingSampler : public Sampler {
 public:
  /// Wraps `inner` (not owned; must outlive this).
  FaultInjectingSampler(const Sampler& inner, FaultSchedule schedule);

  int64_t n() const override { return inner_.n(); }
  void DrawManyInto(int64_t* out, int64_t m, Rng& rng) const override;
  void DrawCounts(int64_t m, Rng& rng, CountSink& sink,
                  int threads = 0) const override;

  const FaultSchedule& schedule() const { return schedule_; }
  /// Draw requests seen (each batch = 1; retries count again).
  int64_t requests() const { return requests_; }
  /// Faults injected so far, by kind.
  int64_t transient_faults() const { return transient_faults_; }
  int64_t latency_faults() const { return latency_faults_; }
  int64_t short_batch_faults() const { return short_batch_faults_; }
  int64_t faults_injected() const {
    return transient_faults_ + latency_faults_ + short_batch_faults_;
  }

 private:
  enum class Fault { kNone, kTransient, kLatency, kShortBatch };

  /// The per-request decision: a pure function of (schedule seed, request
  /// index), made on the caller's thread. `batched` demotes short-batch to
  /// itself only when the request can be safely re-served from scratch.
  Fault NextFault(bool can_short_batch) const;

  /// Length of the served prefix for a short-batch fault on an m-request.
  int64_t ShortLength(int64_t m) const;

  const Sampler& inner_;
  const FaultSchedule schedule_;
  mutable int64_t requests_ = 0;
  mutable int64_t transient_faults_ = 0;
  mutable int64_t latency_faults_ = 0;
  mutable int64_t short_batch_faults_ = 0;
};

}  // namespace histk

#endif  // HISTK_ENGINE_FAULT_INJECTION_H_
