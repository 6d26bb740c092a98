// BudgetedSampler: the metered oracle of the engine facade.
//
// The paper's contribution is sample complexity — Theorems 1–4 are claims
// about how many oracle draws each algorithm consumes — so the facade makes
// oracle access a first-class, auditable resource. BudgetedSampler wraps
// any Sampler and
//
//   * meters every draw (single, batched, sharded, and the fused
//     draw→count paths), attributed to the phase the engine is currently
//     in ("learn-main", "test-draw", ...),
//   * enforces a hard cap: a draw request that would exceed the budget is
//     rejected whole by throwing BudgetExhaustedError BEFORE any sample is
//     drawn, so samples_drawn() never exceeds the budget.
//
// The exception is the one place the library throws: it is not a hot path
// (one O(1) check per batch, one per single draw), and it never escapes the
// facade — Engine::Run catches it and returns a typed Report with outcome
// kBudgetExhausted plus the telemetry accumulated so far. Algorithms
// underneath (SampleSet::Draw, GreedyEstimator, the testers) stay oblivious
// to budgets; unwinding out of them is safe because they hold no state
// beyond their local sample vectors.
//
// Metering is caller-thread only: DrawManySharded charges the whole batch
// up front and then delegates to the inner sampler's thread-invariant
// fan-out, so the counters need no synchronization and budget rejection
// never unwinds across a worker thread.
//
// The meter is also where the resilient-session runtime (engine/runtime.h)
// hooks in. A session may attach a RunPolicy; the metering points then
// additionally
//
//   * poll the CancelToken (one relaxed load per request) and check the
//     Deadline — throttled to once per 2^16 draws, so the clock is never
//     read on the per-draw hot path,
//   * split batches into 2^16-draw chunks when the policy is armed, so a
//     deadline or cancel fires mid-batch instead of after a 10^8-draw
//     request completes (sequential chunking is stream-identical; armed
//     sharded sessions get a new-but-deterministic stream that is still
//     byte-identical at any worker count),
//   * retry chunks whose inner oracle throws TransientUnavailableError,
//     under the policy's bounded-backoff RetryPolicy. A faulted chunk is
//     accounted only once served, so samples_drawn counts delivered
//     samples — never wasted partial draws.
//
// Without a policy (or with an inert one) every path is byte-identical to
// the historical meter: one branch on a null pointer per request.
#ifndef HISTK_ENGINE_BUDGET_H_
#define HISTK_ENGINE_BUDGET_H_

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "dist/sampler.h"
#include "engine/runtime.h"
#include "util/rng.h"

namespace histk {

/// Thrown by BudgetedSampler when a draw request would exceed the budget.
/// Internal to the facade: Engine::Run converts it to a Report outcome.
class BudgetExhaustedError : public std::exception {
 public:
  BudgetExhaustedError(int64_t requested, int64_t drawn, int64_t budget);

  const char* what() const noexcept override { return what_.c_str(); }

  int64_t requested() const { return requested_; }  ///< size of the rejected request
  int64_t drawn() const { return drawn_; }          ///< samples drawn before it
  int64_t budget() const { return budget_; }        ///< the cap

 private:
  int64_t requested_;
  int64_t drawn_;
  int64_t budget_;
  std::string what_;
};

/// Decorator that meters draws against a hard cap. Immutable configuration,
/// mutable counters; NOT thread-safe — one BudgetedSampler per session, all
/// draw calls from the session's thread (the inner sampler may still fan
/// sharded batches out to workers).
class BudgetedSampler : public Sampler {
 public:
  /// No cap: the sampler only meters.
  static constexpr int64_t kUnlimited = -1;

  /// Draws attributed to one phase (engine telemetry).
  struct PhaseDraws {
    std::string phase;
    int64_t samples = 0;
  };

  /// Wraps `inner` (not owned; must outlive this). budget < 0 = unlimited;
  /// budget = 0 rejects the first draw. `policy` (optional, not owned, must
  /// outlive this) attaches the resilient-session runtime: deadline/cancel
  /// checks at the metering points and transient-fault retries.
  explicit BudgetedSampler(const Sampler& inner, int64_t budget = kUnlimited,
                           const RunPolicy* policy = nullptr);

  int64_t n() const override { return inner_.n(); }
  int64_t Draw(Rng& rng) const override;
  void DrawManyInto(int64_t* out, int64_t m, Rng& rng) const override;
  std::vector<int64_t> DrawManySharded(int64_t m, Rng& rng,
                                       int num_threads = 0) const override;
  void DrawCounts(int64_t m, Rng& rng, CountSink& sink) const override;
  void DrawCountsSharded(int64_t m, Rng& rng, CountSink& sink,
                         int num_threads = 0) const override;

  /// Starts attributing subsequent draws to `name`. Phases are recorded in
  /// call order; a phase with zero draws is kept (it documents that the
  /// session reached it).
  void BeginPhase(std::string name) const;

  int64_t budget() const { return budget_; }
  bool unlimited() const { return budget_ < 0; }
  int64_t samples_drawn() const { return drawn_; }

  /// Draws still allowed (INT64_MAX when unlimited).
  int64_t remaining() const;

  /// Per-phase draw counts in BeginPhase order. Draws made before any
  /// BeginPhase land in an implicit "oracle" phase.
  const std::vector<PhaseDraws>& phases() const { return phases_; }

  /// Transient-fault retries performed so far (Report::retries).
  int64_t retries() const { return retries_; }

  /// The runtime check for compute between draws (the greedy search's
  /// GreedyPoll): polls the CancelToken and reads the Deadline clock,
  /// unthrottled. Throws CancelledError / DeadlineExceededError; no-op
  /// without a policy.
  void PollRuntime() const;

  /// Deadline checks are throttled to once per this many charged draws, so
  /// arming a deadline never puts a clock read on the per-draw hot path.
  static constexpr int64_t kDeadlineCheckDraws = int64_t{1} << 16;

 private:
  /// Admits a request of `m` draws or throws BudgetExhaustedError. Nothing
  /// is drawn on rejection — requests are all-or-nothing.
  void Charge(int64_t m) const;

  /// The runtime metering point: polls the CancelToken and (throttled to
  /// kDeadlineCheckDraws) the Deadline. Throws CancelledError /
  /// DeadlineExceededError; no-op without a policy.
  void CheckRuntime(int64_t m) const;

  /// Throws DeadlineExceededError if the policy's (set) deadline expired.
  void CheckDeadline() const;

  /// Budget admission alone — would this request exceed the cap? Throws
  /// BudgetExhaustedError; accounts nothing.
  void AdmitWindow(int64_t m) const;

  /// Accounts `m` served draws to the counters and the current phase.
  void Account(int64_t m) const;

  /// True when requests take the chunked/retrying path: an armed policy
  /// (deadline or live cancel) or a nonzero retry allowance.
  bool hardened() const {
    return policy_ != nullptr &&
           (policy_->armed() || policy_->retry.max_retries > 0);
  }

  /// Runs one chunk-serve attempt under the retry policy: backs off and
  /// retries on TransientUnavailableError, rethrows when retries run out,
  /// and re-checks deadline/cancel between attempts.
  template <typename ServeFn>
  void ServeWithRetry(const ServeFn& serve) const;

  const Sampler& inner_;
  int64_t budget_;
  const RunPolicy* policy_;
  mutable int64_t drawn_ = 0;
  mutable int64_t retries_ = 0;
  /// Draws left before the next deadline clock read (starts at 0 so the
  /// first metering point always checks).
  mutable int64_t draws_until_deadline_check_ = 0;
  /// Jitter stream for retry backoff. Fixed seed: it never touches a draw
  /// stream, it only spaces out sleeps, deterministically per session.
  mutable Rng backoff_rng_;
  mutable std::vector<PhaseDraws> phases_;
};

}  // namespace histk

#endif  // HISTK_ENGINE_BUDGET_H_
