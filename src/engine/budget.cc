#include "engine/budget.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace histk {

BudgetExhaustedError::BudgetExhaustedError(int64_t requested, int64_t drawn,
                                           int64_t budget)
    : requested_(requested), drawn_(drawn), budget_(budget) {
  what_ = "oracle budget exhausted: " + std::to_string(drawn_) + " drawn of " +
          std::to_string(budget_) + ", request for " + std::to_string(requested_) +
          " more rejected";
}

BudgetedSampler::BudgetedSampler(const Sampler& inner, int64_t budget,
                                 const RunPolicy* policy)
    : inner_(inner),
      budget_(budget < 0 ? kUnlimited : budget),
      policy_(policy),
      backoff_rng_(0x6261636b6f6666ULL) {}  // "backoff"

void BudgetedSampler::BeginPhase(std::string name) const {
  phases_.push_back(PhaseDraws{std::move(name), 0});
}

int64_t BudgetedSampler::remaining() const {
  if (unlimited()) return std::numeric_limits<int64_t>::max();
  return budget_ - drawn_;
}

void BudgetedSampler::CheckRuntime(int64_t m) const {
  if (policy_ == nullptr) return;
  if (policy_->cancel.cancelled()) throw CancelledError();
  if (!policy_->deadline.set()) return;
  draws_until_deadline_check_ -= m;
  if (draws_until_deadline_check_ > 0) return;
  draws_until_deadline_check_ = kDeadlineCheckDraws;
  CheckDeadline();
}

void BudgetedSampler::PollRuntime() const {
  if (policy_ == nullptr) return;
  if (policy_->cancel.cancelled()) throw CancelledError();
  if (policy_->deadline.set()) CheckDeadline();
}

void BudgetedSampler::CheckDeadline() const {
  const int64_t remaining_ms = policy_->deadline.RemainingMillis();
  if (remaining_ms <= 0) throw DeadlineExceededError(-remaining_ms);
}

void BudgetedSampler::AdmitWindow(int64_t m) const {
  if (!unlimited() && drawn_ + m > budget_) {
    throw BudgetExhaustedError(m, drawn_, budget_);
  }
}

void BudgetedSampler::Account(int64_t m) const {
  drawn_ += m;
  if (phases_.empty()) phases_.push_back(PhaseDraws{"oracle", 0});
  phases_.back().samples += m;
  // The facade's central contract (Theorems 1-4 are sample-complexity
  // claims): after every metering point the session has never drawn past
  // its cap, and the per-phase attribution accounts for every draw.
  HISTK_CHECK_INVARIANT(unlimited() || drawn_ <= budget_,
                        "samples_drawn exceeded the session budget");
#if HISTK_CHECKS_ENABLED
  int64_t attributed = 0;
  for (const PhaseDraws& phase : phases_) attributed += phase.samples;
  HISTK_CHECK_INVARIANT(attributed == drawn_,
                        "per-phase draw attribution does not sum to samples_drawn");
#endif
}

void BudgetedSampler::Charge(int64_t m) const {
  HISTK_CHECK(m >= 0);
  CheckRuntime(m);
  AdmitWindow(m);
  Account(m);
}

template <typename ServeFn>
void BudgetedSampler::ServeWithRetry(const ServeFn& serve) const {
  int attempt = 0;
  for (;;) {
    try {
      serve();
      return;
    } catch (const TransientUnavailableError&) {
      const int max_retries = policy_ != nullptr ? policy_->retry.max_retries : 0;
      if (attempt >= max_retries) throw;  // escapes to Engine → kUnavailable
      ++attempt;
      ++retries_;
      SleepMs(policy_->retry.BackoffMillis(attempt, backoff_rng_));
      // The backoff slept on session time: re-check before re-serving so a
      // retry storm cannot outlive the deadline or a cancel.
      if (policy_->cancel.cancelled()) throw CancelledError();
      const int64_t remaining_ms = policy_->deadline.RemainingMillis();
      if (policy_->deadline.set() && remaining_ms <= 0) {
        throw DeadlineExceededError(-remaining_ms);
      }
    }
  }
}

int64_t BudgetedSampler::Draw(Rng& rng) const {
  if (!hardened()) {
    Charge(1);
    return inner_.Draw(rng);
  }
  CheckRuntime(1);
  AdmitWindow(1);
  int64_t value = 0;
  ServeWithRetry([&] { value = inner_.Draw(rng); });
  Account(1);
  return value;
}

void BudgetedSampler::DrawManyInto(int64_t* out, int64_t m, Rng& rng) const {
  if (!hardened()) {
    // Every batched entry point (DrawMany included — the base class routes
    // it here) admits the batch whole before the first sample exists.
    Charge(m);
    inner_.DrawManyInto(out, m, rng);
    return;
  }
  // Hardened: admit whole (all-or-nothing budget), serve in 2^16-draw
  // chunks so deadline/cancel fire mid-batch, account only served chunks.
  // Chunking at kShardChunk boundaries is stream-identical to one call for
  // every kernel (per-draw kernels trivially; the block-structured simd
  // kernel cuts batches at exactly these boundaries already).
  AdmitWindow(m);
  int64_t done = 0;
  do {
    const int64_t len = std::min(Sampler::kShardChunk, m - done);
    CheckRuntime(len);
    ServeWithRetry([&] { inner_.DrawManyInto(out + done, len, rng); });
    Account(len);
    done += len;
  } while (done < m);
}

std::vector<int64_t> BudgetedSampler::DrawManySharded(int64_t m, Rng& rng,
                                                      int num_threads) const {
  if (!hardened()) {
    // Whole-batch admission on the caller's thread, then the inner
    // sampler's thread-invariant fan-out: the exception can never cross a
    // worker.
    Charge(m);
    return inner_.DrawManySharded(m, rng, num_threads);
  }
  // Hardened sharded requests are served as a sequence of sharded
  // sub-batches. Each sub-call consumes exactly one NextU64 and is itself
  // thread-count invariant, so the session stream is deterministic and
  // byte-identical at any worker count — but distinct from the unhardened
  // stream (armed sessions are a new stream, pinned by the runtime suites).
  AdmitWindow(m);
  std::vector<int64_t> out(static_cast<size_t>(m));
  int64_t done = 0;
  do {
    const int64_t len = std::min(Sampler::kShardChunk, m - done);
    CheckRuntime(len);
    ServeWithRetry([&] {
      const std::vector<int64_t> part = inner_.DrawManySharded(len, rng, num_threads);
      std::copy(part.begin(), part.end(),
                out.begin() + static_cast<size_t>(done));
    });
    Account(len);
    done += len;
  } while (done < m);
  return out;
}

void BudgetedSampler::DrawCounts(int64_t m, Rng& rng, CountSink& sink) const {
  if (!hardened()) {
    // All-or-nothing: the base implementation would charge chunk by chunk
    // and could reject mid-batch with part of the draws already consumed.
    Charge(m);
    inner_.DrawCounts(m, rng, sink);
    return;
  }
  // Retrying a sink-fed chunk is safe only because fault injectors never
  // short-batch sink paths (fault_injection.h): a transient fault is thrown
  // before anything reaches the sink.
  AdmitWindow(m);
  int64_t done = 0;
  do {
    const int64_t len = std::min(Sampler::kShardChunk, m - done);
    CheckRuntime(len);
    ServeWithRetry([&] { inner_.DrawCounts(len, rng, sink); });
    Account(len);
    done += len;
  } while (done < m);
}

void BudgetedSampler::DrawCountsSharded(int64_t m, Rng& rng, CountSink& sink,
                                        int num_threads) const {
  if (!hardened()) {
    Charge(m);
    inner_.DrawCountsSharded(m, rng, sink, num_threads);
    return;
  }
  // Sub-batches acquire fresh sink shards per call; shard merging is
  // commutative (see sample/counter.h), so the result is still
  // byte-identical at any worker count.
  AdmitWindow(m);
  int64_t done = 0;
  do {
    const int64_t len = std::min(Sampler::kShardChunk, m - done);
    CheckRuntime(len);
    ServeWithRetry([&] { inner_.DrawCountsSharded(len, rng, sink, num_threads); });
    Account(len);
    done += len;
  } while (done < m);
}

}  // namespace histk
