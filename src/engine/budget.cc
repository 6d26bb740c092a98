#include "engine/budget.h"

#include <algorithm>

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
    : inner_(&inner),
      budget_(budget < 0 ? kUnlimited : budget),
      policy_(policy),
      backoff_rng_(0x6261636b6f6666ULL) {}  // "backoff"

void BudgetedSampler::BeginPhase(std::string name) const {
  phases_.push_back(PhaseDraws{std::move(name), 0});
}

void BudgetedSampler::SwitchOracle(const Sampler& inner) const {
  HISTK_CHECK(inner.n() == inner_->n());
  inner_ = &inner;
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

void BudgetedSampler::DrawManyInto(int64_t* out, int64_t m, Rng& rng) const {
  if (!hardened()) {
    // Every materializing path (Draw and DrawMany route here) admits the
    // batch whole before the first sample exists.
    Charge(m);
    inner_->DrawManyInto(out, m, rng);
    return;
  }
  // Hardened: admit whole (all-or-nothing budget), serve in 2^16-draw
  // chunks so deadline/cancel fire mid-batch, account only served chunks.
  // Chunking is stream-identical to one call: every DrawManyInto consumes
  // the rng draw by draw.
  AdmitWindow(m);
  int64_t done = 0;
  do {
    const int64_t len = std::min(Sampler::kShardChunk, m - done);
    CheckRuntime(len);
    ServeWithRetry([&] { inner_->DrawManyInto(out + done, len, rng); });
    Account(len);
    done += len;
  } while (done < m);
}

bool BudgetedSampler::DrawCountsInto(int64_t m, Rng& rng, uint32_t* counts,
                                     DrawBlockBuffers& scratch) const {
  // Hardened sessions chunk and retry through DrawCounts. Otherwise these
  // are Charge's metering points around the draw: an inert policy's
  // runtime check is stateless, so a declined set checks again in
  // DrawCounts to the same effect.
  if (hardened()) return false;
  HISTK_CHECK(m >= 0);
  CheckRuntime(m);
  AdmitWindow(m);
  if (!inner_->DrawCountsInto(m, rng, counts, scratch)) return false;
  Account(m);
  return true;
}

void BudgetedSampler::DrawCounts(int64_t m, Rng& rng, CountSink& sink,
                                 int threads) const {
  if (!hardened()) {
    // All-or-nothing on the caller's thread, before any inner fan-out: the
    // base implementation would charge chunk by chunk and could reject
    // mid-batch with part of the draws already consumed.
    Charge(m);
    inner_->DrawCounts(m, rng, sink, threads);
    return;
  }
  // Hardened: one inner request per 2^16-draw chunk. A sharded one-chunk
  // request consumes one NextU64 and resolves to a single worker on this
  // thread, consuming straight into `sink` (no per-chunk shard), so the
  // session stream is byte-identical at any worker count. Each inner
  // request starts at offset 0; `part` moves its chunk to where it sits in
  // this request. Retrying a sink-fed chunk is safe only because fault
  // injectors never short-batch sink paths (fault_injection.h): a transient
  // fault is thrown before anything reaches the sink.
  struct OffsetSink final : CountSink {
    CountSink* sink = nullptr;
    int64_t base = 0;
    void Consume(const int64_t* draws, int64_t len, int64_t offset) override {
      sink->Consume(draws, len, base + offset);
    }
    bool OrderFree() const override { return sink->OrderFree(); }
    void ConsumeRuns(const int64_t* values, const int64_t* counts, int64_t len,
                     int64_t offset) override {
      sink->ConsumeRuns(values, counts, len, base + offset);
    }
    DrawBlockBuffers* DrawScratch() override { return sink->DrawScratch(); }
  } part;
  part.sink = &sink;
  AdmitWindow(m);
  int64_t done = 0;
  do {
    const int64_t len = std::min(Sampler::kShardChunk, m - done);
    CheckRuntime(len);
    part.base = done;
    ServeWithRetry([&] { inner_->DrawCounts(len, rng, part, threads); });
    Account(len);
    done += len;
  } while (done < m);
}

}  // namespace histk
