// FaultInjectingSampler (engine/fault_injection.h): the deterministic
// chaos decorator. Same schedule + same request sequence must mean the
// same faults and the same bytes — otherwise a chaos failure cannot be
// replayed — and no fault kind may ever corrupt a sample stream or a
// count sink.
#include "engine/fault_injection.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "dist/generators.h"
#include "dist/sampler.h"
#include "engine/budget.h"
#include "engine/runtime.h"
#include "sample/sample_set.h"
#include "util/interval.h"
#include "util/rng.h"

namespace histk {
namespace {

Distribution TestDist() { return MakeZipf(64, 1.2); }

// A sink that tallies per-value counts; enough to observe whether a faulted
// request leaked a partial prefix into it.
class VectorSink : public CountSink {
 public:
  explicit VectorSink(int64_t n) : counts_(static_cast<size_t>(n), 0) {}

  void Consume(const int64_t* draws, int64_t len, int64_t) override {
    for (int64_t i = 0; i < len; ++i) ++counts_[static_cast<size_t>(draws[i])];
    total_ += len;
  }

  int64_t total() const { return total_; }
  const std::vector<int64_t>& counts() const { return counts_; }

 private:
  std::vector<int64_t> counts_;
  int64_t total_ = 0;
};

TEST(FaultScheduleTest, FromSeedArmsTheCanonicalMix) {
  const FaultSchedule s = FaultSchedule::FromSeed(7);
  EXPECT_EQ(s.seed, 7u);
  EXPECT_GT(s.transient_rate, 0.0);
  EXPECT_GT(s.latency_rate, 0.0);
  EXPECT_GT(s.short_batch_rate, 0.0);
  EXPECT_LE(s.transient_rate + s.latency_rate + s.short_batch_rate, 1.0);
}

TEST(FaultInjectionTest, ScheduleIsDeterministicPerRequestIndex) {
  const Distribution d = TestDist();
  const AliasSampler inner(d);
  const FaultInjectingSampler a(inner, FaultSchedule::FromSeed(3));
  const FaultInjectingSampler b(inner, FaultSchedule::FromSeed(3));

  // Drive both decorators through the same request sequence and record
  // which indices fault; the schedules must agree exactly.
  std::vector<int> faulted_a, faulted_b;
  auto drive = [](const FaultInjectingSampler& s, std::vector<int>& faulted) {
    Rng rng(17);
    std::vector<int64_t> buf(100);
    for (int req = 0; req < 200; ++req) {
      try {
        s.DrawManyInto(buf.data(), static_cast<int64_t>(buf.size()), rng);
      } catch (const TransientUnavailableError&) {
        faulted.push_back(req);
      }
    }
  };
  drive(a, faulted_a);
  drive(b, faulted_b);
  EXPECT_FALSE(faulted_a.empty());
  EXPECT_EQ(faulted_a, faulted_b);
  EXPECT_EQ(a.faults_injected(), b.faults_injected());
  EXPECT_EQ(a.transient_faults(), b.transient_faults());
  EXPECT_EQ(a.short_batch_faults(), b.short_batch_faults());

  // Single draws ride the same schedule. A one-draw prefix is always
  // empty, so Draw's short-batch slots fault as transient instead: the
  // same request indices fail, and none counts as a short batch.
  const FaultInjectingSampler single(inner, FaultSchedule::FromSeed(3));
  std::vector<int> faulted_single;
  Rng rng(17);
  for (int req = 0; req < 200; ++req) {
    try {
      (void)single.Draw(rng);
    } catch (const TransientUnavailableError&) {
      faulted_single.push_back(req);
    }
  }
  EXPECT_EQ(faulted_single, faulted_a);
  EXPECT_EQ(single.short_batch_faults(), 0);
  EXPECT_EQ(single.transient_faults(),
            a.transient_faults() + a.short_batch_faults());
}

TEST(FaultInjectionTest, TransientFaultServesNothing) {
  const Distribution d = TestDist();
  const AliasSampler inner(d);
  FaultSchedule schedule;
  schedule.seed = 1;
  schedule.transient_rate = 1.0;
  const FaultInjectingSampler faulty(inner, schedule);

  Rng rng(5), probe(5);
  EXPECT_THROW(faulty.Draw(rng), TransientUnavailableError);
  EXPECT_THROW((void)faulty.DrawManySharded(100, rng), TransientUnavailableError);
  // Transient faults fire before the oracle runs: the rng is untouched.
  EXPECT_EQ(rng.NextU64(), probe.NextU64());
  EXPECT_EQ(faulty.transient_faults(), 2);
}

TEST(FaultInjectionTest, LatencySpikeServesTheExactInnerStream) {
  const Distribution d = TestDist();
  const AliasSampler inner(d);
  FaultSchedule schedule;
  schedule.seed = 1;
  schedule.latency_rate = 1.0;
  schedule.latency_spike_ms = 1;
  const FaultInjectingSampler slow(inner, schedule);

  Rng rng_slow(9), rng_plain(9);
  std::vector<int64_t> a(500), b(500);
  slow.DrawManyInto(a.data(), 500, rng_slow);
  inner.DrawManyInto(b.data(), 500, rng_plain);
  EXPECT_EQ(a, b);  // a spike delays the stream, never changes it
  EXPECT_EQ(slow.latency_faults(), 1);
}

TEST(FaultInjectionTest, ShortBatchServesAPrefixThenThrows) {
  const Distribution d = TestDist();
  const AliasSampler inner(d);
  FaultSchedule schedule;
  schedule.seed = 4;
  schedule.short_batch_rate = 1.0;
  const FaultInjectingSampler faulty(inner, schedule);

  Rng rng(9), probe(9);
  std::vector<int64_t> buf(200, -1), expect(200, -2);
  inner.DrawManyInto(expect.data(), 200, probe);
  EXPECT_THROW(faulty.DrawManyInto(buf.data(), 200, rng), TransientUnavailableError);
  EXPECT_EQ(faulty.short_batch_faults(), 1);
  // The served prefix is the inner stream's prefix — a retry overwrites it.
  int64_t served = 0;
  while (served < 200 && buf[static_cast<size_t>(served)] != -1) ++served;
  EXPECT_LT(served, 200);
  for (int64_t i = 0; i < served; ++i) EXPECT_EQ(buf[static_cast<size_t>(i)], expect[static_cast<size_t>(i)]);
}

TEST(FaultInjectionTest, SinkFedPathsDemoteShortBatchesToTransient) {
  const Distribution d = TestDist();
  const AliasSampler inner(d);
  FaultSchedule schedule;
  schedule.seed = 4;
  schedule.short_batch_rate = 1.0;
  const FaultInjectingSampler faulty(inner, schedule);

  // A consumed prefix cannot be un-counted, so the fused draw→count paths
  // must fail BEFORE the sink sees anything — a retry would otherwise
  // double-count, a silent wrong answer.
  VectorSink sink(d.n());
  Rng rng(9);
  EXPECT_THROW(faulty.DrawCounts(100, rng, sink), TransientUnavailableError);
  EXPECT_THROW(faulty.DrawCounts(100, rng, sink, /*threads=*/2),
               TransientUnavailableError);
  EXPECT_EQ(sink.total(), 0);
  EXPECT_EQ(faulty.short_batch_faults(), 0);
  EXPECT_EQ(faulty.transient_faults(), 2);
}

// ------------------------------------------------- under the budget meter

TEST(FaultInjectionTest, MeterRetriesShortBatchesToACompleteStream) {
  const Distribution d = TestDist();
  const AliasSampler inner(d);
  FaultSchedule schedule;
  schedule.seed = 8;
  schedule.transient_rate = 0.2;
  schedule.short_batch_rate = 0.2;
  const FaultInjectingSampler faulty(inner, schedule);

  RunPolicy policy;
  policy.retry.max_retries = 64;
  policy.retry.initial_backoff_ms = 0;
  policy.retry.max_backoff_ms = 0;
  const BudgetedSampler metered(faulty, /*budget=*/1 << 20, &policy);

  Rng rng(13);
  const std::vector<int64_t> draws = metered.DrawMany(200000, rng);
  EXPECT_EQ(draws.size(), 200000u);
  for (int64_t v : draws) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, d.n());
  }
  // Account-after-serve: only delivered samples are charged, retries are
  // metered as retries.
  EXPECT_EQ(metered.samples_drawn(), 200000);
  EXPECT_GT(metered.retries(), 0);
  EXPECT_GT(faulty.faults_injected(), 0);
}

TEST(FaultInjectionTest, CountKernelRetriesNeverDoubleCount) {
  // Under kCounts a block reaches the sink as runs, after the fault check:
  // a faulted block feeds nothing, so the retried set is the fault-free set
  // run for run.
  const Distribution d = TestDist();
  const AliasSampler inner(d, AliasKernel::kCounts);
  FaultSchedule schedule;
  schedule.seed = 8;
  schedule.transient_rate = 0.3;
  schedule.short_batch_rate = 0.2;
  const FaultInjectingSampler faulty(inner, schedule);

  RunPolicy policy;
  policy.retry.max_retries = 64;
  policy.retry.initial_backoff_ms = 0;
  policy.retry.max_backoff_ms = 0;
  const BudgetedSampler metered(faulty, BudgetedSampler::kUnlimited, &policy);
  const BudgetedSampler clean(inner, BudgetedSampler::kUnlimited, &policy);

  const int64_t m = 5 * Sampler::kShardChunk + 777;
  for (const int threads : {0, 2}) {
    Rng rng_faulty(13), rng_clean(13);
    const SampleSet got = SampleSet::Draw(metered, m, rng_faulty, threads);
    const SampleSet want = SampleSet::Draw(clean, m, rng_clean, threads);
    EXPECT_EQ(got.m(), m);
    EXPECT_EQ(got.distinct_values(), want.distinct_values());
    for (int64_t v = 0; v < d.n(); ++v) {
      EXPECT_EQ(got.Count(Interval(v, v)), want.Count(Interval(v, v))) << v;
    }
  }
  EXPECT_EQ(metered.samples_drawn(), 2 * m);
  EXPECT_GT(metered.retries(), 0);
  EXPECT_GT(faulty.transient_faults(), 0);
}

TEST(FaultInjectionTest, ExhaustedRetriesSurfaceTheTransientError) {
  const Distribution d = TestDist();
  const AliasSampler inner(d);
  FaultSchedule schedule;
  schedule.seed = 1;
  schedule.transient_rate = 1.0;
  const FaultInjectingSampler faulty(inner, schedule);

  RunPolicy policy;
  policy.retry.max_retries = 3;
  policy.retry.initial_backoff_ms = 0;
  policy.retry.max_backoff_ms = 0;
  const BudgetedSampler metered(faulty, /*budget=*/1000, &policy);

  Rng rng(13);
  EXPECT_THROW((void)metered.DrawMany(100, rng), TransientUnavailableError);
  // 1 initial attempt + 3 retries, all faulted; nothing was ever served.
  EXPECT_EQ(metered.retries(), 3);
  EXPECT_EQ(faulty.transient_faults(), 4);
  EXPECT_EQ(metered.samples_drawn(), 0);
}

}  // namespace
}  // namespace histk
