// BudgetedSampler semantics: metering, phase attribution, all-or-nothing
// admission against the cap, and stream parity with the wrapped sampler on
// every draw path (single / batched / sharded at any thread count) — plus
// the engine-level budget-exhaustion contract (partial telemetry, never an
// abort) for the property-test and closeness tasks.
#include "engine/budget.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "dist/distribution.h"
#include "dist/generators.h"
#include "dist/sampler.h"
#include "engine/engine.h"
#include "engine/runtime.h"
#include "sample/sample_set.h"
#include "util/interval.h"
#include "util/rng.h"

namespace histk {
namespace {

Distribution TestDist() {
  Rng rng(404);
  return MakeRandomKHistogram(/*n=*/64, /*k=*/4, rng, 10.0).dist;
}

TEST(BudgetedSamplerTest, MetersAllDrawPaths) {
  const Distribution d = TestDist();
  const AliasSampler inner(d);
  const BudgetedSampler bs(inner);

  Rng rng(1);
  EXPECT_EQ(bs.samples_drawn(), 0);
  bs.Draw(rng);
  EXPECT_EQ(bs.samples_drawn(), 1);
  bs.DrawMany(100, rng);
  EXPECT_EQ(bs.samples_drawn(), 101);
  bs.DrawManySharded(50, rng, 2);
  EXPECT_EQ(bs.samples_drawn(), 151);
  EXPECT_TRUE(bs.unlimited());
}

TEST(BudgetedSamplerTest, AttributesDrawsToPhases) {
  const Distribution d = TestDist();
  const AliasSampler inner(d);
  const BudgetedSampler bs(inner);

  Rng rng(1);
  bs.Draw(rng);  // before any phase: implicit "oracle"
  bs.BeginPhase("main");
  bs.DrawMany(10, rng);
  bs.BeginPhase("collisions");
  bs.DrawMany(20, rng);
  bs.DrawMany(5, rng);
  bs.BeginPhase("empty");

  ASSERT_EQ(bs.phases().size(), 4u);
  EXPECT_EQ(bs.phases()[0].phase, "oracle");
  EXPECT_EQ(bs.phases()[0].samples, 1);
  EXPECT_EQ(bs.phases()[1].phase, "main");
  EXPECT_EQ(bs.phases()[1].samples, 10);
  EXPECT_EQ(bs.phases()[2].phase, "collisions");
  EXPECT_EQ(bs.phases()[2].samples, 25);
  EXPECT_EQ(bs.phases()[3].phase, "empty");
  EXPECT_EQ(bs.phases()[3].samples, 0);
}

TEST(BudgetedSamplerTest, RejectsRequestsBeyondBudgetWholesale) {
  const Distribution d = TestDist();
  const AliasSampler inner(d);
  const BudgetedSampler bs(inner, /*budget=*/50);

  Rng rng(1);
  bs.DrawMany(40, rng);
  EXPECT_EQ(bs.remaining(), 10);
  // A request that does not fit is rejected whole: nothing is drawn, the
  // meter does not move, and the error names the numbers.
  try {
    bs.DrawMany(11, rng);
    FAIL() << "expected BudgetExhaustedError";
  } catch (const BudgetExhaustedError& e) {
    EXPECT_EQ(e.requested(), 11);
    EXPECT_EQ(e.drawn(), 40);
    EXPECT_EQ(e.budget(), 50);
  }
  EXPECT_EQ(bs.samples_drawn(), 40);
  // What still fits is still admitted.
  bs.DrawMany(10, rng);
  EXPECT_EQ(bs.samples_drawn(), 50);
  EXPECT_THROW(bs.Draw(rng), BudgetExhaustedError);
  EXPECT_EQ(bs.samples_drawn(), 50);
}

TEST(BudgetedSamplerTest, ZeroBudgetRejectsFirstDraw) {
  const Distribution d = TestDist();
  const AliasSampler inner(d);
  const BudgetedSampler bs(inner, /*budget=*/0);
  Rng rng(1);
  EXPECT_THROW(bs.Draw(rng), BudgetExhaustedError);
  EXPECT_EQ(bs.samples_drawn(), 0);
}

TEST(BudgetedSamplerTest, ShardedRequestBeyondBudgetDrawsNothing) {
  const Distribution d = TestDist();
  const AliasSampler inner(d);
  const BudgetedSampler bs(inner, /*budget=*/100);
  Rng rng(1);
  EXPECT_THROW(bs.DrawManySharded(101, rng, 4), BudgetExhaustedError);
  EXPECT_EQ(bs.samples_drawn(), 0);
}

TEST(BudgetedSamplerTest, ForwardsStreamsByteIdentically) {
  const Distribution d = TestDist();
  const AliasSampler inner(d);
  const BudgetedSampler bs(inner, /*budget=*/100000);

  Rng rng_inner(42);
  Rng rng_budgeted(42);
  EXPECT_EQ(inner.DrawMany(1000, rng_inner), bs.DrawMany(1000, rng_budgeted));
  EXPECT_EQ(inner.Draw(rng_inner), bs.Draw(rng_budgeted));
  EXPECT_EQ(inner.DrawManySharded(5000, rng_inner, 2),
            bs.DrawManySharded(5000, rng_budgeted, 2));
}

TEST(BudgetedSamplerTest, MetersFusedCountPaths) {
  const Distribution d = TestDist();
  const AliasSampler inner(d);
  const BudgetedSampler bs(inner);

  // A sink that records how many draws actually happened.
  struct TallySink : CountSink {
    int64_t seen = 0;
    void Consume(const int64_t*, int64_t len, int64_t) override { seen += len; }
  };

  Rng rng(1);
  TallySink sink;
  bs.DrawCounts(200, rng, sink);
  EXPECT_EQ(bs.samples_drawn(), 200);
  EXPECT_EQ(sink.seen, 200);
  bs.DrawCounts(300, rng, sink, 2);
  EXPECT_EQ(bs.samples_drawn(), 500);
  EXPECT_EQ(sink.seen, 500);
  // DrawManyInto is itself a metered entry point.
  std::vector<int64_t> buf(25);
  bs.DrawManyInto(buf.data(), 25, rng);
  EXPECT_EQ(bs.samples_drawn(), 525);
}

TEST(BudgetedSamplerTest, FusedRequestBeyondBudgetDrawsNothing) {
  const Distribution d = TestDist();
  const AliasSampler inner(d);
  // Request spans several chunks: the base implementation would admit the
  // first chunks before failing; the decorator must reject the batch whole
  // before a single draw reaches the sink.
  const BudgetedSampler bs(inner, /*budget=*/100000);
  struct TallySink : CountSink {
    int64_t seen = 0;
    void Consume(const int64_t*, int64_t len, int64_t) override { seen += len; }
  };
  Rng rng(1);
  TallySink sink;
  EXPECT_THROW(bs.DrawCounts(3 * Sampler::kShardChunk, rng, sink),
               BudgetExhaustedError);
  EXPECT_THROW(bs.DrawCounts(3 * Sampler::kShardChunk, rng, sink, 4),
               BudgetExhaustedError);
  EXPECT_EQ(sink.seen, 0);
  EXPECT_EQ(bs.samples_drawn(), 0);
}

TEST(BudgetedSamplerTest, MetersSimdFusedCountPaths) {
  // The decorator meters by overriding DrawManyInto and DrawCounts, so the
  // kSimd kernel rides the same accounting: every
  // fused draw is counted, over-budget fused requests are rejected whole,
  // and the sharded path stays thread-count invariant.
  const Distribution d = TestDist();
  const AliasSampler inner(d, AliasKernel::kSimd);
  struct TallySink : CountSink {
    int64_t seen = 0;
    void Consume(const int64_t*, int64_t len, int64_t) override { seen += len; }
  };

  {
    const BudgetedSampler bs(inner);
    Rng rng(1);
    TallySink sink;
    bs.DrawCounts(200, rng, sink);
    EXPECT_EQ(bs.samples_drawn(), 200);
    EXPECT_EQ(sink.seen, 200);
    bs.DrawCounts(300, rng, sink, 2);
    EXPECT_EQ(bs.samples_drawn(), 500);
    EXPECT_EQ(sink.seen, 500);
  }
  {
    const BudgetedSampler bs(inner, /*budget=*/100000);
    Rng rng(1);
    TallySink sink;
    EXPECT_THROW(bs.DrawCounts(3 * Sampler::kShardChunk, rng, sink),
                 BudgetExhaustedError);
    EXPECT_THROW(bs.DrawCounts(3 * Sampler::kShardChunk, rng, sink, 4),
                 BudgetExhaustedError);
    EXPECT_EQ(sink.seen, 0);
    EXPECT_EQ(bs.samples_drawn(), 0);
  }
  {
    const BudgetedSampler bs(inner, /*budget=*/1000000);
    const int64_t m = 3 * Sampler::kShardChunk + 17;
    Rng rng1(7), rng2(7), rng8(7);
    const auto draws1 = bs.DrawManySharded(m, rng1, 1);
    EXPECT_EQ(draws1, bs.DrawManySharded(m, rng2, 2));
    EXPECT_EQ(draws1, bs.DrawManySharded(m, rng8, 8));
    EXPECT_EQ(bs.samples_drawn(), 3 * m);
  }
}

TEST(BudgetExhaustionTest, PropertyTestPartialTelemetryAtEveryPhase) {
  Rng gen(2024);
  const Distribution d = MakeRandomKHistogram(/*n=*/128, /*k=*/3, gen, 10.0).dist;
  const AliasSampler sampler(d);
  const Engine engine(sampler);

  PropertyTestSpec spec;
  spec.seed = 9;
  spec.config.k = 3;
  spec.config.eps = 0.3;
  spec.config.sample_scale = 0.1;
  const Report full = *engine.Run(spec);
  ASSERT_NE(full.outcome, TaskOutcome::kBudgetExhausted);
  ASSERT_EQ(full.telemetry.phases.size(), 3u);
  EXPECT_EQ(full.telemetry.phases[0].phase, "ptest-learn-main");
  EXPECT_EQ(full.telemetry.phases[1].phase, "ptest-learn-collisions");
  EXPECT_EQ(full.telemetry.phases[2].phase, "ptest-verify");
  EXPECT_EQ(full.telemetry.samples_drawn, full.property_test->total_samples);

  // Cut the budget inside each phase in turn; every cut must yield a typed
  // kBudgetExhausted report with samples_drawn <= budget and no payload.
  const int64_t main_samples = full.telemetry.phases[0].samples;
  const int64_t collision_samples = full.telemetry.phases[1].samples;
  for (const int64_t budget :
       {main_samples - 1, main_samples + 1, main_samples + collision_samples + 1}) {
    PropertyTestSpec capped = spec;
    capped.budget = budget;
    const Report partial = *engine.Run(capped);
    EXPECT_EQ(partial.outcome, TaskOutcome::kBudgetExhausted);
    EXPECT_LE(partial.telemetry.samples_drawn, budget);
    EXPECT_FALSE(partial.property_test.has_value());
    EXPECT_FALSE(partial.telemetry.phases.empty());
  }

  // An exact budget changes nothing.
  PropertyTestSpec exact = spec;
  exact.budget = full.telemetry.samples_drawn;
  const Report at_cap = *engine.Run(exact);
  EXPECT_EQ(at_cap.outcome, full.outcome);
  EXPECT_EQ(at_cap.telemetry.samples_drawn, full.telemetry.samples_drawn);
}

TEST(BudgetExhaustionTest, ClosenessMetersBothOraclesAgainstOneBudget) {
  Rng gen(2025);
  const Distribution d = MakeRandomKHistogram(/*n=*/128, /*k=*/3, gen, 10.0).dist;
  const AliasSampler sampler_p(d);
  const AliasSampler sampler_q(d);
  const Engine engine(sampler_p);

  ClosenessSpec spec;
  spec.seed = 11;
  spec.config.k_p = 3;
  spec.config.k_q = 3;
  spec.config.eps = 0.3;
  spec.config.sample_scale = 0.1;
  spec.other = &sampler_q;
  const Report full = *engine.Run(spec);
  ASSERT_NE(full.outcome, TaskOutcome::kBudgetExhausted);
  ASSERT_EQ(full.telemetry.phases.size(), 6u);
  EXPECT_EQ(full.telemetry.phases[0].phase, "close-learn-p-main");
  EXPECT_EQ(full.telemetry.phases[2].phase, "close-verify-p");
  EXPECT_EQ(full.telemetry.phases[3].phase, "close-learn-q-main");
  EXPECT_EQ(full.telemetry.phases[5].phase, "close-verify-q");
  int64_t phase_total = 0;
  for (const auto& phase : full.telemetry.phases) phase_total += phase.samples;
  EXPECT_EQ(phase_total, full.telemetry.samples_drawn);
  EXPECT_EQ(full.telemetry.samples_drawn, full.closeness->total_samples);

  // p's draws alone fit, q's do not: the cap must catch the SECOND oracle.
  int64_t p_draws = 0;
  for (size_t i = 0; i < 3; ++i) p_draws += full.telemetry.phases[i].samples;
  ClosenessSpec capped = spec;
  capped.budget = p_draws + 1;
  const Report partial = *engine.Run(capped);
  EXPECT_EQ(partial.outcome, TaskOutcome::kBudgetExhausted);
  EXPECT_LE(partial.telemetry.samples_drawn, capped.budget);
  EXPECT_FALSE(partial.closeness.has_value());
  // All three p phases completed; q's first phase is present (it documents
  // how far the session got).
  ASSERT_GE(partial.telemetry.phases.size(), 4u);
  EXPECT_EQ(partial.telemetry.phases[3].phase, "close-learn-q-main");

  // A cap inside p's own phases still reports cleanly.
  capped.budget = full.telemetry.phases[0].samples / 2;
  const Report tiny = *engine.Run(capped);
  EXPECT_EQ(tiny.outcome, TaskOutcome::kBudgetExhausted);
  EXPECT_LE(tiny.telemetry.samples_drawn, capped.budget);
  EXPECT_FALSE(tiny.closeness.has_value());
}

TEST(BudgetedSamplerTest, ShardedIsThreadCountInvariant) {
  const Distribution d = TestDist();
  const AliasSampler inner(d);
  const BudgetedSampler bs(inner, /*budget=*/1000000);

  // Spans multiple shard chunks so more than one derived stream is in play.
  const int64_t m = 3 * Sampler::kShardChunk + 17;
  Rng rng1(7);
  Rng rng2(7);
  Rng rng4(7);
  const auto draws1 = bs.DrawManySharded(m, rng1, 1);
  const auto draws2 = bs.DrawManySharded(m, rng2, 2);
  const auto draws4 = bs.DrawManySharded(m, rng4, 4);
  EXPECT_EQ(draws1, draws2);
  EXPECT_EQ(draws1, draws4);
  EXPECT_EQ(bs.samples_drawn(), 3 * m);
}

TEST(BudgetedSamplerTest, ArmedSequentialChunkingPreservesTheStream) {
  // An armed policy makes DrawMany serve in kShardChunk slices with a
  // deadline check between them. Chunked sequential draws are
  // stream-identical for every kernel (the simd kernel is block-structured
  // at exactly those boundaries), so arming a session must not change a
  // single byte of its sequential draws.
  const Distribution d = TestDist();
  const AliasSampler inner(d);

  RunPolicy armed;
  armed.deadline = Deadline::AfterMillis(int64_t{1} << 40);
  ASSERT_TRUE(armed.armed());
  const BudgetedSampler hardened(inner, BudgetedSampler::kUnlimited, &armed);
  const BudgetedSampler plain(inner);

  const int64_t m = 2 * Sampler::kShardChunk + 123;
  Rng rng_h(31), rng_p(31);
  EXPECT_EQ(hardened.DrawMany(m, rng_h), plain.DrawMany(m, rng_p));
  EXPECT_EQ(hardened.samples_drawn(), m);
}

TEST(BudgetedSamplerTest, ArmedShardedCountsConsumeIntoTheSinkItself) {
  // An armed session serves a sharded request as one-chunk sub-requests.
  // Each resolves to one worker on the caller's thread, so it consumes into
  // the sink itself: a shard per chunk would be a fresh n-element count
  // state in SampleCounter for every 2^16 draws.
  const Distribution d = TestDist();
  const AliasSampler inner(d);
  RunPolicy armed;
  armed.deadline = Deadline::AfterMillis(int64_t{1} << 40);
  const BudgetedSampler bs(inner, BudgetedSampler::kUnlimited, &armed);

  struct ShardCountingSink : CountSink {
    int64_t seen = 0;
    int64_t acquired = 0;
    std::vector<int64_t> offsets;
    void Consume(const int64_t*, int64_t len, int64_t offset) override {
      seen += len;
      offsets.push_back(offset);
    }
    CountSink& AcquireShard() override {
      ++acquired;
      return *this;
    }
  };
  const int threads = 2;
  Rng rng(37);
  ShardCountingSink sink;
  bs.DrawCounts(3 * Sampler::kShardChunk, rng, sink, threads);
  EXPECT_LE(sink.acquired, threads);
  EXPECT_EQ(sink.seen, 3 * Sampler::kShardChunk);
  EXPECT_EQ(sink.offsets, (std::vector<int64_t>{0, Sampler::kShardChunk,
                                                2 * Sampler::kShardChunk}));
  EXPECT_EQ(bs.samples_drawn(), 3 * Sampler::kShardChunk);

  // Materialized, the armed stream is its one-chunk sharded requests laid
  // end to end.
  const int64_t m = 2 * Sampler::kShardChunk + 99;
  Rng rng_armed(38), rng_chunks(38);
  std::vector<int64_t> chunks;
  for (int64_t done = 0; done < m; done += Sampler::kShardChunk) {
    const std::vector<int64_t> part = inner.DrawManySharded(
        std::min(Sampler::kShardChunk, m - done), rng_chunks, 1);
    chunks.insert(chunks.end(), part.begin(), part.end());
  }
  EXPECT_EQ(bs.DrawManySharded(m, rng_armed, threads), chunks);
}

TEST(BudgetedSamplerTest, InertPolicyIsByteIdenticalToNoPolicy) {
  const Distribution d = TestDist();
  const AliasSampler inner(d);

  const RunPolicy inert;  // default: no deadline, inert token, no retries
  const BudgetedSampler with_policy(inner, 1 << 20, &inert);
  const BudgetedSampler without(inner, 1 << 20);

  Rng rng_a(32), rng_b(32);
  EXPECT_EQ(with_policy.DrawMany(5000, rng_a), without.DrawMany(5000, rng_b));
  Rng rng_c(33), rng_d(33);
  EXPECT_EQ(with_policy.DrawManySharded(70000, rng_c, 4),
            without.DrawManySharded(70000, rng_d, 4));
}

TEST(BudgetedSamplerTest, HardenedPathsHandleEmptyRequests) {
  const Distribution d = TestDist();
  const AliasSampler inner(d);
  RunPolicy armed;
  armed.deadline = Deadline::AfterMillis(int64_t{1} << 40);
  const BudgetedSampler bs(inner, 100, &armed);

  Rng rng(34);
  EXPECT_TRUE(bs.DrawMany(0, rng).empty());
  EXPECT_TRUE(bs.DrawManySharded(0, rng, 2).empty());
  EXPECT_EQ(bs.samples_drawn(), 0);
}

TEST(BudgetedSamplerTest, ExpiredDeadlineStopsAtAMeteringPoint) {
  const Distribution d = TestDist();
  const AliasSampler inner(d);
  RunPolicy armed;
  armed.deadline = Deadline::AfterMillis(0);  // already expired
  const BudgetedSampler bs(inner, BudgetedSampler::kUnlimited, &armed);

  Rng rng(35);
  EXPECT_THROW((void)bs.DrawMany(10, rng), DeadlineExceededError);
  EXPECT_EQ(bs.samples_drawn(), 0);  // nothing charged past the deadline
}

TEST(BudgetedSamplerTest, CancelTokenStopsAtAMeteringPoint) {
  const Distribution d = TestDist();
  const AliasSampler inner(d);
  RunPolicy policy;
  policy.cancel = CancelToken::Create();
  const BudgetedSampler bs(inner, BudgetedSampler::kUnlimited, &policy);

  Rng rng(36);
  EXPECT_EQ(bs.DrawMany(100, rng).size(), 100u);  // live but not cancelled
  policy.cancel.Cancel();
  EXPECT_THROW((void)bs.DrawMany(100, rng), CancelledError);
  EXPECT_EQ(bs.samples_drawn(), 100);
}

// ------------------------------------------------------------ kCounts
//
// The count kernel draws each block's count vector instead of its draws;
// the meter's contracts must not notice.

/// Per-element counts of a dense-domain set.
std::vector<int64_t> CountVector(const SampleSet& s) {
  std::vector<int64_t> counts(static_cast<size_t>(s.n()));
  for (int64_t v = 0; v < s.n(); ++v) {
    counts[static_cast<size_t>(v)] = s.Count(Interval(v, v));
  }
  return counts;
}

TEST(CountKernelBudgetTest, SamplesDrawnMatchReplayForTheSameSpec) {
  Rng gen(2024);
  const Distribution d = MakeRandomKHistogram(/*n=*/128, /*k=*/3, gen, 10.0).dist;
  const AliasSampler replay(d);
  const AliasSampler counts(d, AliasKernel::kCounts);
  auto expect_same_meter = [](const Report& a, const Report& b) {
    EXPECT_EQ(a.telemetry.samples_drawn, b.telemetry.samples_drawn);
    ASSERT_EQ(a.telemetry.phases.size(), b.telemetry.phases.size());
    for (size_t i = 0; i < a.telemetry.phases.size(); ++i) {
      EXPECT_EQ(a.telemetry.phases[i].phase, b.telemetry.phases[i].phase);
      EXPECT_EQ(a.telemetry.phases[i].samples, b.telemetry.phases[i].samples);
    }
  };
  LearnSpec learn;
  learn.seed = 5;
  learn.options.k = 3;
  learn.options.eps = 0.3;
  learn.options.sample_scale = 0.2;
  expect_same_meter(*Engine(replay).Run(learn), *Engine(counts).Run(learn));
  TestSpec test;
  test.seed = 6;
  test.config.k = 3;
  test.config.eps = 0.3;
  test.config.sample_scale = 0.2;
  test.config.r_override = 9;
  expect_same_meter(*Engine(replay).Run(test), *Engine(counts).Run(test));
  PropertyTestSpec ptest;
  ptest.seed = 9;
  ptest.config.k = 3;
  ptest.config.eps = 0.3;
  ptest.config.sample_scale = 0.1;
  ptest.draw_threads = 2;
  expect_same_meter(*Engine(replay).Run(ptest), *Engine(counts).Run(ptest));
}

TEST(CountKernelBudgetTest, ExactBudgetAndExhaustionNeverAbort) {
  Rng gen(2024);
  const Distribution d = MakeRandomKHistogram(/*n=*/128, /*k=*/3, gen, 10.0).dist;
  const AliasSampler sampler(d, AliasKernel::kCounts);
  const Engine engine(sampler);
  PropertyTestSpec spec;
  spec.seed = 9;
  spec.config.k = 3;
  spec.config.eps = 0.3;
  spec.config.sample_scale = 0.1;
  const Report full = *engine.Run(spec);
  ASSERT_NE(full.outcome, TaskOutcome::kBudgetExhausted);

  PropertyTestSpec exact = spec;
  exact.budget = full.telemetry.samples_drawn;
  const Report at_cap = *engine.Run(exact);
  EXPECT_EQ(at_cap.outcome, full.outcome);
  EXPECT_EQ(at_cap.telemetry.samples_drawn, full.telemetry.samples_drawn);

  for (const int64_t budget :
       {int64_t{0}, full.telemetry.phases[0].samples - 1,
        full.telemetry.samples_drawn - 1}) {
    PropertyTestSpec capped = spec;
    capped.budget = budget;
    const Report partial = *engine.Run(capped);
    EXPECT_EQ(partial.outcome, TaskOutcome::kBudgetExhausted) << budget;
    EXPECT_LE(partial.telemetry.samples_drawn, budget);
    EXPECT_FALSE(partial.property_test.has_value());
  }
}

TEST(CountKernelBudgetTest, ArmedSequentialCountsEqualUnarmed) {
  const Distribution d = TestDist();
  const AliasSampler inner(d, AliasKernel::kCounts);
  RunPolicy armed;
  armed.deadline = Deadline::AfterMillis(int64_t{1} << 40);
  const BudgetedSampler hardened(inner, BudgetedSampler::kUnlimited, &armed);
  const BudgetedSampler plain(inner);

  const int64_t m = 3 * Sampler::kShardChunk + 123;
  Rng rng_h(31), rng_p(31);
  const SampleSet a = SampleSet::Draw(hardened, m, rng_h);
  const SampleSet b = SampleSet::Draw(plain, m, rng_p);
  EXPECT_EQ(a.m(), m);
  EXPECT_EQ(CountVector(a), CountVector(b));
  EXPECT_EQ(rng_h.NextU64(), rng_p.NextU64());
  EXPECT_EQ(hardened.samples_drawn(), m);
  EXPECT_EQ(plain.samples_drawn(), m);
}

TEST(CountKernelBudgetTest, ShardedCountsIdenticalAtOneTwoThreeThreads) {
  const Distribution d = TestDist();
  const AliasSampler inner(d, AliasKernel::kCounts);
  RunPolicy armed;
  armed.deadline = Deadline::AfterMillis(int64_t{1} << 40);
  const int64_t m = 3 * Sampler::kShardChunk + 17;
  for (const RunPolicy* policy : {static_cast<const RunPolicy*>(nullptr),
                                  static_cast<const RunPolicy*>(&armed)}) {
    const BudgetedSampler bs(inner, BudgetedSampler::kUnlimited, policy);
    Rng rng1(7);
    const std::vector<int64_t> one = CountVector(SampleSet::Draw(bs, m, rng1, 1));
    for (const int threads : {2, 3}) {
      Rng rng(7);
      EXPECT_EQ(CountVector(SampleSet::Draw(bs, m, rng, threads)), one)
          << "armed=" << (policy != nullptr) << " threads=" << threads;
    }
    EXPECT_EQ(bs.samples_drawn(), 3 * m);
  }
}

}  // namespace
}  // namespace histk
