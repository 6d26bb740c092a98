// The resilient-session runtime (engine/runtime.h) and its integration
// with Engine::Run: deadlines, cancellation, retry backoff, admission
// control, and graceful degradation of interrupted sessions.
#include "engine/runtime.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/fault_injection.h"
#include "dist/generators.h"
#include "dist/sampler.h"
#include "util/rng.h"
#include "util/status.h"

namespace histk {
namespace {

// ------------------------------------------------- Deadline

TEST(DeadlineTest, DefaultIsUnsetAndNeverExpires) {
  const Deadline d;
  EXPECT_FALSE(d.set());
  EXPECT_FALSE(d.Expired());
  EXPECT_EQ(d.RemainingMillis(), INT64_MAX);
}

TEST(DeadlineTest, NonPositiveBudgetIsAlreadyExpired) {
  EXPECT_TRUE(Deadline::AfterMillis(0).Expired());
  EXPECT_TRUE(Deadline::AfterMillis(-5).Expired());
  EXPECT_LE(Deadline::AfterMillis(0).RemainingMillis(), 0);
}

TEST(DeadlineTest, FutureDeadlineCountsDown) {
  const Deadline d = Deadline::AfterMillis(int64_t{1} << 40);
  EXPECT_TRUE(d.set());
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.RemainingMillis(), int64_t{1} << 39);
}

TEST(DeadlineTest, ExpiresAfterItsBudgetElapses) {
  const Deadline d = Deadline::AfterMillis(1);
  SleepMs(5);
  EXPECT_TRUE(d.Expired());
  EXPECT_LT(d.RemainingMillis(), 0);
}

// ------------------------------------------------- CancelToken

TEST(CancelTokenTest, InertTokenNeverCancels) {
  const CancelToken t;
  EXPECT_FALSE(t.live());
  EXPECT_FALSE(t.cancelled());
  t.Cancel();  // no-op on an inert token
  EXPECT_FALSE(t.cancelled());
}

TEST(CancelTokenTest, CopiesShareTheFlag) {
  const CancelToken t = CancelToken::Create();
  EXPECT_TRUE(t.live());
  EXPECT_FALSE(t.cancelled());
  const CancelToken copy = t;  // the controller's handle
  copy.Cancel();
  EXPECT_TRUE(t.cancelled());
}

// ------------------------------------------------- RetryPolicy

TEST(RetryPolicyTest, BackoffDoublesUpToTheCapWithoutJitter) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 2;
  policy.max_backoff_ms = 16;
  policy.jitter = 0.0;
  Rng rng(1);
  EXPECT_EQ(policy.BackoffMillis(1, rng), 2);
  EXPECT_EQ(policy.BackoffMillis(2, rng), 4);
  EXPECT_EQ(policy.BackoffMillis(3, rng), 8);
  EXPECT_EQ(policy.BackoffMillis(4, rng), 16);
  EXPECT_EQ(policy.BackoffMillis(5, rng), 16);   // capped
  EXPECT_EQ(policy.BackoffMillis(40, rng), 16);  // shift saturates safely
}

TEST(RetryPolicyTest, JitterIsBoundedAndDeterministic) {
  const RetryPolicy policy;  // initial 1ms, cap 64ms, jitter 0.5
  Rng a(7), b(7);
  for (int attempt = 1; attempt <= 10; ++attempt) {
    const int64_t base = std::min<int64_t>(int64_t{1} << (attempt - 1), 64);
    const int64_t ms = policy.BackoffMillis(attempt, a);
    EXPECT_GE(ms, base);
    EXPECT_LE(ms, base + base / 2 + 1);
    // Same rng seed, same schedule: the session's backoff replays exactly.
    EXPECT_EQ(ms, policy.BackoffMillis(attempt, b));
  }
}

// ------------------------------------------------- SessionGovernor

TEST(SessionGovernorTest, EnforcesTheSessionCap) {
  SessionGovernor governor({/*max_sessions=*/2, -1, 10});
  Result<SessionGovernor::Permit> a = governor.Admit(100);
  Result<SessionGovernor::Permit> b = governor.Admit(100);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(governor.in_flight(), 2);

  const Result<SessionGovernor::Permit> c = governor.Admit(100);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(c.status().message().find("retry after 10 ms"), std::string::npos);
  EXPECT_EQ(governor.rejected(), 1);

  a->Release();  // frees a slot; the next admit succeeds
  EXPECT_EQ(governor.in_flight(), 1);
  EXPECT_TRUE(governor.Admit(100).ok());
}

TEST(SessionGovernorTest, EnforcesTheAggregateBudgetCap) {
  SessionGovernor governor({/*max_sessions=*/8, /*max_outstanding_budget=*/100, 10});
  const Result<SessionGovernor::Permit> a = governor.Admit(60);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(governor.outstanding_budget(), 60);

  const Result<SessionGovernor::Permit> b = governor.Admit(60);  // 120 > 100
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kUnavailable);

  // Unlimited-budget sessions cannot be budget-accounted: they consume a
  // session slot but charge nothing against the aggregate cap.
  const Result<SessionGovernor::Permit> u = governor.Admit(-1);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(governor.outstanding_budget(), 60);
  EXPECT_TRUE(governor.Admit(40).ok());
}

TEST(SessionGovernorTest, PermitsReleaseOnDestructionAndSurviveMoves) {
  SessionGovernor governor({1, -1, 10});
  {
    Result<SessionGovernor::Permit> p = governor.Admit(10);
    ASSERT_TRUE(p.ok());
    SessionGovernor::Permit moved = std::move(*p);
    EXPECT_TRUE(moved.active());
    EXPECT_FALSE(p->active());  // moved-from permit must not double-release
    EXPECT_EQ(governor.in_flight(), 1);
  }
  EXPECT_EQ(governor.in_flight(), 0);
  EXPECT_EQ(governor.outstanding_budget(), 0);
}

// ------------------------------------------------- Engine integration

Distribution TestDist() { return MakeZipf(512, 1.1); }

TestSpec SmallTest() {
  TestSpec spec;
  spec.seed = 11;
  spec.config.k = 4;
  spec.config.eps = 0.3;
  spec.config.sample_scale = 0.05;  // keep sessions fast; scale is replayed
  spec.config.r_override = 9;       // like the parity tests: few iterations
  return spec;
}

TEST(ResilientSessionTest, CancelledSessionDegradesToInconclusive) {
  const Distribution d = TestDist();
  const AliasSampler oracle(d);
  const Engine engine(oracle);

  TestSpec spec = SmallTest();
  spec.policy.cancel = CancelToken::Create();
  spec.policy.cancel.Cancel();  // cancelled before the first draw

  const Result<Report> result = engine.Run(spec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, TaskOutcome::kCancelled);
  EXPECT_EQ(result->status, StatusCode::kCancelled);
  EXPECT_TRUE(result->degraded);
  EXPECT_FALSE(result->test.has_value());  // inconclusive, not a verdict
  EXPECT_EQ(result->telemetry.samples_drawn, 0);
}

TEST(ResilientSessionTest, ExpiredDeadlineDegradesBeforeDrawing) {
  const Distribution d = TestDist();
  const AliasSampler oracle(d);
  const Engine engine(oracle);

  LearnSpec spec;
  spec.seed = 11;
  spec.options.k = 4;
  spec.options.eps = 0.3;
  spec.options.sample_scale = 0.05;
  spec.policy.deadline = Deadline::AfterMillis(0);

  const Result<Report> result = engine.Run(spec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, TaskOutcome::kDeadlineExceeded);
  EXPECT_EQ(result->status, StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(result->degraded);
  EXPECT_FALSE(result->learn.has_value());
  EXPECT_EQ(result->telemetry.samples_drawn, 0);
}

TEST(ResilientSessionTest, UnavailableLearnReturnsBestSoFarTiling) {
  const Distribution d = TestDist();
  const AliasSampler inner(d);
  // High fault rate, no retries: the session dies partway through the
  // collision phase — after the main sample completed (the schedule's first
  // fault lands later than the handful of main-draw chunks).
  FaultSchedule schedule;
  schedule.seed = 5;
  schedule.transient_rate = 0.3;
  const FaultInjectingSampler oracle(inner, schedule);
  const Engine engine(oracle);

  LearnSpec spec;
  spec.seed = 11;
  spec.options.k = 4;
  spec.options.eps = 0.3;
  spec.options.sample_scale = 0.05;
  // Arm the session (far-future deadline) so best-so-far progress is kept.
  spec.policy.deadline = Deadline::AfterMillis(int64_t{1} << 40);

  const Result<Report> result = engine.Run(spec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, TaskOutcome::kUnavailable);
  EXPECT_EQ(result->status, StatusCode::kUnavailable);
  EXPECT_TRUE(result->degraded);
  EXPECT_FALSE(result->learn.has_value());
  // Graceful degradation: the completed main sample still yields a k-piece
  // equi-depth tiling.
  ASSERT_TRUE(result->reduced.has_value());
  EXPECT_EQ(result->reduced->k(), 4);
}

TEST(ResilientSessionTest, RetriesRecoverAndAreCounted) {
  const Distribution d = TestDist();
  const AliasSampler inner(d);
  const FaultInjectingSampler oracle(inner, FaultSchedule::FromSeed(42));
  const Engine engine(oracle);

  TestSpec spec = SmallTest();
  spec.policy.retry.max_retries = 16;
  spec.policy.retry.initial_backoff_ms = 0;  // keep the test fast
  spec.policy.retry.max_backoff_ms = 0;

  const Result<Report> result = engine.Run(spec);
  ASSERT_TRUE(result.ok());
  // A recovered session completes with a real verdict (accepted or
  // rejected), mapped to status ok — the faults left no degradation.
  EXPECT_EQ(result->status, StatusCode::kOk);
  EXPECT_FALSE(result->degraded);
  ASSERT_TRUE(result->test.has_value());
  EXPECT_GT(result->retries, 0);
  EXPECT_GT(oracle.faults_injected(), 0);
}

TEST(ResilientSessionTest, GovernorRejectionSurfacesAsUnavailableStatus) {
  const Distribution d = TestDist();
  const AliasSampler oracle(d);
  const Engine engine(oracle);

  SessionGovernor governor({/*max_sessions=*/1, -1, 10});
  Result<SessionGovernor::Permit> held = governor.Admit(-1);
  ASSERT_TRUE(held.ok());

  TestSpec spec = SmallTest();
  spec.policy.governor = &governor;
  const Result<Report> rejected = engine.Run(spec);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);

  held->Release();
  const Result<Report> admitted = engine.Run(spec);
  ASSERT_TRUE(admitted.ok());
  EXPECT_EQ(admitted->status, StatusCode::kOk);
  EXPECT_FALSE(admitted->degraded);
  EXPECT_EQ(governor.in_flight(), 0);  // the run's permit released itself
}

// Serializes a report with wall time zeroed: wall_ms is the one honest
// nondeterminism in a report, so byte-identity claims compare modulo it.
std::string CanonicalJson(const Report& report) {
  Report copy = report;
  copy.telemetry.wall_ms = 0.0;
  std::string out;
  AppendReportJson(out, copy);
  return out;
}

TEST(ResilientSessionTest, DegradedReportsAreIdenticalAtAnyThreadCount) {
  const Distribution d = TestDist();

  std::vector<std::string> reports;
  for (const int threads : {1, 2, 8}) {
    const AliasSampler inner(d);
    const FaultInjectingSampler oracle(inner, FaultSchedule::FromSeed(42));
    const Engine engine(oracle);

    LearnSpec spec;
    spec.seed = 11;
    spec.options.k = 4;
    spec.options.eps = 0.3;
    spec.options.sample_scale = 0.05;
    spec.draw_threads = threads;
    spec.policy.deadline = Deadline::AfterMillis(int64_t{1} << 40);
    spec.policy.retry.max_retries = 3;
    spec.policy.retry.initial_backoff_ms = 0;
    spec.policy.retry.max_backoff_ms = 0;

    const Result<Report> result = engine.Run(spec);
    ASSERT_TRUE(result.ok());
    reports.push_back(CanonicalJson(*result));
  }
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_EQ(reports[1], reports[2]);
}

TEST(ResilientSessionTest, SameSeedAndScheduleReplayByteForByte) {
  const Distribution d = TestDist();
  std::vector<std::string> runs;
  for (int run = 0; run < 2; ++run) {
    const AliasSampler inner(d);
    const FaultInjectingSampler oracle(inner, FaultSchedule::FromSeed(9));
    const Engine engine(oracle);
    TestSpec spec = SmallTest();
    spec.policy.retry.max_retries = 16;
    spec.policy.retry.initial_backoff_ms = 0;
    spec.policy.retry.max_backoff_ms = 0;
    const Result<Report> result = engine.Run(spec);
    ASSERT_TRUE(result.ok());
    runs.push_back(CanonicalJson(*result));
  }
  EXPECT_EQ(runs[0], runs[1]);
}

TEST(ResilientSessionTest, JsonCarriesStatusDegradedAndRetries) {
  const Distribution d = TestDist();
  const AliasSampler oracle(d);
  const Engine engine(oracle);
  TestSpec spec = SmallTest();
  spec.policy.cancel = CancelToken::Create();
  spec.policy.cancel.Cancel();
  const Result<Report> result = engine.Run(spec);
  ASSERT_TRUE(result.ok());
  const std::string json = CanonicalJson(*result);
  EXPECT_NE(json.find("\"outcome\": \"cancelled\""), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"cancelled\""), std::string::npos);
  EXPECT_NE(json.find("\"degraded\": true"), std::string::npos);
  EXPECT_NE(json.find("\"retries\": 0"), std::string::npos);
}

}  // namespace
}  // namespace histk
