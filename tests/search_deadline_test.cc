// Deadlines bound the greedy search, not only the draws. At n=4096, k=16,
// eps 0.3, scale 0.25 the draws take about 6 ms and the candidate search
// about 70 ms (Release, shared 4-vCPU VM), so a 20 ms deadline can only be
// met if the search itself polls the session's deadline (once per
// candidate-table row). Each learn-family task must end deadline-exceeded
// and degraded within 40 ms, twice the deadline.
#include <cstdint>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "dist/generators.h"
#include "dist/sampler.h"
#include "engine/engine.h"
#include "engine/runtime.h"
#include "util/rng.h"

namespace histk {
namespace {

constexpr int64_t kN = 4096;
constexpr int64_t kK = 16;
constexpr double kEps = 0.3;
constexpr double kScale = 0.25;
constexpr int64_t kDeadlineMs = 20;
constexpr double kMaxWallMs = 40.0;

Distribution Truth(uint64_t seed) {
  Rng rng(seed);
  return MakeRandomKHistogram(kN, kK, rng, 20.0).dist;
}

void ExpectDeadlineExceeded(const Result<Report>& run) {
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const Report& report = *run;
  EXPECT_EQ(report.outcome, TaskOutcome::kDeadlineExceeded);
  EXPECT_EQ(report.status, StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(report.degraded);
  EXPECT_LE(report.telemetry.wall_ms, kMaxWallMs);
  std::string json;
  AppendReportJson(json, report);
  EXPECT_NE(json.find("\"status\": \"deadline-exceeded\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"degraded\": true"), std::string::npos);
}

TEST(SearchDeadlineTest, LearnStopsInsideTheGreedySearch) {
  const Distribution truth = Truth(1);
  const AliasSampler oracle(truth, AliasKernel::kCounts);
  const Engine engine(oracle);
  LearnSpec spec;
  spec.seed = 7;
  spec.options.k = kK;
  spec.options.eps = kEps;
  spec.options.sample_scale = kScale;
  spec.policy.deadline = Deadline::AfterMillis(kDeadlineMs);
  const Result<Report> run = engine.Run(spec);
  ExpectDeadlineExceeded(run);
  // The main sample completed, so the degraded report carries the
  // best-so-far tiling.
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->reduced.has_value());
  EXPECT_FALSE(run->learn.has_value());
}

TEST(SearchDeadlineTest, PropertyTestStopsInsideTheGreedySearch) {
  const Distribution truth = Truth(2);
  const AliasSampler oracle(truth, AliasKernel::kCounts);
  const Engine engine(oracle);
  PropertyTestSpec spec;
  spec.seed = 8;
  spec.config.k = kK;
  spec.config.eps = kEps;
  spec.config.sample_scale = kScale;
  spec.policy.deadline = Deadline::AfterMillis(kDeadlineMs);
  ExpectDeadlineExceeded(engine.Run(spec));
}

TEST(SearchDeadlineTest, ClosenessStopsInsideTheGreedySearch) {
  const Distribution p = Truth(3);
  const Distribution q = Truth(4);
  const AliasSampler oracle_p(p, AliasKernel::kCounts);
  const AliasSampler oracle_q(q, AliasKernel::kCounts);
  const Engine engine(oracle_p);
  ClosenessSpec spec;
  spec.seed = 9;
  spec.config.k_p = kK;
  spec.config.k_q = kK;
  spec.config.eps = kEps;
  spec.config.sample_scale = kScale;
  spec.other = &oracle_q;
  spec.policy.deadline = Deadline::AfterMillis(kDeadlineMs);
  ExpectDeadlineExceeded(engine.Run(spec));
}

TEST(SearchDeadlineTest, CancelStopsTheGreedySearch) {
  const Distribution truth = Truth(5);
  const AliasSampler oracle(truth, AliasKernel::kCounts);
  const Engine engine(oracle);
  LearnSpec spec;
  spec.seed = 10;
  spec.options.k = kK;
  spec.options.eps = kEps;
  spec.options.sample_scale = kScale;
  spec.policy.cancel = CancelToken::Create();
  // Cancel from a controller thread once the draws (a few ms) are long
  // done: only the search's own poll can observe it.
  std::thread controller([token = spec.policy.cancel] {
    SleepMs(kDeadlineMs);
    token.Cancel();
  });
  const Result<Report> run = engine.Run(spec);
  controller.join();
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->outcome, TaskOutcome::kCancelled);
  EXPECT_TRUE(run->degraded);
  EXPECT_LE(run->telemetry.wall_ms, kMaxWallMs);
}

}  // namespace
}  // namespace histk
