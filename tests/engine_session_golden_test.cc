// Engine session corpus: every task kind run through Engine::Run under the
// session shapes the runtime distinguishes — an unlimited budget, a budget
// one draw short of each phase boundary (plain and with an armed policy),
// a pre-cancelled token, a governor with no free slot, sharded draws, and
// invalid specs — with each report's AppendReportJson bytes ("wall_ms"
// zeroed) or error Status compared to tests/data/engine/<kind>.golden.
//
// The oracle p is a fixed random 4-histogram over 256 items drawn by the
// count kernel; closeness's second oracle q is another 4-histogram drawn
// by the per-draw kernel, so both metering paths are pinned. p is also the
// session truth compare and estimate score against.
//
// A missing golden is written from the current build and the case fails,
// so a new kind can never pass silently. Goldens are meant to be captured
// from a build of the parent commit (with this file added) and copied over;
// a refactor of the engine must then pass them unedited.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dist/generators.h"
#include "dist/sampler.h"
#include "engine/engine.h"
#include "engine/runtime.h"
#include "util/rng.h"

namespace histk {
namespace {

Distribution OracleP() {
  Rng rng(251);
  return MakeRandomKHistogram(/*n=*/256, /*k=*/4, rng, 8.0).dist;
}

Distribution OracleQ() {
  Rng rng(252);
  return MakeRandomKHistogram(/*n=*/256, /*k=*/4, rng, 8.0).dist;
}

struct Kind {
  const char* name;
  /// A valid spec of this kind; `other` is closeness's second oracle.
  std::function<TaskSpec(const Sampler& other)> valid;
  /// The same spec with one task knob made invalid.
  std::function<TaskSpec(const Sampler& other)> invalid;
};

SpecCommon& Common(TaskSpec& spec) {
  return std::visit([](auto& task) -> SpecCommon& { return task; }, spec);
}

const Kind kKinds[] = {
    {"learn",
     [](const Sampler&) -> TaskSpec {
       LearnSpec spec;
       spec.seed = 3;
       spec.options.k = 4;
       spec.options.eps = 0.3;
       spec.options.sample_scale = 0.1;
       spec.reduce_to = 3;
       return spec;
     },
     [](const Sampler&) -> TaskSpec {
       LearnSpec spec;
       spec.options.k = 4;
       spec.reduce_to = -1;
       return spec;
     }},
    {"test",
     [](const Sampler&) -> TaskSpec {
       TestSpec spec;
       spec.seed = 5;
       spec.config.k = 4;
       spec.config.eps = 0.3;
       spec.config.norm = Norm::kL2;
       spec.config.sample_scale = 0.05;
       return spec;
     },
     [](const Sampler&) -> TaskSpec {
       TestSpec spec;
       spec.config.k = 4;
       spec.config.eps = 0.0;
       return spec;
     }},
    {"compare",
     [](const Sampler&) -> TaskSpec {
       CompareSpec spec;
       spec.seed = 7;
       spec.k = 4;
       spec.eps = 0.3;
       spec.sample_scale = 0.1;
       return spec;
     },
     [](const Sampler&) -> TaskSpec {
       CompareSpec spec;
       spec.k = 0;
       return spec;
     }},
    {"estimate",
     [](const Sampler&) -> TaskSpec {
       EstimateSpec spec;
       spec.seed = 9;
       spec.k = 4;
       spec.eps = 0.3;
       spec.sample_scale = 0.1;
       spec.quantile_levels = {0.1, 0.5, 0.9};
       spec.ranges = {Interval(0, 63), Interval(64, 255)};
       return spec;
     },
     [](const Sampler&) -> TaskSpec {
       EstimateSpec spec;
       spec.k = 4;
       spec.quantile_levels = {1.5};
       return spec;
     }},
    {"property-test",
     [](const Sampler&) -> TaskSpec {
       PropertyTestSpec spec;
       spec.seed = 11;
       spec.config.k = 4;
       spec.config.eps = 0.3;
       spec.config.sample_scale = 0.1;
       return spec;
     },
     [](const Sampler&) -> TaskSpec {
       PropertyTestSpec spec;
       spec.config.k = 4;
       spec.config.sample_scale = -1.0;
       return spec;
     }},
    {"closeness",
     [](const Sampler& other) -> TaskSpec {
       ClosenessSpec spec;
       spec.seed = 13;
       spec.config.k_p = 4;
       spec.config.k_q = 4;
       spec.config.eps = 0.3;
       spec.config.sample_scale = 0.1;
       spec.other = &other;
       return spec;
     },
     [](const Sampler&) -> TaskSpec {
       ClosenessSpec spec;  // no second oracle
       spec.config.k_p = 4;
       spec.config.k_q = 4;
       return spec;
     }},
};

void PrintTo(const Kind& kind, std::ostream* os) { *os << kind.name; }

// Timing is the one run-dependent value in a report.
std::string ZeroWallMs(std::string s) {
  const std::string key = "\"wall_ms\": ";
  for (size_t at = s.find(key); at != std::string::npos; at = s.find(key, at)) {
    at += key.size();
    s.replace(at, s.find_first_not_of("-+.0123456789eE", at) - at, "0");
  }
  return s;
}

std::string Render(const Result<Report>& run) {
  if (!run.ok()) return "status " + run.status().ToString();
  std::string out;
  AppendReportJson(out, *run);
  return ZeroWallMs(out);
}

std::string Slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

class EngineSessionGoldenTest : public testing::TestWithParam<Kind> {};

TEST_P(EngineSessionGoldenTest, MatchesGolden) {
  const Kind& kind = GetParam();
  const Distribution p = OracleP();
  const AliasSampler oracle(p, AliasKernel::kCounts);
  const AliasSampler other(OracleQ(), AliasKernel::kReplay);
  const Engine engine(oracle, p);

  std::string actual;
  const auto record = [&actual](const std::string& label, const Result<Report>& run) {
    actual += label + ": " + Render(run) + "\n";
  };

  const TaskSpec valid = kind.valid(other);
  const Result<Report> full = engine.Run(valid);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  record("unlimited", full);

  // One draw short of each phase boundary: the phase's last request is
  // rejected whole. The armed variant (a live, unfired token) takes the
  // chunked metering path and keeps learn's best-so-far state.
  int64_t through = 0;
  for (const BudgetedSampler::PhaseDraws& phase : full->telemetry.phases) {
    through += phase.samples;
    if (phase.samples == 0) continue;
    TaskSpec capped = valid;
    Common(capped).budget = through - 1;
    record("short-of-" + phase.phase, engine.Run(capped));
    Common(capped).policy.cancel = CancelToken::Create();
    record("short-of-" + phase.phase + "-armed", engine.Run(capped));
  }

  TaskSpec cancelled = valid;
  Common(cancelled).policy.cancel = CancelToken::Create();
  Common(cancelled).policy.cancel.Cancel();
  record("pre-cancelled", engine.Run(cancelled));

  SessionGovernor governor({/*max_sessions=*/1, /*max_outstanding_budget=*/-1,
                            /*retry_after_ms=*/10});
  const Result<SessionGovernor::Permit> held = governor.Admit(-1);
  ASSERT_TRUE(held.ok());
  TaskSpec governed = valid;
  Common(governed).policy.governor = &governor;
  record("governor-full", engine.Run(governed));

  TaskSpec sharded = valid;
  Common(sharded).draw_threads = 2;
  record("draw-threads-2", engine.Run(sharded));

  TaskSpec bad_knob = kind.invalid(other);
  record("invalid-knob", engine.Run(bad_knob));
  Common(bad_knob).draw_threads = -1;
  record("invalid-knob-and-threads", engine.Run(bad_knob));

  const std::string path =
      std::string(HISTK_TEST_DATA_DIR) + "/engine/" + kind.name + ".golden";
  if (!std::filesystem::exists(path)) {
    std::filesystem::create_directories(std::string(HISTK_TEST_DATA_DIR) + "/engine");
    std::ofstream(path, std::ios::binary) << actual;
    ADD_FAILURE() << "no golden for " << kind.name << "; wrote " << path;
    return;
  }
  EXPECT_EQ(Slurp(path), actual);
}

INSTANTIATE_TEST_SUITE_P(Corpus, EngineSessionGoldenTest, testing::ValuesIn(kKinds),
                         [](const testing::TestParamInfo<Kind>& info) {
                           std::string name = info.param.name;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace histk
