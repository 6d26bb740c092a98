// The request-API contract: NDJSON requests parse into RequestSpec, bad
// lines are rejected with context, BuildTaskSpec is byte-parity with the
// legacy CLI spec assembly (the api_redesign's central promise), cache
// keys canonicalize, and response envelopes match their goldens.
#include "api/request.h"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/json.h"
#include "dist/dataset.h"
#include "engine/engine.h"

namespace histk {
namespace {

using api::BuildTaskSpec;
using api::CanonicalSynopsisKey;
using api::JsonValue;
using api::ParseJson;
using api::ParseRequestJson;
using api::RequestKind;
using api::RequestSpec;
using api::ResponseEnvelope;
using api::WriteResponseJson;

std::string DataPath(const std::string& name) {
  return std::string(HISTK_TEST_DATA_DIR) + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << "cannot open " << path;
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

std::string FirstLine(const std::string& text) {
  const size_t nl = text.find('\n');
  return nl == std::string::npos ? text : text.substr(0, nl);
}

// ---------------------------------------------------------------- JSON

TEST(JsonParserTest, ParsesScalarsAndNesting) {
  const Result<JsonValue> v =
      ParseJson("{\"a\": [1, 2.5, -3], \"b\": {\"c\": \"x\\ny\"}, "
                "\"t\": true, \"z\": null}");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  const JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->AsArray().size(), 3u);
  EXPECT_EQ(*a->AsArray()[0].AsI64(), 1);
  EXPECT_DOUBLE_EQ(*a->AsArray()[1].AsF64(), 2.5);
  EXPECT_EQ(*a->AsArray()[2].AsI64(), -3);
  EXPECT_EQ(v->Find("b")->Find("c")->AsString(), "x\ny");
  EXPECT_TRUE(v->Find("t")->AsBool());
  EXPECT_EQ(v->Find("z")->type(), JsonValue::Type::kNull);
}

TEST(JsonParserTest, RejectsDuplicateKeys) {
  const Result<JsonValue> v = ParseJson("{\"k\": 1, \"k\": 2}");
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.status().message().find("duplicate object key"),
            std::string::npos);
}

TEST(JsonParserTest, RejectsTrailingGarbage) {
  const Result<JsonValue> v = ParseJson("{} x");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kParseError);
}

TEST(JsonParserTest, ErrorsCarryColumnContext) {
  const Result<JsonValue> v = ParseJson("{\"k\": @}");
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.status().message().find("column 7"), std::string::npos)
      << v.status().message();
}

// ---------------------------------------------------------------- parse

TEST(RequestParseTest, RoundTripsEveryField) {
  const Result<RequestSpec> req = ParseRequestJson(
      "{\"id\": \"r1\", \"kind\": \"estimate\", \"k\": 5, \"eps\": 0.25, "
      "\"norm\": \"l1\", \"scale\": 0.5, \"seed\": 11, \"budget\": 1000, "
      "\"deadline_ms\": 250, \"max_retries\": 2, \"draw_threads\": 3, "
      "\"quantiles\": [0.5, 0.9], \"ranges\": [[0, 7], [8, 15]], "
      "\"n\": 16, \"reservoir\": 4096, \"dataset\": {\"items\": [1, 2, 3]}}");
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->id, "r1");
  EXPECT_EQ(req->kind, RequestKind::kEstimate);
  EXPECT_EQ(req->k, 5);
  EXPECT_DOUBLE_EQ(req->eps, 0.25);
  EXPECT_EQ(req->norm, Norm::kL1);
  EXPECT_TRUE(req->norm_set);
  EXPECT_DOUBLE_EQ(req->scale, 0.5);
  EXPECT_EQ(req->seed, 11u);
  EXPECT_EQ(req->budget, 1000);
  EXPECT_EQ(req->deadline_ms, 250);
  EXPECT_EQ(req->max_retries, 2);
  EXPECT_EQ(req->draw_threads, 3);
  ASSERT_EQ(req->quantiles.size(), 2u);
  EXPECT_DOUBLE_EQ(req->quantiles[1], 0.9);
  ASSERT_EQ(req->ranges.size(), 2u);
  EXPECT_EQ(req->ranges[1].lo, 8);
  EXPECT_EQ(req->ranges[1].hi, 15);
  EXPECT_EQ(req->n, 16);
  EXPECT_EQ(req->reservoir, 4096);
  EXPECT_EQ(req->dataset.kind, api::DatasetRef::Kind::kInline);
  EXPECT_EQ(req->dataset.items, (std::vector<int64_t>{1, 2, 3}));
}

TEST(RequestParseTest, RequiresIdAndKind) {
  Result<RequestSpec> no_id = ParseRequestJson("{\"kind\": \"learn\"}");
  ASSERT_FALSE(no_id.ok());
  EXPECT_NE(no_id.status().message().find("\"id\""), std::string::npos);

  Result<RequestSpec> no_kind = ParseRequestJson("{\"id\": \"r1\"}");
  ASSERT_FALSE(no_kind.ok());
  EXPECT_NE(no_kind.status().message().find("\"kind\""), std::string::npos);
}

TEST(RequestParseTest, RejectsUnknownFieldByName) {
  // A typo'd knob must not silently serve a session with the default.
  const Result<RequestSpec> req = ParseRequestJson(
      "{\"id\": \"r1\", \"kind\": \"learn\", \"bugdet\": 100}");
  ASSERT_FALSE(req.ok());
  EXPECT_NE(req.status().message().find("unknown request field \"bugdet\""),
            std::string::npos)
      << req.status().message();
}

TEST(RequestParseTest, RejectsMalformedRanges) {
  const Result<RequestSpec> req = ParseRequestJson(
      "{\"id\": \"r1\", \"kind\": \"estimate\", \"ranges\": [\"0:3\"]}");
  ASSERT_FALSE(req.ok());
  EXPECT_NE(req.status().message().find("[lo, hi]"), std::string::npos);
}

TEST(RequestParseTest, RejectsSecondOracleOffCloseness) {
  const Result<RequestSpec> req = ParseRequestJson(
      "{\"id\": \"r1\", \"kind\": \"learn\", \"other\": {\"items\": [1]}}");
  ASSERT_FALSE(req.ok());
  EXPECT_NE(req.status().message().find("closeness"), std::string::npos);
}

TEST(RequestParseTest, RejectsDatasetWithTwoSources) {
  const Result<RequestSpec> req = ParseRequestJson(
      "{\"id\": \"r1\", \"kind\": \"learn\", "
      "\"dataset\": {\"items\": [1], \"path\": \"x\"}}");
  ASSERT_FALSE(req.ok());
  EXPECT_NE(req.status().message().find("exactly one"), std::string::npos);
}

TEST(RequestParseTest, FixtureRequestsParse) {
  const Result<RequestSpec> learn =
      ParseRequestJson(FirstLine(ReadFile(DataPath("request_learn.json"))));
  ASSERT_TRUE(learn.ok()) << learn.status().ToString();
  EXPECT_EQ(learn->kind, RequestKind::kLearn);
  EXPECT_TRUE(learn->reduce);
  EXPECT_EQ(learn->dataset.items.size(), 10u);

  const Result<RequestSpec> estimate =
      ParseRequestJson(FirstLine(ReadFile(DataPath("request_estimate.json"))));
  ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();
  EXPECT_EQ(estimate->kind, RequestKind::kEstimate);
  EXPECT_EQ(estimate->dataset.kind, api::DatasetRef::Kind::kFingerprint);
  EXPECT_EQ(estimate->quantiles.size(), 3u);

  const Result<RequestSpec> closeness =
      ParseRequestJson(FirstLine(ReadFile(DataPath("request_closeness.json"))));
  ASSERT_TRUE(closeness.ok()) << closeness.status().ToString();
  EXPECT_EQ(closeness->kind, RequestKind::kCloseness);
  EXPECT_EQ(closeness->k2, 5);
  EXPECT_EQ(closeness->other.kind, api::DatasetRef::Kind::kInline);
}

// ---------------------------------------------------------------- build

RequestSpec BaseRequest(RequestKind kind) {
  RequestSpec req;
  req.id = "t";
  req.kind = kind;
  return req;
}

TEST(BuildTaskSpecTest, RejectsKnobsTheKindCannotHonor) {
  RequestSpec reduce = BaseRequest(RequestKind::kTest);
  reduce.reduce = true;
  EXPECT_FALSE(BuildTaskSpec(reduce).ok());

  RequestSpec k2 = BaseRequest(RequestKind::kLearn);
  k2.k2 = 3;
  EXPECT_FALSE(BuildTaskSpec(k2).ok());

  RequestSpec quantiles = BaseRequest(RequestKind::kLearn);
  quantiles.quantiles = {0.5};
  EXPECT_FALSE(BuildTaskSpec(quantiles).ok());

  RequestSpec full_enum = BaseRequest(RequestKind::kEstimate);
  full_enum.full_enum = true;
  EXPECT_FALSE(BuildTaskSpec(full_enum).ok());

  EXPECT_FALSE(BuildTaskSpec(BaseRequest(RequestKind::kStats)).ok());
  EXPECT_FALSE(BuildTaskSpec(BaseRequest(RequestKind::kShutdown)).ok());
}

// ------------------------------------------------------------ cache key

TEST(CacheKeyTest, CanonicalizationIgnoresOrderDefaultsAndQueries) {
  // Same learn-determining knobs through three different surfaces: field
  // order shuffled, defaults explicit vs omitted, query fields present vs
  // absent, learn vs estimate. All four must map to ONE cache key.
  const char* lines[] = {
      "{\"id\": \"a\", \"kind\": \"learn\", \"k\": 4, \"eps\": 0.2}",
      "{\"eps\": 0.2, \"k\": 4, \"kind\": \"learn\", \"id\": \"b\", "
      "\"scale\": 1.0, \"budget\": -1}",
      "{\"id\": \"c\", \"kind\": \"estimate\", \"k\": 4, \"eps\": 0.2, "
      "\"quantiles\": [0.5, 0.99], \"ranges\": [[0, 3]]}",
      "{\"id\": \"d\", \"kind\": \"estimate\", \"k\": 4, \"eps\": 0.2}",
  };
  std::string first;
  for (const char* line : lines) {
    const Result<RequestSpec> req = ParseRequestJson(line);
    ASSERT_TRUE(req.ok()) << req.status().ToString();
    const std::string key = CanonicalSynopsisKey(*req, "feedc0de00000000");
    ASSERT_FALSE(key.empty());
    if (first.empty()) {
      first = key;
    } else {
      EXPECT_EQ(key, first) << line;
    }
  }
}

TEST(CacheKeyTest, LearnDeterminingKnobsFragmentTheKey) {
  RequestSpec base = BaseRequest(RequestKind::kLearn);
  const std::string fp = "feedc0de00000000";
  const std::string base_key = CanonicalSynopsisKey(base, fp);

  RequestSpec seed = base;
  seed.seed = 2;
  RequestSpec k = base;
  k.k = 9;
  RequestSpec eps = base;
  eps.eps = 0.11;
  RequestSpec budget = base;
  budget.budget = 100;
  RequestSpec strategy = base;
  strategy.full_enum = true;
  for (const RequestSpec& variant : {seed, k, eps, budget, strategy}) {
    EXPECT_NE(CanonicalSynopsisKey(variant, fp), base_key);
  }
  EXPECT_NE(CanonicalSynopsisKey(base, "0000000000000000"), base_key);
}

TEST(CacheKeyTest, EmptyForNonSynopsisKinds) {
  for (RequestKind kind : {RequestKind::kTest, RequestKind::kCompare,
                           RequestKind::kPropertyTest, RequestKind::kCloseness,
                           RequestKind::kStats, RequestKind::kShutdown}) {
    EXPECT_TRUE(CanonicalSynopsisKey(BaseRequest(kind), "f").empty());
  }
}

// ------------------------------------------------------------- parity

// The pre-refactor CLI assembly, replicated verbatim. The api_redesign's
// acceptance bar is that BuildTaskSpec produces reports byte-identical to
// these (wall-clock stripped) for every subcommand.
struct LegacyArgs {
  int64_t k = 8;
  int64_t k2 = 0;
  double eps = 0.1;
  double scale = 1.0;
  Norm norm = Norm::kL2;
  bool norm_set = false;
  bool full_enum = false;
  bool reduce = false;
  uint64_t seed = 1;
  int64_t budget = BudgetedSampler::kUnlimited;
  int64_t deadline_ms = 0;
  int max_retries = 0;
  int draw_threads = 0;
};

void LegacyApplyRuntimeFlags(const LegacyArgs& args, SpecCommon& spec) {
  spec.seed = args.seed;
  spec.budget = args.budget;
  if (args.deadline_ms > 0) {
    spec.policy.deadline = Deadline::AfterMillis(args.deadline_ms);
  }
  spec.policy.retry.max_retries = args.max_retries;
  if (args.draw_threads > 0) spec.draw_threads = args.draw_threads;
}

TaskSpec LegacySpec(const std::string& command, const LegacyArgs& args) {
  if (command == "learn") {
    LearnSpec spec;
    LegacyApplyRuntimeFlags(args, spec);
    spec.options.k = args.k;
    spec.options.eps = args.eps;
    spec.options.sample_scale = args.scale;
    spec.options.strategy = args.full_enum
                                ? CandidateStrategy::kAllIntervals
                                : CandidateStrategy::kSampleEndpoints;
    if (args.reduce) spec.reduce_to = args.k;
    return spec;
  }
  if (command == "test") {
    TestSpec spec;
    LegacyApplyRuntimeFlags(args, spec);
    spec.config.k = args.k;
    spec.config.eps = args.eps;
    spec.config.norm = args.norm;
    spec.config.sample_scale = args.scale;
    return spec;
  }
  if (command == "property-test") {
    PropertyTestSpec spec;
    LegacyApplyRuntimeFlags(args, spec);
    spec.config.k = args.k;
    spec.config.eps = args.eps;
    spec.config.norm = args.norm_set ? args.norm : Norm::kL1;
    spec.config.sample_scale = args.scale;
    return spec;
  }
  if (command == "closeness") {
    ClosenessSpec spec;
    LegacyApplyRuntimeFlags(args, spec);
    spec.config.k_p = args.k;
    spec.config.k_q = args.k2 > 0 ? args.k2 : args.k;
    spec.config.eps = args.eps;
    spec.config.sample_scale = args.scale;
    return spec;
  }
  CompareSpec spec;
  LegacyApplyRuntimeFlags(args, spec);
  spec.k = args.k;
  spec.eps = args.eps;
  spec.sample_scale = args.scale;
  spec.strategy = args.full_enum ? CandidateStrategy::kAllIntervals
                                 : CandidateStrategy::kSampleEndpoints;
  return spec;
}

RequestSpec ApiRequest(const std::string& command, const LegacyArgs& args) {
  RequestSpec req;
  req.id = "parity";
  if (command == "learn") req.kind = RequestKind::kLearn;
  if (command == "test") req.kind = RequestKind::kTest;
  if (command == "property-test") req.kind = RequestKind::kPropertyTest;
  if (command == "closeness") req.kind = RequestKind::kCloseness;
  if (command == "compare") req.kind = RequestKind::kCompare;
  req.k = args.k;
  req.k2 = args.k2;
  req.eps = args.eps;
  req.norm = args.norm;
  req.norm_set = args.norm_set;
  req.scale = args.scale;
  req.full_enum = args.full_enum;
  req.reduce = args.reduce;
  req.seed = args.seed;
  req.budget = args.budget;
  req.deadline_ms = args.deadline_ms;
  req.max_retries = args.max_retries;
  req.draw_threads = args.draw_threads;
  return req;
}

std::string ReportJson(const Report& report) {
  std::string out;
  AppendReportJson(out, report);
  return out;
}

// wall_ms is the one nondeterministic report field; blank it before the
// byte compare.
std::string StripWallMs(std::string json) {
  const std::string needle = "\"wall_ms\": ";
  for (size_t at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at)) {
    const size_t start = at + needle.size();
    size_t end = start;
    while (end < json.size() && json[end] != ',' && json[end] != '}') ++end;
    json.erase(start, end - start);
    at = start;
  }
  return json;
}

std::vector<int64_t> ParityItems() {
  std::vector<int64_t> items;
  for (int64_t i = 0; i < 400; ++i) items.push_back(i % 16);
  for (int64_t i = 0; i < 200; ++i) items.push_back(3);
  return items;
}

void ExpectParity(const std::string& command, const LegacyArgs& args) {
  const DatasetSampler oracle(16, ParityItems(), AliasKernel::kReplay);
  const DatasetSampler other(16, ParityItems(), AliasKernel::kReplay);
  // compare scores against ground truth; the other tasks run truth-free.
  const Distribution truth = oracle.EmpiricalDist();
  const Engine engine = command == "compare" ? Engine(oracle, truth)
                                             : Engine(oracle);

  TaskSpec legacy = LegacySpec(command, args);
  Result<TaskSpec> api_spec = BuildTaskSpec(ApiRequest(command, args));
  ASSERT_TRUE(api_spec.ok()) << api_spec.status().ToString();
  if (command == "closeness") {
    std::get<ClosenessSpec>(legacy).other = &other;
    std::get<ClosenessSpec>(*api_spec).other = &other;
  }

  const Result<Report> legacy_report = engine.Run(legacy);
  const Result<Report> api_report = engine.Run(*api_spec);
  ASSERT_TRUE(legacy_report.ok()) << legacy_report.status().ToString();
  ASSERT_TRUE(api_report.ok()) << api_report.status().ToString();
  EXPECT_EQ(StripWallMs(ReportJson(*legacy_report)),
            StripWallMs(ReportJson(*api_report)))
      << command;
}

TEST(SpecParityTest, LearnMatchesLegacyAssembly) {
  LegacyArgs args;
  args.k = 3;
  args.eps = 0.25;
  args.scale = 0.5;
  args.seed = 7;
  ExpectParity("learn", args);
}

TEST(SpecParityTest, LearnWithReduceAndFullEnumMatchesLegacyAssembly) {
  LegacyArgs args;
  args.k = 3;
  args.eps = 0.3;
  args.scale = 0.4;
  args.full_enum = true;
  args.reduce = true;
  args.budget = 2000000;
  args.max_retries = 1;
  ExpectParity("learn", args);
}

TEST(SpecParityTest, TestMatchesLegacyAssembly) {
  LegacyArgs args;
  args.k = 2;
  args.eps = 0.4;
  args.norm = Norm::kL1;
  args.norm_set = true;
  args.scale = 0.5;
  args.seed = 3;
  ExpectParity("test", args);
}

TEST(SpecParityTest, PropertyTestDefaultNormMatchesLegacyAssembly) {
  LegacyArgs args;
  args.k = 2;
  args.eps = 0.4;
  args.scale = 0.4;
  args.seed = 5;
  // norm_set stays false: both paths must fall back to L1.
  ExpectParity("property-test", args);
}

TEST(SpecParityTest, ClosenessK2FallbackMatchesLegacyAssembly) {
  LegacyArgs args;
  args.k = 2;
  args.k2 = 4;
  args.eps = 0.45;
  args.scale = 0.3;
  args.seed = 9;
  ExpectParity("closeness", args);
}

TEST(SpecParityTest, CompareMatchesLegacyAssembly) {
  LegacyArgs args;
  args.k = 3;
  args.eps = 0.3;
  args.scale = 0.3;
  args.seed = 2;
  ExpectParity("compare", args);
}

TEST(SpecParityTest, EstimateMatchesManualSpec) {
  const DatasetSampler oracle(16, ParityItems(), AliasKernel::kReplay);
  const Engine engine(oracle);

  EstimateSpec manual;
  manual.seed = 7;
  manual.budget = BudgetedSampler::kUnlimited;
  manual.k = 3;
  manual.eps = 0.25;
  manual.sample_scale = 0.5;
  manual.quantile_levels = {0.25, 0.75};
  manual.ranges = {Interval{0, 3}, Interval{4, 15}};

  RequestSpec req = BaseRequest(RequestKind::kEstimate);
  req.k = 3;
  req.eps = 0.25;
  req.scale = 0.5;
  req.seed = 7;
  req.quantiles = {0.25, 0.75};
  req.ranges = {Interval{0, 3}, Interval{4, 15}};
  Result<TaskSpec> api_spec = BuildTaskSpec(req);
  ASSERT_TRUE(api_spec.ok()) << api_spec.status().ToString();

  const Result<Report> manual_report = engine.Run(TaskSpec(manual));
  const Result<Report> api_report = engine.Run(*api_spec);
  ASSERT_TRUE(manual_report.ok()) << manual_report.status().ToString();
  ASSERT_TRUE(api_report.ok()) << api_report.status().ToString();
  EXPECT_EQ(StripWallMs(ReportJson(*manual_report)),
            StripWallMs(ReportJson(*api_report)));
}

// ------------------------------------------------------------ envelope

TEST(ResponseJsonTest, UnavailableEnvelopeMatchesGolden) {
  SessionGovernor::Limits limits;  // defaults: 8 sessions, 10 ms retry
  SessionGovernor governor(limits);
  std::vector<SessionGovernor::Permit> held;
  for (int i = 0; i < limits.max_sessions; ++i) {
    Result<SessionGovernor::Permit> permit = governor.Admit(1);
    ASSERT_TRUE(permit.ok());
    held.push_back(std::move(*permit));
  }
  const Result<SessionGovernor::Permit> rejected = governor.Admit(1);
  ASSERT_FALSE(rejected.ok());

  ResponseEnvelope env;
  env.id = "r9";
  env.has_id = true;
  env.kind = "estimate";
  env.status = rejected.status().code();
  env.degraded = true;
  env.retry_after_ms = limits.retry_after_ms;
  env.error = rejected.status().message();
  EXPECT_EQ(WriteResponseJson(env),
            ReadFile(DataPath("response_unavailable.golden")));
}

TEST(ResponseJsonTest, ParseErrorEnvelopeMatchesGolden) {
  const Result<RequestSpec> parsed = ParseRequestJson("not json");
  ASSERT_FALSE(parsed.ok());
  ResponseEnvelope env;
  env.status = parsed.status().code();
  env.error = parsed.status().message();
  EXPECT_EQ(WriteResponseJson(env),
            ReadFile(DataPath("response_parse_error.golden")));
}

TEST(ResponseJsonTest, EnvelopeEmbedsTheReportVerbatim) {
  const DatasetSampler oracle(16, ParityItems(), AliasKernel::kReplay);
  const Engine engine(oracle);
  LearnSpec spec;
  spec.seed = 3;
  spec.options.k = 3;
  spec.options.eps = 0.3;
  spec.options.sample_scale = 0.4;
  const Result<Report> report = engine.Run(TaskSpec(spec));
  ASSERT_TRUE(report.ok());

  ResponseEnvelope env;
  env.id = "r1";
  env.has_id = true;
  env.kind = "learn";
  env.cache = api::CacheState::kMiss;
  env.report = &*report;
  const std::string line = WriteResponseJson(env);
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');

  // The embedded object is exactly AppendReportJson's (modulo the trailing
  // newline), so report tooling can validate response["report"] unchanged.
  std::string embedded = ReportJson(*report);
  while (!embedded.empty() && embedded.back() == '\n') embedded.pop_back();
  EXPECT_NE(line.find("\"report\": " + embedded), std::string::npos);

  // And the whole envelope is valid JSON by our own strict parser.
  const Result<JsonValue> round = ParseJson(FirstLine(line));
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->Find("id")->AsString(), "r1");
  EXPECT_EQ(round->Find("cache")->AsString(), "miss");
}

}  // namespace
}  // namespace histk
