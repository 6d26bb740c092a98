// The serving core, driven in-process: cache hit/miss/eviction, governor
// backpressure as wire-level 503s, queue overflow, concurrent submits,
// the stats conservation invariant, filesystem-ref policy, the
// fingerprint-collision content guard, and the item fingerprint itself.
#include "serve/server.h"

#include <sys/stat.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "api/json.h"
#include "serve/dataset_store.h"
#include "serve/fingerprint.h"
#include "stream/concurrent_histogram.h"

namespace histk {
namespace {

using api::JsonValue;
using api::ParseJson;
using serve::HistkdServer;
using serve::ServeOptions;

constexpr const char* kItems = "[0, 0, 1, 1, 2, 3, 3, 3, 7, 7]";

std::string LearnLine(const std::string& id, const std::string& extra = "") {
  return "{\"id\": \"" + id + "\", \"kind\": \"learn\", \"k\": 4, "
         "\"eps\": 0.2" + extra + ", \"dataset\": {\"items\": " + kItems +
         "}}";
}

std::string EstimateLine(const std::string& id) {
  return "{\"id\": \"" + id + "\", \"kind\": \"estimate\", \"k\": 4, "
         "\"eps\": 0.2, \"quantiles\": [0.5], \"ranges\": [[0, 3]], "
         "\"dataset\": {\"items\": " + kItems + "}}";
}

JsonValue MustParse(const std::string& line) {
  Result<JsonValue> parsed = ParseJson(line.substr(0, line.find('\n')));
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << line;
  return parsed.ok() ? std::move(*parsed) : JsonValue::Null();
}

int64_t GetI64(const JsonValue& v, const std::string& key) {
  const JsonValue* field = v.Find(key);
  EXPECT_NE(field, nullptr) << key;
  if (field == nullptr) return -1;
  Result<int64_t> out = field->AsI64();
  EXPECT_TRUE(out.ok()) << key;
  return out.ok() ? *out : -1;
}

std::string GetString(const JsonValue& v, const std::string& key) {
  const JsonValue* field = v.Find(key);
  EXPECT_NE(field, nullptr) << key;
  return field != nullptr && field->is_string() ? field->AsString()
                                                : std::string();
}

TEST(HistkdTest, LearnMissThenEstimateHitDrawsNothing) {
  ServeOptions options;
  options.workers = 1;
  HistkdServer server(options);

  const JsonValue learn = MustParse(server.HandleLine(LearnLine("r1")));
  EXPECT_EQ(GetString(learn, "status"), "ok");
  EXPECT_EQ(GetString(learn, "cache"), "miss");
  const std::string fingerprint = GetString(learn, "fingerprint");
  ASSERT_FALSE(fingerprint.empty());
  const int64_t cold_draws =
      GetI64(*learn.Find("report")->Find("telemetry"), "samples_drawn");
  EXPECT_GT(cold_draws, 0);

  // 100+ repeat estimates: every one a cache hit, zero oracle draws, no
  // governor slot — the learn-once/serve-forever contract.
  for (int i = 0; i < 120; ++i) {
    const JsonValue hit =
        MustParse(server.HandleLine(EstimateLine("q" + std::to_string(i))));
    ASSERT_EQ(GetString(hit, "status"), "ok");
    ASSERT_EQ(GetString(hit, "cache"), "hit");
    ASSERT_EQ(GetString(hit, "fingerprint"), fingerprint);
    const JsonValue* report = hit.Find("report");
    ASSERT_NE(report, nullptr);
    ASSERT_EQ(GetI64(*report->Find("telemetry"), "samples_drawn"), 0);
    ASSERT_EQ(report->Find("estimate")->Find("quantiles")->AsArray().size(),
              1u);
  }
  EXPECT_EQ(server.cache_counters().hits, 120);
  EXPECT_EQ(server.cache_counters().misses, 1);
  EXPECT_EQ(server.governor().in_flight(), 0);
}

TEST(HistkdTest, RepeatLearnHitIsByteIdenticalModuloServeMs) {
  ServeOptions options;
  options.workers = 1;
  HistkdServer server(options);

  auto strip_serve_ms = [](std::string line) {
    const std::string needle = "\"serve_ms\": ";
    const size_t at = line.find(needle);
    EXPECT_NE(at, std::string::npos);
    size_t end = at + needle.size();
    while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
    line.erase(at + needle.size(), end - at - needle.size());
    return line;
  };
  const std::string cold = server.HandleLine(LearnLine("r1"));
  const std::string warm = server.HandleLine(LearnLine("r1"));
  // Identical apart from serve time and the cache column: the cached reply
  // replays the original session's report verbatim (wall_ms included — it
  // documents what the learn cost when it actually ran).
  std::string cold_norm = strip_serve_ms(cold);
  std::string warm_norm = strip_serve_ms(warm);
  const size_t cold_cache = cold_norm.find("\"cache\": \"miss\"");
  ASSERT_NE(cold_cache, std::string::npos);
  cold_norm.replace(cold_cache, 15, "\"cache\": \"hit\"");
  EXPECT_EQ(cold_norm, warm_norm);
}

// The balanced {...} value of the first `"key": {` in `line`; "" if absent.
std::string ObjectField(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": {";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return std::string();
  const size_t begin = at + needle.size() - 1;
  int depth = 0;
  bool in_string = false;
  for (size_t i = begin; i < line.size(); ++i) {
    const char c = line[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if ((c == '}' || c == ']') && --depth == 0) {
      return line.substr(begin, i - begin + 1);
    }
  }
  return std::string();
}

// Sends `line` cold (miss) then warm (hit) and checks the two answers
// agree: the synopsis-derived blocks byte for byte, the telemetry in
// everything but what the hit did not spend (draws, phases, wall time).
void ExpectEstimateHitMatchesMiss(HistkdServer& server, const std::string& line) {
  const std::string cold = server.HandleLine(line);
  const std::string warm = server.HandleLine(line);
  const JsonValue cold_v = MustParse(cold);
  const JsonValue warm_v = MustParse(warm);
  ASSERT_EQ(GetString(cold_v, "status"), "ok") << cold;
  EXPECT_EQ(GetString(cold_v, "cache"), "miss");
  EXPECT_EQ(GetString(warm_v, "cache"), "hit");

  for (const char* block : {"estimate", "reduced", "learn"}) {
    const std::string cold_block = ObjectField(cold, block);
    EXPECT_FALSE(cold_block.empty()) << block;
    EXPECT_EQ(cold_block, ObjectField(warm, block)) << block;
  }

  const JsonValue* cold_report = cold_v.Find("report");
  const JsonValue* warm_report = warm_v.Find("report");
  ASSERT_NE(cold_report, nullptr);
  ASSERT_NE(warm_report, nullptr);
  for (const char* field : {"task", "outcome", "status"}) {
    EXPECT_EQ(GetString(*cold_report, field), GetString(*warm_report, field));
  }
  EXPECT_EQ(GetI64(*cold_report, "retries"), GetI64(*warm_report, "retries"));
  EXPECT_EQ(cold_report->Find("degraded")->AsBool(),
            warm_report->Find("degraded")->AsBool());

  const JsonValue* cold_t = cold_report->Find("telemetry");
  const JsonValue* warm_t = warm_report->Find("telemetry");
  ASSERT_NE(cold_t, nullptr);
  ASSERT_NE(warm_t, nullptr);
  ASSERT_EQ(cold_t->AsObject().size(), warm_t->AsObject().size());
  for (const auto& member : cold_t->AsObject()) {
    const std::string& key = member.first;
    if (key == "samples_drawn" || key == "phases" || key == "wall_ms") continue;
    const JsonValue* other = warm_t->Find(key);
    ASSERT_NE(other, nullptr) << key;
    EXPECT_EQ(member.second.NumberToken(), other->NumberToken()) << key;
  }
  EXPECT_EQ(GetI64(*warm_t, "samples_drawn"), 0);
}

TEST(HistkdTest, EstimateHitMatchesMissOnItems) {
  ServeOptions options;
  options.workers = 1;
  HistkdServer server(options);
  ExpectEstimateHitMatchesMiss(
      server,
      "{\"id\": \"e\", \"kind\": \"estimate\", \"k\": 3, \"eps\": 0.2, "
      "\"quantiles\": [0, 0.25, 0.5, 0.9, 1], \"ranges\": [[0, 3], [2, 7]], "
      "\"dataset\": {\"items\": " + std::string(kItems) + "}}");
}

TEST(HistkdTest, EstimateHitMatchesMissOnSketchWithTruth) {
  ConcurrentHistogram hist(7);
  for (uint64_t v = 0; v < 40; ++v) hist.Record(v, 1 + v % 5);
  const std::string path = testing::TempDir() + "/histkd_parity_sketch.txt";
  {
    std::ofstream f(path);
    WriteSnapshot(f, hist.Snapshot());
  }
  ServeOptions options;
  options.workers = 1;
  HistkdServer server(options);
  const std::string line =
      "{\"id\": \"s\", \"kind\": \"estimate\", \"k\": 4, \"eps\": 0.3, "
      "\"quantiles\": [0.5], \"ranges\": [[0, 9], [10, 39]], "
      "\"dataset\": {\"sketch\": \"" + path + "\"}}";
  ExpectEstimateHitMatchesMiss(server, line);
  // The sketch session carries truth, so the hit fills the truth column.
  const JsonValue hit = MustParse(server.HandleLine(line));
  const JsonValue& selectivity =
      *hit.Find("report")->Find("estimate")->Find("selectivity");
  ASSERT_EQ(selectivity.AsArray().size(), 2u);
  EXPECT_TRUE(selectivity.AsArray()[0].Find("truth")->is_number());
}

TEST(HistkdTest, InvalidEstimateQueriesFailAlikeOnHitAndMiss) {
  const std::string items = "[0, 1, 2, 3, 5, 8, 13, 15]";
  auto estimate = [&items](const std::string& queries) {
    return "{\"id\": \"v\", \"kind\": \"estimate\", \"k\": 2, \"eps\": 0.3, "
           "\"n\": 16, " + queries + ", \"dataset\": {\"items\": " + items +
           "}}";
  };
  for (const std::string& bad :
       {std::string("\"quantiles\": [1.5]"), std::string("\"ranges\": [[0, 99]]")}) {
    ServeOptions options;
    options.workers = 1;
    HistkdServer cold_server(options);
    const JsonValue miss = MustParse(cold_server.HandleLine(estimate(bad)));

    HistkdServer warm_server(options);
    ASSERT_EQ(GetString(MustParse(warm_server.HandleLine(
                            estimate("\"quantiles\": [0.5]"))),
                        "status"),
              "ok");
    const JsonValue hit = MustParse(warm_server.HandleLine(estimate(bad)));
    EXPECT_EQ(warm_server.cache_counters().misses, 1);

    EXPECT_EQ(GetString(miss, "status"), "invalid-argument") << bad;
    EXPECT_EQ(GetString(hit, "status"), GetString(miss, "status")) << bad;
    EXPECT_FALSE(GetString(miss, "error").empty());
    EXPECT_EQ(GetString(hit, "error"), GetString(miss, "error")) << bad;
  }
}

TEST(HistkdTest, CacheKeyFragmentsOnSeedAndEvictsLru) {
  ServeOptions options;
  options.workers = 1;
  options.cache_entries = 1;
  HistkdServer server(options);

  EXPECT_EQ(GetString(MustParse(server.HandleLine(LearnLine("a"))), "cache"),
            "miss");
  EXPECT_EQ(GetString(MustParse(server.HandleLine(LearnLine("b"))), "cache"),
            "hit");
  // A different seed is a different session: miss, insert, evict the first.
  EXPECT_EQ(GetString(MustParse(server.HandleLine(
                LearnLine("c", ", \"seed\": 2"))), "cache"),
            "miss");
  EXPECT_EQ(GetString(MustParse(server.HandleLine(LearnLine("d"))), "cache"),
            "miss");
  const auto counters = server.cache_counters();
  EXPECT_EQ(counters.entries, 1);
  EXPECT_GE(counters.evictions, 2);
}

TEST(HistkdTest, GovernorRejectionIsTypedWithRetryAfter) {
  ServeOptions options;
  options.workers = 1;
  options.governor.max_sessions = 1;
  options.governor.retry_after_ms = 25;
  HistkdServer server(options);

  // Hold the one session slot so the next admission must reject —
  // deterministic saturation without racing a slow request.
  SessionGovernor& governor = const_cast<SessionGovernor&>(server.governor());
  Result<SessionGovernor::Permit> held = governor.Admit(1);
  ASSERT_TRUE(held.ok());

  const JsonValue rejected = MustParse(server.HandleLine(LearnLine("r1")));
  EXPECT_EQ(GetString(rejected, "status"), "unavailable");
  EXPECT_TRUE(rejected.Find("degraded")->AsBool());
  EXPECT_EQ(GetI64(rejected, "retry_after_ms"), 25);
  EXPECT_NE(GetString(rejected, "error").find("session admission rejected"),
            std::string::npos);
  EXPECT_EQ(rejected.Find("report"), nullptr);
  EXPECT_GT(server.governor().rejected(), 0);

  // Cache hits bypass the governor: pre-populate via a second server? No —
  // with zero slots nothing can populate, so just confirm stats counted it.
  const JsonValue stats = MustParse(server.HandleLine(
      "{\"id\": \"s\", \"kind\": \"stats\"}"));
  EXPECT_EQ(GetI64(*stats.Find("stats")->Find("requests"), "rejected"), 1);
}

TEST(HistkdTest, CacheHitsBypassTheGovernor) {
  // One session slot, held elsewhere: hits must still serve.
  ServeOptions options;
  options.workers = 1;
  HistkdServer server(options);
  MustParse(server.HandleLine(LearnLine("warm")));  // populate the cache

  SessionGovernor& governor =
      const_cast<SessionGovernor&>(server.governor());
  std::vector<SessionGovernor::Permit> held;
  for (int i = 0; i < ServeOptions().governor.max_sessions; ++i) {
    Result<SessionGovernor::Permit> permit = governor.Admit(1);
    ASSERT_TRUE(permit.ok());
    held.push_back(std::move(*permit));
  }
  // Governor is saturated: a cold session would 503, but the hit serves.
  const JsonValue hit = MustParse(server.HandleLine(EstimateLine("q")));
  EXPECT_EQ(GetString(hit, "status"), "ok");
  EXPECT_EQ(GetString(hit, "cache"), "hit");
  const JsonValue miss = MustParse(server.HandleLine(
      LearnLine("cold", ", \"seed\": 3")));
  EXPECT_EQ(GetString(miss, "status"), "unavailable");
}

TEST(HistkdTest, QueueOverflowRejectsBeforeAnyWork) {
  ServeOptions options;
  options.workers = 1;
  options.queue_limit = 0;  // every submit overflows, deterministically
  options.governor.retry_after_ms = 7;
  HistkdServer server(options);

  std::string response;
  server.Submit(EstimateLine("r1"),
                [&response](std::string line) { response = std::move(line); });
  const JsonValue rejected = MustParse(response);
  EXPECT_EQ(GetString(rejected, "id"), "r1");  // parsed for the echo only
  EXPECT_EQ(GetString(rejected, "status"), "unavailable");
  EXPECT_EQ(GetI64(rejected, "retry_after_ms"), 7);
  EXPECT_NE(GetString(rejected, "error").find("request queue full"),
            std::string::npos);
  EXPECT_EQ(server.cache_counters().misses, 0);  // no work was attempted
}

TEST(HistkdTest, ConcurrentSubmitsAllComplete) {
  ServeOptions options;
  options.workers = 4;
  HistkdServer server(options);

  constexpr int kRequests = 32;
  std::mutex mu;
  std::vector<std::string> responses;
  for (int i = 0; i < kRequests; ++i) {
    const std::string line =
        i % 2 == 0 ? LearnLine("c" + std::to_string(i)) :
                     EstimateLine("c" + std::to_string(i));
    server.Submit(line, [&mu, &responses](std::string response) {
      std::lock_guard<std::mutex> lock(mu);
      responses.push_back(std::move(response));
    });
  }
  server.Drain();
  ASSERT_EQ(responses.size(), static_cast<size_t>(kRequests));
  for (const std::string& line : responses) {
    const JsonValue v = MustParse(line);
    const std::string status = GetString(v, "status");
    // Under contention a session either runs or is admission-rejected with
    // a typed retry hint; nothing else is acceptable.
    if (status == "unavailable") {
      EXPECT_GE(GetI64(v, "retry_after_ms"), 0);
    } else {
      EXPECT_EQ(status, "ok") << line;
    }
  }
  // All 32 requests share one dataset entry and one synopsis key.
  EXPECT_EQ(server.dataset_counters().entries, 1);
  EXPECT_LE(server.cache_counters().entries, 1);
}

TEST(HistkdTest, StatsCountersConserve) {
  ServeOptions options;
  options.workers = 1;
  HistkdServer server(options);

  MustParse(server.HandleLine(LearnLine("r1")));
  MustParse(server.HandleLine(EstimateLine("r2")));
  MustParse(server.HandleLine(EstimateLine("r3")));
  MustParse(server.HandleLine("this is not json"));
  MustParse(server.HandleLine("{\"id\": \"r4\", \"kind\": \"learn\", "
                              "\"bugdet\": 1}"));  // unknown field
  const JsonValue stats = MustParse(
      server.HandleLine("{\"id\": \"s\", \"kind\": \"stats\"}"));
  const JsonValue* payload = stats.Find("stats");
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(GetI64(*payload, "histkd_stats"), 1);

  const JsonValue* requests = payload->Find("requests");
  ASSERT_NE(requests, nullptr);
  const int64_t total = GetI64(*requests, "total");
  const int64_t no_kind = GetI64(*requests, "no_kind_errors");
  EXPECT_EQ(total, 5);
  EXPECT_EQ(no_kind, 2);

  // Conservation: every completed request is either kind-attributed in the
  // per-kind latency histograms or counted as a no-kind parse failure.
  const JsonValue* kinds = payload->Find("kinds");
  ASSERT_NE(kinds, nullptr);
  int64_t kind_total = 0;
  for (const auto& member : kinds->AsObject()) {
    kind_total += GetI64(member.second, "count");
  }
  EXPECT_EQ(kind_total + no_kind, total);

  const JsonValue* cache = payload->Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(GetI64(*cache, "misses"), 1);
  EXPECT_EQ(GetI64(*cache, "hits"), 2);
}

TEST(HistkdTest, PathDatasetIsContentAddressedWithInline) {
  const std::string path = testing::TempDir() + "/histkd_items.txt";
  {
    std::ofstream f(path);
    f << "0 0 1 1 2\n3 3 3 7 7\n";
  }
  ServeOptions options;
  options.workers = 1;
  HistkdServer server(options);

  const JsonValue from_path = MustParse(server.HandleLine(
      "{\"id\": \"p\", \"kind\": \"learn\", \"k\": 4, \"eps\": 0.2, "
      "\"dataset\": {\"path\": \"" + path + "\"}}"));
  ASSERT_EQ(GetString(from_path, "status"), "ok");
  const JsonValue from_items = MustParse(server.HandleLine(LearnLine("i")));
  // Same contents, same fingerprint, same store entry — and the second
  // learn is a cache hit because the canonical keys agree too.
  EXPECT_EQ(GetString(from_path, "fingerprint"),
            GetString(from_items, "fingerprint"));
  EXPECT_EQ(GetString(from_items, "cache"), "hit");
  EXPECT_EQ(server.dataset_counters().entries, 1);

  // And a fingerprint ref resolves without resending the data.
  const JsonValue by_fp = MustParse(server.HandleLine(
      "{\"id\": \"f\", \"kind\": \"estimate\", \"k\": 4, \"eps\": 0.2, "
      "\"quantiles\": [0.5], \"dataset\": {\"fingerprint\": \"" +
      GetString(from_path, "fingerprint") + "\"}}"));
  EXPECT_EQ(GetString(by_fp, "status"), "ok");
  EXPECT_EQ(GetString(by_fp, "cache"), "hit");
}

TEST(HistkdTest, FsRefsCanBeDisabled) {
  const std::string path = testing::TempDir() + "/histkd_denied.txt";
  {
    std::ofstream f(path);
    f << "0 1 2 3\n";
  }
  ServeOptions options;
  options.workers = 1;
  options.fs_refs.allow = false;  // the socket frontend's default posture
  HistkdServer server(options);

  const JsonValue denied = MustParse(server.HandleLine(
      "{\"id\": \"p\", \"kind\": \"learn\", \"k\": 2, "
      "\"dataset\": {\"path\": \"" + path + "\"}}"));
  EXPECT_EQ(GetString(denied, "status"), "invalid-argument");
  EXPECT_NE(GetString(denied, "error").find("filesystem dataset refs are "
                                            "disabled"),
            std::string::npos);
  // Inline items (and, transitively, fingerprints) still serve.
  EXPECT_EQ(GetString(MustParse(server.HandleLine(LearnLine("i"))), "status"),
            "ok");
}

TEST(HistkdTest, FsRefsAreJailedToTheDataRoot) {
  const std::string root = testing::TempDir() + "/histkd_root";
  mkdir(root.c_str(), 0755);
  const std::string inside = root + "/in.txt";
  const std::string outside = testing::TempDir() + "/histkd_outside.txt";
  for (const std::string& p : {inside, outside}) {
    std::ofstream f(p);
    f << "0 0 1 1 2 3 3 3 7 7\n";
  }
  ServeOptions options;
  options.workers = 1;
  options.fs_refs.root = root;
  HistkdServer server(options);

  auto learn_path = [&server](const std::string& id, const std::string& p) {
    return MustParse(server.HandleLine(
        "{\"id\": \"" + id + "\", \"kind\": \"learn\", \"k\": 4, "
        "\"eps\": 0.2, \"dataset\": {\"path\": \"" + p + "\"}}"));
  };
  EXPECT_EQ(GetString(learn_path("in", inside), "status"), "ok");

  const JsonValue out = learn_path("out", outside);
  EXPECT_EQ(GetString(out, "status"), "invalid-argument");
  EXPECT_NE(GetString(out, "error").find("outside the configured data root"),
            std::string::npos);

  // ".." cannot escape: the path canonicalizes before the prefix check.
  const JsonValue traversal =
      learn_path("dotdot", root + "/../histkd_outside.txt");
  EXPECT_EQ(GetString(traversal, "status"), "invalid-argument");
  EXPECT_NE(GetString(traversal, "error")
                .find("outside the configured data root"),
            std::string::npos);

  // Probing a nonexistent out-of-root path reads exactly like a missing
  // in-root file — no existence oracle.
  const JsonValue probe = learn_path("probe", "/nonexistent/secret.txt");
  EXPECT_EQ(GetString(probe, "status"), "invalid-argument");
  EXPECT_NE(GetString(probe, "error").find("cannot open dataset file"),
            std::string::npos);
}

TEST(HistkdTest, FingerprintReuseVerifiesContent) {
  // The collision guards themselves: same content matches, any content
  // or domain difference does not — the store turns a mismatch on a live
  // fingerprint into a typed error instead of aliasing datasets.
  const std::vector<int64_t> items = {0, 0, 1, 1, 2, 3, 3, 3, 7, 7};
  Result<std::shared_ptr<serve::ServedDataset>> ds =
      serve::ServedDataset::FromItems(8, items, AliasKernel::kReplay);
  ASSERT_TRUE(ds.ok());
  EXPECT_TRUE((*ds)->MatchesItems(8, items));
  EXPECT_FALSE((*ds)->MatchesItems(16, items));  // same bytes, other domain
  std::vector<int64_t> tweaked = items;
  tweaked.back() = 6;
  EXPECT_FALSE((*ds)->MatchesItems(8, tweaked));

  ConcurrentHistogram hist(7);
  hist.Record(3, 5);
  hist.Record(200, 2);
  std::ostringstream wire_os;
  WriteSnapshot(wire_os, hist.Snapshot());
  const std::string wire = wire_os.str();
  Result<std::shared_ptr<serve::ServedDataset>> sketch =
      serve::ServedDataset::FromSketchWire(wire, AliasKernel::kReplay);
  ASSERT_TRUE(sketch.ok()) << sketch.status().ToString();
  EXPECT_TRUE((*sketch)->MatchesSketchWire(wire));
  EXPECT_FALSE((*sketch)->MatchesSketchWire(wire + " "));
  // Cross-kind probes never match: an item entry is not a sketch entry.
  EXPECT_FALSE((*ds)->MatchesSketchWire(wire));
  EXPECT_FALSE((*sketch)->MatchesItems(8, items));
}

TEST(HistkdTest, UnknownFingerprintIsActionableError) {
  ServeOptions options;
  options.workers = 1;
  HistkdServer server(options);
  const JsonValue v = MustParse(server.HandleLine(
      "{\"id\": \"r\", \"kind\": \"learn\", "
      "\"dataset\": {\"fingerprint\": \"00000000deadbeef\"}}"));
  EXPECT_EQ(GetString(v, "status"), "invalid-argument");
  EXPECT_NE(GetString(v, "error").find("unknown dataset fingerprint"),
            std::string::npos);
}

TEST(HistkdTest, ClosenessResolvesBothOraclesAndChecksDomains) {
  ServeOptions options;
  options.workers = 1;
  HistkdServer server(options);

  const JsonValue close = MustParse(server.HandleLine(
      "{\"id\": \"c1\", \"kind\": \"closeness\", \"k\": 2, \"eps\": 0.4, "
      "\"n\": 8, \"dataset\": {\"items\": " + std::string(kItems) + "}, "
      "\"other\": {\"items\": " + kItems + "}}"));
  EXPECT_EQ(GetString(close, "status"), "ok");
  ASSERT_NE(close.Find("report"), nullptr);
  EXPECT_TRUE(close.Find("report")->Find("closeness")->Find("accepted")
                  ->AsBool());

  const JsonValue mismatch = MustParse(server.HandleLine(
      "{\"id\": \"c2\", \"kind\": \"closeness\", \"k\": 2, \"eps\": 0.4, "
      "\"dataset\": {\"items\": [0, 1, 2, 3]}, "
      "\"other\": {\"items\": [0, 1]}}"));
  EXPECT_EQ(GetString(mismatch, "status"), "invalid-argument");
  EXPECT_NE(GetString(mismatch, "error").find("share a domain"),
            std::string::npos);
}

TEST(HistkdTest, ShutdownRequestFlagsTheFrontends) {
  ServeOptions options;
  options.workers = 1;
  HistkdServer server(options);
  EXPECT_FALSE(server.shutdown_requested());
  const JsonValue v = MustParse(server.HandleLine(
      "{\"id\": \"bye\", \"kind\": \"shutdown\"}"));
  EXPECT_EQ(GetString(v, "status"), "ok");
  EXPECT_TRUE(server.shutdown_requested());
}

TEST(HistkdTest, InlineLoadServesTheItemsFingerprintAndReshipsReuse) {
  ServeOptions options;
  options.workers = 1;
  HistkdServer server(options);
  const JsonValue learn = MustParse(server.HandleLine(LearnLine("l")));
  ASSERT_EQ(GetString(learn, "status"), "ok");
  // kItems' largest item is 7, so the derived domain is n = 8.
  const std::vector<int64_t> items = {0, 0, 1, 1, 2, 3, 3, 3, 7, 7};
  EXPECT_EQ(GetString(learn, "fingerprint"),
            serve::FingerprintHex(serve::FingerprintItems(8, items)));
  EXPECT_EQ(server.dataset_counters().loads, 1);
  EXPECT_EQ(server.dataset_counters().reuses, 0);

  const JsonValue reship = MustParse(server.HandleLine(EstimateLine("e")));
  EXPECT_EQ(GetString(reship, "status"), "ok");
  EXPECT_EQ(GetString(reship, "fingerprint"), GetString(learn, "fingerprint"));
  EXPECT_EQ(server.dataset_counters().loads, 1);
  EXPECT_EQ(server.dataset_counters().reuses, 1);
  EXPECT_EQ(server.dataset_counters().entries, 1);
}

TEST(HistkdTest, FromItemsRejectsWhatTheSamplerWouldAbortOn) {
  // The store checks the items through their largest unsigned word, so a
  // negative item must still read as negative, whatever its size.
  auto error = [](int64_t n, std::vector<int64_t> items) {
    Result<std::shared_ptr<serve::ServedDataset>> ds =
        serve::ServedDataset::FromItems(n, std::move(items),
                                        AliasKernel::kReplay);
    return ds.ok() ? std::string("ok") : ds.status().message();
  };
  EXPECT_EQ(error(0, {}), "dataset has no items");
  EXPECT_EQ(error(0, {3, -1, 2}), "dataset items must be >= 0");
  EXPECT_EQ(error(4, {3, std::numeric_limits<int64_t>::min()}),
            "dataset items must be >= 0");
  EXPECT_EQ(error(4, {5, -1}), "dataset items must be >= 0");
  EXPECT_EQ(error(4, {1, 4}), "dataset item 4 outside domain [0, 4)");
  EXPECT_EQ(error(0, {1, std::numeric_limits<int64_t>::max()}),
            "dataset item 9223372036854775807 outside every int64 domain");
  EXPECT_EQ(error(4, {1, 3}), "ok");

  // Over the wire too: n = max + 1 would overflow on the largest int64
  // item, and the sampler's domain check would abort the daemon.
  ServeOptions options;
  options.workers = 1;
  HistkdServer server(options);
  const JsonValue v = MustParse(server.HandleLine(
      "{\"id\": \"big\", \"kind\": \"learn\", \"k\": 2, \"eps\": 0.3, "
      "\"dataset\": {\"items\": [1, 9223372036854775807]}}"));
  EXPECT_EQ(GetString(v, "status"), "invalid-argument");
  EXPECT_NE(GetString(v, "error").find("outside every int64 domain"),
            std::string::npos);
  Result<std::shared_ptr<serve::ServedDataset>> derived =
      serve::ServedDataset::FromItems(0, {1, 6, 2}, AliasKernel::kReplay);
  ASSERT_TRUE(derived.ok());
  EXPECT_EQ((*derived)->n(), 7);
  EXPECT_EQ((*derived)->fingerprint(), serve::FingerprintItems(7, {1, 6, 2}));
}

// ------------------------------------------------------- item fingerprint

TEST(FingerprintTest, PinnedValue) {
  // The served identity of a dataset: changing the hash must be a
  // deliberate, documented break (clients re-upload), not a side effect.
  EXPECT_EQ(serve::FingerprintHex(
                serve::FingerprintItems(256, {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5})),
            "42597969feec385c");
}

TEST(FingerprintTest, DomainLengthAndOrderAllCount) {
  const std::vector<int64_t> base = {10, 11, 12, 13, 14, 15, 16, 17, 18};
  const uint64_t fp = serve::FingerprintItems(256, base);
  EXPECT_EQ(serve::FingerprintItems(256, base), fp);
  EXPECT_NE(serve::FingerprintItems(257, base), fp);

  std::vector<int64_t> appended = base;
  appended.push_back(0);
  EXPECT_NE(serve::FingerprintItems(256, appended), fp);

  std::vector<int64_t> adjacent = base;
  std::swap(adjacent[2], adjacent[3]);  // lanes 2 and 3
  EXPECT_NE(serve::FingerprintItems(256, adjacent), fp);

  std::vector<int64_t> same_lane = base;
  std::swap(same_lane[1], same_lane[5]);  // both feed lane 1
  EXPECT_NE(serve::FingerprintItems(256, same_lane), fp);
}

TEST(FingerprintTest, EveryTailLengthIsHashed) {
  // Lengths 0-7 cover every remainder mod 4 with and without a full
  // four-word round before it. Every length hashes apart from the others,
  // and changing the last item (a tail item unless the length is a
  // multiple of 4) changes the hash.
  const std::vector<int64_t> source = {5, 8, 13, 21, 34, 55, 89, 144};
  std::unordered_set<uint64_t> seen;
  for (size_t len = 0; len <= 7; ++len) {
    const std::vector<int64_t> items(source.begin(),
                                     source.begin() + static_cast<std::ptrdiff_t>(len));
    const uint64_t fp = serve::FingerprintItems(256, items);
    EXPECT_TRUE(seen.insert(fp).second) << "length " << len;
    const serve::ItemsFingerprinter hashed(items);
    EXPECT_EQ(hashed.Finish(256), fp);
    EXPECT_EQ(hashed.max_word(), len == 0 ? 0u : static_cast<uint64_t>(items.back()));
    if (len == 0) continue;
    std::vector<int64_t> tweaked = items;
    tweaked.back() += 1;
    EXPECT_NE(serve::FingerprintItems(256, tweaked), fp) << "length " << len;
  }
}

TEST(FingerprintTest, ShortListsNeverCollide) {
  // Every list of up to three items over a 16-item domain (4,369 lists,
  // zeros included, so only the item count tells [] from [0] from [0, 0]).
  std::unordered_set<uint64_t> seen;
  std::vector<std::vector<int64_t>> lists = {{}};
  for (size_t begin = 0, len = 0; len < 3; ++len) {
    const size_t end = lists.size();
    for (size_t i = begin; i < end; ++i) {
      for (int64_t item = 0; item < 16; ++item) {
        std::vector<int64_t> longer = lists[i];
        longer.push_back(item);
        lists.push_back(std::move(longer));
      }
    }
    begin = end;
  }
  ASSERT_EQ(lists.size(), 4369u);
  for (const std::vector<int64_t>& items : lists) {
    EXPECT_TRUE(seen.insert(serve::FingerprintItems(16, items)).second);
  }
}

}  // namespace
}  // namespace histk
