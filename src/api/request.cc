#include "api/request.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/json.h"
#include "engine/runtime.h"

namespace histk {
namespace api {

const char* RequestKindName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kLearn:
      return "learn";
    case RequestKind::kTest:
      return "test";
    case RequestKind::kCompare:
      return "compare";
    case RequestKind::kEstimate:
      return "estimate";
    case RequestKind::kPropertyTest:
      return "property-test";
    case RequestKind::kCloseness:
      return "closeness";
    case RequestKind::kStats:
      return "stats";
    case RequestKind::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

Result<RequestKind> ParseRequestKind(const std::string& name) {
  if (name == "learn") return RequestKind::kLearn;
  if (name == "test") return RequestKind::kTest;
  if (name == "compare") return RequestKind::kCompare;
  if (name == "estimate") return RequestKind::kEstimate;
  if (name == "property-test") return RequestKind::kPropertyTest;
  if (name == "closeness") return RequestKind::kCloseness;
  if (name == "stats") return RequestKind::kStats;
  if (name == "shutdown") return RequestKind::kShutdown;
  return Status::InvalidArgument(
      "unknown request kind \"" + name +
      "\" (want learn|test|compare|estimate|property-test|closeness|stats|"
      "shutdown)");
}

const char* CacheStateName(CacheState state) {
  switch (state) {
    case CacheState::kHit:
      return "hit";
    case CacheState::kMiss:
      return "miss";
    case CacheState::kBypass:
      return "bypass";
  }
  return "unknown";
}

namespace {

Status FieldError(const std::string& field, const std::string& what) {
  return Status::InvalidArgument("field \"" + field + "\": " + what);
}

Status ReadI64(const JsonValue& v, const std::string& field, int64_t& out) {
  Result<int64_t> parsed = v.AsI64();
  if (!parsed.ok()) return FieldError(field, parsed.status().message());
  out = *parsed;
  return Status::Ok();
}

Status ReadF64(const JsonValue& v, const std::string& field, double& out) {
  Result<double> parsed = v.AsF64();
  if (!parsed.ok()) return FieldError(field, parsed.status().message());
  out = *parsed;
  return Status::Ok();
}

Status ReadBool(const JsonValue& v, const std::string& field, bool& out) {
  if (!v.is_bool()) return FieldError(field, "expected true or false");
  out = v.AsBool();
  return Status::Ok();
}

Status ReadString(const JsonValue& v, const std::string& field,
                  std::string& out) {
  if (!v.is_string()) return FieldError(field, "expected a string");
  out = v.AsString();
  return Status::Ok();
}

/// "dataset" / "other": an object carrying exactly one source key. A
/// packed "items" array is moved into `out`, not copied.
Status ReadDatasetRef(JsonValue& v, const std::string& field,
                      DatasetRef& out) {
  if (!v.is_object()) {
    return FieldError(field,
                      "expected an object with one of \"items\", \"path\", "
                      "\"sketch\", \"fingerprint\"");
  }
  int sources = 0;
  for (auto& member : v.AsObject()) {
    const std::string where = field + "." + member.first;
    if (member.first == "items") {
      if (!member.second.is_array()) {
        return FieldError(where, "expected an array of integers");
      }
      out.kind = DatasetRef::Kind::kInline;
      if (member.second.is_int_array()) {
        out.items = member.second.TakeInts();
        for (int64_t value : out.items) {
          if (value < 0) return FieldError(where, "items must be >= 0");
        }
        ++sources;
        continue;
      }
      out.items.clear();
      out.items.reserve(member.second.AsArray().size());
      for (const JsonValue& item : member.second.AsArray()) {
        int64_t value = 0;
        Status s = ReadI64(item, where + "[]", value);
        if (!s.ok()) return s;
        if (value < 0) return FieldError(where, "items must be >= 0");
        out.items.push_back(value);
      }
      ++sources;
    } else if (member.first == "path") {
      Status s = ReadString(member.second, where, out.path);
      if (!s.ok()) return s;
      out.kind = DatasetRef::Kind::kPath;
      ++sources;
    } else if (member.first == "sketch") {
      Status s = ReadString(member.second, where, out.path);
      if (!s.ok()) return s;
      out.kind = DatasetRef::Kind::kSketch;
      ++sources;
    } else if (member.first == "fingerprint") {
      Status s = ReadString(member.second, where, out.fingerprint);
      if (!s.ok()) return s;
      out.kind = DatasetRef::Kind::kFingerprint;
      ++sources;
    } else {
      return FieldError(where, "unknown dataset source key");
    }
  }
  if (sources != 1) {
    return FieldError(field,
                      "want exactly one of \"items\", \"path\", \"sketch\", "
                      "\"fingerprint\"");
  }
  return Status::Ok();
}

}  // namespace

Result<RequestSpec> ParseRequestJson(const std::string& line) {
  Result<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok()) return parsed.status();
  JsonValue& root = *parsed;
  if (!root.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }

  RequestSpec req;
  bool saw_id = false;
  bool saw_kind = false;
  for (auto& member : root.AsObject()) {
    const std::string& key = member.first;
    JsonValue& value = member.second;
    Status s = Status::Ok();
    if (key == "id") {
      s = ReadString(value, key, req.id);
      if (s.ok() && req.id.empty()) s = FieldError(key, "must be non-empty");
      saw_id = true;
    } else if (key == "kind") {
      std::string name;
      s = ReadString(value, key, name);
      if (s.ok()) {
        Result<RequestKind> kind = ParseRequestKind(name);
        if (!kind.ok()) return kind.status();
        req.kind = *kind;
        saw_kind = true;
      }
    } else if (key == "k") {
      s = ReadI64(value, key, req.k);
    } else if (key == "k2") {
      s = ReadI64(value, key, req.k2);
    } else if (key == "eps") {
      s = ReadF64(value, key, req.eps);
    } else if (key == "norm") {
      std::string name;
      s = ReadString(value, key, name);
      if (s.ok()) {
        if (name == "l1" || name == "L1") {
          req.norm = Norm::kL1;
        } else if (name == "l2" || name == "L2") {
          req.norm = Norm::kL2;
        } else {
          s = FieldError(key, "want \"l1\" or \"l2\"");
        }
        req.norm_set = true;
      }
    } else if (key == "scale") {
      s = ReadF64(value, key, req.scale);
    } else if (key == "full_enum") {
      s = ReadBool(value, key, req.full_enum);
    } else if (key == "reduce") {
      s = ReadBool(value, key, req.reduce);
    } else if (key == "seed") {
      int64_t seed = 0;
      s = ReadI64(value, key, seed);
      if (s.ok() && seed < 0) s = FieldError(key, "must be >= 0");
      if (s.ok()) req.seed = static_cast<uint64_t>(seed);
    } else if (key == "budget") {
      s = ReadI64(value, key, req.budget);
    } else if (key == "deadline_ms") {
      s = ReadI64(value, key, req.deadline_ms);
      if (s.ok() && req.deadline_ms < 0) s = FieldError(key, "must be >= 0");
    } else if (key == "max_retries") {
      int64_t retries = 0;
      s = ReadI64(value, key, retries);
      if (s.ok() && retries < 0) s = FieldError(key, "must be >= 0");
      if (s.ok()) req.max_retries = static_cast<int>(retries);
    } else if (key == "draw_threads") {
      int64_t threads = 0;
      s = ReadI64(value, key, threads);
      if (s.ok() && threads < 0) s = FieldError(key, "must be >= 0");
      if (s.ok()) req.draw_threads = static_cast<int>(threads);
    } else if (key == "quantiles") {
      if (!value.is_array()) {
        s = FieldError(key, "expected an array of numbers");
      } else if (value.is_int_array()) {
        for (int64_t level : value.AsInts()) {
          req.quantiles.push_back(static_cast<double>(level));
        }
      } else {
        for (const JsonValue& q : value.AsArray()) {
          double level = 0.0;
          s = ReadF64(q, key + "[]", level);
          if (!s.ok()) break;
          req.quantiles.push_back(level);
        }
      }
    } else if (key == "ranges") {
      if (!value.is_array()) {
        s = FieldError(key, "expected an array of [lo, hi] pairs");
      } else if (!value.AsInts().empty()) {
        // A packed outer array holds bare integers, never pairs.
        s = FieldError(key, "each range must be a [lo, hi] pair");
      } else {
        for (const JsonValue& pair : value.AsArray()) {
          const size_t size = pair.is_int_array() ? pair.AsInts().size()
                                                  : pair.AsArray().size();
          if (!pair.is_array() || size != 2) {
            s = FieldError(key, "each range must be a [lo, hi] pair");
            break;
          }
          if (pair.is_int_array()) {
            req.ranges.emplace_back(pair.AsInts()[0], pair.AsInts()[1]);
            continue;
          }
          int64_t lo = 0;
          int64_t hi = 0;
          s = ReadI64(pair.AsArray()[0], key + "[].lo", lo);
          if (!s.ok()) break;
          s = ReadI64(pair.AsArray()[1], key + "[].hi", hi);
          if (!s.ok()) break;
          req.ranges.emplace_back(lo, hi);
        }
      }
    } else if (key == "n") {
      s = ReadI64(value, key, req.n);
      if (s.ok() && req.n < 0) s = FieldError(key, "must be >= 0");
    } else if (key == "reservoir") {
      s = ReadI64(value, key, req.reservoir);
      if (s.ok() && req.reservoir <= 0) s = FieldError(key, "must be > 0");
    } else if (key == "dataset") {
      s = ReadDatasetRef(value, key, req.dataset);
    } else if (key == "other") {
      s = ReadDatasetRef(value, key, req.other);
    } else {
      s = Status::InvalidArgument("unknown request field \"" + key + "\"");
    }
    if (!s.ok()) return s;
  }

  if (!saw_id) return Status::InvalidArgument("field \"id\": required");
  if (!saw_kind) return Status::InvalidArgument("field \"kind\": required");
  if (req.other.kind != DatasetRef::Kind::kNone &&
      req.kind != RequestKind::kCloseness) {
    return FieldError("other", "only closeness requests take a second oracle");
  }
  return req;
}

namespace {

/// The runtime knobs every task shares — pinned to the CLI's legacy
/// ApplyRuntimeFlags assembly (tools/histk_cli.cc) for byte-parity.
void ApplyCommon(const RequestSpec& req, SpecCommon& spec) {
  spec.seed = req.seed;
  spec.budget = req.budget;
  if (req.deadline_ms > 0) {
    spec.policy.deadline = Deadline::AfterMillis(req.deadline_ms);
  }
  spec.policy.retry.max_retries = req.max_retries;
  if (req.draw_threads > 0) spec.draw_threads = req.draw_threads;
}

Status RejectQueryFields(const RequestSpec& req, const char* kind) {
  if (!req.quantiles.empty() || !req.ranges.empty()) {
    return Status::InvalidArgument(
        std::string(kind) + " requests take no quantiles/ranges");
  }
  return Status::Ok();
}

}  // namespace

Result<TaskSpec> BuildTaskSpec(const RequestSpec& req) {
  if (req.k2 > 0 && req.kind != RequestKind::kCloseness) {
    return Status::InvalidArgument(
        "field \"k2\": only closeness requests take a second piece budget");
  }
  if (req.reduce && req.kind != RequestKind::kLearn) {
    return Status::InvalidArgument(
        "field \"reduce\": only learn requests reduce the tiling");
  }
  switch (req.kind) {
    case RequestKind::kLearn: {
      Status s = RejectQueryFields(req, "learn");
      if (!s.ok()) return s;
      LearnSpec spec;
      ApplyCommon(req, spec);
      spec.options.k = req.k;
      spec.options.eps = req.eps;
      spec.options.sample_scale = req.scale;
      spec.options.strategy = req.full_enum
                                  ? CandidateStrategy::kAllIntervals
                                  : CandidateStrategy::kSampleEndpoints;
      if (req.reduce) spec.reduce_to = req.k;
      return TaskSpec(std::move(spec));
    }
    case RequestKind::kTest: {
      Status s = RejectQueryFields(req, "test");
      if (!s.ok()) return s;
      TestSpec spec;
      ApplyCommon(req, spec);
      spec.config.k = req.k;
      spec.config.eps = req.eps;
      spec.config.norm = req.norm;
      spec.config.sample_scale = req.scale;
      return TaskSpec(std::move(spec));
    }
    case RequestKind::kCompare: {
      Status s = RejectQueryFields(req, "compare");
      if (!s.ok()) return s;
      CompareSpec spec;
      ApplyCommon(req, spec);
      spec.k = req.k;
      spec.eps = req.eps;
      spec.sample_scale = req.scale;
      spec.strategy = req.full_enum ? CandidateStrategy::kAllIntervals
                                    : CandidateStrategy::kSampleEndpoints;
      return TaskSpec(std::move(spec));
    }
    case RequestKind::kEstimate: {
      if (req.full_enum) {
        return Status::InvalidArgument(
            "field \"full_enum\": estimate always uses the sample-endpoints "
            "strategy");
      }
      EstimateSpec spec;
      ApplyCommon(req, spec);
      spec.k = req.k;
      spec.eps = req.eps;
      spec.sample_scale = req.scale;
      spec.quantile_levels = req.quantiles;
      spec.ranges = req.ranges;
      return TaskSpec(std::move(spec));
    }
    case RequestKind::kPropertyTest: {
      Status s = RejectQueryFields(req, "property-test");
      if (!s.ok()) return s;
      PropertyTestSpec spec;
      ApplyCommon(req, spec);
      spec.config.k = req.k;
      spec.config.eps = req.eps;
      // CDKL22's guarantee is stated in total variation; honor an explicit
      // norm, default L1 (the legacy CLI behavior, byte-pinned).
      spec.config.norm = req.norm_set ? req.norm : Norm::kL1;
      spec.config.sample_scale = req.scale;
      return TaskSpec(std::move(spec));
    }
    case RequestKind::kCloseness: {
      Status s = RejectQueryFields(req, "closeness");
      if (!s.ok()) return s;
      ClosenessSpec spec;
      ApplyCommon(req, spec);
      spec.config.k_p = req.k;
      spec.config.k_q = req.k2 > 0 ? req.k2 : req.k;
      spec.config.eps = req.eps;
      spec.config.sample_scale = req.scale;
      spec.other = nullptr;  // the caller owns and wires the second oracle
      return TaskSpec(std::move(spec));
    }
    case RequestKind::kStats:
    case RequestKind::kShutdown:
      return Status::InvalidArgument(
          std::string(RequestKindName(req.kind)) +
          " is a control request with no engine task");
  }
  return Status::Internal("unhandled request kind");
}

std::string CanonicalSynopsisKey(const RequestSpec& req,
                                 const std::string& fingerprint) {
  if (req.kind != RequestKind::kLearn && req.kind != RequestKind::kEstimate) {
    return std::string();
  }
  // Estimate sessions always learn with kSampleEndpoints (EstimateSpec has
  // no strategy knob; BuildTaskSpec rejects full_enum there), so the
  // resolved strategy below is exactly what the engine will run.
  const bool all_intervals = req.kind == RequestKind::kLearn && req.full_enum;
  std::string key = "synopsis-v1|fp=" + fingerprint;
  key += "|k=" + std::to_string(req.k);
  key += "|eps=";
  AppendJsonDouble(key, req.eps);
  key += "|scale=";
  AppendJsonDouble(key, req.scale);
  key += all_intervals ? "|strategy=all" : "|strategy=endpoints";
  key += "|seed=" + std::to_string(req.seed);
  key += "|budget=" + std::to_string(req.budget);
  key += "|deadline_ms=" + std::to_string(req.deadline_ms);
  key += "|retries=" + std::to_string(req.max_retries);
  key += "|threads=" + std::to_string(req.draw_threads);
  return key;
}

std::string WriteResponseJson(const ResponseEnvelope& envelope) {
  std::string out = "{\"histkd_response\": 1, \"id\": ";
  if (envelope.has_id) {
    AppendJsonString(out, envelope.id);
  } else {
    out += "null";
  }
  out += ", \"kind\": ";
  if (!envelope.kind.empty()) {
    AppendJsonString(out, envelope.kind);
  } else {
    out += "null";
  }
  out += ", \"status\": ";
  AppendJsonString(out, StatusCodeName(envelope.status));
  out += ", \"degraded\": ";
  out += envelope.degraded ? "true" : "false";
  out += ", \"retries\": " + std::to_string(envelope.retries);
  out += ", \"cache\": ";
  AppendJsonString(out, CacheStateName(envelope.cache));
  if (!envelope.fingerprint.empty()) {
    out += ", \"fingerprint\": ";
    AppendJsonString(out, envelope.fingerprint);
  }
  if (envelope.retry_after_ms >= 0) {
    out += ", \"retry_after_ms\": " + std::to_string(envelope.retry_after_ms);
  }
  if (envelope.serve_ms >= 0.0) {
    out += ", \"serve_ms\": ";
    AppendJsonDouble(out, envelope.serve_ms);
  }
  if (!envelope.error.empty()) {
    out += ", \"error\": ";
    AppendJsonString(out, envelope.error);
  }
  if (envelope.report != nullptr) {
    out += ", \"report\": ";
    AppendReportJson(out, *envelope.report);
  }
  if (envelope.stats_json != nullptr) {
    out += ", \"stats\": " + *envelope.stats_json;
  }
  out += "}\n";
  return out;
}

}  // namespace api
}  // namespace histk
