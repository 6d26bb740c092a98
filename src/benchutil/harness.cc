#include "benchutil/harness.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "api/json.h"
#include "util/common.h"

namespace histk {

namespace {

/// One measurement in the machine-readable log.
struct BenchRecord {
  std::string label;
  bool is_rate = false;
  AcceptRate rate;
  ScalarStats scalar;
};

/// Process-wide log of the experiment currently being measured. Benches are
/// single-threaded drivers, so plain statics suffice.
struct BenchLog {
  bool active = false;
  std::string experiment;
  std::string path;
  std::string pending_label;
  std::vector<BenchRecord> records;
};

BenchLog& Log() {
  static BenchLog log;
  return log;
}

bool JsonEnabled() {
  const char* flag = std::getenv("HISTK_BENCH_JSON");
  return flag == nullptr || std::string(flag) != "0";
}

/// "E1: learner error vs ..." -> "E1"; non-alphanumerics become '-'.
std::string SlugOf(const std::string& id) {
  std::string slug = id.substr(0, id.find(':'));
  for (char& c : slug) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '-') c = '-';
  }
  if (slug.empty()) slug = "experiment";
  return slug;
}

/// `, "key": <double>` through the shared JSON emitter.
void AppendNumberMember(std::string& out, const char* key, double v) {
  out += ", \"";
  out += key;
  out += "\": ";
  api::AppendJsonDouble(out, v);
}

/// Rewrites the whole document: cheap at bench scale, and a crash mid-run
/// still leaves valid JSON for every completed measurement.
void WriteJson() {
  BenchLog& log = Log();
  if (!log.active || !JsonEnabled()) return;
  std::string out = "{\n  \"experiment\": ";
  api::AppendJsonString(out, log.experiment);
  out += ",\n  \"records\": [";
  for (size_t i = 0; i < log.records.size(); ++i) {
    const BenchRecord& r = log.records[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"label\": ";
    api::AppendJsonString(out, r.label);
    if (r.is_rate) {
      out += ", \"kind\": \"rate\"";
      AppendNumberMember(out, "rate", r.rate.rate);
      AppendNumberMember(out, "ci_low", r.rate.ci_low);
      AppendNumberMember(out, "ci_high", r.rate.ci_high);
      out += ", \"trials\": " + std::to_string(r.rate.trials) + "}";
    } else {
      out += ", \"kind\": \"scalar\"";
      AppendNumberMember(out, "mean", r.scalar.mean);
      AppendNumberMember(out, "stddev", r.scalar.stddev);
      AppendNumberMember(out, "min", r.scalar.min);
      AppendNumberMember(out, "max", r.scalar.max);
      out += ", \"trials\": " + std::to_string(r.scalar.trials) + "}";
    }
  }
  out += "\n  ]\n}\n";
  // Write-then-rename: a crash mid-run never clobbers the last good
  // document with a truncated one.
  const std::string tmp = log.path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::trunc);
    if (f) f << out;
    if (!f) {
      static bool warned = false;
      if (!warned) {
        warned = true;
        std::fprintf(stderr, "histk bench: cannot write %s (further JSON emission "
                             "failures are silent)\n", tmp.c_str());
      }
      return;
    }
  }
  if (std::rename(tmp.c_str(), log.path.c_str()) != 0) {
    static bool warned = false;
    if (!warned) {
      warned = true;
      std::fprintf(stderr, "histk bench: cannot rename %s -> %s\n", tmp.c_str(),
                   log.path.c_str());
    }
  }
}

void AppendRecord(BenchRecord record) {
  BenchLog& log = Log();
  if (!log.active) return;
  record.label = log.pending_label.empty() ? std::to_string(log.records.size())
                                           : log.pending_label;
  log.pending_label.clear();
  log.records.push_back(std::move(record));
  WriteJson();
}

}  // namespace

AcceptRate MeasureRate(int64_t trials, const std::function<bool(int64_t)>& trial) {
  HISTK_CHECK(trials > 0);
  int64_t hits = 0;
  for (int64_t t = 0; t < trials; ++t) {
    if (trial(t)) ++hits;
  }
  const WilsonInterval ci = WilsonScore(hits, trials);
  const AcceptRate rate{static_cast<double>(hits) / static_cast<double>(trials),
                        ci.lower, ci.upper, trials};
  BenchRecord record;
  record.is_rate = true;
  record.rate = rate;
  AppendRecord(std::move(record));
  return rate;
}

std::string FmtRate(const AcceptRate& r) {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%.2f [%.2f,%.2f]", r.rate, r.ci_low, r.ci_high);
  return buf;
}

ScalarStats MeasureScalar(int64_t trials, const std::function<double(int64_t)>& trial) {
  HISTK_CHECK(trials > 0);
  std::vector<double> vals(static_cast<size_t>(trials));
  for (int64_t t = 0; t < trials; ++t) vals[static_cast<size_t>(t)] = trial(t);
  ScalarStats s;
  s.mean = Mean(vals);
  s.stddev = StdDev(vals);
  s.min = *std::min_element(vals.begin(), vals.end());
  s.max = *std::max_element(vals.begin(), vals.end());
  s.trials = trials;
  BenchRecord record;
  record.scalar = s;
  AppendRecord(std::move(record));
  return s;
}

std::string FmtScalar(const ScalarStats& s) {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%.3e (sd %.1e)", s.mean, s.stddev);
  return buf;
}

void PrintExperimentHeader(const std::string& id, const std::string& claim,
                           const std::string& setup) {
  std::printf("\n==================================================================\n");
  std::printf("%s\n", id.c_str());
  std::printf("claim: %s\n", claim.c_str());
  std::printf("setup: %s\n", setup.c_str());
  std::printf("==================================================================\n");

  BenchLog& log = Log();
  log.active = true;
  log.experiment = id;
  const char* dir = std::getenv("HISTK_BENCH_JSON_DIR");
  log.path = std::string(dir != nullptr ? dir : ".") + "/BENCH_" + SlugOf(id) + ".json";
  log.pending_label.clear();
  log.records.clear();
  WriteJson();
}

void NextBenchLabel(std::string label) { Log().pending_label = std::move(label); }

}  // namespace histk
