// Differential sweep: the request parser (api::ParseJson, which packs
// integer arrays into one int64 vector) against the generic-only reference
// in tests/json_reference.h, over the request lines under tests/data/,
// ingest-shaped 20,000-item lines, and seeded mutations of all of them.
// The property on every input: both accept with equal trees (a packed array
// equals a generic array of the same integers), or both reject with
// byte-identical Statuses.
#include "json_reference.h"

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/json.h"
#include "util/rng.h"

namespace histk {
namespace {

using api::JsonValue;
using reference::kJsonMaxDepth;

/// Canonical text of a tree: number tokens verbatim, a packed array as the
/// decimal text of its integers. The packed path only takes canonical
/// integer tokens (no leading zero, no "-0"), so two trees are equal
/// exactly when their dumps are.
void Dump(const JsonValue& v, std::string& out) {
  switch (v.type()) {
    case JsonValue::Type::kNull:
      out += "null";
      return;
    case JsonValue::Type::kBool:
      out += v.AsBool() ? "true" : "false";
      return;
    case JsonValue::Type::kNumber:
      out += v.NumberToken();
      return;
    case JsonValue::Type::kString:
      api::AppendJsonString(out, v.AsString());
      return;
    case JsonValue::Type::kArray:
      out += '[';
      if (v.is_int_array()) {
        for (size_t i = 0; i < v.AsInts().size(); ++i) {
          if (i > 0) out += ',';
          out += std::to_string(v.AsInts()[i]);
        }
      } else {
        for (size_t i = 0; i < v.AsArray().size(); ++i) {
          if (i > 0) out += ',';
          Dump(v.AsArray()[i], out);
        }
      }
      out += ']';
      return;
    case JsonValue::Type::kObject:
      out += '{';
      for (size_t i = 0; i < v.AsObject().size(); ++i) {
        if (i > 0) out += ',';
        api::AppendJsonString(out, v.AsObject()[i].first);
        out += ':';
        Dump(v.AsObject()[i].second, out);
      }
      out += '}';
      return;
  }
}

std::string Dump(const JsonValue& v) {
  std::string out;
  Dump(v, out);
  return out;
}

int64_t CountPacked(const JsonValue& v) {
  if (v.is_int_array()) return 1;
  int64_t packed = 0;
  for (const JsonValue& item : v.AsArray()) packed += CountPacked(item);
  for (const auto& member : v.AsObject()) packed += CountPacked(member.second);
  return packed;
}

/// What the sweep saw, so it can check it covered both outcomes.
struct Tally {
  int64_t accepted = 0;
  int64_t rejected = 0;
  int64_t packed_arrays = 0;
};

/// Parses `text` with both parsers and checks the property.
void ExpectSameOutcome(const std::string& text, const std::string& what,
                       Tally& tally) {
  const Result<JsonValue> got = api::ParseJson(text);
  const Result<JsonValue> want = reference::ParseJson(text);
  ASSERT_EQ(got.ok(), want.ok())
      << what << ": packed " << got.status().ToString() << " vs reference "
      << want.status().ToString() << " on: " << text.substr(0, 200);
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << what;
    EXPECT_EQ(got.status().message(), want.status().message()) << what;
    ++tally.rejected;
    return;
  }
  const std::string got_dump = Dump(*got);
  const std::string want_dump = Dump(*want);
  if (got_dump != want_dump) {
    size_t at = 0;
    while (at < got_dump.size() && at < want_dump.size() &&
           got_dump[at] == want_dump[at]) {
      ++at;
    }
    ADD_FAILURE() << what << ": trees differ at dump byte " << at << ": \""
                  << got_dump.substr(at, 40) << "\" vs \""
                  << want_dump.substr(at, 40) << "\"";
  }
  ++tally.accepted;
  tally.packed_arrays += CountPacked(*got);
}

std::vector<std::string> FixtureLines() {
  std::vector<std::string> lines;
  for (const char* name :
       {"request_closeness.json", "request_estimate.json", "request_learn.json"}) {
    std::ifstream f(std::string(HISTK_TEST_DATA_DIR) + "/" + name);
    EXPECT_TRUE(f.good()) << "cannot open " << name;
    std::string line;
    while (std::getline(f, line)) {
      if (!line.empty()) lines.push_back(line);
    }
  }
  EXPECT_EQ(lines.size(), 3u);
  return lines;
}

/// A property-test request shipping `count` inline items over [0, 256),
/// shaped like the ingest benchmark's lines.
std::string IngestLine(uint64_t seed, int count) {
  Rng rng(seed);
  std::string line = "{\"id\":\"ingest-" + std::to_string(seed) +
                     "\",\"kind\":\"test\",\"k\":4,\"eps\":0.3,\"seed\":" +
                     std::to_string(seed) +
                     ",\"norm\":\"l2\",\"n\":256,\"dataset\":{\"items\":[";
  for (int i = 0; i < count; ++i) {
    if (i > 0) line += ',';
    line += std::to_string(rng.UniformInt(256));
  }
  line += "]}}";
  return line;
}

/// Arrays at and around the packed grammar's edges.
std::vector<std::string> EdgeLines() {
  return {
      "[]",
      "[ ]",
      "[0]",
      "[-0]",
      "[-1, 0, 1]",
      "[1.0]",
      "[1e2]",
      "[01]",
      "[1,]",
      "[,1]",
      "[1 2]",
      "[\"1\"]",
      "[ 1 ,\t2\r\n]",
      "[9223372036854775807, -9223372036854775808]",
      "[9223372036854775808]",
      "[-9223372036854775809]",
      "[[0, 5], [7, 7], []]",
      "[1, [2], 3]",
      "[1, {\"a\": 2}]",
      "[1, true, null]",
      "{\"quantiles\": [0, 1], \"ranges\": [[0, 5], [7, 7]]}",
      "{\"quantiles\": [0.5, 1], \"items\": [3, 1, 2]}",
  };
}

const char* const kBounds[] = {
    "9223372036854775806",  "9223372036854775807",  "9223372036854775808",
    "-9223372036854775807", "-9223372036854775808", "-9223372036854775809",
};

/// Replaces one integer token (a maximal digit run with its sign) chosen
/// at random with an int64 bound or its neighbour.
std::string ReplaceInteger(const std::string& line, Rng& rng) {
  std::vector<size_t> starts;
  for (size_t i = 0; i < line.size(); ++i) {
    const bool digit = line[i] >= '0' && line[i] <= '9';
    const bool after_digit = i > 0 && line[i - 1] >= '0' && line[i - 1] <= '9';
    if (digit && !after_digit) starts.push_back(i > 0 && line[i - 1] == '-' ? i - 1 : i);
  }
  if (starts.empty()) return line;
  const size_t start = starts[rng.UniformInt(starts.size())];
  size_t end = start + (line[start] == '-' ? 1 : 0);
  while (end < line.size() && line[end] >= '0' && line[end] <= '9') ++end;
  const char* bound = kBounds[rng.UniformInt(sizeof(kBounds) / sizeof(kBounds[0]))];
  return line.substr(0, start) + bound + line.substr(end);
}

/// One seeded edit: digit, sign, '.' or 'e' insertion, byte deletion,
/// JSON whitespace insertion, a doubled comma, truncation, or an int64
/// bound swapped in for an integer.
std::string MutateOnce(const std::string& line, Rng& rng) {
  if (line.empty()) return "0";
  const size_t at = rng.UniformInt(line.size() + 1);
  auto insert = [&](const std::string& s) { return line.substr(0, at) + s + line.substr(at); };
  switch (rng.UniformInt(9)) {
    case 0:
      return insert(std::string(1, static_cast<char>('0' + rng.UniformInt(10))));
    case 1:
      return insert(rng.UniformInt(2) == 0 ? "-" : "+");
    case 2:
      return insert(".");
    case 3:
      return insert(rng.UniformInt(2) == 0 ? "e" : "E");
    case 4:
      return at < line.size() ? line.substr(0, at) + line.substr(at + 1) : line.substr(0, at);
    case 5: {
      static const char kSpace[] = {'\t', '\r', '\n', ' '};
      return insert(std::string(1, kSpace[rng.UniformInt(4)]));
    }
    case 6: {
      const size_t comma = line.find(',', at);
      if (comma == std::string::npos) return insert(",");
      return line.substr(0, comma) + "," + line.substr(comma);
    }
    case 7:
      return line.substr(0, at);
    default:
      return ReplaceInteger(line, rng);
  }
}

/// `value` wrapped in `levels` arrays or single-key objects, so it sits at
/// depth `levels`.
std::string Wrap(const std::string& value, int levels, bool objects) {
  std::string out;
  for (int i = 0; i < levels; ++i) out += objects ? "{\"w\": " : "[";
  out += value;
  for (int i = 0; i < levels; ++i) out += objects ? "}" : "]";
  return out;
}

TEST(JsonDifferentialTest, CorpusLinesParseAlike) {
  Tally tally;
  for (const std::string& line : FixtureLines()) ExpectSameOutcome(line, "fixture", tally);
  for (const std::string& line : EdgeLines()) ExpectSameOutcome(line, "edge " + line, tally);
  for (uint64_t seed : {1u, 2u}) {
    ExpectSameOutcome(IngestLine(seed, 20000), "ingest", tally);
  }
  EXPECT_GT(tally.rejected, 0);
  EXPECT_GT(tally.packed_arrays, 0);
}

TEST(JsonDifferentialTest, IngestItemsArePackedIntoOneVector) {
  const std::string line = IngestLine(3, 20000);
  const Result<JsonValue> parsed = api::ParseJson(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* items = parsed->Find("dataset")->Find("items");
  ASSERT_NE(items, nullptr);
  EXPECT_TRUE(items->is_array());
  EXPECT_TRUE(items->is_int_array());
  EXPECT_EQ(items->AsInts().size(), 20000u);
  EXPECT_TRUE(items->AsArray().empty());
}

TEST(JsonDifferentialTest, SeededMutationsParseAlike) {
  std::vector<std::string> corpus = FixtureLines();
  for (const std::string& line : EdgeLines()) corpus.push_back(line);
  Rng rng(20240518);
  Tally tally;
  for (const std::string& base : corpus) {
    for (int round = 0; round < 1000; ++round) {
      std::string line = base;
      const uint64_t edits = 1 + rng.UniformInt(3);
      for (uint64_t e = 0; e < edits; ++e) line = MutateOnce(line, rng);
      ExpectSameOutcome(line, "mutation of " + base, tally);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(tally.accepted, 3000);
  EXPECT_GT(tally.rejected, 3000);
  EXPECT_GT(tally.packed_arrays, 3000);
}

TEST(JsonDifferentialTest, SeededMutationsOfIngestLinesParseAlike) {
  Rng rng(77);
  Tally tally;
  for (uint64_t seed : {4u, 5u}) {
    const std::string base = IngestLine(seed, 20000);
    for (int round = 0; round < 24; ++round) {
      ExpectSameOutcome(MutateOnce(base, rng), "ingest mutation", tally);
      if (HasFatalFailure()) return;
    }
    for (int round = 0; round < 4; ++round) {
      ExpectSameOutcome(ReplaceInteger(base, rng), "ingest bound", tally);
    }
  }
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.rejected, 0);
  EXPECT_GT(tally.packed_arrays, 0);
}

TEST(JsonDifferentialTest, Int64BoundsParseAlike) {
  Tally tally;
  for (const char* bound : kBounds) {
    const std::string line = std::string("[1, ") + bound + ", 2]";
    ExpectSameOutcome(line, line, tally);
    ExpectSameOutcome(std::string("{\"items\": [") + bound + "]}", bound, tally);
  }
  EXPECT_EQ(tally.rejected, 0);  // every bound is a finite number token
  // The four in-range bounds pack; the two overflows stay generic.
  EXPECT_EQ(tally.packed_arrays, 8);
}

TEST(JsonDifferentialTest, NestingAroundTheDepthLimitParsesAlike) {
  std::vector<std::string> values = {"[1, 2, 3]", "[]", "[1, 2.5]", "[[0, 5], [7, 7]]"};
  for (const std::string& line : FixtureLines()) values.push_back(line);
  values.push_back(IngestLine(6, 20000));
  Tally tally;
  for (const std::string& value : values) {
    for (int levels = kJsonMaxDepth - 4; levels <= kJsonMaxDepth + 1; ++levels) {
      for (bool objects : {false, true}) {
        ExpectSameOutcome(Wrap(value, levels, objects),
                          "depth " + std::to_string(levels) + " " + value.substr(0, 40),
                          tally);
      }
    }
  }
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.rejected, 0);
  EXPECT_GT(tally.packed_arrays, 0);
}

}  // namespace
}  // namespace histk
