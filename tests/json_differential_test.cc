// Differential sweep: the request parser (api::ParseJson, which packs
// integer arrays into one int64 vector) against the generic-only reference
// in tests/json_reference.h, over the request lines under tests/data/,
// ingest-shaped 20,000-item lines, and seeded mutations of all of them.
// The property on every input: both accept with equal trees (a packed array
// equals a generic array of the same integers), or both reject with
// byte-identical Statuses.
#include "json_reference.h"

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/json.h"
#include "util/rng.h"

namespace {
/// Bytes requested through operator new, so a test can bound what one
/// parse allocates (the suite runs on one thread).
size_t g_new_bytes = 0;
}  // namespace

void* operator new(std::size_t size) {
  g_new_bytes += size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line: inlined into a caller, GCC reads free() of what operator
// new returned as a mismatched pair (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

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

/// Parses `line` with both parsers and checks the property. Both parse a
/// copy allocated at the line's exact size, so under ASan a read past the
/// line's end is a heap overflow rather than a read of spare capacity.
void ExpectSameOutcome(const std::string& line, const std::string& what,
                       Tally& tally) {
  const std::string text(line.data(), line.size());
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
  EXPECT_EQ(items->AsInts().capacity(), items->AsInts().size());  // one allocation
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

/// Every byte the block path can meet: all 256 values.
std::vector<char> AllBytes() {
  std::vector<char> bytes;
  for (int b = 0; b < 256; ++b) bytes.push_back(static_cast<char>(b));
  return bytes;
}

/// `line` with byte `at` replaced by `b`, and with it deleted.
std::vector<std::string> ByteMutations(const std::string& line, size_t at,
                                       const std::vector<char>& bytes) {
  std::vector<std::string> out;
  for (char b : bytes) {
    if (b == line[at]) continue;
    std::string mutated = line;
    mutated[at] = b;
    out.push_back(std::move(mutated));
  }
  out.push_back(line.substr(0, at) + line.substr(at + 1));
  return out;
}

/// The offsets the block sweeps mutate: a 72-byte window from `from`, and
/// the line's last 8 bytes. In a compact array of short items each block
/// starts at an element within 65 bytes of the last block's start, so any
/// 72 bytes of the array straddle a block boundary.
std::vector<size_t> BlockEdgeOffsets(const std::string& line, size_t from) {
  std::vector<size_t> offsets;
  for (size_t at = from; at < from + 72; ++at) offsets.push_back(at);
  for (size_t at = line.size() - 8; at < line.size(); ++at) offsets.push_back(at);
  return offsets;
}

TEST(JsonDifferentialTest, EveryByteAtBlockEdgesParsesAlike) {
  // All 256 substitutions and a deletion at each offset. On a 20,000-item
  // line the reference parser takes about 6 ms, so this exhaustive sweep
  // runs on a 120-item line, whose window lies in the block path (well
  // before the line's last 72 bytes); the 20,000-item sweep below rotates
  // through the byte classes instead.
  const std::string line = IngestLine(8, 120);
  const size_t from = line.find('[') + 150;
  ASSERT_LT(from + 72 + 72, line.size());
  const std::vector<char> bytes = AllBytes();
  Tally tally;
  for (size_t at : BlockEdgeOffsets(line, from)) {
    for (const std::string& mutated : ByteMutations(line, at, bytes)) {
      ExpectSameOutcome(mutated, "offset " + std::to_string(at), tally);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(tally.accepted, 500);
  EXPECT_GT(tally.rejected, 10000);
  EXPECT_GT(tally.packed_arrays, 500);
}

TEST(JsonDifferentialTest, BlockEdgesOfAnIngestLineParseAlike) {
  // The same window and tail on a 20,000-item line, a window in the middle
  // of the array. Each offset takes one substitution, rotating through a
  // digit, a separator, whitespace, a sign, a fraction, a letter and a
  // byte >= 0x80 (the classes the block path tells apart), and a deletion
  // at every fourth offset.
  const std::string line = IngestLine(9, 20000);
  const size_t from = line.find('[') + line.size() / 2;
  const char kClasses[] = {'7', '0', ',', ']', ' ', '\n', '-', '+', '.', 'e', 'x', '\x80'};
  Tally tally;
  size_t turn = 0;
  for (size_t at : BlockEdgeOffsets(line, from)) {
    std::string mutated = line;
    mutated[at] = kClasses[turn++ % sizeof(kClasses)];
    ExpectSameOutcome(mutated, "offset " + std::to_string(at), tally);
    if (at % 4 == 0) {
      ExpectSameOutcome(line.substr(0, at) + line.substr(at + 1),
                        "deletion at " + std::to_string(at), tally);
    }
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.rejected, 0);
  EXPECT_GT(tally.packed_arrays, 0);
}

TEST(JsonDifferentialTest, ElementFormsAroundTheFastPathParseAlike) {
  // Each token below, put at every offset of a 64-byte block among
  // one-to-three-digit items: items of 1 to 19 digits (the block path
  // converts at most 8), leading zeros, signs, whitespace inside the
  // array, and a byte >= 0x80 inside a number.
  std::vector<std::string> tokens;
  std::string digits = "1";
  for (int width = 1; width <= 19; ++width) {
    tokens.push_back(digits);
    tokens.push_back(std::string(width, '9'));
    digits += static_cast<char>('0' + width % 10);
  }
  for (const char* token :
       {"0", "00", "01", "007", "-0", "-1", "+1", "-12345678", "- 1", "1 ", " 1",
        "1 ,2", "1,\t2", "1,\n2", "1,\r2", "1,  2", "12\x80" "3", "\xff", "1\xc3\xa9",
        "1.5", "1e5", "99999999", "100000000", "9223372036854775807",
        "9223372036854775808"}) {
    tokens.push_back(token);
  }
  Rng rng(808);
  std::vector<std::string> items;
  for (int i = 0; i < 200; ++i) items.push_back(std::to_string(rng.UniformInt(1000)));
  Tally tally;
  for (const std::string& token : tokens) {
    for (size_t at = 40; at < 60; ++at) {
      std::string line = "{\"items\":[";
      for (size_t i = 0; i < items.size(); ++i) {
        if (i > 0) line += ',';
        line += i == at ? token : items[i];
      }
      line += "]}";
      ExpectSameOutcome(line, "token \"" + token + "\" at item " + std::to_string(at),
                        tally);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.rejected, 0);
  EXPECT_GT(tally.packed_arrays, 0);
}

TEST(JsonDifferentialTest, ArraysEndingNearTheLineEndParseAlike) {
  // The array's ']' from 80 bytes before the line's end down to its last
  // byte: the block path reads at most 72 bytes from a block's start, so
  // its last block, and then only per-element steps, reach the ']'.
  Rng rng(909);
  std::string array = "[";
  for (int i = 0; i < 300; ++i) {
    if (i > 0) array += ',';
    array += std::to_string(rng.UniformInt(100000));
  }
  array += ']';
  Tally tally;
  for (size_t tail = 0; tail <= 80; ++tail) {
    ExpectSameOutcome(array + std::string(tail, ' '), "tail " + std::to_string(tail),
                      tally);
    ExpectSameOutcome("{\"a\":" + array + std::string(tail, ' ') + "}",
                      "object tail " + std::to_string(tail), tally);
    // The same array cut short at the line end, and cut after a comma.
    const std::string cut = array.substr(0, array.size() - 1 - tail);
    ExpectSameOutcome(cut, "cut " + std::to_string(tail), tally);
  }
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.rejected, 0);
  EXPECT_EQ(tally.packed_arrays, 2 * 81);
}

TEST(JsonDifferentialTest, NestedArraysAroundALongOneParseAlike) {
  // A long all-ones array under up to the depth limit of arrays and
  // objects that each hold one element before the next level. Every outer
  // level's packed attempt must end at its nested '[', '{' or letter having
  // allocated nothing, so the parse allocates the inner vector once (8
  // bytes per 2-byte item) plus a few generic values per level, not a
  // vector per level.
  std::string inner = "[1";
  for (int i = 1; i < 100000; ++i) inner += ",1";
  inner += ']';
  const std::vector<std::pair<std::string, std::string>> levels_of = {
      {"[1,", "]"}, {"[1, ", "]"}, {"[1,\"s\",", "]"}, {"[1,{\"a\":", "}]"}};
  Tally tally;
  for (const auto& [open, close] : levels_of) {
    for (int levels : {1, kJsonMaxDepth / 2 - 1, kJsonMaxDepth - 1, kJsonMaxDepth}) {
      std::string line;
      for (int i = 0; i < levels; ++i) line += open;
      line += inner;
      for (int i = 0; i < levels; ++i) line += close;
      const std::string what = open + " x " + std::to_string(levels);
      ExpectSameOutcome(line, what, tally);
      const size_t before = g_new_bytes;
      const Result<JsonValue> parsed = api::ParseJson(line);
      const size_t allocated = g_new_bytes - before;
      if (parsed.ok()) EXPECT_LT(allocated, 5 * line.size()) << what;
    }
  }
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.rejected, 0);
  EXPECT_GT(tally.packed_arrays, 0);
}

}  // namespace
}  // namespace histk
