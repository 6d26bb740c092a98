// Minimal strict JSON for the request API (api/request.h): a recursive
// value type plus a single-pass parser with column-accurate error context.
//
// Scope is deliberately the NDJSON wire protocol and nothing more: one
// UTF-8 text line in, one `JsonValue` tree out. The parser is strict —
// duplicate object keys, trailing commas, comments, NaN/Infinity, and
// trailing garbage after the top-level value are all typed
// `kParseError`s, because a serving daemon that guesses at malformed
// requests serves garbage with a 200. Numbers are kept as their raw
// token and converted on access through the sanctioned dist/io.h
// parsers, so the strict-parse lint has exactly one numeric grammar to
// police.
#ifndef HISTK_API_JSON_H_
#define HISTK_API_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace histk {
namespace api {

/// One parsed JSON value. Objects preserve key order (canonicalization in
/// request.cc must not depend on client field order, and tests want
/// deterministic iteration).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool AsBool() const { return bool_; }
  const std::string& AsString() const { return string_; }
  /// The raw number token as it appeared on the wire ("1e3", "-0.5", ...).
  const std::string& NumberToken() const { return string_; }
  /// Strict integer conversion of a number token; rejects fractions,
  /// exponents, and out-of-range values with the field's wire text.
  Result<int64_t> AsI64() const;
  Result<double> AsF64() const;

  const std::vector<JsonValue>& AsArray() const { return array_; }
  const std::vector<std::pair<std::string, JsonValue>>& AsObject() const {
    return object_;
  }
  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* Find(const std::string& key) const;

  static JsonValue Null() { return JsonValue(Type::kNull); }
  static JsonValue Bool(bool b) {
    JsonValue v(Type::kBool);
    v.bool_ = b;
    return v;
  }
  static JsonValue Number(std::string token) {
    JsonValue v(Type::kNumber);
    v.string_ = std::move(token);
    return v;
  }
  static JsonValue String(std::string s) {
    JsonValue v(Type::kString);
    v.string_ = std::move(s);
    return v;
  }
  static JsonValue Array(std::vector<JsonValue> items) {
    JsonValue v(Type::kArray);
    v.array_ = std::move(items);
    return v;
  }
  static JsonValue Object(std::vector<std::pair<std::string, JsonValue>> members) {
    JsonValue v(Type::kObject);
    v.object_ = std::move(members);
    return v;
  }

 private:
  explicit JsonValue(Type type) : type_(type) {}

  Type type_ = Type::kNull;
  bool bool_ = false;
  std::string string_;  // string payload or raw number token
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Parse one complete JSON value from `text`. Errors carry the 1-based
/// column of the offending byte ("column 17: expected ':' after object
/// key") so NDJSON clients can locate the defect inside their line.
Result<JsonValue> ParseJson(const std::string& text);

/// Append `s` as a JSON string literal (quotes + escapes) to `out`.
void AppendJsonString(std::string& out, const std::string& s);

/// Append a double with enough digits to round-trip (`%.*g` at
/// max_digits10); non-finite values become null. Together with
/// AppendJsonString this is the one JSON emitter every document uses.
void AppendJsonDouble(std::string& out, double value);

}  // namespace api
}  // namespace histk

#endif  // HISTK_API_JSON_H_
