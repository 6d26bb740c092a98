// Minimal strict JSON for the request API (api/request.h): a recursive
// value type plus a single-pass parser with column-accurate error context.
//
// Scope is deliberately the NDJSON wire protocol and nothing more: one
// UTF-8 text line in, one `JsonValue` tree out. The parser is strict —
// duplicate object keys, trailing commas, comments, NaN/Infinity, and
// trailing garbage after the top-level value are all typed
// `kParseError`s, because a serving daemon that guesses at malformed
// requests serves garbage with a 200.
//
// Numbers have two forms. A scalar number keeps its raw token and is
// converted on access through the sanctioned dist/io.h parsers. An array
// whose elements are all JSON integers (`-?(0|[1-9][0-9]*)`, separated by
// JSON whitespace and commas) is *packed*: one `std::vector<int64_t>`
// (AsInts), converted once, with no per-element JsonValue — a 20,000-item
// inline dataset is one vector, not 20,000 values. Any element outside
// that grammar (a fraction, an exponent, an int64 overflow, "-0", a
// string, a nested value, a syntax error) or an array whose elements would
// sit past the depth limit makes the parser rewind to the '[' and parse
// the array generically, so every error message and column is the generic
// loop's. Both forms are Type::kArray; readers check is_int_array() before
// choosing AsInts() or AsArray().
//
// The packed scan allocates once, and no element's load waits on the
// previous element's length. It first counts the commas before the
// array's first ']' and sizes the vector to that count plus one; any
// other byte of 0x40 or above met first ('[', '{', a letter) ends the
// packed attempt with nothing allocated. It then reads 64-byte blocks
// that start at an element: a 64-bit mask of the block's non-digit bytes,
// built from eight plain uint64_t words, gives each element's end by its
// lowest set bit, and an element of the form (0|[1-9][0-9]{0,7})
// followed by ',' or ']' is converted from one 8-byte load and written by
// index. Anything else (a sign, whitespace, 9 or more digits, a leading
// zero, a non-ASCII byte) takes the per-element ScanJsonI64 step, after
// which blocks resume; so do the elements after the last block, which
// must start 72 bytes or more before the line's end. A failed step
// rewinds as above.
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

  /// A packed integer array (see the file comment). Its elements are
  /// AsInts(); AsArray() is empty. False for every generic array.
  bool is_int_array() const { return is_int_array_; }
  const std::vector<int64_t>& AsInts() const { return ints_; }
  /// Moves the packed elements out, leaving an empty packed array.
  std::vector<int64_t> TakeInts() { return std::move(ints_); }
  /// The elements of a generic array (empty for a packed one).
  const std::vector<JsonValue>& AsArray() const { return array_; }
  const std::vector<std::pair<std::string, JsonValue>>& AsObject() const {
    return object_;
  }
  std::vector<std::pair<std::string, JsonValue>>& AsObject() { return object_; }
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
  static JsonValue Ints(std::vector<int64_t> items) {
    JsonValue v(Type::kArray);
    v.is_int_array_ = true;
    v.ints_ = std::move(items);
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
  bool is_int_array_ = false;
  std::string string_;  // string payload or raw number token
  std::vector<JsonValue> array_;
  std::vector<int64_t> ints_;  // a packed integer array's elements
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
