// Test-only reference for the request parser: the generic recursive-
// descent JSON parser as it was before integer arrays were packed. Every
// array element is its own JsonValue and every number keeps its raw token.
// It is kept only so the differential test can pin the packed parser to it:
// the same tree (a packed array equal to a generic array of the same
// integers) or a byte-identical error Status on every input.
#ifndef HISTK_TESTS_JSON_REFERENCE_H_
#define HISTK_TESTS_JSON_REFERENCE_H_

#include <cctype>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/json.h"
#include "dist/io.h"

namespace histk {
namespace reference {

using api::JsonValue;

/// The parser's nesting limit: a value deeper than this is an error.
constexpr int kJsonMaxDepth = 64;

/// Single-pass recursive-descent parser over one line of text. Keeps a
/// byte cursor; every error reports the 1-based column so clients can
/// point at the defect inside their NDJSON line.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    Result<JsonValue> value = ParseValue(0);
    if (!value.ok()) return value;
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::ParseError("column " + std::to_string(pos_ + 1) + ": " +
                              what);
  }

  void SkipSpace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool ConsumeLiteral(const char* literal) {
    const size_t len = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, len, literal) != 0) return false;
    pos_ += len;
    return true;
  }

  Result<JsonValue> ParseValue(int depth) {
    if (depth > kJsonMaxDepth) return Error("value nested too deeply");
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"':
        return ParseString();
      case 't':
        if (ConsumeLiteral("true")) return JsonValue::Bool(true);
        return Error("invalid literal");
      case 'f':
        if (ConsumeLiteral("false")) return JsonValue::Bool(false);
        return Error("invalid literal");
      case 'n':
        if (ConsumeLiteral("null")) return JsonValue::Null();
        return Error("invalid literal");
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber();
        return Error(std::string("unexpected character '") + c + "'");
    }
  }

  Result<JsonValue> ParseObject(int depth) {
    ++pos_;  // '{'
    std::vector<std::pair<std::string, JsonValue>> members;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return JsonValue::Object(std::move(members));
    }
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected '\"' to open an object key");
      }
      Result<JsonValue> key = ParseString();
      if (!key.ok()) return key.status();
      for (const auto& member : members) {
        if (member.first == key->AsString()) {
          return Error("duplicate object key \"" + key->AsString() + "\"");
        }
      }
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Error("expected ':' after object key \"" + key->AsString() +
                     "\"");
      }
      ++pos_;
      Result<JsonValue> value = ParseValue(depth + 1);
      if (!value.ok()) return value.status();
      members.emplace_back(key->AsString(), std::move(*value));
      SkipSpace();
      if (pos_ >= text_.size()) return Error("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return JsonValue::Object(std::move(members));
      }
      return Error("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray(int depth) {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return JsonValue::Array(std::move(items));
    }
    while (true) {
      Result<JsonValue> value = ParseValue(depth + 1);
      if (!value.ok()) return value.status();
      items.push_back(std::move(*value));
      SkipSpace();
      if (pos_ >= text_.size()) return Error("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return JsonValue::Array(std::move(items));
      }
      return Error("expected ',' or ']' in array");
    }
  }

  Result<JsonValue> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return JsonValue::String(std::move(out));
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return Error("unterminated escape");
      const char esc = text_[pos_];
      ++pos_;
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          uint32_t code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_ + static_cast<size_t>(i)];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<uint32_t>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<uint32_t>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<uint32_t>(h - 'A' + 10);
            } else {
              return Error("invalid hex digit in \\u escape");
            }
          }
          pos_ += 4;
          // UTF-8 encode the BMP code point; surrogates are rejected (the
          // request grammar has no use for astral-plane ids).
          if (code >= 0xD800 && code <= 0xDFFF) {
            return Error("surrogate \\u escapes are not supported");
          }
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error(std::string("invalid escape '\\") + esc + "'");
      }
    }
    return Error("unterminated string");
  }

  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      return Error("malformed number");
    }
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Error("malformed number (digits required after '.')");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Error("malformed number (digits required in exponent)");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    std::string token = text_.substr(start, pos_ - start);
    // Validate the token round-trips through the sanctioned parser now, so
    // later AsF64() calls cannot fail on a structurally accepted value.
    double probe = 0.0;
    if (!TokenToF64(token, probe) || !std::isfinite(probe)) {
      return Error("number out of range: \"" + token + "\"");
    }
    return JsonValue::Number(std::move(token));
  }

  const std::string& text_;
  size_t pos_ = 0;
};

inline Result<JsonValue> ParseJson(const std::string& text) {
  return Parser(text).Parse();
}

}  // namespace reference
}  // namespace histk

#endif  // HISTK_TESTS_JSON_REFERENCE_H_
