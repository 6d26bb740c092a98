#include "api/json.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "dist/io.h"
#include "util/check.h"

namespace histk {
namespace api {

Result<int64_t> JsonValue::AsI64() const {
  if (type_ != Type::kNumber) {
    return Status::InvalidArgument("expected an integer");
  }
  int64_t out = 0;
  if (!TokenToI64(string_, out)) {
    return Status::InvalidArgument("expected an integer, got \"" + string_ +
                                   "\"");
  }
  return out;
}

Result<double> JsonValue::AsF64() const {
  if (type_ != Type::kNumber) {
    return Status::InvalidArgument("expected a number");
  }
  double out = 0.0;
  if (!TokenToF64(string_, out)) {
    return Status::InvalidArgument("expected a number, got \"" + string_ +
                                   "\"");
  }
  return out;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& member : object_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

namespace {

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
  static constexpr int kMaxDepth = 64;

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
    if (depth > kMaxDepth) return Error("value nested too deeply");
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
    // ParseValue(depth + 1) below rejects even a plain integer past the
    // limit, so the packed path only runs where the elements may sit.
    if (depth + 1 <= kMaxDepth) {
      const size_t open = pos_;
      std::vector<int64_t> ints;
      if (ScanIntArray(ints)) return JsonValue::Ints(std::move(ints));
      pos_ = open;
    }
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

  /// The packed path: from just past the '[', reads integers separated
  /// by whitespace and commas up to and past the ']'. False, with the
  /// cursor anywhere, at the first byte outside that grammar (or an
  /// element ScanJsonI64 rejects); the caller then rewinds.
  ///
  /// The output is sized once, to one more than the commas before the
  /// first ']', and written by index. The count stops at the first byte a
  /// packed array holds nowhere but at its end (StopsCount), and nothing
  /// is allocated unless that byte is ']': an array of arrays fails at
  /// its first nested '[', so each level of nesting counts only its own
  /// bytes.
  /// Elements are read a block at a time (ScanBlock). An element the block
  /// path does not take, and each one once fewer than kBlockReach bytes of
  /// line remain, goes through ScanElement, ScanJsonI64 per element.
  bool ScanIntArray(std::vector<int64_t>& out) {
    const char* const first = text_.data();
    const char* const end = first + text_.size();
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    if (pos_ >= text_.size() ||
        (text_[pos_] != '-' && !std::isdigit(static_cast<unsigned char>(text_[pos_])))) {
      return false;  // not an integer: no count, no allocation
    }
    const char* p = first + pos_;
    size_t commas = 0;
    const char* const close = CountCommasToStop(p, end, commas);
    if (close == nullptr || *close != ']') return false;
    const size_t count = commas + 1;
    // Each element takes a digit and a separator, so more commas than that
    // cannot be a packed array. This caps the allocation at 4 bytes per
    // byte of line, what a valid array of one-digit items takes.
    if (count > static_cast<size_t>(close - p + 1) / 2) return false;
    out.resize(count);
    size_t filled = 0;
    while (true) {
      if (end - p >= kBlockReach) {
        const BlockEnd stop = ScanBlock(p, out.data(), filled);
        if (stop == BlockEnd::kClosed) break;
        if (stop == BlockEnd::kCrossed) continue;
      }
      pos_ = static_cast<size_t>(p - first);
      const int state = ScanElement(out.data(), filled);
      if (state < 0) return false;
      if (state == 0) break;
      p = first + pos_;
    }
    HISTK_DCHECK(filled == count);
    return true;
  }

  /// One element from the cursor through its separator, by ScanJsonI64:
  /// 1 after a ',', 0 after the closing ']' (the cursor is past it), -1 at
  /// a byte outside the grammar.
  int ScanElement(int64_t* out, size_t& filled) {
    SkipSpace();
    int64_t value = 0;
    const char* next =
        ScanJsonI64(text_.data() + pos_, text_.data() + text_.size(), value);
    if (next == nullptr) return -1;
    out[filled++] = value;
    pos_ = static_cast<size_t>(next - text_.data());
    SkipSpace();
    if (pos_ >= text_.size()) return -1;
    if (text_[pos_] == ',') {
      ++pos_;
      return 1;
    }
    if (text_[pos_] == ']') {
      ++pos_;
      return 0;
    }
    return -1;
  }

  /// Bytes a block may read from its start: the 64 it masks, and the
  /// 8-byte load of an element that starts near its end.
  static constexpr ptrdiff_t kBlockReach = 72;

  /// Why ScanBlock stopped: the array's ']' (the cursor is past it), an
  /// element crossing the block's end, or an element outside its form.
  enum class BlockEnd { kClosed, kCrossed, kElement };

  /// Reads the elements that start at `p` and end inside [p, p + 64). A
  /// mask of the block's non-digit bytes gives each element's end in turn
  /// (lowest set bit, then clear it), so no element's load waits on the
  /// previous element's length. An element of the form (0|[1-9][0-9]{0,7})
  /// followed by ',' or ']' is converted from one 8-byte load and written
  /// at out[filled++]. `p` is left at the first element not taken.
  BlockEnd ScanBlock(const char*& p, int64_t* out, size_t& filled) {
    uint64_t separators = NonDigitMask(p);
    const char* q = p;
    while (separators != 0) {
      const char* sep = p + __builtin_ctzll(separators);
      const size_t len = static_cast<size_t>(sep - q);
      if (len - 1 >= 8 || (*q == '0' && len > 1)) break;
      if (*sep != ',') {
        if (*sep != ']') break;
        out[filled++] = EightDigits(q, len);
        pos_ = static_cast<size_t>(sep + 1 - text_.data());
        return BlockEnd::kClosed;
      }
      out[filled++] = EightDigits(q, len);
      separators &= separators - 1;
      q = sep + 1;
    }
    const bool crossed = separators == 0 && q != p;
    p = q;
    return crossed ? BlockEnd::kCrossed : BlockEnd::kElement;
  }

  /// Bit i set when p[i] is not an ASCII digit, for i in [0, 64): per
  /// 8-byte word, a byte is a digit when its xor with '0' is at most 9,
  /// and the per-byte flags are gathered into 8 bits by one multiply.
  static uint64_t NonDigitMask(const char* p) {
    uint64_t mask = 0;
    for (int w = 0; w < 8; ++w) {
      const uint64_t t = LoadWord(p + 8 * w) ^ (kByteOnes * '0');
      // Nonzero in every byte outside 0..9: a high nibble, or a low nibble
      // of 10 or more (adding 6 carries into bit 4).
      const uint64_t bad = (t & (kByteOnes * 0xF0)) |
                           (((t & (kByteOnes * 0x0F)) + kByteOnes * 6) & (kByteOnes * 0x10));
      mask |= GatherHighBits(NonZeroBytes(bad)) << (8 * w);
    }
    return mask;
  }

  /// The value of the `len` (1..8) ASCII digits at q, from one 8-byte load
  /// (q + 8 is within the line): the digits are shifted to the top of the
  /// word, so the bytes below them read as leading zeros, then combined in
  /// pairs, quads and halves by multiply and mask.
  static int64_t EightDigits(const char* q, size_t len) {
    // Digit bytes never borrow; the bytes past them may, but only
    // upwards, and the shift drops them.
    uint64_t word = (LoadWord(q) - kByteOnes * '0') << (64 - 8 * len);
    word = word * 10 + (word >> 8);
    word = (((word & 0x000000FF000000FFULL) * (100 + (1000000ULL << 32))) +
            (((word >> 16) & 0x000000FF000000FFULL) * (1 + (10000ULL << 32)))) >>
           32;
    return static_cast<int64_t>(word);
  }

  /// Adds to `commas` the commas from p up to the first byte StopsCount
  /// takes, a word at a time, and returns that byte's address (nullptr
  /// when the line ends first).
  static const char* CountCommasToStop(const char* p, const char* end, size_t& commas) {
    constexpr uint64_t kPairLow = 0x00FF00FF00FF00FFULL;
    bool stopped = false;
    while (!stopped) {
      // Each byte lane counts its commas, for at most 255 words a round.
      uint64_t lanes = 0;
      for (int w = 0; w < 255; ++w, p += 8) {
        stopped = end - p < 8 || HasStop(LoadWord(p));
        if (stopped) break;
        lanes += (NonZeroBytes(LoadWord(p) ^ (kByteOnes * ',')) >> 7) ^ kByteOnes;
      }
      // Lanes summed in 16-bit pairs, then across the word.
      const uint64_t pairs = (lanes & kPairLow) + ((lanes >> 8) & kPairLow);
      commas += static_cast<size_t>((pairs * 0x0001000100010001ULL) >> 48);
    }
    // The word that holds the stop, or the line's last bytes.
    for (; p < end; ++p) {
      if (StopsCount(*p)) return p;
      commas += *p == ',' ? 1 : 0;
    }
    return nullptr;
  }

  /// Bytes 0x40 and up: ']', '[', '{', letters and non-ASCII bytes. A
  /// packed array's bytes are all below 0x40 but its closing ']'.
  static bool StopsCount(char c) { return static_cast<unsigned char>(c) >= 0x40; }

  /// Whether a byte of `word` is one StopsCount takes.
  static bool HasStop(uint64_t word) { return (word & (kByteOnes * 0xC0)) != 0; }

  static constexpr uint64_t kByteOnes = 0x0101010101010101ULL;

  /// The 8 bytes at p, the first in the low byte (little-endian).
  static uint64_t LoadWord(const char* p) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    return word;
  }

  /// 0x80 in exactly the nonzero bytes of x (no carry crosses a byte).
  static uint64_t NonZeroBytes(uint64_t x) {
    return (((x & (kByteOnes * 0x7F)) + kByteOnes * 0x7F) | x) & (kByteOnes * 0x80);
  }

  /// Bit k of the result is bit 7 of byte k of x, for x with no other bits.
  static uint64_t GatherHighBits(uint64_t x) {
    return ((x >> 7) * 0x0102040810204080ULL) >> 56;
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

}  // namespace

Result<JsonValue> ParseJson(const std::string& text) {
  return Parser(text).Parse();
}

void AppendJsonString(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void AppendJsonDouble(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";  // JSON has no inf/nan
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.*g",
                std::numeric_limits<double>::max_digits10, value);
  out += buf;
}

}  // namespace api
}  // namespace histk
