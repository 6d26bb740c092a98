#include "dist/io.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <system_error>

namespace histk {

namespace {

constexpr char kDistributionMagic[] = "histk-distribution";
constexpr char kHistogramMagic[] = "histk-tiling-histogram";
constexpr char kVersion[] = "v1";

/// Writes a double with enough digits to round-trip exactly.
void WriteDouble(std::ostream& os, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*g", std::numeric_limits<double>::max_digits10, v);
  os << buf;
}

/// Whitespace-separated tokenizer that tracks the 1-based line each token
/// came from, so parse errors can name their location. Token boundaries are
/// identical to `is >> std::string` (any whitespace separates, newlines
/// included), which the historical readers used.
class LineScanner {
 public:
  explicit LineScanner(std::istream& is) : is_(is) {}

  /// Next token; false at end of input. line() then names its line.
  bool Next(std::string& tok) {
    while (true) {
      while (pos_ < buf_.size() && IsSpace(buf_[pos_])) ++pos_;
      if (pos_ < buf_.size()) break;
      if (!std::getline(is_, buf_)) return false;
      ++line_;
      pos_ = 0;
    }
    const size_t start = pos_;
    while (pos_ < buf_.size() && !IsSpace(buf_[pos_])) ++pos_;
    tok.assign(buf_, start, pos_ - start);
    return true;
  }

  /// Line of the most recently returned token (the current line while
  /// scanning; never 0 once input was seen).
  int64_t line() const { return line_ == 0 ? 1 : line_; }

 private:
  static bool IsSpace(char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v';
  }

  std::istream& is_;
  std::string buf_;
  size_t pos_ = 0;
  int64_t line_ = 0;
};

std::string AtLine(const LineScanner& sc, const std::string& what) {
  return "line " + std::to_string(sc.line()) + ": " + what;
}

Status TokenError(const LineScanner& sc, const std::string& what) {
  return Status::ParseError(AtLine(sc, what));
}

Status ExpectToken(LineScanner& sc, const char* expect, const char* what) {
  std::string tok;
  if (!sc.Next(tok)) {
    return TokenError(sc, std::string("unexpected end of input, expected ") + what);
  }
  if (tok != expect) {
    return TokenError(sc, std::string("expected ") + what + " '" + expect +
                              "', found '" + tok + "'");
  }
  return Status::Ok();
}

Status NextI64(LineScanner& sc, const char* what, int64_t& out) {
  std::string tok;
  if (!sc.Next(tok)) {
    return TokenError(sc, std::string("unexpected end of input, expected ") + what);
  }
  if (!TokenToI64(tok, out)) {
    return TokenError(sc, std::string("expected integer ") + what + ", found '" +
                              tok + "'");
  }
  return Status::Ok();
}

Status NextF64(LineScanner& sc, const char* what, double& out) {
  std::string tok;
  if (!sc.Next(tok)) {
    return TokenError(sc, std::string("unexpected end of input, expected ") + what);
  }
  if (!TokenToF64(tok, out)) {
    return TokenError(sc, std::string("expected number ") + what + ", found '" +
                              tok + "'");
  }
  return Status::Ok();
}

Status ParseHeader(LineScanner& sc, const char* magic) {
  Status s = ExpectToken(sc, magic, "format magic");
  if (!s.ok()) return s;
  return ExpectToken(sc, kVersion, "format version");
}

Status ParseLabeledI64(LineScanner& sc, const char* label, int64_t& out) {
  Status s = ExpectToken(sc, label, "label");
  if (!s.ok()) return s;
  return NextI64(sc, label, out);
}

/// Shared grammar of the two histk-tiling-histogram v1 consumers: header,
/// "n <N> k <K>", then k ascending (end, value) lines with end in [0, n-1]
/// and a final end of n-1. `require_finite_values` makes non-finite piece
/// values an error at their own line (the histogram reader); the bucket
/// reader leaves value validation to TryFromBucketPmf, which also rejects
/// negatives.
Status ParseTilingBody(LineScanner& sc, bool require_finite_values, int64_t& n,
                       int64_t& k, std::vector<int64_t>& right_ends,
                       std::vector<double>& values) {
  Status s = ParseHeader(sc, kHistogramMagic);
  if (!s.ok()) return s;
  if (s = ParseLabeledI64(sc, "n", n); !s.ok()) return s;
  if (n < 1) return TokenError(sc, "n must be >= 1");
  if (s = ParseLabeledI64(sc, "k", k); !s.ok()) return s;
  if (k < 1 || k > n) return TokenError(sc, "k must be in [1, n]");
  right_ends.assign(static_cast<size_t>(k), 0);
  values.assign(static_cast<size_t>(k), 0.0);
  int64_t prev_end = -1;
  for (int64_t j = 0; j < k; ++j) {
    int64_t end = 0;
    double value = 0.0;
    if (s = NextI64(sc, "piece right end", end); !s.ok()) return s;
    if (s = NextF64(sc, "piece value", value); !s.ok()) return s;
    if (require_finite_values && !std::isfinite(value)) {
      return TokenError(sc, "piece values must be finite");
    }
    if (end <= prev_end) return TokenError(sc, "piece ends must be ascending");
    if (end > n - 1) return TokenError(sc, "piece end exceeds n - 1");
    right_ends[static_cast<size_t>(j)] = end;
    values[static_cast<size_t>(j)] = value;
    prev_end = end;
  }
  if (right_ends.back() != n - 1) {
    return TokenError(sc, "final piece end must be n - 1");
  }
  return Status::Ok();
}

// strtoll/strtod skip leading whitespace and take a leading '+'; the
// strict parses reject both on the first byte (every whitespace byte is at
// or below ' ').
bool StrtoxWouldSkip(const std::string& tok) {
  const unsigned char first = static_cast<unsigned char>(tok[0]);
  return first <= ' ' || first == '+';
}

}  // namespace

bool TokenToI64(const std::string& tok, int64_t& out) {
  if (tok.empty() || StrtoxWouldSkip(tok)) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(tok.c_str(), &end, 10);
  if (errno == ERANGE || end != tok.c_str() + tok.size()) return false;
  out = static_cast<int64_t>(v);
  return true;
}

bool TokenToU64(const std::string& tok, uint64_t& out) {
  if (tok.empty() || tok.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  const char* last = tok.data() + tok.size();
  const std::from_chars_result parsed = std::from_chars(tok.data(), last, out);
  return parsed.ec == std::errc() && parsed.ptr == last;
}

bool TokenToF64(const std::string& tok, double& out) {
  if (tok.empty() || StrtoxWouldSkip(tok)) return false;
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end != tok.c_str() + tok.size()) return false;
  out = v;
  return true;
}

const char* ScanJsonI64(const char* first, const char* last, int64_t& out) {
  const char* digits = first != last && *first == '-' ? first + 1 : first;
  if (digits == last || *digits < '0' || *digits > '9') return nullptr;
  const std::from_chars_result parsed = std::from_chars(first, last, out);
  if (parsed.ec != std::errc()) return nullptr;  // int64 overflow
  if (*digits == '0' && (parsed.ptr - digits > 1 || digits != first)) {
    return nullptr;  // a leading zero, or "-0"
  }
  return parsed.ptr;
}

void WriteDistribution(std::ostream& os, const Distribution& d) {
  os << kDistributionMagic << ' ' << kVersion << '\n';
  os << "n " << d.n() << '\n';
  for (int64_t i = 0; i < d.n(); ++i) {
    if (i > 0) os << ' ';
    WriteDouble(os, d.p(i));
  }
  os << '\n';
}

Result<Distribution> ParseDistribution(std::istream& is) {
  LineScanner sc(is);
  Status s = ParseHeader(sc, kDistributionMagic);
  if (!s.ok()) return s;
  int64_t n = 0;
  if (s = ParseLabeledI64(sc, "n", n); !s.ok()) return s;
  if (n < 1) return TokenError(sc, "n must be >= 1");
  std::vector<double> pmf(static_cast<size_t>(n));
  for (auto& p : pmf) {
    if (s = NextF64(sc, "pmf entry", p); !s.ok()) return s;
    // Diagnose per entry so the error names the entry's own line; the sum
    // constraint can only be checked after the loop.
    if (!std::isfinite(p) || p < 0.0) {
      return TokenError(sc, "pmf entries must be finite and >= 0");
    }
  }
  // TryFromPmf re-validates: finite, non-negative, sums to 1. Only the sum
  // constraint can still fail after the per-entry checks above.
  std::optional<Distribution> d = Distribution::TryFromPmf(std::move(pmf));
  if (!d) return TokenError(sc, "pmf must sum to 1");
  return *std::move(d);
}

void WriteTilingHistogram(std::ostream& os, const TilingHistogram& h) {
  os << kHistogramMagic << ' ' << kVersion << '\n';
  os << "n " << h.n() << " k " << h.k() << '\n';
  for (int64_t j = 0; j < h.k(); ++j) {
    os << h.pieces()[static_cast<size_t>(j)].hi << ' ';
    WriteDouble(os, h.values()[static_cast<size_t>(j)]);
    os << '\n';
  }
}

Result<TilingHistogram> ParseTilingHistogram(std::istream& is) {
  LineScanner sc(is);
  int64_t n = 0;
  int64_t k = 0;
  std::vector<int64_t> right_ends;
  std::vector<double> values;
  Status s = ParseTilingBody(sc, /*require_finite_values=*/true, n, k, right_ends,
                             values);
  if (!s.ok()) return s;
  return TilingHistogram::FromRightEnds(n, right_ends, std::move(values));
}

void WriteBucketDistribution(std::ostream& os, const Distribution& d) {
  std::vector<int64_t> ends;
  std::vector<double> densities;
  if (d.is_bucketed()) {
    ends = d.bucket_right_ends();
    densities = d.bucket_densities();
  } else {
    // Run-length compress the dense pmf (exact equality only, so no two
    // distinct densities ever merge).
    for (int64_t i = 0; i < d.n(); ++i) {
      if (densities.empty() || d.p(i) != densities.back()) {
        ends.push_back(i);
        densities.push_back(d.p(i));
      } else {
        ends.back() = i;
      }
    }
  }
  os << kHistogramMagic << ' ' << kVersion << '\n';
  os << "n " << d.n() << " k " << ends.size() << '\n';
  for (size_t j = 0; j < ends.size(); ++j) {
    os << ends[j] << ' ';
    WriteDouble(os, densities[j]);
    os << '\n';
  }
}

Result<Distribution> ParseBucketDistribution(std::istream& is) {
  LineScanner sc(is);
  int64_t n = 0;
  int64_t k = 0;
  std::vector<int64_t> right_ends;
  std::vector<double> densities;
  Status s = ParseTilingBody(sc, /*require_finite_values=*/false, n, k, right_ends,
                             densities);
  if (!s.ok()) return s;
  // Piece values are densities; convert to piece masses. Validity (finite,
  // >= 0, total = 1) is re-checked by TryFromBucketPmf.
  std::vector<double> weights(static_cast<size_t>(k));
  int64_t prev_end = -1;
  for (int64_t j = 0; j < k; ++j) {
    const int64_t end = right_ends[static_cast<size_t>(j)];
    weights[static_cast<size_t>(j)] =
        densities[static_cast<size_t>(j)] * static_cast<double>(end - prev_end);
    prev_end = end;
  }
  std::optional<Distribution> d =
      Distribution::TryFromBucketPmf(n, std::move(right_ends), weights);
  if (!d) {
    return TokenError(
        sc, "piece densities must be finite, non-negative, and imply total mass 1");
  }
  return *std::move(d);
}

void WriteDataset(std::ostream& os, const std::vector<int64_t>& items) {
  for (int64_t item : items) os << item << '\n';
}

Status ScanDataset(std::istream& is,
                   const std::function<Status(int64_t item, int64_t line)>& item) {
  LineScanner sc(is);
  std::string tok;
  while (sc.Next(tok)) {
    int64_t v = 0;
    if (!TokenToI64(tok, v)) {
      return TokenError(sc, "expected integer item, found '" + tok + "'");
    }
    if (Status s = item(v, sc.line()); !s.ok()) return s;
  }
  // End of tokens is only success at clean EOF; a stream that died mid-read
  // (badbit) must not pass off its prefix as the whole data set.
  if (is.bad()) return TokenError(sc, "stream read error");
  return Status::Ok();
}

Result<std::vector<int64_t>> ParseDataset(std::istream& is, int64_t n) {
  std::vector<int64_t> items;
  const Status s = ScanDataset(is, [&](int64_t v, int64_t line) -> Status {
    if (v < 0) {
      return Status::ParseError("line " + std::to_string(line) +
                                ": items must be non-negative");
    }
    if (n > 0 && v >= n) {
      return Status::ParseError("line " + std::to_string(line) + ": item " +
                                std::to_string(v) + " outside [0, n)");
    }
    items.push_back(v);
    return Status::Ok();
  });
  if (!s.ok()) return s;
  return items;
}

}  // namespace histk
