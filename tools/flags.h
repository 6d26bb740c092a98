// The one command-line flag parser of histk_cli and histkd: a table of
// named, typed setters walked once over argv.
//
// Every numeric value goes through the full-token parsers of dist/io.h, so
// a typo or an out-of-range value is a usage error with a message, never a
// silently wrapped or truncated number.
#ifndef HISTK_TOOLS_FLAGS_H_
#define HISTK_TOOLS_FLAGS_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "dist/io.h"
#include "dist/sampler.h"

namespace histk {
namespace flags {

struct Flag {
  const char* name;
  bool takes_value;
  /// Stores the value (nullptr for a switch); false = bad value.
  std::function<bool(const char*)> set;
};

/// An integer flag; values outside [lo, hi] are bad values.
template <typename Int>
Flag Integer(const char* name, Int* out, int64_t lo = std::numeric_limits<Int>::min(),
             int64_t hi = std::numeric_limits<Int>::max()) {
  return {name, true, [=](const char* v) {
            int64_t wide = 0;
            if (!TokenToI64(v, wide) || wide < lo || wide > hi) return false;
            *out = static_cast<Int>(wide);
            return true;
          }};
}

/// A flag read by `parse`, e.g. TokenToF64 or TokenToU64.
template <typename T>
Flag Value(const char* name, T* out, bool (*parse)(const std::string&, T&)) {
  return {name, true, [=](const char* v) { return parse(v, *out); }};
}

inline Flag String(const char* name, std::string* out) {
  return {name, true, [=](const char* v) {
            *out = v;
            return true;
          }};
}

inline Flag Switch(const char* name, bool* out) {
  return {name, false, [=](const char*) {
            *out = true;
            return true;
          }};
}

/// A repeatable flag: each occurrence appends one value read by `parse`.
template <typename T>
Flag Repeated(const char* name, std::vector<T>* out,
              bool (*parse)(const std::string&, T&)) {
  return {name, true, [=](const char* v) {
            T value{};
            if (!parse(v, value)) return false;
            out->push_back(value);
            return true;
          }};
}

/// Strict like every other flag: a typo must not silently fall back to a
/// kernel with a different rng stream, or seeded runs would replay
/// differently.
inline Flag Kernel(const char* name, AliasKernel* out) {
  return {name, true, [=](const char* v) {
            const std::optional<AliasKernel> kernel = ParseAliasKernel(v);
            if (kernel) *out = *kernel;
            return kernel.has_value();
          }};
}

/// Applies argv[first, argc) to `table`. A bad or missing value prints
/// "bad or missing value for FLAG", an unknown argument prints
/// `unknown_prefix` and the argument; either returns false.
inline bool ParseFlags(int argc, char** argv, int first, const std::vector<Flag>& table,
                       const char* unknown_prefix = "unknown flag: ") {
  for (int i = first; i < argc; ++i) {
    const Flag* flag = nullptr;
    for (const Flag& f : table) {
      if (std::strcmp(f.name, argv[i]) == 0) flag = &f;
    }
    if (flag == nullptr) {
      std::fprintf(stderr, "%s%s\n", unknown_prefix, argv[i]);
      return false;
    }
    const char* value = nullptr;
    if (flag->takes_value && i + 1 < argc) value = argv[++i];
    if ((flag->takes_value && value == nullptr) || !flag->set(value)) {
      std::fprintf(stderr, "bad or missing value for %s\n", flag->name);
      return false;
    }
  }
  return true;
}

}  // namespace flags
}  // namespace histk

#endif  // HISTK_TOOLS_FLAGS_H_
