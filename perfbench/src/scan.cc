#include "scan.h"

#include <cstdlib>
#include <cstring>

namespace perfbench {

namespace {

/// Offset just past `"key": `, or npos.
size_t ValueStart(const std::string& json, const char* key, size_t from = 0) {
  const std::string needle = std::string("\"") + key + "\": ";
  const size_t at = json.find(needle, from);
  return at == std::string::npos ? at : at + needle.size();
}

/// End offset (exclusive) of the JSON value starting at `pos`.
size_t ValueEnd(const std::string& json, size_t pos) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = pos; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
        if (depth == 0) return i + 1;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (depth == 0) return i;
      if (--depth == 0) return i + 1;
    } else if (c == ',' && depth == 0) {
      return i;
    }
  }
  return json.size();
}

}  // namespace

std::string ScanString(const std::string& json, const char* key) {
  const size_t start = ValueStart(json, key);
  if (start == std::string::npos || start >= json.size() || json[start] != '"') {
    return std::string();
  }
  const size_t end = json.find('"', start + 1);
  if (end == std::string::npos) return std::string();
  return json.substr(start + 1, end - start - 1);
}

bool ScanNumber(const std::string& json, const char* key, double& out) {
  const size_t start = ValueStart(json, key);
  if (start == std::string::npos) return false;
  const char* begin = json.c_str() + start;
  char* end = nullptr;
  out = std::strtod(begin, &end);
  return end != begin;
}

std::string ExtractMember(const std::string& json, const char* key) {
  const size_t start = ValueStart(json, key);
  if (start == std::string::npos) return std::string();
  return json.substr(start, ValueEnd(json, start) - start);
}

std::string ZeroTimings(const std::string& json) {
  std::string out = json;
  for (const char* key : {"serve_ms", "wall_ms"}) {
    for (size_t start = ValueStart(out, key); start != std::string::npos;
         start = ValueStart(out, key, start)) {
      out.replace(start, ValueEnd(out, start) - start, "0");
    }
  }
  return out;
}

}  // namespace perfbench
