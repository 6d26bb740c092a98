// Cheap field access on histkd response lines. The client checks every
// response inside the measured loop, where a full JSON parse would cost
// more than the daemon's own cache-hit path; these scans rely only on the
// envelope's fixed field order (envelope fields precede "report").
#ifndef PERFBENCH_SCAN_H_
#define PERFBENCH_SCAN_H_

#include <string>

namespace perfbench {

/// The first `"key": "<value>"` string value, or "" when absent.
std::string ScanString(const std::string& json, const char* key);

/// The first `"key": <number>` value; false when absent or not a number.
bool ScanNumber(const std::string& json, const char* key, double& out);

/// The raw text of the first `"key": <value>` value (object, array,
/// string or scalar), brackets balanced; "" when absent.
std::string ExtractMember(const std::string& json, const char* key);

/// The line with every "serve_ms" and "wall_ms" number replaced by 0 —
/// the only fields of a response that depend on timing.
std::string ZeroTimings(const std::string& json);

}  // namespace perfbench

#endif  // PERFBENCH_SCAN_H_
