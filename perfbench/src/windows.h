// Quiet windows of the measured phase.
//
// On a shared virtual machine, other guests slow this machine's CPUs for
// tens of seconds at a time. The steal column of /proc/stat shows it, but
// the cost is larger than the share stolen: on ingest_test a run at 10%
// steal answered 31% fewer requests than one at 0.3%, and the daemon's own
// CPU time per request rose by 23%. The client loop therefore reads a
// mark (machine and daemon CPU ticks) every 250 ms of the measured phase,
// and the end-to-end figures are taken over the quiet windows between
// marks, so two runs of the same code measure the same machine.
#ifndef PERFBENCH_WINDOWS_H_
#define PERFBENCH_WINDOWS_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "client.h"

namespace perfbench {

constexpr std::chrono::milliseconds kWindowPeriod{250};

/// This machine's CPU ticks from /proc/stat: all of them, and those the
/// hypervisor gave to other guests.
struct MachineTicks {
  int64_t total = 0;
  int64_t steal = 0;
};
MachineTicks ReadMachineTicks();
double StealShare(const MachineTicks& from, const MachineTicks& to);

struct Mark {
  std::chrono::steady_clock::time_point at;
  MachineTicks machine;
  int64_t daemon_ticks = 0;  ///< daemon utime+stime
};
/// Throws if /proc cannot be read.
Mark ReadMark(const Daemon& daemon);

struct Window {
  std::chrono::steady_clock::time_point begin;
  std::chrono::steady_clock::time_point end;
  double steal_share = 0.0;  ///< steal ticks / all machine ticks
  int64_t daemon_ticks = 0;
};
/// The windows between consecutive marks.
std::vector<Window> WindowsBetween(const std::vector<Mark>& marks);

/// A window is quiet when its steal share is at most the larger of
/// kQuietSteal and the lower quartile of the run's window steal shares, so
/// a calm run keeps nearly every window and a disturbed one its calmest
/// quarter.
constexpr double kQuietSteal = 0.02;
std::vector<bool> QuietWindows(const std::vector<Window>& windows);

}  // namespace perfbench

#endif  // PERFBENCH_WINDOWS_H_
