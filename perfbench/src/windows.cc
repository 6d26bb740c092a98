#include "windows.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <string>

namespace perfbench {

MachineTicks ReadMachineTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  MachineTicks ticks;
  int64_t value = 0;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && stat >> value; ++i) {
    ticks.total += value;
    if (i == 7) ticks.steal = value;
  }
  if (cpu != "cpu" || ticks.total == 0) throw std::runtime_error("cannot read /proc/stat");
  return ticks;
}

double StealShare(const MachineTicks& from, const MachineTicks& to) {
  const int64_t total = to.total - from.total;
  return total > 0 ? static_cast<double>(to.steal - from.steal) / static_cast<double>(total)
                   : 0.0;
}

Mark ReadMark(const Daemon& daemon) {
  Mark mark;
  mark.machine = ReadMachineTicks();
  mark.daemon_ticks = daemon.CpuTicks();
  mark.at = std::chrono::steady_clock::now();
  return mark;
}

std::vector<Window> WindowsBetween(const std::vector<Mark>& marks) {
  std::vector<Window> windows;
  for (size_t i = 0; i + 1 < marks.size(); ++i) {
    Window w;
    w.begin = marks[i].at;
    w.end = marks[i + 1].at;
    w.steal_share = StealShare(marks[i].machine, marks[i + 1].machine);
    w.daemon_ticks = marks[i + 1].daemon_ticks - marks[i].daemon_ticks;
    windows.push_back(w);
  }
  return windows;
}

std::vector<bool> QuietWindows(const std::vector<Window>& windows) {
  std::vector<double> steal;
  for (const Window& w : windows) steal.push_back(w.steal_share);
  std::sort(steal.begin(), steal.end());
  const double limit = steal.empty() ? kQuietSteal : std::max(kQuietSteal, steal[steal.size() / 4]);
  std::vector<bool> quiet;
  for (const Window& w : windows) quiet.push_back(w.steal_share <= limit);
  return quiet;
}

}  // namespace perfbench
