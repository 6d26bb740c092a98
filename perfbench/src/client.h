// The native load generator: spawns histkd on a Unix socket and drives
// closed-loop connections from one thread polling all of them, so the
// client adds a few microseconds per request rather than the tens a
// scripting-language client would (which a cache hit cannot afford).
#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

/// A histkd child process. The destructor kills and reaps it if it is
/// still running, so no error path leaves a daemon behind.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::vector<std::string>& args,
         const std::string& log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool running();
  /// "running", "exited with N" or "killed by signal N", for error messages.
  std::string State();
  /// utime + stime in clock ticks, from /proc/<pid>/stat.
  int64_t CpuTicks() const;
  /// VmHWM in kB, from /proc/<pid>/status.
  int64_t PeakRssKb() const;
  /// Waits up to `timeout_s` for a clean exit; kills it after that.
  /// True when it exited with status 0 on its own.
  bool WaitForExit(double timeout_s);

 private:
  pid_t pid_ = -1;
  bool reaped_ = false;
  int status_ = 0;  ///< waitpid status once reaped
};

/// `count` non-blocking connections to the daemon's socket, retried until
/// the daemon listens. Throws if it exits or never listens.
std::vector<int> ConnectAll(const std::string& socket_path, int count,
                            Daemon& daemon, double timeout_s);

/// Closed-loop driver over a fixed set of connections: each idle
/// connection takes the next line from `source` until it returns false;
/// every response line goes to `sink` with its round trip in nanoseconds
/// (send of the first byte to receipt of the newline). Run returns once
/// every sent line has its response. Throws on a dropped connection or a
/// stall of 60 s.
class ClosedLoop {
 public:
  using Source = std::function<bool(RequestLine&)>;
  using Sink =
      std::function<void(const RequestLine&, std::string& response, int64_t rtt_ns)>;

  explicit ClosedLoop(std::vector<int> fds);
  ~ClosedLoop();
  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  /// `width` caps the connections used (0: all of them).
  void Run(const Source& source, const Sink& sink, size_t width = 0);
  /// Runs `lines` to completion over at most `width` connections (0: all)
  /// and returns their responses in order.
  std::vector<std::string> RunAll(const std::vector<RequestLine>& lines,
                                  size_t width = 0);
  /// One control line (stats, shutdown) on the first connection.
  std::string RoundTrip(const std::string& text);

 private:
  std::vector<int> fds_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
