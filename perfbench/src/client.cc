#include "client.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::runtime_error Errno(const std::string& what) {
  return std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

Daemon::Daemon(const std::string& binary, const std::vector<std::string>& args,
               const std::string& log_path) {
  const int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (log < 0) throw Errno("open " + log_path);
  std::vector<std::string> argv_store;
  argv_store.push_back(binary);
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_store) argv.push_back(arg.data());
  argv.push_back(nullptr);

  pid_ = fork();
  if (pid_ < 0) {
    close(log);
    throw Errno("fork");
  }
  if (pid_ == 0) {
    // The daemon must not outlive the benchmark, even if the benchmark is
    // killed before its destructors run.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int devnull = open("/dev/null", O_RDONLY);
    if (devnull >= 0) dup2(devnull, STDIN_FILENO);
    dup2(log, STDOUT_FILENO);
    dup2(log, STDERR_FILENO);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(log);
}

Daemon::~Daemon() {
  if (pid_ > 0 && !reaped_) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }
}

bool Daemon::running() {
  if (reaped_) return false;
  if (waitpid(pid_, &status_, WNOHANG) == pid_) {
    reaped_ = true;
    return false;
  }
  return true;
}

std::string Daemon::State() {
  if (running()) return "running";
  if (WIFSIGNALED(status_)) return "killed by signal " + std::to_string(WTERMSIG(status_));
  return "exited with " + std::to_string(WEXITSTATUS(status_));
}

int64_t Daemon::CpuTicks() const {
  std::ifstream stat("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  const size_t paren = text.rfind(')');
  if (paren == std::string::npos) throw std::runtime_error("cannot read daemon stat");
  std::istringstream fields(text.substr(paren + 2));
  std::string field;
  int64_t utime = 0;
  int64_t stime = 0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::stoll(field);
    if (i == 15) stime = std::stoll(field);
  }
  return utime + stime;
}

int64_t Daemon::PeakRssKb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoll(line.substr(6));
  }
  throw std::runtime_error("cannot read daemon VmHWM");
}

bool Daemon::WaitForExit(double timeout_s) {
  const auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
  while (Clock::now() < deadline) {
    if (!running()) return WIFEXITED(status_) && WEXITSTATUS(status_) == 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  kill(pid_, SIGKILL);
  waitpid(pid_, nullptr, 0);
  reaped_ = true;
  return false;
}

std::vector<int> ConnectAll(const std::string& socket_path, int count,
                            Daemon& daemon, double timeout_s) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + socket_path);
  }
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  const auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
  std::vector<int> fds;
  while (static_cast<int>(fds.size()) < count) {
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw Errno("socket");
    if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
      fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
      fds.push_back(fd);
      continue;
    }
    close(fd);
    if (!daemon.running()) throw std::runtime_error("histkd exited before listening");
    if (Clock::now() > deadline) throw std::runtime_error("histkd never listened");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return fds;
}

ClosedLoop::ClosedLoop(std::vector<int> fds) : fds_(std::move(fds)) {}

ClosedLoop::~ClosedLoop() {
  for (int fd : fds_) close(fd);
}

void ClosedLoop::Run(const Source& source, const Sink& sink, size_t width) {
  struct Slot {
    int fd = -1;
    bool busy = false;
    RequestLine line;
    std::string out;
    size_t written = 0;
    std::string in;
    int64_t sent_ns = 0;
  };
  std::vector<Slot> slots(width == 0 ? fds_.size() : std::min(width, fds_.size()));
  for (size_t i = 0; i < slots.size(); ++i) slots[i].fd = fds_[i];

  auto flush = [](Slot& slot) {
    while (slot.written < slot.out.size()) {
      const ssize_t n = write(slot.fd, slot.out.data() + slot.written,
                              slot.out.size() - slot.written);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        throw Errno("write to histkd");
      }
      slot.written += static_cast<size_t>(n);
    }
  };

  bool exhausted = false;
  auto refill = [&]() {
    for (Slot& slot : slots) {
      if (slot.busy || exhausted) continue;
      if (!source(slot.line)) {
        exhausted = true;
        return;
      }
      slot.out.assign(slot.line.text);
      slot.out.push_back('\n');
      slot.written = 0;
      slot.busy = true;
      slot.sent_ns = NowNs();
      flush(slot);
    }
  };

  refill();
  std::vector<pollfd> pfds(slots.size());
  char buffer[1 << 16];
  while (true) {
    bool any_busy = false;
    for (size_t i = 0; i < slots.size(); ++i) {
      pfds[i].fd = slots[i].fd;
      pfds[i].events = POLLIN;
      if (slots[i].written < slots[i].out.size()) pfds[i].events |= POLLOUT;
      pfds[i].revents = 0;
      any_busy = any_busy || slots[i].busy;
    }
    if (!any_busy) break;
    const int ready = poll(pfds.data(), pfds.size(), /*timeout_ms=*/60000);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw Errno("poll");
    }
    if (ready == 0) throw std::runtime_error("histkd stalled for 60 s");
    for (size_t i = 0; i < slots.size(); ++i) {
      Slot& slot = slots[i];
      if (pfds[i].revents & POLLOUT) flush(slot);
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t got = read(slot.fd, buffer, sizeof(buffer));
      if (got < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        throw Errno("read from histkd");
      }
      if (got == 0) throw std::runtime_error("histkd closed a connection");
      const int64_t received_ns = NowNs();
      const size_t old_size = slot.in.size();
      slot.in.append(buffer, static_cast<size_t>(got));
      const size_t nl = slot.in.find('\n', old_size);
      if (nl == std::string::npos) continue;
      if (!slot.busy || nl + 1 != slot.in.size()) {
        throw std::runtime_error("histkd sent an unrequested response");
      }
      slot.in.pop_back();
      slot.busy = false;
      sink(slot.line, slot.in, received_ns - slot.sent_ns);
      slot.in.clear();
    }
    refill();
  }
}

std::vector<std::string> ClosedLoop::RunAll(const std::vector<RequestLine>& lines,
                                            size_t width) {
  std::vector<std::string> responses(lines.size());
  size_t next = 0;
  // Set-up and control lines carry index -1; route responses by position.
  Run(
      [&](RequestLine& line) {
        if (next >= lines.size()) return false;
        line = lines[next];
        line.index = static_cast<int64_t>(next++);
        return true;
      },
      [&](const RequestLine& line, std::string& response, int64_t) {
        responses[static_cast<size_t>(line.index)] = std::move(response);
      },
      width);
  return responses;
}

std::string ClosedLoop::RoundTrip(const std::string& text) {
  RequestLine line;
  line.text = text;
  return RunAll({line}, 1)[0];
}

}  // namespace perfbench
