// histkd — the long-lived k-histogram serving daemon.
//
//   histkd [--workers W] [--max-sessions S] [--max-outstanding-budget B]
//          [--retry-after-ms MS] [--queue-limit Q] [--cache-entries C]
//          [--max-datasets D] [--kernel counts|replay] [--socket PATH]
//
// Speaks the newline-delimited JSON request protocol of src/api/request.h
// (one request per line in, one response envelope per line out; schema
// checked by tools/check_report_json.py --response). Two frontends over
// the same src/serve/HistkdServer core:
//
//   * default: stdin/stdout. Lines are served in order, synchronously —
//     the scripting/pipe mode (`echo '{"id":...}' | histkd`).
//   * --socket PATH: a Unix-domain stream listener. Each connection gets
//     a reader thread; its lines are dispatched onto the shared worker
//     pool, so one connection can pipeline concurrent requests (responses
//     carry the request id — order is not guaranteed). All connections
//     share the daemon's governor, synopsis cache, and dataset store.
//
// A {"kind": "shutdown"} request stops the daemon gracefully after its
// response is written (used by CI and tests; there is no auth story —
// run it behind a socket with filesystem permissions). In socket mode
// filesystem-backed dataset refs ("path"/"sketch") are disabled unless
// --data-root jails them to a directory; stdio mode is pipe-local and
// allows them (like histk_cli), still jailed when --data-root is given.
//
// Exit codes: 0 clean shutdown / stdin EOF, 2 usage error, 3 socket error.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "flags.h"
#include "serve/server.h"

namespace histk {
namespace {

using serve::HistkdServer;
using serve::ServeOptions;

struct DaemonArgs {
  ServeOptions serve;
  std::string socket_path;  // empty = stdin/stdout mode
  std::string data_root;    // empty = mode default (see Main)
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: histkd [--workers W] [--max-sessions S]\n"
      "              [--max-outstanding-budget B] [--retry-after-ms MS]\n"
      "              [--queue-limit Q] [--cache-entries C] [--max-datasets D]\n"
      "              [--kernel counts|replay] [--socket PATH]\n"
      "              [--data-root DIR]\n"
      "\n"
      "Serves newline-delimited JSON requests (src/api/request.h schema)\n"
      "from stdin, or from a Unix-domain socket with --socket.\n"
      "\n"
      "--data-root DIR jails \"path\"/\"sketch\" dataset refs to DIR. In\n"
      "socket mode filesystem refs are rejected unless --data-root is\n"
      "given; stdin mode allows them (the pipe is the trust boundary).\n"
      "\n"
      "--kernel picks the oracles' draw kernel (default counts: sample sets\n"
      "are drawn as count vectors; replay gives the historical streams).\n");
}

bool Parse(int argc, char** argv, DaemonArgs& args) {
  using namespace flags;
  ServeOptions& opts = args.serve;
  const auto help = [](const char*) -> bool {
    Usage();
    std::exit(0);
  };
  return ParseFlags(
      argc, argv, 1,
      {
          Integer("--workers", &opts.workers, 1, serve::kMaxWorkers),
          Integer("--max-sessions", &opts.governor.max_sessions, 1, 1 << 20),
          Integer("--max-outstanding-budget", &opts.governor.max_outstanding_budget),
          Integer("--retry-after-ms", &opts.governor.retry_after_ms),
          Integer("--queue-limit", &opts.queue_limit, 1),
          Integer("--cache-entries", &opts.cache_entries, 1),
          Integer("--max-datasets", &opts.max_datasets, 1),
          Kernel("--kernel", &opts.kernel),
          String("--socket", &args.socket_path),
          {"--data-root", true,
           [&args](const char* v) {
             args.data_root = v;
             return *v != '\0';
           }},
          {"--help", false, help},
          {"-h", false, help},
      },
      "unknown flag ");
}

/// stdin/stdout: strictly ordered, synchronous serving.
int RunStdio(HistkdServer& server) {
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    std::cout << server.HandleLine(line) << std::flush;
    if (server.shutdown_requested()) break;
  }
  return 0;
}

/// Shared per-connection state: callbacks from the worker pool may fire
/// after the reader saw EOF, so writes go through one mutex and check the
/// closed flag. `finished` marks the reader thread done (fd closed) so
/// the accept loop can reap the thread; `fd` is -1 from then on.
struct Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}
  std::mutex mu;
  int fd;
  bool closed = false;    // stop writing (peer gone or reader exited)
  bool finished = false;  // reader thread is done; safe to join
};

/// A client sending bytes with no newline must not grow the line buffer
/// without bound (the daemon runs with no auth); past this cap the
/// connection gets one error envelope and is closed.
constexpr size_t kMaxRequestBytes = size_t{64} << 20;  // 64 MiB

void WriteResponse(const std::shared_ptr<Connection>& conn,
                   const std::string& response) {
  std::lock_guard<std::mutex> lock(conn->mu);
  if (conn->closed) return;
  size_t off = 0;
  while (off < response.size()) {
    // SIGPIPE is ignored daemon-wide (see Main), so a dead peer surfaces
    // here as EPIPE instead of killing every other connection.
    const ssize_t wrote =
        write(conn->fd, response.data() + off, response.size() - off);
    if (wrote <= 0) {
      if (wrote < 0 && errno == EINTR) continue;
      conn->closed = true;  // peer went away; drop the rest
      return;
    }
    off += static_cast<size_t>(wrote);
  }
}

/// Bytes asked of each read(): a 20,000-item inline dataset (about 70 KB)
/// arrives in two reads instead of eighteen.
constexpr size_t kReadBytes = size_t{64} << 10;  // 64 KiB

/// The connection's reader: reads up to kReadBytes at a time, searches
/// only the bytes just read for '\n' (what came before held none), and
/// submits each complete line to the worker pool. A line that is the whole
/// pending buffer, as with one request in flight, is the buffer itself,
/// moved to the worker rather than copied out of it.
void ServeConnection(HistkdServer& server, std::shared_ptr<Connection> conn) {
  std::string buffer;
  // Left uninitialized: a page of it is touched only when a read reaches
  // it, so a connection sending short lines holds one page, not 64 KiB.
  const std::unique_ptr<char[]> chunk(new char[kReadBytes]);
  while (!server.shutdown_requested()) {
    // Poll with a coarse tick so an idle connection rechecks the shutdown
    // flag instead of parking in read() forever and blocking the join in
    // RunSocket.
    pollfd pfd{conn->fd, POLLIN, 0};
    const int ready = poll(&pfd, 1, /*timeout_ms=*/200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    const ssize_t got = read(conn->fd, chunk.get(), kReadBytes);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    const size_t scanned = buffer.size();
    buffer.append(chunk.get(), static_cast<size_t>(got));
    size_t start = 0;
    for (size_t nl = buffer.find('\n', scanned); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      std::string line;
      if (start == 0 && nl + 1 == buffer.size()) {
        // The buffer goes with the line, and the next line gets as much
        // room, so it grows no more than the copied buffer did.
        buffer.pop_back();
        line = std::move(buffer);
        buffer = std::string();
        buffer.reserve(line.capacity());
      } else {
        line = buffer.substr(start, nl - start);
        start = nl + 1;
      }
      if (!line.empty()) {
        server.Submit(std::move(line), [conn](std::string response) {
          WriteResponse(conn, response);
        });
      }
    }
    buffer.erase(0, start);
    if (buffer.size() > kMaxRequestBytes) {
      api::ResponseEnvelope env;
      env.status = StatusCode::kInvalidArgument;
      env.error = "request line exceeds " + std::to_string(kMaxRequestBytes) +
                  " bytes with no newline; closing the connection";
      WriteResponse(conn, api::WriteResponseJson(env));
      break;
    }
  }
  server.Drain();  // flush this connection's in-flight responses
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->closed = true;
    close(conn->fd);
    conn->fd = -1;
    conn->finished = true;
  }
}

struct ConnSlot {
  std::thread thread;
  std::shared_ptr<Connection> conn;
};

/// Joins (and erases) every connection whose reader thread has finished,
/// so a long-lived daemon does not accumulate one parked thread per
/// connection it ever served.
void ReapFinished(std::list<ConnSlot>& connections) {
  for (auto it = connections.begin(); it != connections.end();) {
    bool finished = false;
    {
      std::lock_guard<std::mutex> lock(it->conn->mu);
      finished = it->conn->finished;
    }
    if (finished) {
      it->thread.join();
      it = connections.erase(it);
    } else {
      ++it;
    }
  }
}

int RunSocket(HistkdServer& server, const std::string& path) {
  const int listener = socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("histkd: socket");
    return 3;
  }
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "histkd: socket path too long: %s\n", path.c_str());
    close(listener);
    return 3;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  unlink(path.c_str());
  if (bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    std::perror("histkd: bind");
    close(listener);
    return 3;
  }
  if (listen(listener, 64) < 0) {
    std::perror("histkd: listen");
    close(listener);
    return 3;
  }
  std::fprintf(stderr, "histkd: serving on %s\n", path.c_str());

  std::list<ConnSlot> connections;
  while (!server.shutdown_requested()) {
    // Poll with a coarse tick so a shutdown request served on any
    // connection stops the accept loop promptly.
    pollfd pfd{listener, POLLIN, 0};
    const int ready = poll(&pfd, 1, /*timeout_ms=*/200);
    if (ready < 0 && errno != EINTR) {
      std::perror("histkd: poll");
      break;
    }
    ReapFinished(connections);
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int fd = accept(listener, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      std::perror("histkd: accept");
      break;
    }
    auto conn = std::make_shared<Connection>(fd);
    std::thread thread([&server, conn] { ServeConnection(server, conn); });
    connections.push_back(ConnSlot{std::move(thread), std::move(conn)});
  }

  close(listener);
  unlink(path.c_str());
  server.Drain();
  // Kick every still-open connection out of its read side so an idle
  // client holding a connection cannot block the joins below (readers
  // also recheck shutdown_requested() on a 200 ms tick as a backstop).
  for (ConnSlot& slot : connections) {
    std::lock_guard<std::mutex> lock(slot.conn->mu);
    if (slot.conn->fd >= 0) ::shutdown(slot.conn->fd, SHUT_RD);
  }
  for (ConnSlot& slot : connections) slot.thread.join();
  return 0;
}

int Main(int argc, char** argv) {
  DaemonArgs args;
  if (!Parse(argc, argv, args)) {
    Usage();
    return 2;
  }
  // A peer that disconnects before its responses flush must surface as
  // EPIPE on that one connection, not SIGPIPE-terminate the daemon.
  std::signal(SIGPIPE, SIG_IGN);
  if (!args.data_root.empty()) {
    args.serve.fs_refs.root = args.data_root;
  } else if (!args.socket_path.empty()) {
    // Socket clients are untrusted: without an explicit jail, "path" and
    // "sketch" refs would let any client read server-side files.
    args.serve.fs_refs.allow = false;
  }
  HistkdServer server(args.serve);
  if (args.socket_path.empty()) return RunStdio(server);
  return RunSocket(server, args.socket_path);
}

}  // namespace
}  // namespace histk

int main(int argc, char** argv) { return histk::Main(argc, argv); }
