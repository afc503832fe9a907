#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

// The benchmark's side of the deployment: the sdadcs_netd child process
// (started, probed through /proc, stopped) and loopback connections
// speaking the v1 ND-JSON wire protocol.

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "serve/ndjson.h"
#include "util/status.h"

namespace perfbench {

/// A running sdadcs_netd. The destructor stops it and waits for it.
class ServerProcess {
 public:
  /// Starts `netd` with `args` plus --port 0 and a port file in
  /// `run_dir`; returns once the daemon accepts connections.
  static sdadcs::util::StatusOr<std::unique_ptr<ServerProcess>> Start(
      const std::string& netd, const std::vector<std::string>& args,
      const std::string& run_dir);

  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// Graceful stop (SIGTERM drains), escalating to SIGKILL after 10 s.
  /// Returns an error when the daemon exited abnormally.
  sdadcs::util::Status Stop();

  /// User + system CPU seconds the daemon has used so far.
  double CpuSeconds() const;
  /// Peak resident set (VmHWM) of the daemon, in MB.
  double PeakRssMb() const;

 private:
  ServerProcess(pid_t pid, int port) : pid_(pid), port_(port) {}

  pid_t pid_ = -1;
  int port_ = 0;
};

/// Parses a response frame without its "patterns" body (the body is
/// compared as text; the library's JSON parser rejects some numbers the
/// pattern renderer writes, such as subnormal p-values).
sdadcs::util::StatusOr<sdadcs::serve::JsonValue> ParseEnvelope(
    const std::string& frame);

/// One loopback connection with a receive buffer. Move-only.
class Conn {
 public:
  static sdadcs::util::StatusOr<Conn> Connect(int port);

  Conn(Conn&& other) noexcept;
  Conn& operator=(Conn&& other) noexcept;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn();

  int fd() const { return fd_; }

  /// Writes `line` plus '\n'.
  sdadcs::util::Status Send(const std::string& line);
  /// Blocks until one whole frame is buffered; kIoError on EOF.
  sdadcs::util::StatusOr<std::string> ReadFrame();
  /// One recv() into the buffer (for poll-driven readers); kIoError on
  /// EOF.
  sdadcs::util::Status Fill();
  /// Pops one buffered frame (without its '\n'); false when none is
  /// complete.
  bool TakeFrame(std::string* frame);

  /// Send + ReadFrame + parse; the response must say "ok":true.
  sdadcs::util::StatusOr<sdadcs::serve::JsonValue> Call(
      const std::string& line);

 private:
  explicit Conn(int fd) : fd_(fd) {}

  int fd_ = -1;
  std::string buffer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
