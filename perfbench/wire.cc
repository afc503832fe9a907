#include "wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

using sdadcs::util::Status;
using sdadcs::util::StatusOr;

namespace {

/// Waits up to `timeout_s` for `pid` to exit; true (and *status set)
/// when it did.
bool WaitExit(pid_t pid, double timeout_s, int* status) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration<double>(timeout_s);
  while (true) {
    pid_t r = ::waitpid(pid, status, WNOHANG);
    if (r == pid) return true;
    if (r < 0 && errno != EINTR) return true;
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

StatusOr<std::unique_ptr<ServerProcess>> ServerProcess::Start(
    const std::string& netd, const std::vector<std::string>& args,
    const std::string& run_dir) {
  std::string port_file = run_dir + "/netd.port";
  std::string log_file = run_dir + "/netd.log";
  ::unlink(port_file.c_str());
  std::vector<std::string> argv_s = {netd, "--port", "0", "--port-file",
                                     port_file};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  pid_t pid = ::fork();
  if (pid < 0) return Status::IoError("fork: " + std::string(strerror(errno)));
  if (pid == 0) {
    int fd = ::open(log_file.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    ::execv(netd.c_str(), argv.data());
    _exit(127);
  }
  std::unique_ptr<ServerProcess> proc(new ServerProcess(pid, 0));
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (true) {
    // The daemon writes "<port>\n"; only a whole line is a complete port.
    std::ifstream in(port_file);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    int port = std::atoi(text.c_str());
    if (!text.empty() && text.back() == '\n' && port > 0) {
      proc->port_ = port;
      return proc;
    }
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      proc->pid_ = -1;
      return Status::IoError("sdadcs_netd exited during start; see " +
                             log_file);
    }
    if (std::chrono::steady_clock::now() > deadline) {
      return Status::IoError("sdadcs_netd did not become ready");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

ServerProcess::~ServerProcess() { Stop(); }

Status ServerProcess::Stop() {
  if (pid_ <= 0) return Status::OK();
  pid_t pid = pid_;
  pid_ = -1;
  ::kill(pid, SIGTERM);
  int status = 0;
  if (!WaitExit(pid, 10.0, &status)) {
    ::kill(pid, SIGKILL);
    WaitExit(pid, 10.0, &status);
    return Status::Internal("sdadcs_netd did not drain within 10 s");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("sdadcs_netd exited abnormally");
  }
  return Status::OK();
}

double ServerProcess::CpuSeconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  return static_cast<double>(utime + stime) / ::sysconf(_SC_CLK_TCK);
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

StatusOr<Conn> Conn::Connect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IoError("socket: " + std::string(strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::string err = strerror(errno);
    ::close(fd);
    return Status::IoError("connect: " + err);
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Conn(fd);
}

Conn::Conn(Conn&& other) noexcept
    : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

Conn& Conn::operator=(Conn&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
  }
  return *this;
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

Status Conn::Send(const std::string& line) {
  std::string data = line + "\n";
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::IoError("send: " + std::string(strerror(errno)));
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status Conn::Fill() {
  char chunk[65536];
  while (true) {
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::IoError("connection closed by the server");
    buffer_.append(chunk, static_cast<size_t>(n));
    return Status::OK();
  }
}

bool Conn::TakeFrame(std::string* frame) {
  // A frame is one JSON object followed by '\n'. The object itself may
  // hold raw newlines (the "emit":"patterns" body is rendered over
  // several lines), so the end is found by brace depth, not by the
  // first newline.
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < buffer_.size(); ++i) {
    char c = buffer_[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
    } else if (c == '\n' && depth <= 0) {
      frame->assign(buffer_, 0, i);
      buffer_.erase(0, i + 1);
      return true;
    }
  }
  return false;
}

StatusOr<std::string> Conn::ReadFrame() {
  std::string line;
  while (!TakeFrame(&line)) {
    Status st = Fill();
    if (!st.ok()) return st;
  }
  return line;
}

StatusOr<sdadcs::serve::JsonValue> ParseEnvelope(const std::string& frame) {
  static const std::string kKey = ",\"patterns\":";
  size_t at = frame.rfind(kKey);
  if (at == std::string::npos) return sdadcs::serve::JsonValue::Parse(frame);
  return sdadcs::serve::JsonValue::Parse(frame.substr(0, at) + "}");
}

StatusOr<sdadcs::serve::JsonValue> Conn::Call(const std::string& line) {
  Status st = Send(line);
  if (!st.ok()) return st;
  auto reply = ReadFrame();
  if (!reply.ok()) return reply.status();
  auto parsed = ParseEnvelope(*reply);
  if (!parsed.ok()) {
    return Status::Internal(parsed.status().message() + " in reply " + *reply);
  }
  if (!parsed->GetBool("ok", false)) {
    return Status::Internal("request failed: " + *reply);
  }
  return parsed;
}

}  // namespace perfbench
