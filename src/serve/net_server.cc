#include "serve/net_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <unordered_map>
#include <utility>

namespace sdadcs::serve {

namespace {

/// A frame larger than this is a protocol error: the reader skips to the
/// next newline and keeps the connection alive.
constexpr size_t kMaxFrameBytes = 8u << 20;

/// Sends the whole buffer; false once the peer is gone. MSG_NOSIGNAL
/// keeps a dead peer an error code instead of a SIGPIPE.
bool SendAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    ssize_t sent = ::send(fd, data, size, MSG_NOSIGNAL);
    if (sent <= 0) {
      if (sent < 0 && errno == EINTR) continue;
      return false;
    }
    data += sent;
    size -= static_cast<size_t>(sent);
  }
  return true;
}

}  // namespace

/// One keep-alive client connection: the socket, its reader thread, and
/// the in-flight cancellation registry. Held by shared_ptr from the
/// reader, the accept loop's list and every dispatched mine job, so the
/// fd outlives whoever still needs to write a response.
struct NetServer::Connection {
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  int fd = -1;
  std::mutex write_mu;
  bool write_dead = false;  ///< peer gone; drop further frames

  std::mutex mu;
  /// "id" -> (registration sequence, shared RunControl) of in-flight
  /// mines, so a pipelined {"op":"cancel","id":...} can reach them. The
  /// sequence keeps a finished request from erasing a newer one that
  /// reused its id.
  std::unordered_map<std::string, std::pair<uint64_t, util::RunControl>>
      controls;
  uint64_t next_control_seq = 0;

  std::thread reader;
  std::atomic<bool> done{false};  ///< reader exited; ready to reap
};

/// One mine request travelling from the reader thread to the executor.
struct NetServer::MineJob {
  MineFrame frame;
  util::RunControl control;
  uint64_t control_seq = 0;  ///< registration in Connection::controls
};

NetServer::NetServer(Server& server, NetServerOptions options)
    : server_(server),
      options_(std::move(options)),
      quota_(options_.tenant_max_inflight) {}

NetServer::~NetServer() { Drain(); }

util::Status NetServer::Start() {
  if (started_) {
    return util::Status::FailedPrecondition("NetServer already started");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return util::Status::IoError("socket: " +
                                 std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return util::Status::InvalidArgument("host: cannot parse address '" +
                                         options_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    util::Status status = util::Status::IoError(
        "bind/listen " + options_.host + ":" +
        std::to_string(options_.port) + ": " + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  int executor_threads = options_.executor_threads;
  if (executor_threads <= 0) {
    // Enough workers to occupy every admission slot and queue position:
    // the admission controller, not the executor, is the concurrency
    // governor.
    executor_threads = server_.options().max_concurrent_runs +
                       server_.options().max_queue;
  }
  executor_ =
      std::make_unique<util::ThreadPool>(static_cast<size_t>(executor_threads));
  started_ = true;
  // The accept thread works on its own copy of the descriptor: Drain
  // owns listen_fd_ and closes it only after joining this thread.
  accept_thread_ = std::thread([this, fd = listen_fd_] { AcceptLoop(fd); });
  return util::Status::OK();
}

void NetServer::AcceptLoop(int listen_fd) {
  while (true) {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket shut down: drain has begun
    }
    if (draining_.load()) {
      ::close(fd);
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    std::lock_guard<std::mutex> lock(conns_mu_);
    ReapConnectionsLocked();
    if (static_cast<int>(conns_.size()) >= options_.max_connections) {
      WireError error{ErrorCode::kBusy, "",
                      "connection limit reached (" +
                          std::to_string(options_.max_connections) + ")"};
      std::string line = ErrorResponse("", error).Str() + "\n";
      SendAll(fd, line.data(), line.size());
      ::close(fd);
      std::lock_guard<std::mutex> stats(stats_mu_);
      ++counters_.connections_rejected;
      continue;
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conns_.push_back(conn);
    conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
    std::lock_guard<std::mutex> stats(stats_mu_);
    ++counters_.connections_accepted;
  }
}

void NetServer::ReapConnectionsLocked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load()) {
      if ((*it)->reader.joinable()) (*it)->reader.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void NetServer::ReaderLoop(std::shared_ptr<Connection> conn) {
  std::string buffer;
  char chunk[1 << 16];
  bool skipping = false;  // oversized frame: discard until newline
  while (true) {
    size_t newline = buffer.find('\n');
    if (newline == std::string::npos) {
      if (buffer.size() > kMaxFrameBytes) {
        if (!skipping) {
          WireError error{ErrorCode::kParseError, "",
                          "frame exceeds " +
                              std::to_string(kMaxFrameBytes) + " bytes"};
          {
            std::lock_guard<std::mutex> stats(stats_mu_);
            ++counters_.protocol_errors;
          }
          WriteFrame(conn, ErrorResponse("", error));
        }
        skipping = true;
        buffer.clear();
      }
      ssize_t got = ::recv(conn->fd, chunk, sizeof(chunk), 0);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) break;  // peer closed, or drain shut the socket
      buffer.append(chunk, static_cast<size_t>(got));
      continue;
    }
    std::string line = buffer.substr(0, newline);
    buffer.erase(0, newline + 1);
    if (skipping) {  // tail of the oversized frame, already reported
      skipping = false;
      continue;
    }
    while (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    HandleFrame(conn, line);
  }
  conn->done = true;
}

void NetServer::WriteFrame(const std::shared_ptr<Connection>& conn,
                           const JsonObjectWriter& frame) {
  std::string line = frame.Str() + "\n";
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->write_dead) return;
  if (!SendAll(conn->fd, line.data(), line.size())) {
    conn->write_dead = true;
  }
}

void NetServer::HandleFrame(const std::shared_ptr<Connection>& conn,
                            const std::string& line) {
  auto request = JsonValue::Parse(line);
  if (!request.ok() || !request->IsObject()) {
    WireError error{ErrorCode::kParseError, "",
                    request.ok() ? "request must be a JSON object"
                                 : request.status().message()};
    {
      std::lock_guard<std::mutex> stats(stats_mu_);
      ++counters_.protocol_errors;
    }
    WriteFrame(conn, ErrorResponse("", error));
    return;
  }
  const std::string op = request->GetString("op");
  const std::string id = request->GetString("id");
  if (auto error = CheckProtocolVersion(*request)) {
    {
      std::lock_guard<std::mutex> stats(stats_mu_);
      ++counters_.protocol_errors;
    }
    WriteFrame(conn, ErrorResponse(op, *error, id));
    return;
  }
  {
    std::lock_guard<std::mutex> stats(stats_mu_);
    ++counters_.frames;
  }
  if (draining_.load()) {
    WireError error{ErrorCode::kDraining, "",
                    "server is draining; no new requests"};
    WriteFrame(conn, ErrorResponse(op, error, id));
    return;
  }
  if (op == "mine") {
    HandleMine(conn, *request, id);
  } else if (op == "cancel") {
    HandleCancel(conn, *request, id);
  } else if (op == "load") {
    HandleLoad(conn, *request, id);
  } else if (op == "stats") {
    HandleStats(conn, id);
  } else if (op == "engines") {
    HandleEngines(conn, id);
  } else if (op == "evict") {
    HandleEvict(conn, *request, id);
  } else if (op == "ping") {
    WriteFrame(conn, ResponseEnvelope(true, "ping", id));
  } else if (op == "shutdown") {
    WriteFrame(conn, ResponseEnvelope(true, "shutdown", id));
    RequestShutdown();
  } else {
    WireError error{ErrorCode::kUnknownOp, "op",
                    "unknown op '" + op + "'"};
    {
      std::lock_guard<std::mutex> stats(stats_mu_);
      ++counters_.protocol_errors;
    }
    WriteFrame(conn, ErrorResponse(op, error, id));
  }
}

void NetServer::HandleMine(const std::shared_ptr<Connection>& conn,
                           const JsonValue& request, const std::string& id) {
  MineFrame frame;
  if (auto error = ParseMineCall(request, &frame)) {
    WriteFrame(conn, ErrorResponse("mine", *error, id));
    return;
  }

  // Warm fast path: a result-cache hit is a hash lookup — answer it on
  // the reader thread instead of queueing it behind cold mines.
  if (!frame.anytime) {
    MineOutcome hit;
    if (server_.TryCacheHit(frame.call, &hit)) {
      JsonObjectWriter w = ResponseEnvelope(true, "mine", id);
      RenderMineOutcome(
          hit, frame.emit_patterns ? RenderPatternsBody(frame.call, hit) : "",
          &w);
      {
        // Count before writing: a client that reads the response and
        // immediately polls stats must see it.
        std::lock_guard<std::mutex> stats(stats_mu_);
        ++counters_.warm_fast_path;
      }
      WriteFrame(conn, w);
      return;
    }
  }

  auto job = std::make_shared<MineJob>();
  job->frame = std::move(frame);
  job->control = util::RunControl();
  ApplyFrameLimits(job->frame, &job->control);
  job->frame.call.run_control = job->control;

  {
    // Backlog bound: shed here, explicitly, rather than buffering an
    // unbounded executor queue during overload.
    std::unique_lock<std::mutex> lock(lifecycle_mu_);
    if (mines_inflight_ >= options_.executor_backlog) {
      lock.unlock();
      MineOutcome shed;
      shed.verdict = Verdict::kRejectedBusy;
      JsonObjectWriter w = ResponseEnvelope(true, "mine", id);
      RenderMineOutcome(shed, "", &w);
      {
        std::lock_guard<std::mutex> stats(stats_mu_);
        ++counters_.shed_backlog;
      }
      WriteFrame(conn, w);
      return;
    }
    ++mines_inflight_;
  }
  if (!job->frame.id.empty()) {
    std::lock_guard<std::mutex> lock(conn->mu);
    job->control_seq = ++conn->next_control_seq;
    conn->controls[job->frame.id] = {job->control_seq, job->control};
  }
  {
    std::lock_guard<std::mutex> stats(stats_mu_);
    ++counters_.mines_dispatched;
  }
  executor_->Submit([this, conn, job] { RunMine(conn, job); });
}

void NetServer::RunMine(std::shared_ptr<Connection> conn,
                        std::shared_ptr<MineJob> job) {
  const MineFrame& frame = job->frame;
  MineOutcome outcome;
  if (!quota_.TryAcquire(frame.tenant)) {
    outcome.verdict = Verdict::kRejectedQuota;
  } else {
    if (frame.anytime) {
      // Partial events interleave with other responses on the wire; the
      // echoed id keeps them attributable.
      job->control.set_anytime(true);
      std::string id = frame.id;
      auto weak_conn = std::weak_ptr<Connection>(conn);
      job->control.set_progress_callback(
          [this, weak_conn, id](const util::RunProgress& p) {
            if (p.payload == nullptr) return;
            auto c = weak_conn.lock();
            if (c == nullptr) return;
            JsonObjectWriter event;
            event.Add("v", kProtocolVersion);
            event.Add("event", "partial");
            event.Add("op", "mine");
            if (!id.empty()) event.Add("id", id);
            event.Add("level", static_cast<int64_t>(p.level));
            event.Add("patterns", static_cast<uint64_t>(p.patterns_found));
            event.Add("best", p.best_measure);
            event.Add("threshold", p.topk_threshold);
            WriteFrame(c, event);
          });
    }
    outcome = server_.Mine(frame.call);
    quota_.Release(frame.tenant);
  }

  JsonObjectWriter w =
      ResponseEnvelope(outcome.verdict != Verdict::kError, "mine", frame.id);
  RenderMineOutcome(
      outcome,
      frame.emit_patterns ? RenderPatternsBody(frame.call, outcome) : "",
      &w);
  WriteFrame(conn, w);

  if (!frame.id.empty()) {
    std::lock_guard<std::mutex> lock(conn->mu);
    auto it = conn->controls.find(frame.id);
    if (it != conn->controls.end() && it->second.first == job->control_seq) {
      conn->controls.erase(it);
    }
  }
  FinishMine();
}

void NetServer::FinishMine() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  --mines_inflight_;
  lifecycle_cv_.notify_all();
}

void NetServer::HandleCancel(const std::shared_ptr<Connection>& conn,
                             const JsonValue& request,
                             const std::string& id) {
  std::string target = request.GetString("target");
  if (target.empty()) target = id;  // {"op":"cancel","id":"7"} form
  if (target.empty()) {
    WireError error{ErrorCode::kInvalidArgument, "id",
                    "cancel requires the \"id\" of an in-flight mine"};
    WriteFrame(conn, ErrorResponse("cancel", error, id));
    return;
  }
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    auto it = conn->controls.find(target);
    if (it != conn->controls.end()) {
      it->second.second.Cancel();
      found = true;
    }
  }
  if (found) {
    std::lock_guard<std::mutex> stats(stats_mu_);
    ++counters_.cancels;
  }
  JsonObjectWriter w = ResponseEnvelope(true, "cancel", id);
  w.Add("found", found);
  WriteFrame(conn, w);
}

void NetServer::HandleLoad(const std::shared_ptr<Connection>& conn,
                           const JsonValue& request, const std::string& id) {
  std::string name = request.GetString("name");
  std::string spec = request.GetString("spec");
  if (name.empty() || spec.empty()) {
    WireError error{ErrorCode::kInvalidArgument,
                    name.empty() ? "name" : "spec",
                    "load requires \"name\" and \"spec\""};
    WriteFrame(conn, ErrorResponse("load", error, id));
    return;
  }
  auto loaded = server_.Load(name, spec);
  if (!loaded.ok()) {
    WriteFrame(conn, ErrorResponse(
                         "load", WireError::FromStatus(loaded.status(), "spec"),
                         id));
    return;
  }
  JsonObjectWriter w = ResponseEnvelope(true, "load", id);
  w.Add("name", name);
  w.Add("rows", static_cast<uint64_t>((*loaded)->db.num_rows()));
  w.Add("attributes", static_cast<uint64_t>((*loaded)->db.num_attributes()));
  w.Add("bytes", static_cast<uint64_t>((*loaded)->memory_bytes));
  w.Add("version", (*loaded)->generation);
  WriteFrame(conn, w);
}

void NetServer::HandleStats(const std::shared_ptr<Connection>& conn,
                            const std::string& id) {
  JsonObjectWriter w = ResponseEnvelope(true, "stats", id);
  RenderStats(server_.Stats(), &w);
  Stats net = stats();
  JsonObjectWriter n;
  n.Add("connections_accepted", net.connections_accepted);
  n.Add("connections_rejected", net.connections_rejected);
  n.Add("connections_active", net.connections_active);
  n.Add("frames", net.frames);
  n.Add("protocol_errors", net.protocol_errors);
  n.Add("mines_dispatched", net.mines_dispatched);
  n.Add("warm_fast_path", net.warm_fast_path);
  n.Add("shed_backlog", net.shed_backlog);
  n.Add("cancels", net.cancels);
  n.Add("quota_max_inflight", net.quota.max_inflight);
  n.Add("quota_tenants_inflight", net.quota.tenants_inflight);
  n.Add("quota_acquired", net.quota.acquired);
  n.Add("quota_rejected", net.quota.rejected);
  w.AddRaw("net", n.Str());
  WriteFrame(conn, w);
}

void NetServer::HandleEngines(const std::shared_ptr<Connection>& conn,
                              const std::string& id) {
  JsonObjectWriter w = ResponseEnvelope(true, "engines", id);
  RenderEngines(&w);
  WriteFrame(conn, w);
}

void NetServer::HandleEvict(const std::shared_ptr<Connection>& conn,
                            const JsonValue& request, const std::string& id) {
  std::string name = request.GetString("name");
  if (name.empty()) {
    WireError error{ErrorCode::kInvalidArgument, "name",
                    "evict requires \"name\""};
    WriteFrame(conn, ErrorResponse("evict", error, id));
    return;
  }
  JsonObjectWriter w = ResponseEnvelope(true, "evict", id);
  w.Add("name", name);
  w.Add("evicted", server_.Evict(name));
  WriteFrame(conn, w);
}

void NetServer::WaitShutdown() {
  std::unique_lock<std::mutex> lock(lifecycle_mu_);
  lifecycle_cv_.wait(lock, [this] { return shutdown_requested_; });
}

void NetServer::RequestShutdown() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  shutdown_requested_ = true;
  lifecycle_cv_.notify_all();
}

void NetServer::Drain() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  draining_ = true;

  // 1. Stop accepting: shutting the listen socket down unblocks
  // accept(). The descriptor is closed only once the accept thread is
  // joined, so its number cannot be reused under a live accept().
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // 2. Finish in-flight: every dispatched mine runs to completion and
  // writes its response (and any anytime partials) before this count
  // reaches zero. Readers still answer frames that race in, with
  // {"code":"draining"} errors — a response is never silently dropped.
  {
    std::unique_lock<std::mutex> lock(lifecycle_mu_);
    lifecycle_cv_.wait(lock, [this] { return mines_inflight_ == 0; });
  }
  server_.WaitIdle();

  // 3. Close every connection (unblocking its reader) and join.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) {
      ::shutdown(conn->fd, SHUT_RDWR);
    }
    for (auto& conn : conns_) {
      if (conn->reader.joinable()) conn->reader.join();
    }
    conns_.clear();
  }
  executor_.reset();  // drains any no-op remainder, joins workers
  RequestShutdown();  // release any WaitShutdown caller
}

NetServer::Stats NetServer::stats() const {
  Stats s;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s = counters_;
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    s.connections_active = static_cast<int>(conns_.size());
  }
  s.quota = quota_.stats();
  return s;
}

}  // namespace sdadcs::serve
