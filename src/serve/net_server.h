#ifndef SDADCS_SERVE_NET_SERVER_H_
#define SDADCS_SERVE_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "serve/admission.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace sdadcs::serve {

/// Deployment knobs of the TCP front end. The mining-side limits
/// (concurrency, queue, cache, budgets) stay on ServerOptions — these
/// only shape the transport.
struct NetServerOptions {
  std::string host = "127.0.0.1";
  /// TCP port to bind; 0 asks the kernel for an ephemeral port (read it
  /// back from NetServer::port()).
  int port = 0;
  /// Concurrent connections; one past the cap is answered with a single
  /// {"code":"busy"} error frame and closed.
  int max_connections = 256;
  /// Worker threads of the bounded mine executor; 0 derives
  /// max_concurrent_runs + max_queue from the server options, so every
  /// admission slot and queue position can be occupied simultaneously.
  int executor_threads = 0;
  /// Mine frames allowed in flight (executor queue + running) before the
  /// front end sheds with verdict "rejected_busy" instead of buffering.
  int executor_backlog = 64;
  /// Per-tenant in-flight mine quota (see TenantQuota); 0 = unlimited.
  int tenant_max_inflight = 0;
};

/// TCP socket front end over a serve::Server, speaking the versioned
/// ND-JSON wire protocol of serve/protocol.h: one JSON object per
/// LF-terminated line, keep-alive connections, per-connection request
/// pipelining with client-chosen "id" correlation tokens, a "cancel" op
/// reaching in-flight requests, per-tenant admission quotas, and
/// graceful drain.
///
/// Threading model: one reader thread per connection parses frames and
/// answers everything cheap in place — loads, stats, cancels, protocol
/// errors, and result-cache hits (Server::TryCacheHit), so a warm hit
/// never queues behind a cold mine. Real mining work is dispatched to
/// one shared bounded executor; responses to pipelined requests are
/// written in completion order, correlated by the echoed "id".
///
///   serve::Server server(options);
///   serve::NetServer net(server, {.port = 0});
///   auto started = net.Start();            // binds, listens, accepts
///   int port = net.port();                 // resolved ephemeral port
///   ...
///   net.WaitShutdown();                    // a client sent {"op":"shutdown"}
///   net.Drain();  // stop accepting, finish in-flight, flush, close
class NetServer {
 public:
  NetServer(Server& server, NetServerOptions options);
  /// Drains (gracefully) if still running.
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens and starts the accept thread. Fails with
  /// kIoError when the address cannot be bound.
  util::Status Start();

  /// The bound TCP port (resolves option port 0 to the kernel's pick);
  /// 0 before Start().
  int port() const { return port_; }

  /// Blocks until some client sends {"op":"shutdown"} or another thread
  /// calls RequestShutdown. The caller then runs Drain().
  void WaitShutdown();
  void RequestShutdown();

  /// Graceful drain: stops accepting, answers every request already
  /// received (new frames are refused with {"code":"draining"}), lets
  /// in-flight mines finish and their responses — including anytime
  /// partial events — flush, then closes every connection and joins all
  /// threads. Idempotent.
  void Drain();

  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t connections_rejected = 0;  ///< over max_connections
    int connections_active = 0;
    uint64_t frames = 0;            ///< well-formed frames handled
    uint64_t protocol_errors = 0;   ///< parse/version/unknown-op answers
    uint64_t mines_dispatched = 0;  ///< frames handed to the executor
    uint64_t warm_fast_path = 0;    ///< cache hits answered on the reader
    uint64_t shed_backlog = 0;      ///< rejected_busy before the executor
    uint64_t cancels = 0;           ///< cancel ops that found their target
    TenantQuota::Stats quota;
  };
  Stats stats() const;

 private:
  struct Connection;
  struct MineJob;

  void AcceptLoop(int listen_fd);
  void ReaderLoop(std::shared_ptr<Connection> conn);
  void HandleFrame(const std::shared_ptr<Connection>& conn,
                   const std::string& line);
  void HandleMine(const std::shared_ptr<Connection>& conn,
                  const JsonValue& request, const std::string& id);
  void RunMine(std::shared_ptr<Connection> conn,
               std::shared_ptr<MineJob> job);
  void HandleCancel(const std::shared_ptr<Connection>& conn,
                    const JsonValue& request, const std::string& id);
  void HandleLoad(const std::shared_ptr<Connection>& conn,
                  const JsonValue& request, const std::string& id);
  void HandleStats(const std::shared_ptr<Connection>& conn,
                   const std::string& id);
  void HandleEngines(const std::shared_ptr<Connection>& conn,
                     const std::string& id);
  void HandleEvict(const std::shared_ptr<Connection>& conn,
                   const JsonValue& request, const std::string& id);

  /// Serialized, flushed frame write ('\n' appended). Errors mark the
  /// connection write-dead and are otherwise ignored: the peer is gone.
  void WriteFrame(const std::shared_ptr<Connection>& conn,
                  const JsonObjectWriter& frame);

  void FinishMine();  ///< decrements in-flight mines, wakes Drain
  /// Joins and forgets connections whose reader has exited.
  void ReapConnectionsLocked();

  Server& server_;
  NetServerOptions options_;
  std::unique_ptr<util::ThreadPool> executor_;
  TenantQuota quota_;

  int listen_fd_ = -1;
  std::atomic<int> port_{0};
  std::thread accept_thread_;
  std::atomic<bool> draining_{false};
  bool started_ = false;
  bool stopped_ = false;

  std::mutex lifecycle_mu_;
  std::condition_variable lifecycle_cv_;
  bool shutdown_requested_ = false;
  int mines_inflight_ = 0;  ///< dispatched to the executor, not yet done

  mutable std::mutex conns_mu_;
  std::list<std::shared_ptr<Connection>> conns_;

  mutable std::mutex stats_mu_;
  Stats counters_;
};

}  // namespace sdadcs::serve

#endif  // SDADCS_SERVE_NET_SERVER_H_
