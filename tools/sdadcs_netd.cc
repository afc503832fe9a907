// sdadcs_netd — TCP mining daemon speaking the versioned ND-JSON wire
// protocol of serve/protocol.h (see docs/API.md, "Wire protocol").
//
//   ./sdadcs_netd [--host A.B.C.D] [--port N] [--port-file PATH]
//                 [--max-connections N] [--executor-threads N]
//                 [--executor-backlog N] [--tenant-quota N]
//                 [--max-concurrent N] [--queue N] [--cache-capacity N]
//                 [--memory-budget-mb N] [--deadline-ms N]
//                 [--node-budget N] [--threads N]
//                 [--parallel-threshold ROWS] [--window-rows N]
//                 [--equal-bins N] [--chunk-rows N]
//                 [--max-resident-bytes N]
//
// --port 0 (the default) binds an ephemeral port; the resolved port is
// printed on the "listening" line and, with --port-file, written to PATH
// so scripts can wait for readiness and read the port in one step.
//
// Shuts down on {"op":"shutdown"} from any client, SIGINT or SIGTERM —
// always via graceful drain: stop accepting, answer everything already
// received, flush, then exit.

#include <csignal>
#include <cstdio>
#include <string>

#include "serve/net_server.h"
#include "serve/server.h"
#include "util/flags.h"

namespace {

sdadcs::serve::NetServer* g_net_server = nullptr;

void HandleSignal(int) {
  // RequestShutdown only touches a mutex/cv pair; good enough for the
  // termination path of a CLI daemon.
  if (g_net_server != nullptr) g_net_server->RequestShutdown();
}

}  // namespace

int main(int argc, char** argv) {
  using sdadcs::serve::NetServer;
  using sdadcs::serve::NetServerOptions;
  using sdadcs::serve::Server;
  using sdadcs::serve::ServerOptions;

  auto flags = sdadcs::util::Flags::Parse(argc, argv, {});
  if (!flags.ok()) {
    std::fprintf(stderr, "sdadcs_netd: %s\n",
                 flags.status().message().c_str());
    return 2;
  }

  ServerOptions options;
  options.max_concurrent_runs = flags->GetInt("max-concurrent", 2);
  options.max_queue = flags->GetInt("queue", 8);
  options.result_cache_capacity =
      static_cast<size_t>(flags->GetInt("cache-capacity", 256));
  options.dataset_memory_budget =
      static_cast<size_t>(flags->GetInt("memory-budget-mb", 0)) * 1024 * 1024;
  options.default_deadline_ms = flags->GetInt("deadline-ms", 0);
  options.default_node_budget =
      static_cast<uint64_t>(flags->GetDouble("node-budget", 0));
  options.parallel_threads = static_cast<size_t>(flags->GetInt("threads", 0));
  options.parallel_threshold_rows =
      static_cast<size_t>(flags->GetInt("parallel-threshold", 100000));
  options.window_rows = static_cast<size_t>(flags->GetInt("window-rows", 0));
  options.equal_bins = flags->GetInt("equal-bins", 10);
  options.chunk_rows = static_cast<size_t>(flags->GetInt("chunk-rows", 0));
  options.max_resident_bytes =
      static_cast<size_t>(flags->GetInt("max-resident-bytes", 0));

  NetServerOptions net_options;
  net_options.host = flags->Get("host", "127.0.0.1");
  net_options.port = flags->GetInt("port", 0);
  net_options.max_connections = flags->GetInt("max-connections", 256);
  net_options.executor_threads = flags->GetInt("executor-threads", 0);
  net_options.executor_backlog = flags->GetInt("executor-backlog", 64);
  net_options.tenant_max_inflight = flags->GetInt("tenant-quota", 0);

  Server server(options);
  NetServer net(server, net_options);
  auto started = net.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "sdadcs_netd: %s\n", started.message().c_str());
    return 1;
  }

  g_net_server = &net;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  std::fprintf(stdout, "sdadcs_netd listening on %s:%d (protocol v%lld)\n",
               net_options.host.c_str(), net.port(),
               static_cast<long long>(sdadcs::serve::kProtocolVersion));
  std::fflush(stdout);

  // The port file is the readiness signal: written only after the
  // socket accepts connections.
  std::string port_file = flags->Get("port-file");
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "sdadcs_netd: cannot write --port-file %s\n",
                   port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%d\n", net.port());
    std::fclose(f);
  }

  net.WaitShutdown();
  std::fprintf(stdout, "sdadcs_netd draining\n");
  std::fflush(stdout);
  net.Drain();
  g_net_server = nullptr;

  NetServer::Stats stats = net.stats();
  std::fprintf(stdout,
               "sdadcs_netd done: %llu connections, %llu frames, "
               "%llu mines, %llu warm fast-path, %llu protocol errors\n",
               static_cast<unsigned long long>(stats.connections_accepted),
               static_cast<unsigned long long>(stats.frames),
               static_cast<unsigned long long>(stats.mines_dispatched),
               static_cast<unsigned long long>(stats.warm_fast_path),
               static_cast<unsigned long long>(stats.protocol_errors));
  return 0;
}
