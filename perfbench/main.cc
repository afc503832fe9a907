// perfbench_client — runs one workload of the repository benchmark. It
// writes the seeded inputs, starts sdadcs_netd on them (netd's
// default options; only port, chunk-residency cap and dataset specs are
// set), drives it over loopback with the v1 wire protocol, checks every
// answer against the in-process oracle and prints the metrics. See
// README.md for the workloads and the metric -> layer -> workload map.
//
//   perfbench_client --workload NAME --seed N --seconds S --trace 0|1
//                    --netd PATH --out DIR [--corrupt-reference]

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/report.h"
#include "data/csv.h"
#include "data/prepared.h"
#include "data/spill.h"
#include "engine/registry.h"
#include "engine/session.h"
#include "inputs.h"
#include "ledger.h"
#include "oracle.h"
#include "serve/dataset_registry.h"
#include "serve/protocol.h"
#include "util/flags.h"
#include "wire.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using sdadcs::serve::JsonObjectWriter;
using sdadcs::serve::JsonValue;
using sdadcs::util::Status;
using sdadcs::util::StatusOr;

// setup_s is the median of at least kMinSetups set-ups, repeated until
// they add up to kSetupBudgetS (at most kMaxSetups).
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 7;
constexpr double kSetupBudgetS = 2.0;
constexpr double kGeneratorSlackMs = 5.0;  // lag p99 above this: behind

struct MetricDef {
  const char* name;
  const char* unit;
  const char* moves;  ///< end-to-end metric and workload it should move
};

// End-to-end metrics: measured on every workload with tracing off.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s", ""},
    {"peak_rss_mb", "MB", ""},
    {"mine_p50_s", "s", ""},
    {"mines_per_min", "1/min", ""},
    {"cold_p50_ms", "ms", ""},
    {"cold_p95_ms", "ms", ""},
};

// Per-layer metrics of the traced run, named by module, with the
// prediction each one carries.
const MetricDef kPerLayer[] = {
    {"data.load_ms", "ms", "setup_s, all"},
    {"data.reload_ms.p50", "ms", "cold_p95_ms, serve_mixed"},
    {"data.artifact_builds", "count", "setup_s + peak_rss_mb, all"},
    {"data.artifact_bytes", "bytes", "setup_s + peak_rss_mb, all"},
    {"data.chunk_loads_per_mine", "count", "mine_p50_s, mine_tall (0 on mine_wide)"},
    {"data.chunk_evictions_per_mine", "count", "mine_p50_s, mine_tall (0 on mine_wide)"},
    {"data.resident_chunk_bytes", "bytes", "mine_p50_s, mine_tall (0 on mine_wide)"},
    {"serve.queue_ms.p50", "ms", "cold_p95_ms, serve_mixed"},
    {"serve.queue_ms.p95", "ms", "cold_p95_ms, serve_mixed"},
    {"serve.run_ms.p50", "ms", "cold_p50_ms, serve_mixed; mine_p50_s, mine_*"},
    {"serve.overhead_ms.p50", "ms", "serve.warm_p99_ms, serve_mixed"},
    {"serve.warm_p99_ms", "ms", "none (warm latency; too unsteady for end-to-end)"},
    {"serve.cache_hit_ratio", "ratio", "serve.warm_p99_ms + failure share, serve_mixed"},
    {"serve.coalesced", "count", "serve.warm_p99_ms + failure share, serve_mixed"},
    {"serve.rejected_busy", "count", "failure share, serve_mixed"},
    {"serve.invalidations", "count", "serve.warm_p99_ms, serve_mixed"},
    {"serve.parse_us", "us", "serve.warm_p99_ms, serve_mixed"},
    {"serve.render_us", "us", "serve.warm_p99_ms, serve_mixed"},
    {"serve.generator_lag_ms.p99", "ms", "none (generator health)"},
    {"engine.mine_s.p50", "s", "mine_p50_s, mine_wide + mine_tall"},
    {"engine.session_ms", "ms", "mine_p50_s, mine_wide"},
    {"core.partitions_evaluated", "count", "mine_p50_s, mine_wide"},
    {"core.sdad_calls", "count", "mine_p50_s, mine_wide"},
    {"core.chi2_tests", "count", "mine_p50_s, mine_wide"},
    {"core.merges", "count", "mine_p50_s, mine_wide"},
    {"core.pruned_lookup", "count", "mine_p50_s, mine_wide"},
    {"core.pruned_oe_measure", "count", "mine_p50_s, mine_wide"},
    {"core.pruned_oe_chi2", "count", "mine_p50_s, mine_wide"},
    {"core.pruned_redundant", "count", "mine_p50_s, mine_wide"},
    {"core.unproductive", "count", "mine_p50_s, mine_wide"},
    {"core.truncated_candidates", "count", "mine_p50_s, mine_wide"},
    {"core.patterns_per_partition", "ratio", "mine_p50_s, mine_wide"},
    {"core.cpu_s_per_mine", "s", "mine_p50_s, mine_tall (~wall on mine_wide)"},
    {"parallel.busy_cores", "cores", "mine_p50_s, mine_tall (~1 on mine_wide)"},
    {"host.steal_pct", "%", "none (host health: CPU time taken by the hypervisor)"},
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string netd;
  std::string out;
  bool corrupt_reference = false;
};

/// One parsed mine response.
struct Answer {
  bool envelope_ok = false;
  std::string id, verdict, cache, completion, engine, patterns;
  double queue_ms = 0.0, run_ms = 0.0, total_ms = 0.0;
};

Answer ParseAnswer(const std::string& line) {
  Answer a;
  auto v = ParseEnvelope(line);
  if (!v.ok() || !v->IsObject()) return a;
  a.envelope_ok = v->GetBool("ok", false);
  a.id = v->GetString("id");
  a.verdict = v->GetString("verdict");
  a.cache = v->GetString("cache");
  a.completion = v->GetString("completion");
  a.engine = v->GetString("engine");
  a.queue_ms = v->GetNumber("queue_ms", 0.0);
  a.run_ms = v->GetNumber("run_ms", 0.0);
  a.total_ms = v->GetNumber("total_ms", 0.0);
  a.patterns = PatternsBody(line);
  return a;
}

/// Why `a` is not a usable complete answer ("" when it is).
std::string AnswerProblem(const Answer& a) {
  if (!a.envelope_ok) return "error frame";
  if (a.verdict != "ok") return "verdict " + a.verdict;
  if (a.completion != "complete") return "completion " + a.completion;
  if (a.patterns.empty()) return "no patterns body";
  return "";
}

/// Server counters from the "stats" op that the ledger reads.
struct StatsSnap {
  double artifact_builds = 0, artifact_bytes = 0, chunk_loads = 0,
         chunk_evictions = 0, resident_chunk_bytes = 0, cache_hits = 0,
         cache_misses = 0, coalesced = 0, invalidations = 0,
         rejected_busy = 0;
};

StatusOr<StatsSnap> ReadStats(Conn* conn) {
  auto v = conn->Call("{\"op\":\"stats\"}");
  if (!v.ok()) return v.status();
  const JsonValue* reg = v->Find("registry");
  const JsonValue* cache = v->Find("cache");
  if (reg == nullptr || cache == nullptr) {
    return Status::Internal("stats: missing registry/cache");
  }
  StatsSnap s;
  s.artifact_builds = reg->GetNumber("artifact_builds", 0);
  s.artifact_bytes = reg->GetNumber("artifact_bytes", 0);
  s.chunk_loads = reg->GetNumber("chunk_loads", 0);
  s.chunk_evictions = reg->GetNumber("chunk_evictions", 0);
  s.resident_chunk_bytes = reg->GetNumber("resident_chunk_bytes", 0);
  s.cache_hits = cache->GetNumber("hits", 0);
  s.cache_misses = cache->GetNumber("misses", 0);
  s.coalesced = cache->GetNumber("coalesced", 0);
  s.invalidations = cache->GetNumber("invalidations", 0);
  s.rejected_busy = v->GetNumber("rejected_busy", 0);
  return s;
}

double Median(const std::vector<double>& v) { return Percentile(v, 50.0); }

/// The cold tail: p95 when at least 10 samples lie beyond it, else the
/// highest of p90 / p75 with that support, else the median. Returns the
/// value; *used gets the percentile.
double ColdTail(const std::vector<double>& v, double* used) {
  double p = HighestSupportedPercentile(v.size(), {95.0, 90.0, 75.0});
  *used = p > 0 ? p : 50.0;
  return Percentile(v, *used);
}

/// Total length of the union of [first, second) intervals.
double UnionLength(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, cursor = -1e300;
  for (const auto& [a, b] : iv) {
    if (b <= cursor) continue;
    total += b - std::max(a, cursor);
    cursor = b;
  }
  return total;
}

std::string HostJson() {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  JsonObjectWriter w;
  w.Add("cpu_model", cpu);
  w.Add("nproc", static_cast<int64_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
#if defined(__clang__)
  w.Add("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  w.Add("compiler", std::string("gcc ") + __VERSION__);
#else
  w.Add("compiler", "unknown");
#endif
  w.Add("build_type", PERFBENCH_BUILD_TYPE);
  w.Add("release", std::string(PERFBENCH_BUILD_TYPE) == "Release");
  return w.Str();
}

/// Host-wide CPU ticks from /proc/stat: {steal, total}. Steal is time
/// the hypervisor gave this machine's CPUs to someone else.
std::pair<double, double> HostTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double steal = 0.0, total = 0.0, v = 0.0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

/// Everything one run accumulates.
struct Run {
  explicit Run(const Args& a) : args(a), tracer(a.trace) {}

  Args args;
  WorkloadInputs in;
  std::string run_dir;
  std::map<std::string, std::string> specs;  ///< dataset -> load spec
  Tracer tracer;
  std::map<std::string, double> e2e, layer;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  size_t setups = 0;  ///< set-ups behind setup_s

  void Fail(const std::string& why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  }
};

// ---------------------------------------------------------------------
// Oracle references, computed before the server starts.

StatusOr<std::vector<std::string>> References(
    const Run& run, const std::vector<MineSpec>& specs) {
  std::map<std::string, sdadcs::data::Dataset> dense;
  for (const DatasetShape& ds : run.in.datasets) {
    auto db = sdadcs::data::ReadCsvFile(run.run_dir + "/" + ds.name + ".csv");
    if (!db.ok()) return db.status();
    dense.emplace(ds.name, std::move(*db));
  }
  std::vector<std::string> out(specs.size());
  std::vector<Status> errors(specs.size(), Status::OK());
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next++; i < specs.size(); i = next++) {
      auto ref = ReferencePatterns(dense.at(specs[i].dataset), specs[i]);
      if (ref.ok()) {
        out[i] = run.args.corrupt_reference ? CorruptReference(*ref) : *ref;
      } else {
        errors[i] = ref.status();
      }
    }
  };
  size_t threads = std::min<size_t>(
      std::max<long>(1, ::sysconf(_SC_NPROCESSORS_ONLN)), 4);
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  for (const Status& st : errors) {
    if (!st.ok()) return st;
  }
  return out;
}

// ---------------------------------------------------------------------
// Set-up: (spill) -> server start -> loads -> first mine per dataset.

struct Deployment {
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<Conn> conn;
};

std::string FirstMineFrame(const std::string& dataset) {
  MineSpec s;
  s.dataset = dataset;
  s.group = "batch";
  s.depth = 1;
  return MineFrameJson(s, false, "setup");
}

StatusOr<Deployment> SetupOnce(Run& run, double* seconds,
                               std::vector<double>* load_ms) {
  Tracer& tr = run.tracer;
  double t0 = NowSeconds();
  int root = tr.Begin("bench.setup");
  std::vector<std::string> netd_args;
  if (run.in.max_resident_bytes > 0) {
    // The paged backend: the server maps a columnar spill file of the
    // CSV with a chunk-residency cap. Writing it is the ingest the
    // server would do for a CSV load, so it counts as set-up.
    int span = tr.Begin("data.spill_write", root);
    for (const DatasetShape& ds : run.in.datasets) {
      auto db = sdadcs::data::ReadCsvFile(run.run_dir + "/" + ds.name + ".csv");
      if (!db.ok()) return db.status();
      std::string path = run.run_dir + "/" + ds.name + ".spill";
      Status st = sdadcs::data::WriteSpill(*db, path);
      if (!st.ok()) return st;
      run.specs[ds.name] = "spill:" + path;
    }
    tr.End(span);
    netd_args = {"--max-resident-bytes",
                 std::to_string(run.in.max_resident_bytes)};
  } else {
    for (const DatasetShape& ds : run.in.datasets) {
      run.specs[ds.name] = run.run_dir + "/" + ds.name + ".csv";
    }
  }
  Deployment d;
  int span = tr.Begin("serve.start", root);
  auto server = ServerProcess::Start(run.args.netd, netd_args, run.run_dir);
  if (!server.ok()) return server.status();
  d.server = std::move(*server);
  auto conn = Conn::Connect(d.server->port());
  if (!conn.ok()) return conn.status();
  d.conn = std::make_unique<Conn>(std::move(*conn));
  tr.End(span);
  for (const DatasetShape& ds : run.in.datasets) {
    JsonObjectWriter w;
    w.Add("op", "load").Add("name", ds.name).Add("spec", run.specs[ds.name]);
    double l0 = NowSeconds();
    span = tr.Begin("data.load", root, ds.name);
    auto reply = d.conn->Call(w.Str());
    tr.End(span);
    if (!reply.ok()) return reply.status();
    load_ms->push_back((NowSeconds() - l0) * 1e3);
  }
  for (const DatasetShape& ds : run.in.datasets) {
    span = tr.Begin("serve.first_mine", root, ds.name);
    auto reply = d.conn->Call(FirstMineFrame(ds.name));
    tr.End(span);
    if (!reply.ok()) return reply.status();
    if (reply->GetString("verdict") != "ok") {
      return Status::Internal("set-up mine failed on " + ds.name);
    }
  }
  tr.End(root);
  *seconds = NowSeconds() - t0;
  return d;
}

StatusOr<Deployment> Setup(Run& run, std::vector<double>* load_ms) {
  std::vector<double> times;
  Deployment kept;
  double total = 0.0;
  for (int rep = 0; rep < kMaxSetups &&
                    (rep < kMinSetups || total < kSetupBudgetS);
       ++rep) {
    if (kept.server != nullptr) {
      Status st = kept.server->Stop();
      if (!st.ok()) return st;
    }
    double seconds = 0.0;
    auto d = SetupOnce(run, &seconds, load_ms);
    if (!d.ok()) return d.status();
    kept = std::move(*d);
    times.push_back(seconds);
    total += seconds;
  }
  run.e2e["setup_s"] = Median(times);
  run.setups = times.size();
  return kept;
}

/// Spans of one wire request: the client-timed round trip, and inside
/// it the server's own total/queue/run durations from the wire,
/// anchored at the receive time.
void TraceRequest(Tracer& tr, const std::string& id, double send, double recv,
                  const Answer& a) {
  if (!tr.enabled()) return;
  int req = tr.Add("serve.request", send, recv, -1, id);
  double srv_end = recv;
  double srv_start = std::max(send, srv_end - a.total_ms / 1e3);
  int srv = tr.Add("serve.server", srv_start, srv_end, req, id);
  double q_end = std::min(srv_end, srv_start + a.queue_ms / 1e3);
  if (a.queue_ms > 0) tr.Add("serve.queue", srv_start, q_end, srv, id);
  if (a.run_ms > 0) {
    tr.Add("engine.run", q_end, std::min(srv_end, q_end + a.run_ms / 1e3), srv,
           id);
  }
}

// ---------------------------------------------------------------------
// mine_wide / mine_tall: closed loop, one client, whole cycles.

struct WireSamples {
  std::vector<double> cold_ms;       ///< from due time
  std::vector<double> cold_send_s;   ///< from send time
  std::vector<std::pair<double, double>> cold_intervals;
  std::vector<double> warm_ms, queue_ms, run_ms, overhead_ms, lag_ms,
      reload_ms;
  double window_s = 0.0;
  double cpu_s = 0.0;   ///< server CPU over the window
};

Status MineLoop(Run& run, Deployment& d, const std::vector<std::string>& refs,
                std::vector<std::string>* engines, WireSamples* w) {
  const std::vector<MineSpec>& cycle = run.in.cycle;
  double start = NowSeconds();
  double cpu0 = d.server->CpuSeconds();
  uint64_t n = 0;
  std::vector<std::vector<double>> per_spec(cycle.size());
  while (true) {
    double cycle_start = NowSeconds();
    for (size_t i = 0; i < cycle.size(); ++i) {
      std::string id = "m" + std::to_string(n++);
      double t0 = NowSeconds();
      Status st = d.conn->Send(MineFrameJson(cycle[i], false, id));
      if (!st.ok()) return st;
      auto line = d.conn->ReadFrame();
      if (!line.ok()) return line.status();
      double t1 = NowSeconds();
      ++run.attempted;
      Answer a = ParseAnswer(*line);
      TraceRequest(run.tracer, id, t0, t1, a);
      std::string problem = AnswerProblem(a);
      if (problem.empty() && a.cache != "bypass") problem = "cache " + a.cache;
      if (problem.empty()) problem = ComparePatternSets(refs[i], a.patterns);
      if (!problem.empty()) {
        run.Fail(id + ": " + problem);
        continue;
      }
      (*engines)[i] = a.engine;
      per_spec[i].push_back((t1 - t0) * 1e3);
      w->cold_ms.push_back((t1 - t0) * 1e3);
      w->cold_send_s.push_back(t1 - t0);
      w->cold_intervals.emplace_back(t0, t1);
      w->queue_ms.push_back(a.queue_ms);
      w->run_ms.push_back(a.run_ms);
      w->overhead_ms.push_back((t1 - t0) * 1e3 - a.total_ms);
    }
    double now = NowSeconds();
    // Whole cycles only, so every run weighs each request equally; stop
    // before a cycle that would overrun the measuring time.
    if (now - start + (now - cycle_start) > run.args.seconds) break;
  }
  w->window_s = NowSeconds() - start;
  w->cpu_s = d.server->CpuSeconds() - cpu0;
  for (size_t i = 0; i < cycle.size(); ++i) {
    auto patterns = SplitJsonArray(refs[i]);
    std::printf("request %zu: median %.1f ms over %zu, %zu patterns  %s\n", i,
                Median(per_spec[i]), per_spec[i].size(),
                patterns.ok() ? patterns->size() : 0,
                MineFrameJson(cycle[i], false, "").c_str());
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// serve_mixed: open loop at a fixed rate, pipelined over 3 connections,
// plus a 4th connection for the scheduled reloads.

constexpr int kRequestConns = 3;

Status ServeLoop(Run& run, Deployment& d, const std::vector<std::string>& refs,
                 std::vector<std::string>* engines, WireSamples* w) {
  const WorkloadInputs& in = run.in;
  const size_t hot_n = in.hot.size();
  // Pre-warm the hot set (outside the window): each key's cold answer
  // is the byte-exact reference for its warm hits.
  std::vector<std::string> warm_ref(hot_n);
  for (size_t h = 0; h < hot_n; ++h) {
    Status st = d.conn->Send(MineFrameJson(in.hot[h], true, "warm"));
    if (!st.ok()) return st;
    auto line = d.conn->ReadFrame();
    if (!line.ok()) return line.status();
    Answer a = ParseAnswer(*line);
    ++run.attempted;
    std::string problem = AnswerProblem(a);
    if (problem.empty()) problem = ComparePatternSets(refs[h], a.patterns);
    if (!problem.empty()) run.Fail("pre-warm " + std::to_string(h) + ": " + problem);
    warm_ref[h] = a.patterns;
    (*engines)[h] = a.engine;
  }

  std::vector<Conn> conns;
  for (int c = 0; c <= kRequestConns; ++c) {
    auto conn = Conn::Connect(d.server->port());
    if (!conn.ok()) return conn.status();
    conns.push_back(std::move(*conn));
  }
  Conn& reload_conn = conns[kRequestConns];

  const size_t n = in.schedule.size();
  const size_t reloads =
      static_cast<size_t>(std::floor(in.schedule.back().due_s /
                                     in.reload_period_s));
  std::vector<std::string> lines(n);
  std::vector<double> recv(n, 0.0), sent(n, 0.0), due(n, 0.0);
  std::vector<double> reload_sent(reloads, 0.0), reload_recv(reloads, 0.0);
  std::vector<std::string> reload_lines(reloads);
  std::atomic<double> reader_deadline{1e300};

  // One reader thread polls every connection and only stamps and stores
  // frames; all parsing happens after the window.
  std::thread reader([&] {
    size_t pending = n + reloads;
    std::vector<pollfd> fds;
    for (Conn& c : conns) fds.push_back({c.fd(), POLLIN, 0});
    std::string line;
    while (pending > 0 && NowSeconds() < reader_deadline.load()) {
      if (::poll(fds.data(), fds.size(), 100) <= 0) continue;
      double now = NowSeconds();
      for (size_t c = 0; c < fds.size(); ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        if (!conns[c].Fill().ok()) {
          fds[c].fd = -1;  // closed; the unanswered requests fail below
          continue;
        }
        while (conns[c].TakeFrame(&line)) {
          size_t at = line.find("\"id\":\"");
          if (at == std::string::npos) continue;
          char kind = line[at + 6];
          size_t idx = std::strtoull(line.c_str() + at + 7, nullptr, 10);
          if (kind == 'r' && idx < n && recv[idx] == 0.0) {
            recv[idx] = now;
            lines[idx] = std::move(line);
            --pending;
          } else if (kind == 'L' && idx < reloads && reload_recv[idx] == 0.0) {
            reload_recv[idx] = now;
            reload_lines[idx] = std::move(line);
            --pending;
          }
        }
      }
    }
  });

  auto before = ReadStats(d.conn.get());
  double cpu0 = d.server->CpuSeconds();
  const double start = NowSeconds() + 0.05;
  size_t next_reload = 0;
  Status send_status = Status::OK();
  std::string reload_frame;
  {
    JsonObjectWriter lw;
    lw.Add("op", "load").Add("name", in.reload_dataset)
        .Add("spec", run.specs.at(in.reload_dataset));
    reload_frame = lw.Str();
  }
  auto sleep_until = [](double t) {
    double dt = t - NowSeconds();
    if (dt > 0) std::this_thread::sleep_for(std::chrono::duration<double>(dt));
  };
  for (size_t i = 0; i < n && send_status.ok(); ++i) {
    const Scheduled& s = in.schedule[i];
    while (next_reload < reloads &&
           (next_reload + 1) * in.reload_period_s <= s.due_s) {
      double rdue = start + (next_reload + 1) * in.reload_period_s;
      sleep_until(rdue);
      // The id goes first so the reader can find it cheaply.
      std::string frame = "{\"id\":\"L" + std::to_string(next_reload) +
                          "\"," + reload_frame.substr(1);
      reload_sent[next_reload] = NowSeconds();
      send_status = reload_conn.Send(frame);
      ++next_reload;
    }
    due[i] = start + s.due_s;
    sleep_until(due[i]);
    const MineSpec& spec = s.cold ? in.cold[s.spec] : in.hot[s.spec];
    std::string frame = MineFrameJson(spec, true, "r" + std::to_string(i));
    sent[i] = NowSeconds();
    w->lag_ms.push_back((sent[i] - due[i]) * 1e3);
    if (send_status.ok()) send_status = conns[i % kRequestConns].Send(frame);
  }
  reader_deadline = NowSeconds() + 30.0;
  reader.join();
  w->window_s = NowSeconds() - start;
  w->cpu_s = d.server->CpuSeconds() - cpu0;
  if (!send_status.ok()) return send_status;
  if (!before.ok()) return before.status();

  for (size_t k = 0; k < reloads; ++k) {
    auto v = JsonValue::Parse(reload_lines[k]);
    if (reload_recv[k] == 0.0 || !v.ok() || !v->GetBool("ok", false)) {
      return Status::Internal("reload " + std::to_string(k) + " failed");
    }
    w->reload_ms.push_back((reload_recv[k] - reload_sent[k]) * 1e3);
    run.tracer.Add("data.reload", reload_sent[k], reload_recv[k], -1,
                   "L" + std::to_string(k));
  }

  for (size_t i = 0; i < n; ++i) {
    ++run.attempted;
    const Scheduled& s = in.schedule[i];
    std::string id = "r" + std::to_string(i);
    if (recv[i] == 0.0) {
      run.Fail(id + ": no answer");
      continue;
    }
    Answer a = ParseAnswer(lines[i]);
    TraceRequest(run.tracer, id, sent[i], recv[i], a);
    std::string problem = AnswerProblem(a);
    size_t ref = s.cold ? hot_n + s.spec : s.spec;
    if (problem.empty()) {
      if (a.cache == "hit" && !s.cold) {
        if (a.patterns != warm_ref[s.spec]) problem = "warm answer differs";
      } else {
        problem = ComparePatternSets(refs[ref], a.patterns);
      }
    }
    if (!problem.empty()) {
      run.Fail(id + ": " + problem);
      continue;
    }
    if (s.cold && (*engines)[ref].empty()) (*engines)[ref] = a.engine;
    double from_due = (recv[i] - due[i]) * 1e3;
    double from_send = recv[i] - sent[i];
    w->overhead_ms.push_back(from_send * 1e3 - a.total_ms);
    if (a.cache == "hit") {
      w->warm_ms.push_back(from_due);
    } else if (a.cache == "miss") {
      w->cold_ms.push_back(from_due);
      w->cold_send_s.push_back(from_send);
      w->cold_intervals.emplace_back(sent[i], recv[i]);
      w->queue_ms.push_back(a.queue_ms);
      w->run_ms.push_back(a.run_ms);
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// Traced replay: the layer calls a request makes, timed from here.

struct ReplayTotals {
  std::vector<double> mine_s, session_ms, parse_us, render_us;
  sdadcs::core::MiningCounters counters;
  double patterns = 0;
};

Status Replay(Run& run, const std::vector<const MineSpec*>& specs,
              const std::vector<std::string>& engines, ReplayTotals* out) {
  using sdadcs::data::Dataset;
  using sdadcs::data::PreparedDataset;
  Tracer& tr = run.tracer;
  std::map<std::string, std::unique_ptr<Dataset>> dbs;
  std::map<std::string, std::unique_ptr<PreparedDataset>> bundles;
  sdadcs::serve::DatasetLoadOptions load;
  load.max_resident_bytes = run.in.max_resident_bytes;
  for (size_t i = 0; i < specs.size(); ++i) {
    const MineSpec& spec = *specs[i];
    if (dbs.count(spec.dataset) == 0) {
      auto db = sdadcs::serve::LoadDatasetFromSpec(run.specs.at(spec.dataset),
                                                   load);
      if (!db.ok()) return db.status();
      auto owned = std::make_unique<Dataset>(std::move(*db));
      auto bundle = std::make_unique<PreparedDataset>(owned.get());
      // Warm the bundle the way the server's set-up mine does.
      sdadcs::core::MinerConfig cfg;
      cfg.max_depth = 1;
      sdadcs::core::MineRequest warm;
      warm.group_attr = "batch";
      warm.prepared = bundle.get();
      auto e = sdadcs::engine::EngineRegistry::Global().Create(engines[i], cfg);
      if (!e.ok()) return e.status();
      auto r = (*e)->Mine(*owned, warm);
      if (!r.ok()) return r.status();
      bundles[spec.dataset] = std::move(bundle);
      dbs[spec.dataset] = std::move(owned);
    }
    const Dataset& db = *dbs[spec.dataset];
    std::string id = "replay" + std::to_string(i);
    std::string frame = MineFrameJson(spec, true, id);
    int root = tr.Begin("bench.replay", -1, id);

    double t = NowSeconds();
    int span = tr.Begin("serve.parse", root, id);
    auto json = JsonValue::Parse(frame);
    sdadcs::serve::MineFrame parsed;
    bool parse_failed = !json.ok() ||
                        sdadcs::serve::ParseMineCall(*json, &parsed).has_value();
    tr.End(span);
    out->parse_us.push_back((NowSeconds() - t) * 1e6);
    if (parse_failed) return Status::Internal("replay: frame did not parse");

    sdadcs::core::MineRequest request;
    request.group_attr = parsed.call.group_attr;
    request.group_values = parsed.call.group_values;
    request.prepared = bundles[spec.dataset].get();
    const sdadcs::core::MinerConfig& cfg = parsed.call.config;

    t = NowSeconds();
    span = tr.Begin("engine.session", root, id);
    auto session = sdadcs::engine::MiningSession::Begin(db, cfg, request);
    tr.End(span);
    out->session_ms.push_back((NowSeconds() - t) * 1e3);
    if (!session.ok()) return session.status();

    auto engine = sdadcs::engine::EngineRegistry::Global().Create(engines[i], cfg);
    if (!engine.ok()) return engine.status();
    t = NowSeconds();
    span = tr.Begin("engine.mine", root, id);
    auto result = (*engine)->Mine(db, request);
    tr.End(span);
    out->mine_s.push_back(NowSeconds() - t);
    if (!result.ok()) return result.status();
    out->counters.Add(result->counters);
    out->patterns += result->contrasts.size();

    t = NowSeconds();
    span = tr.Begin("serve.render", root, id);
    sdadcs::serve::MineOutcome outcome;
    outcome.verdict = sdadcs::serve::Verdict::kOk;
    auto kind = sdadcs::core::EngineKindFromString(engines[i]);
    if (kind.ok()) outcome.engine = *kind;
    outcome.result =
        std::make_shared<const sdadcs::core::MiningResult>(std::move(*result));
    auto groups = sdadcs::core::ResolveRequestGroups(db, request);
    if (!groups.ok()) return groups.status();
    JsonObjectWriter w = sdadcs::serve::ResponseEnvelope(true, "mine", id);
    sdadcs::serve::RenderMineOutcome(
        outcome,
        sdadcs::core::PatternsToJson(db, *groups, outcome.result->contrasts),
        &w);
    std::string rendered = w.Str();
    tr.End(span);
    out->render_us.push_back((NowSeconds() - t) * 1e6);
    tr.End(root);
    if (rendered.empty()) return Status::Internal("replay: empty render");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------

std::string MetricsJson(const MetricDef* defs, size_t count,
                        const std::map<std::string, double>& values) {
  JsonObjectWriter metrics;
  for (size_t i = 0; i < count; ++i) {
    JsonObjectWriter m;
    auto it = values.find(defs[i].name);
    m.Add("value", it == values.end() ? 0.0 : it->second);
    m.Add("unit", defs[i].unit);
    metrics.AddRaw(defs[i].name, m.Str());
  }
  return metrics.Str();
}

/// The untraced result of the same workload and seed, when this
/// checkout has one, for the tracing-overhead columns.
std::map<std::string, double> LoadUntraced(const std::string& path) {
  std::map<std::string, double> out;
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  auto v = JsonValue::Parse(text);
  if (!v.ok()) return out;
  const JsonValue* metrics = v->Find("metrics");
  if (metrics == nullptr) return out;
  for (const MetricDef& def : kEndToEnd) {
    const JsonValue* m = metrics->Find(def.name);
    if (m != nullptr) out[def.name] = m->GetNumber("value", 0.0);
  }
  return out;
}

void PrintLedger(const Run& run, const std::string& untraced_path) {
  std::vector<Span> spans = run.tracer.spans();
  std::printf("\nper-layer self time (%zu spans)\n", spans.size());
  std::printf("  %-20s %8s %12s %12s %12s\n", "span", "count", "total_ms",
              "self_ms", "self_ms/call");
  for (const auto& [name, t] : LayerTimes(spans)) {
    std::printf("  %-20s %8llu %12.3f %12.3f %12.4f\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.total_s * 1e3,
                t.self_s * 1e3, t.count ? t.self_s * 1e3 / t.count : 0.0);
  }
  std::printf("\nper-layer metrics (metric -> end-to-end metric it should move)\n");
  for (const MetricDef& def : kPerLayer) {
    auto it = run.layer.find(def.name);
    std::printf("  %-30s %14.6g %-6s  -> %s\n", def.name,
                it == run.layer.end() ? 0.0 : it->second, def.unit, def.moves);
  }
  std::map<std::string, double> untraced = LoadUntraced(untraced_path);
  std::printf("\ntracing overhead: traced vs untraced run, same seed\n");
  for (const MetricDef& def : kEndToEnd) {
    double traced = run.e2e.at(def.name);
    auto it = untraced.find(def.name);
    if (it == untraced.end() || it->second == 0.0) {
      std::printf("  %-14s traced %12.6g %-5s untraced (not run)\n", def.name,
                  traced, def.unit);
    } else {
      std::printf("  %-14s traced %12.6g %-5s untraced %12.6g  (%+.1f%%)\n",
                  def.name, traced, def.unit, it->second,
                  (traced / it->second - 1.0) * 100.0);
    }
  }
}

int Main(int argc, char** argv) {
  auto flags = sdadcs::util::Flags::Parse(argc, argv, {"corrupt-reference"});
  if (!flags.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", flags.status().message().c_str());
    return 2;
  }
  Args args;
  args.workload = flags->Get("workload");
  args.seed = std::strtoull(flags->Get("seed", "0").c_str(), nullptr, 10);
  args.seconds = flags->GetDouble("seconds", 10.0);
  args.trace = flags->GetInt("trace", 0) != 0;
  args.netd = flags->Get("netd");
  args.out = flags->Get("out");
  args.corrupt_reference = flags->Has("corrupt-reference");
  if (args.netd.empty() || args.out.empty() || !(args.seconds > 0)) {
    std::fprintf(stderr,
                 "perfbench: --netd, --out and --seconds > 0 are required\n");
    return 2;
  }
  Run run(args);
  auto inputs = MakeInputs(run.args.workload, run.args.seed, run.args.seconds);
  if (!inputs.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", inputs.status().message().c_str());
    return 2;
  }
  run.in = std::move(*inputs);
  std::string tag = run.args.workload + "-seed" + std::to_string(run.args.seed);
  run.run_dir = std::filesystem::absolute(run.args.out + "/" + tag).string();
  std::filesystem::create_directories(run.run_dir);

  std::string host = HostJson();
  std::printf("host %s\n", host.c_str());
  if (host.find("\"release\":false") != std::string::npos) {
    std::fprintf(stderr, "perfbench: WARNING: library build type is %s, "
                         "not Release; numbers are not comparable\n",
                 PERFBENCH_BUILD_TYPE);
  }

  auto fatal = [](const Status& st) {
    std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
    return 1;
  };

  // Inputs and oracle references: before the server starts, untimed.
  Status st = WriteDatasets(run.in, run.args.seed, run.run_dir);
  if (!st.ok()) return fatal(st);
  const bool mixed = run.in.workload == "serve_mixed";
  std::vector<MineSpec> ref_specs = run.in.cycle;
  if (mixed) {
    ref_specs = run.in.hot;
    ref_specs.insert(ref_specs.end(), run.in.cold.begin(), run.in.cold.end());
  }
  double oracle_t0 = NowSeconds();
  auto refs = References(run, ref_specs);
  if (!refs.ok()) return fatal(refs.status());
  size_t empty_refs = 0;
  for (const std::string& r : *refs) {
    auto parts = SplitJsonArray(r);
    empty_refs += parts.ok() && parts->empty();
  }
  std::printf("oracle: %zu references (%zu with no pattern) in %.2f s\n",
              refs->size(), empty_refs, NowSeconds() - oracle_t0);

  std::vector<double> load_ms;
  auto deployment = Setup(run, &load_ms);
  if (!deployment.ok()) return fatal(deployment.status());
  Deployment& d = *deployment;
  auto after_setup = ReadStats(d.conn.get());
  if (!after_setup.ok()) return fatal(after_setup.status());

  std::vector<std::string> engines(ref_specs.size());
  WireSamples w;
  auto before = ReadStats(d.conn.get());
  if (!before.ok()) return fatal(before.status());
  auto ticks0 = HostTicks();
  st = mixed ? ServeLoop(run, d, *refs, &engines, &w)
             : MineLoop(run, d, *refs, &engines, &w);
  if (!st.ok()) return fatal(st);
  auto ticks1 = HostTicks();
  double ticks = ticks1.second - ticks0.second;
  run.layer["host.steal_pct"] =
      ticks > 0 ? 100.0 * (ticks1.first - ticks0.first) / ticks : 0.0;
  auto after = ReadStats(d.conn.get());
  if (!after.ok()) return fatal(after.status());
  run.e2e["peak_rss_mb"] = d.server->PeakRssMb();
  st = d.server->Stop();
  if (!st.ok()) return fatal(st);

  // End-to-end metrics.
  if (w.cold_ms.empty() && run.failed == 0) run.Fail("no cold mine answered");
  double tail_p = 0.0;
  double cold_busy_s = UnionLength(w.cold_intervals);
  run.e2e["mine_p50_s"] = Median(w.cold_send_s);
  run.e2e["mines_per_min"] =
      cold_busy_s > 0 ? 60.0 * w.cold_ms.size() / cold_busy_s : 0.0;
  run.e2e["cold_p50_ms"] = Median(w.cold_ms);
  run.e2e["cold_p95_ms"] = ColdTail(w.cold_ms, &tail_p);
  std::printf("samples: %zu cold mines (tail at p%g), %zu warm hits "
              "(p99 %.3f ms), window %.2f s, setup x%zu, host steal %.1f%%\n",
              w.cold_ms.size(), tail_p, w.warm_ms.size(),
              Percentile(w.warm_ms, 99.0), w.window_s, run.setups,
              run.layer["host.steal_pct"]);

  // Per-layer metrics (every run computes the cheap ones; only the
  // traced run prints them).
  double lag_p99 = w.lag_ms.empty() ? 0.0 : Percentile(w.lag_ms, 99.0);
  bool behind = lag_p99 > kGeneratorSlackMs;
  if (mixed) {
    std::printf("generator: lag p99 %.3f ms over %zu sends%s\n", lag_p99,
                w.lag_ms.size(), behind ? " -- BEHIND SCHEDULE" : "");
  }
  double mines = std::max<double>(1, w.cold_ms.size());
  std::map<std::string, double>& L = run.layer;
  L["data.load_ms"] = Median(load_ms);
  L["data.reload_ms.p50"] = w.reload_ms.empty() ? 0.0 : Median(w.reload_ms);
  L["data.artifact_builds"] = after_setup->artifact_builds;
  L["data.artifact_bytes"] = after->artifact_bytes;
  L["data.chunk_loads_per_mine"] = (after->chunk_loads - before->chunk_loads) / mines;
  L["data.chunk_evictions_per_mine"] =
      (after->chunk_evictions - before->chunk_evictions) / mines;
  L["data.resident_chunk_bytes"] = after->resident_chunk_bytes;
  double qp = HighestSupportedPercentile(w.queue_ms.size(), {95.0, 90.0, 75.0});
  L["serve.queue_ms.p50"] = Median(w.queue_ms);
  L["serve.queue_ms.p95"] = Percentile(w.queue_ms, qp > 0 ? qp : 50.0);
  L["serve.run_ms.p50"] = Median(w.run_ms);
  L["serve.overhead_ms.p50"] = Median(w.overhead_ms);
  double wp = HighestSupportedPercentile(w.warm_ms.size(), {99.0, 95.0, 90.0});
  L["serve.warm_p99_ms"] =
      w.warm_ms.empty() ? 0.0 : Percentile(w.warm_ms, wp > 0 ? wp : 50.0);
  double lookups = (after->cache_hits - before->cache_hits) +
                   (after->cache_misses - before->cache_misses);
  L["serve.cache_hit_ratio"] =
      lookups > 0 ? (after->cache_hits - before->cache_hits) / lookups : 0.0;
  L["serve.coalesced"] = after->coalesced - before->coalesced;
  L["serve.rejected_busy"] = after->rejected_busy - before->rejected_busy;
  L["serve.invalidations"] = after->invalidations - before->invalidations;
  L["serve.generator_lag_ms.p99"] = lag_p99;
  L["core.cpu_s_per_mine"] = w.cpu_s / mines;
  L["parallel.busy_cores"] = cold_busy_s > 0 ? w.cpu_s / cold_busy_s : 0.0;

  std::string untraced_path = run.run_dir + "/result-untraced.json";
  if (run.args.trace) {
    // Replay each distinct request of the window once through the layer
    // calls the server makes, with the engine the server chose.
    std::vector<const MineSpec*> specs;
    std::vector<std::string> replay_engines;
    size_t limit = mixed ? run.in.hot.size() + 8 : ref_specs.size();
    for (size_t i = 0; i < ref_specs.size() && specs.size() < limit; ++i) {
      if (engines[i].empty()) continue;
      specs.push_back(&ref_specs[i]);
      replay_engines.push_back(engines[i]);
    }
    ReplayTotals rt;
    st = Replay(run, specs, replay_engines, &rt);
    if (!st.ok()) return fatal(st);
    double rm = std::max<double>(1, rt.mine_s.size());
    const auto& c = rt.counters;
    L["serve.parse_us"] = Median(rt.parse_us);
    L["serve.render_us"] = Median(rt.render_us);
    L["engine.mine_s.p50"] = Median(rt.mine_s);
    L["engine.session_ms"] = Median(rt.session_ms);
    L["core.partitions_evaluated"] = c.partitions_evaluated / rm;
    L["core.sdad_calls"] = c.sdad_calls / rm;
    L["core.chi2_tests"] = c.chi2_tests / rm;
    L["core.merges"] = c.merges / rm;
    L["core.pruned_lookup"] = c.pruned_lookup / rm;
    L["core.pruned_oe_measure"] = c.pruned_oe_measure / rm;
    L["core.pruned_oe_chi2"] = c.pruned_oe_chi2 / rm;
    L["core.pruned_redundant"] = c.pruned_redundant / rm;
    L["core.unproductive"] = c.unproductive / rm;
    L["core.truncated_candidates"] = c.truncated_candidates / rm;
    L["core.patterns_per_partition"] =
        c.partitions_evaluated ? rt.patterns / c.partitions_evaluated : 0.0;
    std::string spans_path = run.run_dir + "/spans.jsonl";
    if (!run.tracer.WriteJsonLines(spans_path)) {
      return fatal(Status::IoError("cannot write " + spans_path));
    }
    std::printf("spans: %s\n", spans_path.c_str());
    PrintLedger(run, untraced_path);
  }

  // The inputs are regenerated from the seed on every run; only the
  // results and spans stay behind.
  for (const auto& entry : std::filesystem::directory_iterator(run.run_dir)) {
    std::string ext = entry.path().extension().string();
    if (ext == ".csv" || ext == ".spill") std::filesystem::remove(entry.path());
  }

  for (const std::string& f : run.failures) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
  }
  bool correct = run.failed == 0;
  JsonObjectWriter result;
  result.Add("correct", correct);
  result.Add("attempted", run.attempted);
  result.Add("failed", run.failed);
  result.AddRaw("metrics",
                run.args.trace
                    ? MetricsJson(kPerLayer, std::size(kPerLayer), run.layer)
                    : MetricsJson(kEndToEnd, std::size(kEndToEnd), run.e2e));
  if (!run.args.trace) {
    std::ofstream(untraced_path) << result.Str() << "\n";
  }
  for (const MetricDef& def : kEndToEnd) {
    std::printf("%-16s %14.6f %s\n", def.name, run.e2e[def.name], def.unit);
  }
  std::printf("%s\n", result.Str().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
