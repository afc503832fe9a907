// sdadcs_serve — newline-delimited JSON mining server over stdin/stdout,
// speaking the versioned wire protocol of serve/protocol.h (the same
// protocol sdadcs_netd serves over TCP — see docs/API.md).
//
//   ./sdadcs_serve [--max-concurrent N] [--queue N] [--cache-capacity N]
//                  [--memory-budget-mb N] [--deadline-ms N]
//                  [--node-budget N] [--threads N]
//                  [--parallel-threshold ROWS] [--window-rows N]
//                  [--equal-bins N] [--chunk-rows N]
//                  [--max-resident-bytes N]
//
// One JSON object per input line, one JSON response line per request —
// scriptable from shell pipes and CI with no network dependency:
//
//   {"op":"load","name":"d1","spec":"synth:scaling:20000"}
//   {"op":"mine","dataset":"d1","group":"batch","config":{"depth":2}}
//   {"op":"mine","dataset":"d1","group":"batch","config":{"depth":2}}
//   {"op":"stats"}
//   {"op":"evict","name":"d1"}
//   {"op":"shutdown"}
//
// Ops:
//   load     name, spec                 → rows/attributes/bytes/version
//   mine     dataset, group, groups[],  → verdict, cache status, request
//            engine (auto or any registry   key, timings
//            name: serial|parallel|beam|window|binned:<method>),
//            deadline_ms, node_budget, cache (bool),
//            emit ("summary"|"patterns"), burst (int), id (string,
//            echoed), anytime (bool, burst 1 only: stream
//            {"event":"partial",...} lines with best-so-far progress
//            before the final response),
//            config {depth, delta, alpha, top, measure, np,
//                    kernel ("auto"|"scalar"|"avx2"), seed_sample}
//   stats                               → registry/cache/admission counters
//   engines                             → registered engine names + descriptions
//   evict    name                       → evicted (bool)
//   ping                                → acknowledges
//   shutdown                            → acknowledges, then exits
//
// `burst` fires N copies of the request concurrently through the
// admission controller and reports each outcome — the scripted way to
// observe single-flight coalescing ("cache":"shared") and load shedding
// ("verdict":"rejected_busy") without a second process.
//
// Every response carries "v" (the protocol version), "ok", the echoed
// "op" and "id"; errors are structured {code, field, message} objects
// from the shared taxonomy and keep the session alive. Responses never
// interleave: requests are handled one line at a time.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "serve/server.h"
#include "util/flags.h"
#include "util/thread_pool.h"

namespace {

using sdadcs::serve::ErrorCode;
using sdadcs::serve::JsonObjectWriter;
using sdadcs::serve::JsonValue;
using sdadcs::serve::MineCall;
using sdadcs::serve::MineFrame;
using sdadcs::serve::MineOutcome;
using sdadcs::serve::Server;
using sdadcs::serve::ServerOptions;
using sdadcs::serve::WireError;

void Respond(const JsonObjectWriter& w) {
  std::string line = w.Str();
  std::fputs(line.c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

void RespondError(const std::string& op, const WireError& error,
                  const std::string& id = "") {
  Respond(sdadcs::serve::ErrorResponse(op, error, id));
}

void HandleLoad(Server& server, const JsonValue& request,
                const std::string& id) {
  std::string name = request.GetString("name");
  std::string spec = request.GetString("spec");
  if (name.empty() || spec.empty()) {
    RespondError("load",
                 WireError{ErrorCode::kInvalidArgument,
                           name.empty() ? "name" : "spec",
                           "load requires \"name\" and \"spec\""},
                 id);
    return;
  }
  auto loaded = server.Load(name, spec);
  if (!loaded.ok()) {
    RespondError("load", WireError::FromStatus(loaded.status(), "spec"), id);
    return;
  }
  JsonObjectWriter w = sdadcs::serve::ResponseEnvelope(true, "load", id);
  w.Add("name", name);
  w.Add("rows", static_cast<uint64_t>((*loaded)->db.num_rows()));
  w.Add("attributes",
        static_cast<uint64_t>((*loaded)->db.num_attributes()));
  w.Add("bytes", static_cast<uint64_t>((*loaded)->memory_bytes));
  w.Add("version", (*loaded)->generation);
  Respond(w);
}

void HandleMine(Server& server, const JsonValue& request,
                const std::string& id) {
  MineFrame frame;
  if (auto error = sdadcs::serve::ParseMineCall(request, &frame)) {
    RespondError("mine", *error, id);
    return;
  }

  // Each burst copy gets its own RunControl: limits and cancellation are
  // per request, and sharing one handle would serialize deadlines.
  auto make_call = [&]() {
    MineCall c = frame.call;
    c.run_control = sdadcs::util::RunControl();
    sdadcs::serve::ApplyFrameLimits(frame, &c.run_control);
    if (frame.anytime) {
      // Stream best-so-far snapshots as ND-JSON events ahead of the
      // final response. The mine call blocks this handler until done, so
      // partial lines never interleave with another response; a
      // cache-hit answer simply emits no partials.
      c.run_control.set_anytime(true);
      std::string event_id = frame.id;
      c.run_control.set_progress_callback(
          [event_id](const sdadcs::util::RunProgress& p) {
            if (p.payload == nullptr) return;
            JsonObjectWriter event;
            event.Add("v", sdadcs::serve::kProtocolVersion);
            event.Add("event", "partial");
            event.Add("op", "mine");
            if (!event_id.empty()) event.Add("id", event_id);
            event.Add("level", static_cast<int64_t>(p.level));
            event.Add("patterns", static_cast<uint64_t>(p.patterns_found));
            event.Add("best", p.best_measure);
            event.Add("threshold", p.topk_threshold);
            Respond(event);
          });
    }
    return c;
  };

  if (frame.burst == 1) {
    MineOutcome outcome = server.Mine(make_call());
    JsonObjectWriter w = sdadcs::serve::ResponseEnvelope(
        outcome.verdict != sdadcs::serve::Verdict::kError, "mine", id);
    sdadcs::serve::RenderMineOutcome(
        outcome,
        frame.emit_patterns
            ? sdadcs::serve::RenderPatternsBody(server, frame.call, outcome)
            : "",
        &w);
    Respond(w);
    return;
  }

  std::vector<MineOutcome> outcomes(static_cast<size_t>(frame.burst));
  {
    sdadcs::util::ThreadPool pool(static_cast<size_t>(frame.burst));
    for (int64_t i = 0; i < frame.burst; ++i) {
      MineCall c = make_call();
      pool.Submit([&server, &outcomes, i, c]() {
        outcomes[static_cast<size_t>(i)] = server.Mine(c);
      });
    }
    pool.Wait();
  }
  std::string results = "[";
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (i > 0) results += ",";
    JsonObjectWriter one;
    sdadcs::serve::RenderMineOutcome(outcomes[i], "", &one);
    results += one.Str();
  }
  results += "]";
  JsonObjectWriter w = sdadcs::serve::ResponseEnvelope(true, "mine", id);
  w.Add("burst", frame.burst);
  w.AddRaw("results", results);
  Respond(w);
}

void HandleStats(Server& server, const std::string& id) {
  JsonObjectWriter w = sdadcs::serve::ResponseEnvelope(true, "stats", id);
  sdadcs::serve::RenderStats(server.Stats(), &w);
  Respond(w);
}

void HandleEngines(const std::string& id) {
  JsonObjectWriter w = sdadcs::serve::ResponseEnvelope(true, "engines", id);
  sdadcs::serve::RenderEngines(&w);
  Respond(w);
}

void HandleEvict(Server& server, const JsonValue& request,
                 const std::string& id) {
  std::string name = request.GetString("name");
  if (name.empty()) {
    RespondError("evict",
                 WireError{ErrorCode::kInvalidArgument, "name",
                           "evict requires \"name\""},
                 id);
    return;
  }
  JsonObjectWriter w = sdadcs::serve::ResponseEnvelope(true, "evict", id);
  w.Add("name", name);
  w.Add("evicted", server.Evict(name));
  Respond(w);
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = sdadcs::util::Flags::Parse(argc, argv, /*boolean_flags=*/{});
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }

  ServerOptions options;
  options.max_concurrent_runs = flags->GetInt("max-concurrent", 2);
  options.max_queue = flags->GetInt("queue", 8);
  options.result_cache_capacity =
      static_cast<size_t>(flags->GetInt("cache-capacity", 256));
  options.dataset_memory_budget =
      static_cast<size_t>(flags->GetInt("memory-budget-mb", 0)) * 1024 *
      1024;
  options.default_deadline_ms = flags->GetInt("deadline-ms", 0);
  options.default_node_budget =
      static_cast<uint64_t>(flags->GetInt("node-budget", 0));
  options.parallel_threads =
      static_cast<size_t>(flags->GetInt("threads", 0));
  options.parallel_threshold_rows =
      static_cast<size_t>(flags->GetInt("parallel-threshold", 100000));
  options.window_rows =
      static_cast<size_t>(flags->GetInt("window-rows", 0));
  options.equal_bins = static_cast<int>(flags->GetInt("equal-bins", 10));
  options.chunk_rows = static_cast<size_t>(flags->GetInt("chunk-rows", 0));
  options.max_resident_bytes =
      static_cast<size_t>(flags->GetInt("max-resident-bytes", 0));

  Server server(options);

  std::string line;
  char buffer[1 << 16];
  while (std::fgets(buffer, sizeof(buffer), stdin) != nullptr) {
    line.assign(buffer);
    // Lines longer than the buffer: keep reading until newline.
    while (!line.empty() && line.back() != '\n' &&
           std::fgets(buffer, sizeof(buffer), stdin) != nullptr) {
      line += buffer;
    }
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    if (line.empty()) continue;

    auto request = JsonValue::Parse(line);
    if (!request.ok() || !request->IsObject()) {
      RespondError("", WireError{ErrorCode::kParseError, "",
                                 request.ok()
                                     ? "request must be a JSON object"
                                     : request.status().message()});
      continue;
    }
    std::string op = request->GetString("op");
    std::string id = request->GetString("id");
    if (auto error = sdadcs::serve::CheckProtocolVersion(*request)) {
      RespondError(op, *error, id);
      continue;
    }
    if (op == "load") {
      HandleLoad(server, *request, id);
    } else if (op == "mine") {
      HandleMine(server, *request, id);
    } else if (op == "stats") {
      HandleStats(server, id);
    } else if (op == "engines") {
      HandleEngines(id);
    } else if (op == "evict") {
      HandleEvict(server, *request, id);
    } else if (op == "ping") {
      Respond(sdadcs::serve::ResponseEnvelope(true, "ping", id));
    } else if (op == "shutdown") {
      Respond(sdadcs::serve::ResponseEnvelope(true, "shutdown", id));
      return 0;
    } else {
      RespondError(op,
                   WireError{ErrorCode::kUnknownOp, "op",
                             "unknown op '" + op + "'"},
                   id);
    }
  }
  return 0;
}
