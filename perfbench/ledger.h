#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

// Statistics and tracing helpers of the benchmark: percentile selection,
// an in-memory span recorder and the per-layer self-time ledger.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since a process-wide epoch (the first call), as a double.
double NowSeconds();

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

/// The highest of `candidates` (percent, ascending or not) that leaves at
/// least `min_beyond` of `n` samples above it; -1 when none does. A tail
/// percentile with fewer samples beyond it is noise, not a measurement.
double HighestSupportedPercentile(size_t n, const std::vector<double>& candidates,
                                  size_t min_beyond = 10);

/// One traced interval. `parent` is the index of the enclosing span in
/// the recorder (-1 for a root); spans of one request share `request`.
struct Span {
  std::string name;
  double start = 0.0;  ///< seconds, NowSeconds() clock
  double end = 0.0;
  int parent = -1;
  std::string request;
};

/// Keeps spans in memory; written out once when the run ends. Only the
/// traced run records: a disabled tracer ignores every call, so the
/// untraced run pays one branch per boundary.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span now; returns its index (or -1 when disabled).
  int Begin(const std::string& name, int parent = -1,
            const std::string& request = "");
  /// Closes span `index` now.
  void End(int index);
  /// Records a span whose interval the caller already knows (spans
  /// reconstructed from durations the server reports on the wire).
  int Add(const std::string& name, double start, double end, int parent,
          const std::string& request);

  std::vector<Span> spans() const;

  /// Writes one JSON object per span to `path`.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Per-span-name totals of the ledger.
struct LayerTime {
  uint64_t count = 0;
  double total_s = 0.0;  ///< sum of span durations
  double self_s = 0.0;   ///< sum of durations minus child coverage
};

/// Self time of span `index`: its duration minus the part of its
/// interval that the union of its children's intervals covers (children
/// clipped to the parent; overlapping children counted once).
double SelfTime(const std::vector<Span>& spans, int index);

/// Totals and self times by span name.
std::map<std::string, LayerTime> LayerTimes(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
