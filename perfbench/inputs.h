#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

// Seeded inputs of every workload: the datasets (written as CSV files
// before the server starts) and the request lists. The same seed gives
// byte-identical files and requests; the program sees only those.

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

/// A scaling-shaped dataset (the paper's Section 6 experiment: wide,
/// mostly-noise quantitative data with a few informative features and a
/// two-valued "batch" group attribute).
struct DatasetShape {
  std::string name;
  size_t rows = 0;
  int continuous = 0;
  int categorical = 0;
  int informative_continuous = 0;
  int informative_categorical = 0;
};

/// One mine request as the benchmark sends it.
struct MineSpec {
  std::string dataset;
  std::string group;
  std::vector<std::string> values;  ///< empty = every value
  int depth = 2;
  double delta = 0.1;
  int top = 10;
};

/// One open-loop request of serve_mixed: due time after the window
/// starts, and which spec it sends.
struct Scheduled {
  double due_s = 0.0;
  bool cold = false;
  int spec = 0;  ///< index into WorkloadInputs::hot or ::cold
};

struct WorkloadInputs {
  std::string workload;
  std::vector<DatasetShape> datasets;
  /// mine_wide / mine_tall: the cycle of distinct cold mines, sent with
  /// "cache":false in this order, over and over.
  std::vector<MineSpec> cycle;
  /// serve_mixed: the pre-warmed hot set, the distinct cold mines and
  /// the send schedule.
  std::vector<MineSpec> hot;
  std::vector<MineSpec> cold;
  std::vector<Scheduled> schedule;
  /// serve_mixed: which dataset is re-loaded, and how often.
  std::string reload_dataset;
  double reload_period_s = 0.0;
  /// mine_tall: the chunk-residency cap handed to the server (bytes).
  size_t max_resident_bytes = 0;
};

/// The workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Builds the inputs of `workload` for `seed`; serve_mixed schedules
/// `seconds` of traffic. InvalidArgument for an unknown workload.
sdadcs::util::StatusOr<WorkloadInputs> MakeInputs(const std::string& workload,
                                                  uint64_t seed,
                                                  double seconds);

/// Writes every dataset of `inputs` to `<dir>/<name>.csv`.
sdadcs::util::Status WriteDatasets(const WorkloadInputs& inputs, uint64_t seed,
                                   const std::string& dir);

/// The wire frame of one mine: {"op":"mine",...,"emit":"patterns"}.
std::string MineFrameJson(const MineSpec& spec, bool use_cache,
                          const std::string& id);

/// Every request the workload sends, one frame per line, in send order
/// (ids blank) — what the determinism test compares across runs.
std::string RequestListText(const WorkloadInputs& inputs);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
