#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <random>

#include "data/csv.h"
#include "serve/ndjson.h"
#include "synth/scaling.h"

namespace perfbench {

namespace {

using sdadcs::util::Status;

// Sizing is recorded in README.md; every constant below is part of the
// benchmark's definition, so changing one starts a new baseline.

// mine_wide: frontier- and pruning-bound; below the server's 100k-row
// parallel threshold, so the serial engine runs it.
const DatasetShape kWide = {"wide", 10000, 45, 15, 5, 3};
// mine_tall: row-bound; above the threshold, so the parallel engine runs
// it, paged with a chunk cap below half of the dense column bytes.
const DatasetShape kTall = {"tall", 400000, 8, 3, 3, 1};
constexpr double kTallResidentShare = 0.4;
// serve_mixed: a few small datasets; cold mines stay cheap so the
// protocol, cache, admission and registry layers carry the load.
const DatasetShape kSmall[] = {{"s0", 2000, 16, 4, 4, 2},
                               {"s1", 2000, 16, 4, 4, 2},
                               {"s2", 2000, 16, 4, 4, 2}};
constexpr double kServeRate = 160.0;  // requests per second, open loop
constexpr int kColdEvery = 8;         // one cold mine per block of 8
// Hot keys per dataset. The reloaded dataset holds few of them: each
// reload turns its hot keys into one burst of cold misses, and those
// bursts stay well under 5% of the cold samples so that cold_p95_ms
// does not sit on their edge.
constexpr int kHotPerDataset[] = {11, 11, 2};
constexpr double kReloadPeriod = 4.0;  // seconds between reloads of s2

/// Portable seeded choice (std distributions differ between libraries).
class Rng {
 public:
  explicit Rng(uint64_t seed) : gen_(seed) {}
  size_t Below(size_t n) { return static_cast<size_t>(gen_() % n); }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[Below(i)]);
  }

 private:
  std::mt19937_64 gen_;
};

struct GroupSpec {
  std::string group;
  std::vector<std::string> values;
};

// Group specs every scaling-shaped dataset supports: the two batches,
// or two values of the informative categorical feature whose batch mix
// differs enough for depth-2 contrasts to exist (a vs b has none).
const GroupSpec kGroups[] = {{"batch", {}},
                             {"feat_k000", {"a", "d"}},
                             {"feat_k000", {"a", "c"}},
                             {"feat_k000", {"b", "d"}}};

std::vector<MineSpec> MineCycle(const std::string& dataset,
                                const std::vector<std::pair<int, double>>& pool,
                                Rng* rng) {
  std::vector<MineSpec> cycle;
  for (const auto& [g, delta] : pool) {
    MineSpec s;
    s.dataset = dataset;
    s.group = kGroups[g].group;
    s.values = kGroups[g].values;
    s.depth = 2;
    s.delta = delta;
    s.top = 10;
    cycle.push_back(s);
  }
  rng->Shuffle(&cycle);
  return cycle;
}

/// serve_mixed keys: distinct (dataset, group, delta, top) tuples drawn
/// without replacement from one seeded enumeration. Deltas start at
/// 0.10: smaller ones make a few mines several times dearer, and which
/// of those a seed draws would then decide cold_p95_ms.
std::vector<MineSpec> DistinctServeSpecs(size_t count, Rng* rng) {
  std::vector<MineSpec> all;
  for (const DatasetShape& ds : kSmall) {
    for (const GroupSpec& g : kGroups) {
      for (int d = 10; d <= 20; ++d) {
        for (int top = 5; top <= 40; ++top) {
          MineSpec s;
          s.dataset = ds.name;
          s.group = g.group;
          s.values = g.values;
          s.depth = 2;
          s.delta = d / 100.0;
          s.top = top;
          all.push_back(s);
        }
      }
    }
  }
  rng->Shuffle(&all);
  all.resize(std::min(count, all.size()));
  return all;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"mine_wide", "mine_tall",
                                                 "serve_mixed"};
  return names;
}

sdadcs::util::StatusOr<WorkloadInputs> MakeInputs(const std::string& workload,
                                                  uint64_t seed,
                                                  double seconds) {
  WorkloadInputs in;
  in.workload = workload;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  if (workload == "mine_wide") {
    in.datasets = {kWide};
    // Odd cycle lengths keep the pooled median inside one request's
    // samples instead of on the gap between two requests' costs.
    in.cycle = MineCycle("wide", {{0, 0.1}, {0, 0.12}, {0, 0.15}, {1, 0.1},
                                  {1, 0.15}, {2, 0.1}, {3, 0.1}},
                         &rng);
  } else if (workload == "mine_tall") {
    in.datasets = {kTall};
    in.cycle = MineCycle("tall",
                         {{0, 0.05}, {0, 0.1}, {1, 0.05}, {2, 0.05}, {3, 0.05}},
                         &rng);
    size_t dense = kTall.rows * (8 * kTall.continuous +
                                 4 * (kTall.categorical + 1));
    in.max_resident_bytes = static_cast<size_t>(dense * kTallResidentShare);
  } else if (workload == "serve_mixed") {
    in.datasets.assign(std::begin(kSmall), std::end(kSmall));
    size_t n = static_cast<size_t>(seconds * kServeRate);
    size_t blocks = (n + kColdEvery - 1) / kColdEvery;
    // Drawn with slack, so every dataset surely yields its hot keys.
    std::vector<MineSpec> keys = DistinctServeSpecs(blocks + 100, &rng);
    for (size_t d = 0; d < std::size(kSmall); ++d) {
      int taken = 0;
      for (auto it = keys.begin(); it != keys.end() && taken < kHotPerDataset[d];) {
        if (it->dataset == kSmall[d].name) {
          in.hot.push_back(*it);
          it = keys.erase(it);
          ++taken;
        } else {
          ++it;
        }
      }
    }
    in.cold = std::move(keys);
    in.cold.resize(blocks);
    for (size_t b = 0; b < blocks; ++b) {
      size_t cold_slot = rng.Below(kColdEvery);
      for (size_t j = 0; j < static_cast<size_t>(kColdEvery); ++j) {
        size_t i = b * kColdEvery + j;
        if (i >= n) break;
        Scheduled s;
        s.due_s = i / kServeRate;
        s.cold = j == cold_slot;
        s.spec = s.cold ? static_cast<int>(b)
                        : static_cast<int>(rng.Below(in.hot.size()));
        in.schedule.push_back(s);
      }
    }
    in.reload_dataset = "s2";
    in.reload_period_s = kReloadPeriod;
  } else {
    return Status::InvalidArgument("--workload: unknown workload '" + workload +
                                   "'");
  }
  return in;
}

Status WriteDatasets(const WorkloadInputs& inputs, uint64_t seed,
                     const std::string& dir) {
  for (size_t i = 0; i < inputs.datasets.size(); ++i) {
    const DatasetShape& shape = inputs.datasets[i];
    sdadcs::synth::ScalingOptions opt;
    opt.rows = shape.rows;
    opt.continuous_features = shape.continuous;
    opt.categorical_features = shape.categorical;
    opt.informative_continuous = shape.informative_continuous;
    opt.informative_categorical = shape.informative_categorical;
    opt.seed = seed * 1000003ULL + i;
    auto named = sdadcs::synth::MakeScalingDataset(opt);
    Status st = sdadcs::data::WriteCsvFile(named.db,
                                           dir + "/" + shape.name + ".csv");
    if (!st.ok()) return st;
  }
  return Status::OK();
}

std::string MineFrameJson(const MineSpec& spec, bool use_cache,
                          const std::string& id) {
  using sdadcs::serve::JsonEscape;
  using sdadcs::serve::JsonObjectWriter;
  JsonObjectWriter config;
  config.Add("depth", spec.depth);
  config.Add("delta", spec.delta);
  config.Add("top", spec.top);
  JsonObjectWriter w;
  w.Add("op", "mine");
  if (!id.empty()) w.Add("id", id);
  w.Add("dataset", spec.dataset);
  w.Add("group", spec.group);
  if (!spec.values.empty()) {
    std::string values = "[";
    for (size_t i = 0; i < spec.values.size(); ++i) {
      if (i > 0) values += ",";
      values += '"';
      values += JsonEscape(spec.values[i]);
      values += '"';
    }
    w.AddRaw("groups", values + "]");
  }
  w.AddRaw("config", config.Str());
  if (!use_cache) w.Add("cache", false);
  w.Add("emit", "patterns");
  return w.Str();
}

std::string RequestListText(const WorkloadInputs& inputs) {
  std::string out;
  for (const MineSpec& s : inputs.cycle) out += MineFrameJson(s, false, "") + "\n";
  for (const MineSpec& s : inputs.hot) out += "hot " + MineFrameJson(s, true, "") + "\n";
  for (const Scheduled& s : inputs.schedule) {
    const MineSpec& spec = s.cold ? inputs.cold[s.spec] : inputs.hot[s.spec];
    char due[32];
    std::snprintf(due, sizeof(due), "%.6f ", s.due_s);
    out += due + MineFrameJson(spec, true, "") + "\n";
  }
  return out;
}

}  // namespace perfbench
