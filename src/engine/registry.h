#ifndef SDADCS_ENGINE_REGISTRY_H_
#define SDADCS_ENGINE_REGISTRY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/request_key.h"
#include "engine/engine.h"
#include "util/status.h"

namespace sdadcs::engine {

/// Engine knobs that are deployment decisions rather than mining
/// semantics — they never enter the request fingerprint.
struct EngineOptions {
  /// Worker threads of the level-parallel engine (0 = hardware
  /// concurrency).
  size_t parallel_threads = 0;
  /// Rows of the tail window the "window" engine mines (0 = the whole
  /// dataset).
  size_t window_rows = 0;
  /// Bin count of the binned:equal_width / binned:equal_freq engines.
  int equal_bins = 10;
};

/// The registry of every servable mining engine, keyed by stable string
/// name. Tools, the ND-JSON server and tests all resolve engines here —
/// there is no other path from a name to a miner.
///
/// Registered names (one per core::EngineKind except kAuto, which the
/// serving layer resolves before it gets here):
///
///   serial             SDAD-CS lattice search, single thread
///   parallel           level-parallel SDAD-CS (Section 6)
///   beam               beam-search subgroup discovery (Cortana-style)
///   binned:fayyad      pre-binned STUCCO over Fayyad-MDL global bins
///   binned:mvd         ... over MVD bins
///   binned:srikant     ... over Srikant partial-completeness bins
///   binned:equal_width ... over equal-width bins
///   binned:equal_freq  ... over equal-frequency bins
///   window             serial SDAD-CS over the most recent rows only
class EngineRegistry {
 public:
  struct Entry {
    std::string name;
    core::EngineKind kind = core::EngineKind::kAuto;
    std::string description;
    std::function<std::unique_ptr<Engine>(const core::MinerConfig&,
                                          const EngineOptions&)>
        factory;
  };

  /// The process-wide registry with every built-in engine registered.
  static const EngineRegistry& Global();

  /// Entries in registration order (stable across calls).
  const std::vector<Entry>& entries() const { return entries_; }

  /// Registered names, in registration order.
  std::vector<std::string> Names() const;

  /// Comma-separated names for error messages and --help.
  std::string NamesJoined() const;

  bool Has(const std::string& name) const;

  /// The entry registered under `name`, or nullptr.
  const Entry* Find(const std::string& name) const;

  /// Constructs the named engine over `config`. Unknown names are an
  /// InvalidArgument naming the offending value and listing every
  /// registered name.
  util::StatusOr<std::unique_ptr<Engine>> Create(
      const std::string& name, const core::MinerConfig& config,
      const EngineOptions& options = EngineOptions()) const;

  /// Create() via the enum (kAuto is rejected — resolve it first).
  util::StatusOr<std::unique_ptr<Engine>> Create(
      core::EngineKind kind, const core::MinerConfig& config,
      const EngineOptions& options = EngineOptions()) const;

 private:
  EngineRegistry();

  void Register(Entry entry);

  std::vector<Entry> entries_;
};

}  // namespace sdadcs::engine

#endif  // SDADCS_ENGINE_REGISTRY_H_
