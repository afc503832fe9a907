// Tests of the engine layer: registry lookup, name/kind round-trips and
// the uniform Engine contract across every registered engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/requests.h"
#include "core/request_key.h"
#include "data/dataset.h"
#include "data/group_info.h"
#include "engine/registry.h"
#include "util/random.h"

namespace sdadcs {
namespace {

using core::EngineKind;
using core::EngineKindFromString;
using core::EngineKindToString;
using core::MinerConfig;
using engine::EngineOptions;
using engine::EngineRegistry;

using test_support::GroupsRequest;

// A small mixed dataset with an unmistakable planted contrast: group
// "a" concentrates in x <= 50 and carries tag "t0".
data::Dataset MakeTinyDataset() {
  util::Rng rng(42);
  data::DatasetBuilder b;
  int g = b.AddCategorical("g");
  int x = b.AddContinuous("x");
  int t = b.AddCategorical("tag");
  for (int i = 0; i < 400; ++i) {
    double v = rng.Uniform(0.0, 100.0);
    bool lo = v <= 50.0;
    bool a = lo ? rng.Bernoulli(0.9) : rng.Bernoulli(0.1);
    b.AppendCategorical(g, a ? "a" : "b");
    b.AppendContinuous(x, v);
    b.AppendCategorical(t, a ? "t0" : "t1");
  }
  auto db = std::move(b).Build();
  EXPECT_TRUE(db.ok());
  return std::move(*db);
}

TEST(EngineRegistryTest, RegistersEveryDocumentedName) {
  const std::vector<std::string> expected = {
      "serial",         "parallel",          "beam",
      "binned:fayyad",  "binned:mvd",        "binned:srikant",
      "binned:equal_width", "binned:equal_freq", "window"};
  std::vector<std::string> names = EngineRegistry::Global().Names();
  std::sort(names.begin(), names.end());
  std::vector<std::string> want = expected;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(names, want);
  for (const std::string& name : expected) {
    EXPECT_TRUE(EngineRegistry::Global().Has(name)) << name;
  }
  EXPECT_FALSE(EngineRegistry::Global().Has("auto"));
}

TEST(EngineRegistryTest, EngineKindRoundTripsForEveryRegistryName) {
  // Every registry name maps to a distinct EngineKind and both string
  // conversions invert each other; "auto" round-trips too even though
  // the registry itself does not hold it.
  std::set<EngineKind> kinds;
  for (const auto& entry : EngineRegistry::Global().entries()) {
    EXPECT_EQ(EngineKindToString(entry.kind), entry.name);
    auto parsed = EngineKindFromString(entry.name);
    ASSERT_TRUE(parsed.ok()) << entry.name;
    EXPECT_EQ(*parsed, entry.kind) << entry.name;
    EXPECT_TRUE(kinds.insert(entry.kind).second)
        << "duplicate kind for " << entry.name;
  }
  auto auto_kind = EngineKindFromString("auto");
  ASSERT_TRUE(auto_kind.ok());
  EXPECT_EQ(*auto_kind, EngineKind::kAuto);
  EXPECT_EQ(kinds.count(EngineKind::kAuto), 0u);
}

TEST(EngineRegistryTest, KindValuesAreStable) {
  // The numeric kind values feed the RequestKey hash; removing a kind
  // must never renumber the ones that remain.
  EXPECT_EQ(static_cast<int>(EngineKind::kAuto), 0);
  EXPECT_EQ(static_cast<int>(EngineKind::kSerial), 1);
  EXPECT_EQ(static_cast<int>(EngineKind::kParallel), 2);
  EXPECT_EQ(static_cast<int>(EngineKind::kBeam), 3);
  EXPECT_EQ(static_cast<int>(EngineKind::kWindow), 4);
  EXPECT_EQ(static_cast<int>(EngineKind::kBinnedFayyad), 5);
  EXPECT_EQ(static_cast<int>(EngineKind::kBinnedMvd), 6);
  EXPECT_EQ(static_cast<int>(EngineKind::kBinnedSrikant), 7);
  EXPECT_EQ(static_cast<int>(EngineKind::kBinnedEqualWidth), 8);
  EXPECT_EQ(static_cast<int>(EngineKind::kBinnedEqualFreq), 9);
}

TEST(EngineRegistryTest, ShardedNamesAreUnknown) {
  for (const char* name : {"sharded", "sharded:4"}) {
    EXPECT_FALSE(EngineRegistry::Global().Has(name)) << name;
    auto kind = EngineKindFromString(name);
    ASSERT_FALSE(kind.ok()) << name;
    EXPECT_EQ(kind.status().code(), util::StatusCode::kInvalidArgument);
    auto eng = EngineRegistry::Global().Create(name, MinerConfig());
    ASSERT_FALSE(eng.ok()) << name;
    EXPECT_EQ(eng.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(eng.status().message().find("parallel"), std::string::npos)
        << eng.status().message();
  }
}

TEST(EngineRegistryTest, UnknownNameIsInvalidArgumentListingEveryName) {
  auto parsed = EngineKindFromString("warp");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("warp"), std::string::npos);
  EXPECT_NE(parsed.status().message().find("binned:mvd"),
            std::string::npos);

  auto created = EngineRegistry::Global().Create("warp", MinerConfig());
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(created.status().message().find("warp"), std::string::npos);
}

TEST(EngineRegistryTest, CreateByKindMatchesCreateByName) {
  MinerConfig cfg;
  for (const auto& entry : EngineRegistry::Global().entries()) {
    auto by_name = EngineRegistry::Global().Create(entry.name, cfg);
    auto by_kind = EngineRegistry::Global().Create(entry.kind, cfg);
    ASSERT_TRUE(by_name.ok()) << entry.name;
    ASSERT_TRUE(by_kind.ok()) << entry.name;
    EXPECT_EQ((*by_name)->Name(), entry.name);
    EXPECT_EQ((*by_kind)->Name(), entry.name);
    EXPECT_FALSE((*by_name)->Describe().empty()) << entry.name;
  }
  auto rejected = EngineRegistry::Global().Create(EngineKind::kAuto, cfg);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(EngineRegistryTest, EveryEngineMinesTheSameRequest) {
  // The uniform contract: one dataset, one request, every engine. Each
  // must accept the request and complete; the lattice engines must also
  // find the planted contrast.
  data::Dataset db = MakeTinyDataset();
  auto gi = data::GroupInfo::Create(db, 0);
  ASSERT_TRUE(gi.ok());

  MinerConfig cfg;
  cfg.max_depth = 2;
  EngineOptions opts;
  opts.parallel_threads = 2;
  opts.window_rows = 0;

  for (const auto& entry : EngineRegistry::Global().entries()) {
    auto eng = EngineRegistry::Global().Create(entry.name, cfg, opts);
    ASSERT_TRUE(eng.ok()) << entry.name;
    auto result = (*eng)->Mine(db, GroupsRequest(*gi));
    ASSERT_TRUE(result.ok())
        << entry.name << ": " << result.status().ToString();
    EXPECT_EQ(result->completion, core::Completion::kComplete)
        << entry.name;
    EXPECT_EQ(result->group_names.size(), 2u) << entry.name;
    if (entry.kind == EngineKind::kSerial ||
        entry.kind == EngineKind::kParallel ||
        entry.kind == EngineKind::kWindow) {
      EXPECT_FALSE(result->contrasts.empty()) << entry.name;
    }
  }
}

TEST(EngineRegistryTest, EnginesRejectInvalidConfigAndRequest) {
  data::Dataset db = MakeTinyDataset();
  MinerConfig bad;
  bad.alpha = 2.0;
  for (const auto& entry : EngineRegistry::Global().entries()) {
    auto eng = EngineRegistry::Global().Create(entry.name, bad);
    ASSERT_TRUE(eng.ok()) << entry.name;  // construction is cheap & lazy
    auto result =
        (*eng)->Mine(db, test_support::GroupRequest("g"));
    EXPECT_FALSE(result.ok())
        << entry.name << " accepted alpha = 2.0";
  }

  for (const auto& entry : EngineRegistry::Global().entries()) {
    auto eng = EngineRegistry::Global().Create(entry.name, MinerConfig());
    ASSERT_TRUE(eng.ok()) << entry.name;
    auto result =
        (*eng)->Mine(db, test_support::GroupRequest("no_such_attr"));
    EXPECT_FALSE(result.ok())
        << entry.name << " accepted an unknown group attribute";
  }
}

TEST(EngineRegistryTest, WindowEngineMinesOnlyTheTail) {
  // First 300 rows: x <= 50 ⇒ "a". Last 300 rows: the correlation is
  // inverted. A window engine over the last 300 rows must find the
  // inverted pattern, proving it really restricted to the tail.
  util::Rng rng(7);
  data::DatasetBuilder b;
  int g = b.AddCategorical("g");
  int x = b.AddContinuous("x");
  for (int i = 0; i < 600; ++i) {
    double v = rng.Uniform(0.0, 100.0);
    bool lo = v <= 50.0;
    bool head = i < 300;
    bool a = (head == lo) ? rng.Bernoulli(0.95) : rng.Bernoulli(0.05);
    b.AppendCategorical(g, a ? "a" : "b");
    b.AppendContinuous(x, v);
  }
  auto db = std::move(b).Build();
  ASSERT_TRUE(db.ok());

  MinerConfig cfg;
  cfg.max_depth = 1;
  EngineOptions opts;
  opts.window_rows = 300;
  auto eng = EngineRegistry::Global().Create("window", cfg, opts);
  ASSERT_TRUE(eng.ok());
  auto result =
      (*eng)->Mine(*db, test_support::GroupRequest("g"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->contrasts.empty());

  // In the tail the correlation is inverted: "a" lives in high x and
  // "b" in low x. Whichever group dominates the top pattern, its
  // interval must sit on the tail's side — the head's (or the full
  // dataset's washed-out mixture) would point the other way.
  ASSERT_EQ(result->group_names.size(), 2u);
  const core::ContrastPattern& top = result->contrasts.front();
  const core::Item& item = top.itemset.item(0);
  size_t heavy = top.counts[0] >= top.counts[1] ? 0 : 1;
  if (result->group_names[heavy] == "a") {
    EXPECT_GT(item.lo, 25.0) << "tail 'a' pattern should cover high x, got "
                             << top.itemset.Key();
  } else {
    EXPECT_LT(item.hi, 75.0) << "tail 'b' pattern should cover low x, got "
                             << top.itemset.Key();
  }
}

}  // namespace
}  // namespace sdadcs
