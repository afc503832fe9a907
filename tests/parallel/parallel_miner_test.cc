#include "parallel/parallel_miner.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/requests.h"
#include "synth/scaling.h"
#include "synth/simulated.h"
#include "synth/uci_like.h"
#include "util/timer.h"

namespace sdadcs::parallel {
namespace {

using test_support::GroupRequest;

core::MinerConfig BaseConfig() {
  core::MinerConfig cfg;
  cfg.max_depth = 2;
  return cfg;
}

TEST(ParallelMinerTest, FindsSamePatternsAsSerial) {
  data::Dataset db = synth::MakeSimulated4(1500);
  core::MinerConfig cfg = BaseConfig();
  auto serial = core::Miner(cfg).Mine(db, GroupRequest("Group"));
  auto parallel = ParallelMiner(cfg, 4).Mine(db, GroupRequest("Group"));
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  // Workers lose some cross-subtree pruning but the pattern *set* of
  // this small problem is identical.
  std::set<std::string> serial_keys;
  for (const auto& p : serial->contrasts) {
    serial_keys.insert(p.itemset.Key());
  }
  std::set<std::string> parallel_keys;
  for (const auto& p : parallel->contrasts) {
    parallel_keys.insert(p.itemset.Key());
  }
  EXPECT_EQ(serial_keys, parallel_keys);
}

TEST(ParallelMinerTest, SingleThreadWorks) {
  data::Dataset db = synth::MakeSimulated3(600);
  auto result = ParallelMiner(BaseConfig(), 1).Mine(db, GroupRequest("Group"));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->contrasts.empty());
}

TEST(ParallelMinerTest, ZeroThreadsResolvesToHardwareConcurrency) {
  ParallelMiner miner(BaseConfig(), 0);
  size_t expected = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(miner.num_threads(), expected);
  data::Dataset db = synth::MakeSimulated3(300);
  auto result = miner.Mine(db, GroupRequest("Group"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->completion, core::Completion::kComplete);
}

TEST(ParallelMinerTest, InvalidConfigRejected) {
  core::MinerConfig cfg = BaseConfig();
  cfg.alpha = 1.5;
  data::Dataset db = synth::MakeSimulated3(300);
  auto result = ParallelMiner(cfg, 2).Mine(db, GroupRequest("Group"));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("alpha"), std::string::npos);
}

// Big enough that the unbounded run takes far longer than the stop
// round-trips the run-control tests assert on.
synth::NamedDataset BigDataset() {
  synth::ScalingOptions opt;
  opt.rows = 20000;
  opt.continuous_features = 40;
  opt.categorical_features = 10;
  return synth::MakeScalingDataset(opt);
}

void ExpectSortedByMeasure(const std::vector<core::ContrastPattern>& ps) {
  for (size_t i = 1; i < ps.size(); ++i) {
    EXPECT_GE(ps[i - 1].measure, ps[i].measure) << "rank " << i;
  }
}

TEST(ParallelMinerTest, CancelFromSecondThreadUnblocksQuickly) {
  synth::NamedDataset sc = BigDataset();
  core::MinerConfig cfg = BaseConfig();
  cfg.max_depth = 3;

  util::RunControl control;
  core::MineRequest request;
  request.group_attr = sc.group_attr;
  request.run_control = control;

  util::StatusOr<core::MiningResult> result =
      util::Status::Internal("not run");
  std::thread worker([&] {
    result = ParallelMiner(cfg, 4).Mine(sc.db, request);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  util::WallTimer unblock;
  control.Cancel();
  worker.join();
  // Cancellation must reach every worker within 100 ms.
  EXPECT_LT(unblock.Seconds(), 0.1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->completion, core::Completion::kCancelled);
}

TEST(ParallelMinerTest, DeadlineDrainsSortedPartialsWithCompletion) {
  synth::NamedDataset sc = BigDataset();
  core::MinerConfig cfg = BaseConfig();
  cfg.max_depth = 3;

  util::RunControl control;
  control.set_deadline_after(std::chrono::milliseconds(60));
  core::MineRequest request;
  request.group_attr = sc.group_attr;
  request.run_control = control;

  util::WallTimer timer;
  auto result = ParallelMiner(cfg, 4).Mine(sc.db, request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->completion, core::Completion::kDeadlineExceeded);
  // The drain must be prompt: well under the unbounded runtime.
  EXPECT_LT(timer.Seconds(), 2.0);
  ExpectSortedByMeasure(result->contrasts);
}

TEST(ParallelMinerTest, NodeBudgetDrainsSortedPartialsWithCompletion) {
  synth::NamedDataset sc = BigDataset();
  core::MinerConfig cfg = BaseConfig();
  cfg.max_depth = 3;

  util::RunControl control;
  control.set_node_budget(2000);
  core::MineRequest request;
  request.group_attr = sc.group_attr;
  request.run_control = control;

  auto result = ParallelMiner(cfg, 4).Mine(sc.db, request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->completion, core::Completion::kBudgetExhausted);
  EXPECT_GT(result->counters.abandoned_candidates, 0u);
  ExpectSortedByMeasure(result->contrasts);
}

TEST(ParallelMinerTest, UnknownGroupAttrRejected) {
  data::Dataset db = synth::MakeSimulated3(300);
  EXPECT_FALSE(
      ParallelMiner(BaseConfig(), 2).Mine(db, GroupRequest("nope")).ok());
}

TEST(ParallelMinerTest, XorStructureSurvivesParallelism) {
  // Aliveness pooling across workers must still generate the joint
  // combination at level 2.
  data::Dataset db = synth::MakeSimulated2(1200);
  core::MinerConfig cfg = BaseConfig();
  cfg.measure = core::MeasureKind::kSurprising;
  auto result = ParallelMiner(cfg, 3).Mine(db, GroupRequest("Group"));
  ASSERT_TRUE(result.ok());
  bool has_bivariate = false;
  for (const auto& p : result->contrasts) {
    if (p.itemset.size() == 2) has_bivariate = true;
  }
  EXPECT_TRUE(has_bivariate);
}

TEST(ParallelMinerTest, GroupValueSelectionWorks) {
  synth::NamedDataset adult = synth::MakeAdultLike();
  core::MinerConfig cfg = BaseConfig();
  cfg.attributes = {"age", "occupation"};
  auto result = ParallelMiner(cfg, 2).Mine(
      adult.db, GroupRequest(adult.group_attr, adult.groups));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->contrasts.empty());
  EXPECT_EQ(result->group_names,
            (std::vector<std::string>{"Doctorate", "Bachelors"}));
}

// Property sweep: parallel result set == serial result set across the
// simulated datasets and both pruning modes.
using EquivParams = std::tuple<int, bool>;

class ParallelEquivalence : public testing::TestWithParam<EquivParams> {};

TEST_P(ParallelEquivalence, MatchesSerialPatternSet) {
  const auto& [which, meaningful] = GetParam();
  data::Dataset db = which == 1   ? synth::MakeSimulated1(800)
                     : which == 2 ? synth::MakeSimulated2(800)
                     : which == 3 ? synth::MakeSimulated3(800)
                                  : synth::MakeSimulated4(1200);
  core::MinerConfig cfg = BaseConfig();
  cfg.meaningful_pruning = meaningful;
  auto serial = core::Miner(cfg).Mine(db, GroupRequest("Group"));
  auto par = ParallelMiner(cfg, 3).Mine(db, GroupRequest("Group"));
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(par.ok());
  std::set<std::string> a;
  std::set<std::string> b;
  for (const auto& p : serial->contrasts) a.insert(p.itemset.Key());
  for (const auto& p : par->contrasts) b.insert(p.itemset.Key());
  EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelEquivalence,
    testing::Combine(testing::Values(1, 2, 3, 4), testing::Bool()),
    [](const testing::TestParamInfo<EquivParams>& info) {
      return "sim" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_pruned" : "_np");
    });

TEST(ParallelMinerTest, WideDatasetCompletes) {
  synth::ScalingOptions opt;
  opt.rows = 3000;
  opt.continuous_features = 15;
  opt.categorical_features = 5;
  synth::NamedDataset sc = synth::MakeScalingDataset(opt);
  core::MinerConfig cfg = BaseConfig();
  auto result = ParallelMiner(cfg, 4).Mine(sc.db, GroupRequest(sc.group_attr));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->counters.partitions_evaluated, 0u);
  EXPECT_FALSE(result->contrasts.empty());
}

}  // namespace
}  // namespace sdadcs::parallel
