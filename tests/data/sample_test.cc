#include "data/sample.h"

#include <set>

#include <gtest/gtest.h>

#include "util/logging.h"

namespace sdadcs::data {
namespace {

TEST(SampleSelectionTest, ExactSizeWithoutReplacement) {
  util::Rng rng(1);
  Selection all = Selection::All(1000);
  Selection s = SampleSelection(all, 100, rng);
  EXPECT_EQ(s.size(), 100u);
  std::set<uint32_t> unique(s.begin(), s.end());
  EXPECT_EQ(unique.size(), 100u);
  // Sorted output.
  for (size_t i = 1; i < s.size(); ++i) EXPECT_LT(s[i - 1], s[i]);
}

TEST(SampleSelectionTest, OversizedRequestReturnsAll) {
  util::Rng rng(2);
  Selection all = Selection::All(50);
  EXPECT_EQ(SampleSelection(all, 500, rng).size(), 50u);
  EXPECT_EQ(SampleSelection(all, 50, rng).size(), 50u);
}

TEST(SampleSelectionTest, RoughlyUniform) {
  util::Rng rng(3);
  Selection all = Selection::All(1000);
  std::vector<int> hits(1000, 0);
  for (int t = 0; t < 200; ++t) {
    for (uint32_t r : SampleSelection(all, 100, rng)) ++hits[r];
  }
  // Each row expected ~20 hits; no row should be wildly off.
  for (int h : hits) {
    EXPECT_GT(h, 2);
    EXPECT_LT(h, 60);
  }
}

GroupInfo MakeGroups() {
  DatasetBuilder b;
  int g = b.AddCategorical("g");
  for (int i = 0; i < 1000; ++i) {
    b.AppendCategorical(g, i % 10 == 0 ? "rare" : "common");
  }
  auto db = std::move(b).Build();
  SDADCS_CHECK(db.ok());
  // Leak-free static storage for the dataset backing the GroupInfo in
  // these tests.
  static Dataset* stored = nullptr;
  delete stored;
  stored = new Dataset(std::move(db).value());
  auto gi = GroupInfo::CreateForValues(*stored, 0, {"rare", "common"});
  SDADCS_CHECK(gi.ok());
  return std::move(gi).value();
}

TEST(SampleGroupsTest, PreservesProportions) {
  GroupInfo gi = MakeGroups();
  auto sampled = SampleGroups(gi, 200, 7);
  ASSERT_TRUE(sampled.ok());
  // 10% rare: expect ~20 of 200.
  EXPECT_NEAR(static_cast<double>(sampled->group_size(0)), 20.0, 1.0);
  EXPECT_NEAR(static_cast<double>(sampled->total()), 200.0, 2.0);
}

TEST(SampleGroupsTest, EveryGroupKeepsAtLeastOneRow) {
  GroupInfo gi = MakeGroups();
  auto sampled = SampleGroups(gi, 5, 9);
  ASSERT_TRUE(sampled.ok());
  EXPECT_GE(sampled->group_size(0), 1u);
  EXPECT_GE(sampled->group_size(1), 1u);
}

TEST(SampleGroupsTest, ZeroRejected) {
  GroupInfo gi = MakeGroups();
  EXPECT_FALSE(SampleGroups(gi, 0, 1).ok());
}

TEST(SampleGroupsTest, SampledRowsAreSubsetOfBaseWithSameLabels) {
  // Callers (stability resampling, `sdadcs_tool --sample`) mine the
  // sample as a view of the full data, so every sampled row must be a
  // real row of the base selection and keep its group assignment.
  GroupInfo gi = MakeGroups();
  auto sampled = SampleGroups(gi, 150, 13);
  ASSERT_TRUE(sampled.ok());
  std::set<uint32_t> base(gi.base_selection().begin(),
                          gi.base_selection().end());
  for (uint32_t r : sampled->base_selection()) {
    EXPECT_EQ(base.count(r), 1u) << "row " << r << " not in base";
    EXPECT_EQ(sampled->group_of(r), gi.group_of(r)) << "row " << r;
  }
}

TEST(SampleGroupsTest, ThreeGroupStratification) {
  DatasetBuilder b;
  int g = b.AddCategorical("g");
  for (int i = 0; i < 900; ++i) {
    // 600 "a", 200 "b", 100 "c".
    const char* label = i % 9 < 6 ? "a" : (i % 9 < 8 ? "b" : "c");
    b.AppendCategorical(g, label);
  }
  auto db = std::move(b).Build();
  SDADCS_CHECK(db.ok());
  static Dataset* stored = nullptr;
  delete stored;
  stored = new Dataset(std::move(db).value());
  auto gi = GroupInfo::CreateForValues(*stored, 0, {"a", "b", "c"});
  ASSERT_TRUE(gi.ok());
  auto sampled = SampleGroups(*gi, 90, 17);
  ASSERT_TRUE(sampled.ok());
  // Strata scale with group shares: ~60/20/10 rows.
  EXPECT_NEAR(static_cast<double>(sampled->group_size(0)), 60.0, 2.0);
  EXPECT_NEAR(static_cast<double>(sampled->group_size(1)), 20.0, 2.0);
  EXPECT_NEAR(static_cast<double>(sampled->group_size(2)), 10.0, 2.0);
}

TEST(SampleGroupsTest, DeterministicPerSeed) {
  GroupInfo gi = MakeGroups();
  auto a = SampleGroups(gi, 100, 42);
  auto b = SampleGroups(gi, 100, 42);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->base_selection().rows(), b->base_selection().rows());
}

}  // namespace
}  // namespace sdadcs::data
