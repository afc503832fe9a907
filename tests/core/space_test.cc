#include "core/space.h"

#include <cmath>

#include <gtest/gtest.h>

namespace sdadcs::core {
namespace {

data::Dataset MakeGrid() {
  // x = 1..8, y = 10, 20, ..., 80.
  data::DatasetBuilder b;
  int x = b.AddContinuous("x");
  int y = b.AddContinuous("y");
  for (int i = 1; i <= 8; ++i) {
    b.AppendContinuous(x, i);
    b.AppendContinuous(y, i * 10.0);
  }
  auto db = std::move(b).Build();
  EXPECT_TRUE(db.ok());
  return std::move(db).value();
}

TEST(ComputeRootBoundsTest, IntegralDataGetsMinMinusOne) {
  data::Dataset db = MakeGrid();
  RootBounds rb = ComputeRootBounds(db, 0, data::Selection::All(8));
  EXPECT_DOUBLE_EQ(rb.lo, 0.0);  // min 1 -> display lo 0
  EXPECT_DOUBLE_EQ(rb.hi, 8.0);
}

TEST(ComputeRootBoundsTest, FractionalDataGetsEpsilonBelow) {
  data::DatasetBuilder b;
  int x = b.AddContinuous("x");
  b.AppendContinuous(x, 0.25);
  b.AppendContinuous(x, 0.75);
  auto db = std::move(b).Build();
  ASSERT_TRUE(db.ok());
  RootBounds rb = ComputeRootBounds(*db, 0, data::Selection::All(2));
  EXPECT_LT(rb.lo, 0.25);
  EXPECT_GT(rb.lo, 0.25 - 0.01);
  EXPECT_DOUBLE_EQ(rb.hi, 0.75);
}

TEST(PartitionMediansTest, SplitsAtLowerMedian) {
  data::Dataset db = MakeGrid();
  Space space;
  space.bounds = {{0, 0.0, 8.0}};
  space.rows = data::Selection::All(8);
  std::vector<double> m = PartitionMedians(db, space);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_DOUBLE_EQ(m[0], 4.0);  // lower middle of 1..8
}

TEST(PartitionMediansTest, ConstantAxisUnsplittable) {
  data::DatasetBuilder b;
  int x = b.AddContinuous("x");
  for (int i = 0; i < 5; ++i) b.AppendContinuous(x, 7.0);
  auto db = std::move(b).Build();
  ASSERT_TRUE(db.ok());
  Space space;
  space.bounds = {{0, 6.0, 7.0}};
  space.rows = data::Selection::All(5);
  std::vector<double> m = PartitionMedians(*db, space);
  EXPECT_TRUE(std::isnan(m[0]));
}

TEST(HyperVolumeTest, NormalizedProduct) {
  std::vector<AxisBound> bounds = {{0, 0.0, 4.0}, {1, 9.0, 44.5}};
  std::vector<RootBounds> roots = {{0.0, 8.0}, {9.0, 80.0}};
  EXPECT_DOUBLE_EQ(HyperVolume(bounds, roots), 0.5 * (35.5 / 71.0));
}

TEST(HyperVolumeTest, FullSpaceIsOne) {
  std::vector<AxisBound> bounds = {{0, 0.0, 8.0}};
  std::vector<RootBounds> roots = {{0.0, 8.0}};
  EXPECT_DOUBLE_EQ(HyperVolume(bounds, roots), 1.0);
}

TEST(IntervalItemsTest, OnePerAxis) {
  std::vector<Item> items = IntervalItems({{3, 0.0, 4.0}, {7, 1.0, 2.0}});
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].attr, 3);
  EXPECT_EQ(items[1].attr, 7);
  EXPECT_DOUBLE_EQ(items[1].hi, 2.0);
  EXPECT_EQ(items[0].kind, Item::Kind::kInterval);
}

}  // namespace
}  // namespace sdadcs::core
