#include "core/report.h"

#include <gtest/gtest.h>

#include "common/requests.h"
#include "core/miner.h"
#include "synth/simulated.h"
#include "util/logging.h"

namespace sdadcs::core {
namespace {

using test_support::GroupsRequest;

struct Fixture {
  data::Dataset db;
  data::GroupInfo gi;
  MiningResult result;
};

Fixture MakeFixture() {
  Fixture f{synth::MakeSimulated4(1200), {}, {}};
  auto gi = data::GroupInfo::Create(f.db, 0);
  SDADCS_CHECK(gi.ok());
  f.gi = std::move(gi).value();
  MinerConfig cfg;
  cfg.max_depth = 2;
  auto result = Miner(cfg).Mine(f.db, GroupsRequest(f.gi));
  SDADCS_CHECK(result.ok());
  f.result = std::move(result).value();
  SDADCS_CHECK(!f.result.contrasts.empty());
  return f;
}

TEST(FormatPatternsTableTest, ContainsHeaderAndRows) {
  Fixture f = MakeFixture();
  std::string table =
      FormatPatternsTable(f.db, f.gi, f.result.contrasts, 5);
  EXPECT_NE(table.find("rank"), std::string::npos);
  EXPECT_NE(table.find("diff"), std::string::npos);
  EXPECT_NE(table.find(f.gi.group_name(0).substr(0, 6)),
            std::string::npos);
  EXPECT_NE(table.find("   1  "), std::string::npos);
}

TEST(FormatPatternsTableTest, LimitTruncatesWithEllipsisLine) {
  Fixture f = MakeFixture();
  if (f.result.contrasts.size() < 2) GTEST_SKIP();
  std::string table =
      FormatPatternsTable(f.db, f.gi, f.result.contrasts, 1);
  EXPECT_NE(table.find("more"), std::string::npos);
}

TEST(PatternsToCsvTest, ParsesBackAsCsv) {
  Fixture f = MakeFixture();
  std::string csv = PatternsToCsv(f.db, f.gi, f.result.contrasts);
  // Header + one line per pattern.
  size_t lines = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(lines, f.result.contrasts.size() + 1);
  EXPECT_NE(csv.find("diff,purity,p_value"), std::string::npos);
  EXPECT_NE(csv.find("Attr1"), std::string::npos);
}

TEST(PatternsToCsvTest, EmptyListHasHeaderOnly) {
  Fixture f = MakeFixture();
  std::string csv = PatternsToCsv(f.db, f.gi, {});
  // Group column order follows the GroupInfo; compare order-agnostic.
  std::string expected = "supp_" + f.gi.group_name(0) + ",supp_" +
                         f.gi.group_name(1) + ",diff,purity,p_value\n";
  EXPECT_EQ(csv, expected);
}

TEST(PatternsToJsonTest, WellFormedBrackets) {
  Fixture f = MakeFixture();
  std::string json = PatternsToJson(f.db, f.gi, f.result.contrasts);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"items\""), std::string::npos);
  EXPECT_NE(json.find("\"supports\""), std::string::npos);
  EXPECT_NE(json.find("\"p_value\""), std::string::npos);
  // Balanced braces.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(PatternsToJsonTest, InfinityBecomesNull) {
  Fixture f = MakeFixture();
  ContrastPattern p;
  p.itemset = Itemset({Item::Interval(
      1, -std::numeric_limits<double>::infinity(), 0.5)});
  p.counts = {10, 10};
  p.ComputeStats(f.gi, MeasureKind::kSupportDiff);
  std::string json = PatternsToJson(f.db, f.gi, {p});
  EXPECT_NE(json.find("\"lo\": null"), std::string::npos);
}

TEST(PatternsToJsonTest, OneLineWithEveryControlCharacterEscaped) {
  // The array rides inside one ND-JSON frame: no raw line break or other
  // control character may appear, even in values read from a CSV.
  data::DatasetBuilder b;
  int g = b.AddCategorical("g");
  int tag = b.AddCategorical("tag\tname");
  for (int i = 0; i < 4; ++i) {
    b.AppendCategorical(g, i % 2 == 0 ? "a" : "b");
    b.AppendCategorical(tag, "x\r\ny");
  }
  auto db = std::move(b).Build();
  ASSERT_TRUE(db.ok());
  auto gi = data::GroupInfo::Create(*db, g);
  ASSERT_TRUE(gi.ok());
  ContrastPattern p;
  p.itemset = Itemset({Item::Categorical(tag, 0)});
  p.counts = {2, 2};
  p.ComputeStats(*gi, MeasureKind::kSupportDiff);
  std::string json = PatternsToJson(*db, *gi, {p, p});
  for (char c : json) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << json;
  }
  EXPECT_NE(json.find("tag\\u0009name"), std::string::npos) << json;
  EXPECT_NE(json.find("x\\u000d\\ny"), std::string::npos) << json;
}

TEST(SummarizeRunTest, MentionsCountsAndGroups) {
  Fixture f = MakeFixture();
  std::string summary = SummarizeRun(f.result);
  EXPECT_NE(summary.find("contrasts"), std::string::npos);
  EXPECT_NE(summary.find("Group1"), std::string::npos);
  EXPECT_NE(summary.find("partitions evaluated"), std::string::npos);
}

}  // namespace
}  // namespace sdadcs::core
