// The benchmark's own tests: percentile selection, self time, the
// oracle, and input determinism. Run with `python3 perfbench/run.py
// --selftest`.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "data/csv.h"
#include "inputs.h"
#include "ledger.h"
#include "oracle.h"
#include "wire.h"

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 95), 95);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile({7.0}, 99), 7.0);
  EXPECT_EQ(Percentile({}, 50), 0.0);
}

TEST(PercentileTest, HighestWithTenSamplesBeyond) {
  const std::vector<double> candidates = {50, 90, 95, 99, 99.9};
  // p99 needs 1000 samples (10 beyond rank 990), p95 needs 200.
  EXPECT_EQ(HighestSupportedPercentile(1000, candidates), 99);
  EXPECT_EQ(HighestSupportedPercentile(999, candidates), 95);
  EXPECT_EQ(HighestSupportedPercentile(200, candidates), 95);
  EXPECT_EQ(HighestSupportedPercentile(199, candidates), 90);
  EXPECT_EQ(HighestSupportedPercentile(100, candidates), 90);
  EXPECT_EQ(HighestSupportedPercentile(20, candidates), 50);
  EXPECT_EQ(HighestSupportedPercentile(19, candidates), -1);
  EXPECT_EQ(HighestSupportedPercentile(10000, candidates), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(0, candidates), -1);
}

std::vector<Span> Spans(std::initializer_list<Span> s) { return s; }

TEST(SelfTimeTest, NestedChildren) {
  // root [0,10] > a [1,4] > b [2,3]; root also has c [5,6].
  auto spans = Spans({{"root", 0, 10, -1, ""},
                      {"a", 1, 4, 0, ""},
                      {"b", 2, 3, 1, ""},
                      {"c", 5, 6, 0, ""}});
  EXPECT_DOUBLE_EQ(SelfTime(spans, 0), 10 - 3 - 1);
  EXPECT_DOUBLE_EQ(SelfTime(spans, 1), 3 - 1);  // grandchildren don't count
  EXPECT_DOUBLE_EQ(SelfTime(spans, 2), 1);
  auto layers = LayerTimes(spans);
  EXPECT_DOUBLE_EQ(layers["root"].self_s, 6);
  EXPECT_DOUBLE_EQ(layers["a"].total_s, 3);
  EXPECT_EQ(layers["c"].count, 1u);
}

TEST(SelfTimeTest, OverlappingChildrenCountOnce) {
  // Children [1,5] and [3,8] overlap on [3,5]: covered = 7, not 9.
  auto spans = Spans({{"root", 0, 10, -1, ""},
                      {"x", 1, 5, 0, ""},
                      {"x", 3, 8, 0, ""}});
  EXPECT_DOUBLE_EQ(SelfTime(spans, 0), 3);
  EXPECT_DOUBLE_EQ(LayerTimes(spans)["x"].self_s, 9);
}

TEST(SelfTimeTest, ChildrenClippedToParent) {
  // A child reconstructed from a server duration may stick out of its
  // parent; only the overlap is subtracted, and self time stays >= 0.
  auto spans = Spans({{"root", 2, 6, -1, ""},
                      {"x", 0, 3, 0, ""},
                      {"y", 5, 9, 0, ""}});
  EXPECT_DOUBLE_EQ(SelfTime(spans, 0), 2);
  auto full = Spans({{"root", 2, 6, -1, ""}, {"x", 0, 9, 0, ""}});
  EXPECT_DOUBLE_EQ(SelfTime(full, 0), 0);
}

TEST(TracerTest, DisabledRecordsNothing) {
  Tracer off(false);
  EXPECT_EQ(off.Begin("x"), -1);
  off.End(-1);
  EXPECT_TRUE(off.spans().empty());
  Tracer on(true);
  int root = on.Begin("root", -1, "r1");
  int child = on.Begin("child", root, "r1");
  on.End(child);
  on.End(root);
  auto spans = on.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_LE(spans[0].start, spans[1].start);
  EXPECT_GE(spans[0].end, spans[1].end);
}

const char kRef[] =
    "[{\"items\":[{\"attr\":\"x\",\"lo\":1,\"hi\":2}],\"diff\":0.5},"
    "{\"items\":[{\"attr\":\"k\",\"value\":\"a,b\"}],\"diff\":0.25},"
    "{\"items\":[],\"diff\":0.125}]";

TEST(OracleTest, SplitsTopLevelElements) {
  auto parts = SplitJsonArray(kRef);
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 3u);
  EXPECT_EQ((*parts)[1], "{\"items\":[{\"attr\":\"k\",\"value\":\"a,b\"}],"
                         "\"diff\":0.25}");
  auto empty = SplitJsonArray("[]");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_FALSE(SplitJsonArray("{}").ok());
  EXPECT_FALSE(SplitJsonArray("[{]").ok());
}

TEST(OracleTest, AcceptsTheSameSetInAnyOrder) {
  EXPECT_EQ(ComparePatternSets(kRef, kRef), "");
  std::string reordered =
      "[{\"items\":[],\"diff\":0.125},"
      "{\"items\":[{\"attr\":\"x\",\"lo\":1,\"hi\":2}],\"diff\":0.5},"
      "{\"items\":[{\"attr\":\"k\",\"value\":\"a,b\"}],\"diff\":0.25}]";
  EXPECT_EQ(ComparePatternSets(kRef, reordered), "");
}

TEST(OracleTest, RejectsPerturbedPatternLists) {
  std::string changed = kRef;
  changed.replace(changed.find("0.25"), 4, "0.26");
  EXPECT_NE(ComparePatternSets(kRef, changed), "");
  EXPECT_NE(ComparePatternSets(kRef, CorruptReference(kRef)), "");
  EXPECT_NE(ComparePatternSets(CorruptReference(kRef), kRef), "");
  std::string duplicated =
      "[{\"items\":[],\"diff\":0.125},{\"items\":[],\"diff\":0.125},"
      "{\"items\":[{\"attr\":\"x\",\"lo\":1,\"hi\":2}],\"diff\":0.5}]";
  EXPECT_NE(ComparePatternSets(kRef, duplicated), "");
  EXPECT_NE(ComparePatternSets("[]", CorruptReference("[]")), "");
}

TEST(OracleTest, PatternsBodyIsTheLastField) {
  std::string frame = "{\"v\":1,\"ok\":true,\"op\":\"mine\",\"id\":\"r1\","
                      "\"verdict\":\"ok\",\"patterns\":" +
                      std::string(kRef) + "}";
  EXPECT_EQ(PatternsBody(frame), kRef);
  EXPECT_EQ(PatternsBody("{\"v\":1,\"ok\":false}"), "");
}

TEST(OracleTest, ReferenceMatchesItselfOnARealDataset) {
  auto in = MakeInputs("serve_mixed", 3, 1.0);
  ASSERT_TRUE(in.ok());
  std::string dir = ::testing::TempDir() + "/perfbench_oracle";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(WriteDatasets(*in, 3, dir).ok());
  auto db = sdadcs::data::ReadCsvFile(dir + "/s0.csv");
  ASSERT_TRUE(db.ok());
  MineSpec spec;  // the two batches differ by construction
  spec.dataset = "s0";
  spec.group = "batch";
  auto ref = ReferencePatterns(*db, spec);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  auto parts = SplitJsonArray(*ref);
  ASSERT_TRUE(parts.ok());
  EXPECT_FALSE(parts->empty());
  EXPECT_EQ(ComparePatternSets(*ref, *ref), "");
  EXPECT_NE(ComparePatternSets(*ref, CorruptReference(*ref)), "");
  std::filesystem::remove_all(dir);
}

TEST(WireTest, FramesEndAtTheNewlineThatClosesTheObject) {
  // Pattern bodies are rendered over several lines, so a frame is the
  // whole JSON object, not the text up to the first newline.
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  auto conn = Conn::Connect(ntohs(addr.sin_port));
  ASSERT_TRUE(conn.ok());
  int peer = ::accept(listener, nullptr, nullptr);
  ASSERT_GE(peer, 0);
  const std::string first = "{\"id\":\"a\",\"patterns\":[\n  {\"s\": \"}\\n\"}\n]}";
  const std::string second = "{\"id\":\"b\"}";
  std::string wire = first + "\n" + second + "\n";
  ASSERT_EQ(::send(peer, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  auto a = conn->ReadFrame();
  auto b = conn->ReadFrame();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, first);
  EXPECT_EQ(*b, second);
  EXPECT_EQ(PatternsBody(*a), "[\n  {\"s\": \"}\\n\"}\n]");
  ::close(peer);
  ::close(listener);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(InputsTest, SameSeedGivesIdenticalCsvsAndRequests) {
  std::string base = ::testing::TempDir() + "/perfbench_inputs";
  for (const char* workload : {"mine_wide", "serve_mixed"}) {
    std::string a = base + "/a", b = base + "/b", c = base + "/c";
    for (const std::string& d : {a, b, c}) std::filesystem::create_directories(d);
    auto in1 = MakeInputs(workload, 42, 5.0);
    auto in2 = MakeInputs(workload, 42, 5.0);
    auto in3 = MakeInputs(workload, 43, 5.0);
    ASSERT_TRUE(in1.ok() && in2.ok() && in3.ok());
    EXPECT_EQ(RequestListText(*in1), RequestListText(*in2)) << workload;
    EXPECT_NE(RequestListText(*in1), RequestListText(*in3)) << workload;
    ASSERT_TRUE(WriteDatasets(*in1, 42, a).ok());
    ASSERT_TRUE(WriteDatasets(*in2, 42, b).ok());
    ASSERT_TRUE(WriteDatasets(*in3, 43, c).ok());
    for (const DatasetShape& ds : in1->datasets) {
      std::string fa = ReadFile(a + "/" + ds.name + ".csv");
      EXPECT_FALSE(fa.empty());
      EXPECT_EQ(fa, ReadFile(b + "/" + ds.name + ".csv")) << ds.name;
      EXPECT_NE(fa, ReadFile(c + "/" + ds.name + ".csv")) << ds.name;
    }
    std::filesystem::remove_all(base);
  }
}

TEST(InputsTest, ServeMixedShape) {
  auto in = MakeInputs("serve_mixed", 7, 10.0);
  ASSERT_TRUE(in.ok());
  size_t cold = 0;
  for (const Scheduled& s : in->schedule) cold += s.cold;
  EXPECT_EQ(in->schedule.size(), 1600u);
  EXPECT_EQ(in->hot.size(), 24u);
  EXPECT_EQ(cold, in->schedule.size() / 8);
  EXPECT_EQ(in->cold.size(), cold);
  // Every request key is distinct, hot and cold alike.
  std::set<std::string> keys;
  for (const MineSpec& s : in->hot) keys.insert(MineFrameJson(s, true, ""));
  for (const MineSpec& s : in->cold) keys.insert(MineFrameJson(s, true, ""));
  EXPECT_EQ(keys.size(), in->hot.size() + in->cold.size());
  EXPECT_FALSE(MakeInputs("nope", 1, 1.0).ok());
}

}  // namespace
}  // namespace perfbench
