#include "data/chunks.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/selection.h"
#include "data/spill.h"
#include "util/random.h"
#include "util/status.h"

namespace sdadcs::data {
namespace {

TEST(ChunkLayoutTest, GeometryTilesRowsExactlyForEveryChunkSize) {
  // Degenerate sizes included: chunk_rows 1 (every row its own chunk)
  // and chunk_rows > num_rows (the whole column is one short chunk).
  for (size_t rows : {0u, 1u, 7u, 100u, 4096u}) {
    for (size_t chunk_rows :
         {size_t{1}, size_t{7}, size_t{64}, rows + 1, size_t{10000}}) {
      ChunkLayout layout(rows, chunk_rows);
      ASSERT_EQ(layout.chunk_rows(), chunk_rows);
      if (rows == 0) {
        EXPECT_EQ(layout.num_chunks(), 0u);
        continue;
      }
      EXPECT_EQ(layout.num_chunks(), (rows + chunk_rows - 1) / chunk_rows);
      // Chunks tile [0, rows) contiguously and agree with chunk_of.
      uint32_t next = 0;
      for (size_t c = 0; c < layout.num_chunks(); ++c) {
        EXPECT_EQ(layout.begin(c), next);
        EXPECT_GT(layout.end(c), layout.begin(c));
        EXPECT_EQ(layout.size(c), layout.end(c) - layout.begin(c));
        EXPECT_EQ(layout.chunk_of(layout.begin(c)), c);
        EXPECT_EQ(layout.chunk_of(layout.end(c) - 1), c);
        next = layout.end(c);
      }
      EXPECT_EQ(next, rows) << rows << "/" << chunk_rows;
      // Every chunk but the last is full.
      for (size_t c = 0; c + 1 < layout.num_chunks(); ++c) {
        EXPECT_EQ(layout.size(c), chunk_rows);
      }
    }
  }
}

TEST(ChunkLayoutTest, ZeroChunkRowsFallsBackToDefault) {
  ChunkLayout layout(100, 0);
  EXPECT_EQ(layout.chunk_rows(), kDefaultChunkRows);
  EXPECT_EQ(layout.num_chunks(), 1u);
}

TEST(ForEachChunkSpanTest, PartitionsSortedSelectionAtChunkSeams) {
  // A sparse sorted selection with rows straddling several seams; the
  // spans must rebuild the selection exactly and never cross a seam.
  std::vector<uint32_t> rows = {0, 1, 6, 7, 8, 13, 14, 20, 27, 34, 99};
  for (size_t chunk_rows : {1u, 7u, 50u, 1000u}) {
    ChunkLayout layout(100, chunk_rows);
    std::vector<uint32_t> rebuilt;
    size_t spans = 0;
    ForEachChunkSpan(layout, rows.data(), rows.size(),
                     [&](uint32_t chunk, size_t b, size_t e) {
                       ++spans;
                       ASSERT_LT(b, e);
                       for (size_t i = b; i < e; ++i) {
                         EXPECT_GE(rows[i], layout.begin(chunk));
                         EXPECT_LT(rows[i], layout.end(chunk));
                         rebuilt.push_back(rows[i]);
                       }
                     });
    EXPECT_EQ(rebuilt, rows) << "chunk_rows " << chunk_rows;
    if (chunk_rows == 1) EXPECT_EQ(spans, rows.size());
    if (chunk_rows == 1000) EXPECT_EQ(spans, 1u);  // one span: dense path
  }
  // Empty selection: no spans, no crash.
  ForEachChunkSpan(ChunkLayout(100, 7), rows.data(), 0,
                   [&](uint32_t, size_t, size_t) { FAIL(); });
}

// A small mixed dataset with NaNs and repeated tokens, plus its spill.
Dataset MakeMixed(size_t rows) {
  DatasetBuilder b;
  int g = b.AddCategorical("g");
  int x = b.AddContinuous("x");
  int y = b.AddContinuous("y");
  util::Rng rng(5);
  for (size_t i = 0; i < rows; ++i) {
    b.AppendCategorical(g, (i % 3 == 0) ? "a" : (i % 3 == 1) ? "b" : "c");
    b.AppendContinuous(x, (i % 11 == 0) ? std::nan("")
                                        : rng.Uniform(-10.0, 10.0));
    b.AppendContinuous(y, static_cast<double>(i));
  }
  auto db = std::move(b).Build();
  EXPECT_TRUE(db.ok());
  return std::move(*db);
}

std::string SpillPath(const char* tag) {
  return testing::TempDir() + "chunks_test_" + tag + ".spill";
}

TEST(SpillTest, RoundTripIsExactForEveryChunkSize) {
  const size_t kRows = 103;
  Dataset dense = MakeMixed(kRows);
  std::string path = SpillPath("roundtrip");
  ASSERT_TRUE(WriteSpill(dense, path).ok());
  for (size_t chunk_rows : {size_t{1}, size_t{7}, size_t{64}, kRows + 1}) {
    SpillOptions opt;
    opt.chunk_rows = chunk_rows;
    auto paged = OpenSpill(path, opt);
    ASSERT_TRUE(paged.ok()) << paged.status().ToString();
    ASSERT_TRUE(paged->paged());
    ASSERT_EQ(paged->num_rows(), kRows);
    ASSERT_EQ(paged->chunk_rows(), chunk_rows);
    // Schema and dictionary survive.
    ASSERT_EQ(paged->schema().num_attributes(), 3u);
    EXPECT_EQ(paged->schema().attribute(0).name, "g");
    EXPECT_EQ(paged->categorical(0).ValueOf(dense.categorical(0).code(3)),
              dense.categorical(0).ValueOf(dense.categorical(0).code(3)));
    // Every element, through the scalar paged accessors.
    for (uint32_t r = 0; r < kRows; ++r) {
      EXPECT_EQ(paged->categorical(0).code(r), dense.categorical(0).code(r));
      double pv = paged->continuous(1).value(r);
      double dv = dense.continuous(1).value(r);
      if (std::isnan(dv)) {
        EXPECT_TRUE(std::isnan(pv)) << "row " << r;
      } else {
        EXPECT_EQ(pv, dv) << "row " << r;
      }
      EXPECT_EQ(paged->continuous(2).value(r), dense.continuous(2).value(r));
    }
  }
  std::remove(path.c_str());
}

// Copies the spill file at `src` to a new file with `patch` applied to
// its bytes; returns the new path.
std::string PatchedSpill(const std::string& src, const char* tag,
                         const std::function<void(std::string*)>& patch) {
  std::ifstream in(src, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  patch(&bytes);
  std::string path = SpillPath(tag);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

template <typename T>
void Poke(std::string* bytes, size_t at, T value) {
  ASSERT_LE(at + sizeof(T), bytes->size());
  std::memcpy(bytes->data() + at, &value, sizeof(T));
}

// Header layout: magic(8) version(8) num_rows(8) num_attrs(8)
// chunk_rows(8), then per attribute: name length(4) + name, type(1),
// and for a categorical attribute the dictionary size(4).
constexpr size_t kNumRowsAt = 16;
constexpr size_t kNumAttrsAt = 24;
constexpr size_t kFirstDictSizeAt = 40 + 4 + 1 + 1;  // attr 0 is "g"

void ExpectRejected(const std::string& path) {
  auto paged = OpenSpill(path, SpillOptions());
  ASSERT_FALSE(paged.ok());
  EXPECT_EQ(paged.status().code(), util::StatusCode::kInvalidArgument)
      << paged.status().ToString();
  EXPECT_NE(paged.status().message().find(path), std::string::npos)
      << paged.status().ToString();
  std::remove(path.c_str());
}

TEST(SpillTest, HostileHeadersAreInvalidArgumentNotACrash) {
  Dataset dense = MakeMixed(40);
  ASSERT_EQ(dense.schema().attribute(0).name, "g");
  std::string path = SpillPath("hostile_src");
  ASSERT_TRUE(WriteSpill(dense, path).ok());
  ASSERT_TRUE(OpenSpill(path, SpillOptions()).ok());

  // num_rows * elem_size wraps to 0 for 2^61 rows of doubles.
  ExpectRejected(PatchedSpill(path, "hostile_rows", [](std::string* b) {
    Poke<uint64_t>(b, kNumRowsAt, uint64_t{1} << 61);
  }));
  // A row count that fits 32-bit row ids but not the file.
  ExpectRejected(PatchedSpill(path, "hostile_short", [](std::string* b) {
    Poke<uint64_t>(b, kNumRowsAt, uint64_t{1} << 30);
  }));
  // An attribute count no header could hold.
  ExpectRejected(PatchedSpill(path, "hostile_attrs", [](std::string* b) {
    Poke<uint64_t>(b, kNumAttrsAt, uint64_t{1} << 40);
  }));
  // A dictionary size no header could hold.
  ExpectRejected(PatchedSpill(path, "hostile_dict", [](std::string* b) {
    Poke<uint32_t>(b, kFirstDictSizeAt, 0xFFFFFFFFu);
  }));
  std::remove(path.c_str());
}

TEST(SpillTest, PinnedChunksServeChunkLocalIndices) {
  const size_t kRows = 50;
  Dataset dense = MakeMixed(kRows);
  std::string path = SpillPath("pins");
  ASSERT_TRUE(WriteSpill(dense, path).ok());
  SpillOptions opt;
  opt.chunk_rows = 7;
  auto paged = OpenSpill(path, opt);
  ASSERT_TRUE(paged.ok());
  ColumnChunks chunks = paged->chunks();
  for (size_t c = 0; c < chunks.layout().num_chunks(); ++c) {
    PinnedChunk pin = chunks.Continuous(2, static_cast<uint32_t>(c));
    ASSERT_TRUE(pin.valid());
    EXPECT_EQ(pin.row_base(), chunks.layout().begin(c));
    EXPECT_EQ(pin.rows(), chunks.layout().size(c));
    for (uint32_t r = pin.row_base(); r < pin.row_base() + pin.rows(); ++r) {
      EXPECT_EQ(pin.values()[r - pin.row_base()],
                dense.continuous(2).value(r));
    }
    PinnedChunk codes = chunks.Categorical(0, static_cast<uint32_t>(c));
    for (uint32_t r = codes.row_base(); r < codes.row_base() + codes.rows();
         ++r) {
      EXPECT_EQ(codes.codes()[r - codes.row_base()],
                dense.categorical(0).code(r));
    }
  }
  std::remove(path.c_str());
}

TEST(SpillTest, ResidentBackendHandsOutBorrowedSlices) {
  Dataset dense = MakeMixed(50);
  dense.SetChunkRows(7);
  ColumnChunks chunks = dense.chunks();
  ASSERT_FALSE(chunks.paged());
  EXPECT_EQ(chunks.layout().num_chunks(), 8u);
  PinnedChunk pin = chunks.Continuous(2, 3);
  EXPECT_EQ(pin.row_base(), 21u);
  EXPECT_EQ(pin.values(), dense.continuous(2).values().data() + 21);
  // Borrowed slices never touch a store: no stats to account.
  EXPECT_EQ(dense.chunk_store(), nullptr);
}

TEST(ChunkStoreTest, CapEvictsUnpinnedBeforeLoadingAndPinOvershoots) {
  const size_t kRows = 64;  // chunk_rows 16 -> 4 chunks of 128 bytes each
  Dataset dense = MakeMixed(kRows);
  std::string path = SpillPath("cap");
  ASSERT_TRUE(WriteSpill(dense, path).ok());
  SpillOptions opt;
  opt.chunk_rows = 16;
  opt.max_resident_bytes = 2 * 16 * sizeof(double);  // two chunks of "y"
  auto paged = OpenSpill(path, opt);
  ASSERT_TRUE(paged.ok());
  const ChunkStore* store = paged->chunk_store();
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->stats().max_resident_bytes, opt.max_resident_bytes);

  // Attribute 2 ("y") is continuous: 128 bytes per chunk.
  const void* c0 = store->Pin(2, 0);
  ASSERT_NE(c0, nullptr);
  EXPECT_EQ(store->stats().loads, 1u);
  EXPECT_EQ(store->stats().resident_bytes, 128u);

  // Second pin fits exactly; a third must evict — but everything is
  // pinned, so Pin overshoots rather than fail.
  const void* c1 = store->Pin(2, 1);
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(store->stats().resident_bytes, 256u);
  EXPECT_EQ(store->stats().loads, 2u);
  const void* c2 = store->Pin(2, 2);
  ASSERT_NE(c2, nullptr);
  EXPECT_GT(store->stats().resident_bytes, opt.max_resident_bytes);

  // Release everything: the next load evicts LRU cold chunks back under
  // the cap instead of growing.
  store->Unpin(2, 0);
  store->Unpin(2, 1);
  store->Unpin(2, 2);
  const void* c3 = store->Pin(2, 3);
  ASSERT_NE(c3, nullptr);
  EXPECT_LE(store->stats().resident_bytes, opt.max_resident_bytes);
  EXPECT_GT(store->stats().evictions, 0u);
  store->Unpin(2, 3);

  // TrimUnpinned drops everything once no pins remain.
  size_t freed = store->TrimUnpinned();
  EXPECT_GT(freed, 0u);
  EXPECT_EQ(store->stats().resident_bytes, 0u);
  // Peak never lies: it must cover the 3-chunk overshoot above.
  EXPECT_GE(store->stats().peak_resident_bytes, 3 * 128u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sdadcs::data
