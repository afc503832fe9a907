#include "data/sort_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <utility>

#include "data/chunks.h"
#include "util/logging.h"

namespace sdadcs::data {

void GatherValuesInto(const Dataset& db, int attr, const Selection& sel,
                      std::vector<double>* out) {
  ColumnChunks chunks = db.chunks();
  const uint32_t* rows = sel.rows().data();
  out->clear();
  out->reserve(sel.size());
  ForEachChunkSpan(chunks.layout(), rows, sel.size(),
                   [&](uint32_t chunk, size_t b, size_t e) {
                     PinnedChunk pin = chunks.Continuous(attr, chunk);
                     const double* v = pin.values();
                     for (size_t i = b; i < e; ++i) {
                       double x = v[rows[i] - pin.row_base()];
                       if (!std::isnan(x)) out->push_back(x);
                     }
                   });
}

SortIndex SortIndex::Build(const Dataset& db, int attr, bool with_ranks) {
  ColumnChunks chunks = db.chunks();
  const ChunkLayout& layout = chunks.layout();
  SortIndex idx;

  // Phase 1 — per-chunk runs: each chunk's non-missing (value, row)
  // pairs, sorted by (value, row). This is the chunk-local piece: a
  // chunk's run needs only that chunk resident, so a paged dataset
  // builds its sort artifact one chunk buffer at a time.
  std::vector<std::vector<std::pair<double, uint32_t>>> runs;
  runs.reserve(layout.num_chunks());
  size_t total = 0;
  for (size_t c = 0; c < layout.num_chunks(); ++c) {
    PinnedChunk pin = chunks.Continuous(attr, static_cast<uint32_t>(c));
    const double* v = pin.values();
    std::vector<std::pair<double, uint32_t>> run;
    run.reserve(pin.rows());
    for (uint32_t i = 0; i < pin.rows(); ++i) {
      if (!std::isnan(v[i])) run.emplace_back(v[i], pin.row_base() + i);
    }
    std::sort(run.begin(), run.end());
    total += run.size();
    runs.push_back(std::move(run));
  }

  // Phase 2 — k-way merge by (value, row). Rows ascend within a run and
  // every row of run c precedes every row of run c+1, so merging on
  // (value, row) reproduces exactly the global stable sort by value
  // (stable = ties in row order) the monolithic Build used to run.
  idx.order_.reserve(total);
  if (runs.size() == 1) {
    for (const auto& [v, r] : runs[0]) idx.order_.push_back(r);
  } else {
    using HeapItem = std::pair<std::pair<double, uint32_t>, size_t>;
    std::priority_queue<HeapItem, std::vector<HeapItem>,
                        std::greater<HeapItem>>
        heap;
    std::vector<size_t> cursor(runs.size(), 0);
    for (size_t c = 0; c < runs.size(); ++c) {
      if (!runs[c].empty()) heap.emplace(runs[c][0], c);
    }
    while (!heap.empty()) {
      auto [pair, c] = heap.top();
      heap.pop();
      idx.order_.push_back(pair.second);
      size_t next = ++cursor[c];
      if (next < runs[c].size()) heap.emplace(runs[c][next], c);
    }
  }

  if (with_ranks) {
    idx.rank_.assign(db.num_rows(), kNoRank);
    for (size_t k = 0; k < idx.order_.size(); ++k) {
      idx.rank_[idx.order_[k]] = static_cast<uint32_t>(k);
    }
  }
  return idx;
}

double MedianInSelection(const Dataset& db, int attr, const Selection& sel,
                         std::vector<double>* scratch) {
  std::vector<double> local;
  std::vector<double>& vals = scratch != nullptr ? *scratch : local;
  GatherValuesInto(db, attr, sel, &vals);
  if (vals.empty()) return std::numeric_limits<double>::quiet_NaN();
  // Lower middle: rank (n-1)/2, so that "value <= median" keeps at least
  // one element on each side whenever the values are not all equal.
  size_t k = (vals.size() - 1) / 2;
  std::nth_element(vals.begin(), vals.begin() + k, vals.end());
  return vals[k];
}

double MedianInSelectionFast(const Dataset& db, int attr,
                             const Selection& sel,
                             std::vector<double>* scratch,
                             SelectScratch* select_scratch, double* max_out) {
  ColumnChunks chunks = db.chunks();
  const uint32_t* rows = sel.rows().data();
  const size_t n = sel.size();
  if (scratch->size() < n + 4) scratch->resize(n + 4);
  double* dst = scratch->data();
  // Chunk-wise fused gather: survivors append at the running count, so
  // the gathered buffer is the same contiguous row-order value sequence
  // the monolithic gather produced; the per-span slack stays within the
  // n + 4 buffer because every span writes at most 4 past its survivors.
  size_t cnt = 0;
  double mx = -std::numeric_limits<double>::infinity();
  ForEachChunkSpan(chunks.layout(), rows, n,
                   [&](uint32_t chunk, size_t b, size_t e) {
                     PinnedChunk pin = chunks.Continuous(attr, chunk);
                     double span_max;
                     cnt += GatherNonNanMaxSpan(pin.values(), pin.row_base(),
                                                rows + b, e - b, dst + cnt,
                                                &span_max, /*simd=*/true);
                     if (span_max > mx) mx = span_max;
                   });
  if (cnt == 0) {
    *max_out = std::numeric_limits<double>::quiet_NaN();
    return std::numeric_limits<double>::quiet_NaN();
  }
  *max_out = mx;
  // Same lower-middle rank as MedianInSelection; the k-th order
  // statistic is algorithm-independent, so the quickselect result is
  // the same double nth_element would produce.
  size_t k = (cnt - 1) / 2;
  return SelectKth(dst, cnt, k, /*simd=*/true, select_scratch);
}

double MedianInSelectionRanked(const Dataset& db, int attr,
                               const Selection& sel, const SortIndex& index,
                               std::vector<uint32_t>* scratch) {
  SDADCS_CHECK(index.has_ranks());
  std::vector<uint32_t> local;
  std::vector<uint32_t>& ranks = scratch != nullptr ? *scratch : local;
  ranks.clear();
  ranks.reserve(sel.size());
  for (uint32_t r : sel) {
    uint32_t rank = index.rank_of(r);
    if (rank != SortIndex::kNoRank) ranks.push_back(rank);
  }
  if (ranks.empty()) return std::numeric_limits<double>::quiet_NaN();
  // Same lower-middle rank as MedianInSelection; selecting on ranks
  // instead of values yields the identical double because the rank
  // order refines the value order.
  size_t k = (ranks.size() - 1) / 2;
  std::nth_element(ranks.begin(), ranks.begin() + k, ranks.end());
  return db.continuous(attr).value(index.row_at(ranks[k]));
}

double QuantileInSelection(const Dataset& db, int attr, const Selection& sel,
                           double q, std::vector<double>* scratch) {
  SDADCS_CHECK(q >= 0.0 && q <= 1.0);
  std::vector<double> local;
  std::vector<double>& vals = scratch != nullptr ? *scratch : local;
  GatherValuesInto(db, attr, sel, &vals);
  if (vals.empty()) return std::numeric_limits<double>::quiet_NaN();
  size_t k = static_cast<size_t>(q * static_cast<double>(vals.size() - 1));
  std::nth_element(vals.begin(), vals.begin() + k, vals.end());
  return vals[k];
}

MinMax MinMaxInSelection(const Dataset& db, int attr, const Selection& sel) {
  ColumnChunks chunks = db.chunks();
  const uint32_t* rows = sel.rows().data();
  MinMax mm{std::numeric_limits<double>::quiet_NaN(),
            std::numeric_limits<double>::quiet_NaN()};
  bool any = false;
  ForEachChunkSpan(
      chunks.layout(), rows, sel.size(),
      [&](uint32_t chunk, size_t b, size_t e) {
        PinnedChunk pin = chunks.Continuous(attr, chunk);
        const double* vals = pin.values();
        for (size_t i = b; i < e; ++i) {
          double v = vals[rows[i] - pin.row_base()];
          if (std::isnan(v)) continue;
          if (!any) {
            mm.min = mm.max = v;
            any = true;
          } else {
            if (v < mm.min) mm.min = v;
            if (v > mm.max) mm.max = v;
          }
        }
      });
  return mm;
}

}  // namespace sdadcs::data
