#ifndef SDADCS_TESTS_COMMON_REFERENCE_SPLIT_H_
#define SDADCS_TESTS_COMMON_REFERENCE_SPLIT_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/space.h"
#include "data/dataset.h"
#include "util/logging.h"

namespace sdadcs::test_support {

/// Naive reference for find_combs(p) of Algorithm 1, the oracle the
/// fused SplitAndCount kernel is checked against: the child cells
/// obtained by cutting every splittable axis at its median — the
/// Cartesian product of {(lo, m], (m, hi]} over splittable axes, in
/// mask order (bit b set = right half of the b-th splittable axis).
/// Unsplittable axes keep their full range. Each cell's rows are the
/// subset of the space's rows inside the cell, found by one filter scan
/// per cell. Returns an empty vector when no axis is splittable.
inline std::vector<core::Space> FindCombs(const data::Dataset& db,
                                          const core::Space& space,
                                          const std::vector<double>& medians) {
  SDADCS_CHECK(medians.size() == space.bounds.size());
  std::vector<int> splittable = core::SplittableAxes(medians);
  if (splittable.empty()) return {};

  const size_t num_cells = size_t{1} << splittable.size();
  std::vector<core::Space> cells;
  cells.reserve(num_cells);
  for (size_t mask = 0; mask < num_cells; ++mask) {
    core::Space cell;
    cell.bounds = space.bounds;
    for (size_t bit = 0; bit < splittable.size(); ++bit) {
      int axis = splittable[bit];
      if (mask & (size_t{1} << bit)) {
        cell.bounds[axis].lo = medians[axis];  // right half (m, hi]
      } else {
        cell.bounds[axis].hi = medians[axis];  // left half (lo, m]
      }
    }
    cell.rows = space.rows.Filter([&](uint32_t r) {
      for (int axis : splittable) {
        const core::AxisBound& b = cell.bounds[axis];
        double v = db.continuous(b.attr).value(r);
        if (std::isnan(v) || v <= b.lo || v > b.hi) return false;
      }
      return true;
    });
    cells.push_back(std::move(cell));
  }
  return cells;
}

}  // namespace sdadcs::test_support

#endif  // SDADCS_TESTS_COMMON_REFERENCE_SPLIT_H_
