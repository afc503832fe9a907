#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// The answer oracle: every cold answer is compared, as a set of
// patterns, with a serial-engine reference mined in process on the same
// CSV; every warm answer is compared byte for byte with its key's cold
// answer.

#include <string>
#include <vector>

#include "data/dataset.h"
#include "inputs.h"
#include "util/status.h"

namespace perfbench {

/// Splits a JSON array into the raw text of its top-level elements.
sdadcs::util::StatusOr<std::vector<std::string>> SplitJsonArray(
    const std::string& array);

/// The raw "patterns" array of a mine response frame ("" when absent).
/// RenderMineOutcome writes it as the frame's last field.
std::string PatternsBody(const std::string& frame);

/// "" when `answer` holds the same patterns as `reference` (order
/// ignored: the parallel engine is only set-equal to serial), else a
/// one-line description of the first difference.
std::string ComparePatternSets(const std::string& reference,
                               const std::string& answer);

/// Mines `spec` with the serial engine on `db` and renders the patterns
/// exactly as the server's "emit":"patterns" body does.
sdadcs::util::StatusOr<std::string> ReferencePatterns(
    const sdadcs::data::Dataset& db, const MineSpec& spec);

/// A deliberately wrong copy of `reference` (one pattern dropped, or a
/// fabricated one when the list is empty), for proving the oracle bites.
std::string CorruptReference(const std::string& reference);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
