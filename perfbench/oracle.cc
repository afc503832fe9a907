#include "oracle.h"

#include <algorithm>

#include "core/report.h"
#include "engine/registry.h"

namespace perfbench {

using sdadcs::util::Status;

sdadcs::util::StatusOr<std::vector<std::string>> SplitJsonArray(
    const std::string& array) {
  size_t lo = array.find_first_not_of(" \t\r\n");
  size_t hi = array.find_last_not_of(" \t\r\n");
  if (lo == std::string::npos || array[lo] != '[' || array[hi] != ']') {
    return Status::InvalidArgument("patterns: not a JSON array");
  }
  std::vector<std::string> out;
  int depth = 0;
  bool in_string = false;
  size_t start = lo + 1;
  for (size_t i = lo + 1; i < hi; ++i) {
    char c = array[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '[' || c == '{') {
      ++depth;
    } else if (c == ']' || c == '}') {
      if (--depth < 0) return Status::InvalidArgument("patterns: unbalanced");
    } else if (c == ',' && depth == 0) {
      out.push_back(array.substr(start, i - start));
      start = i + 1;
    }
  }
  if (depth != 0 || in_string) {
    return Status::InvalidArgument("patterns: unbalanced");
  }
  std::string last = array.substr(start, hi - start);
  if (last.find_first_not_of(" \t\r\n") != std::string::npos) {
    out.push_back(last);
  } else if (!out.empty()) {
    return Status::InvalidArgument("patterns: trailing comma");
  }
  return out;
}

std::string PatternsBody(const std::string& frame) {
  static const std::string kKey = "\"patterns\":";
  size_t at = frame.rfind(kKey);
  size_t close = frame.find_last_of('}');
  if (at == std::string::npos || close == std::string::npos || close < at) {
    return "";
  }
  size_t start = at + kKey.size();
  return frame.substr(start, close - start);
}

std::string ComparePatternSets(const std::string& reference,
                               const std::string& answer) {
  auto ref = SplitJsonArray(reference);
  if (!ref.ok()) return "reference " + ref.status().message();
  auto got = SplitJsonArray(answer);
  if (!got.ok()) return "answer " + got.status().message();
  if (ref->size() != got->size()) {
    return "pattern count " + std::to_string(got->size()) + " != reference " +
           std::to_string(ref->size());
  }
  std::sort(ref->begin(), ref->end());
  std::sort(got->begin(), got->end());
  for (size_t i = 0; i < ref->size(); ++i) {
    if ((*ref)[i] != (*got)[i]) {
      return "pattern differs: " + (*got)[i] + " vs reference " + (*ref)[i];
    }
  }
  return "";
}

sdadcs::util::StatusOr<std::string> ReferencePatterns(
    const sdadcs::data::Dataset& db, const MineSpec& spec) {
  sdadcs::core::MinerConfig cfg;
  cfg.max_depth = spec.depth;
  cfg.delta = spec.delta;
  cfg.top_k = spec.top;
  auto engine = sdadcs::engine::EngineRegistry::Global().Create("serial", cfg);
  if (!engine.ok()) return engine.status();
  sdadcs::core::MineRequest request;
  request.group_attr = spec.group;
  request.group_values = spec.values;
  auto result = (*engine)->Mine(db, request);
  if (!result.ok()) return result.status();
  if (result->completion != sdadcs::core::Completion::kComplete) {
    return Status::Internal("reference mine did not complete");
  }
  auto groups = sdadcs::core::ResolveRequestGroups(db, request);
  if (!groups.ok()) return groups.status();
  return sdadcs::core::PatternsToJson(db, *groups, result->contrasts);
}

std::string CorruptReference(const std::string& reference) {
  auto patterns = SplitJsonArray(reference);
  if (!patterns.ok() || patterns->empty()) {
    return "[{\"items\":[],\"fabricated\":true}]";
  }
  patterns->pop_back();
  std::string out = "[";
  for (size_t i = 0; i < patterns->size(); ++i) {
    if (i > 0) out += ",";
    out += (*patterns)[i];
  }
  return out + "]";
}

}  // namespace perfbench
