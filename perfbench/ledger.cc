#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "serve/ndjson.h"

namespace perfbench {

namespace {

const Clock::time_point kEpoch = Clock::now();

/// Length of the union of `intervals` clipped to [lo, hi].
double CoveredLength(std::vector<std::pair<double, double>> intervals,
                     double lo, double hi) {
  for (auto& iv : intervals) {
    iv.first = std::max(iv.first, lo);
    iv.second = std::min(iv.second, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double cursor = lo;
  for (const auto& [a, b] : intervals) {
    if (b <= cursor) continue;
    covered += b - std::max(a, cursor);
    cursor = b;
  }
  return covered;
}

/// 1-based nearest rank of percentile p among n samples (p * n first,
/// so whole products such as 95 * 200 / 100 stay exact).
size_t NearestRank(double p, size_t n) {
  return static_cast<size_t>(std::ceil(p * static_cast<double>(n) / 100.0));
}

double SelfTimeOf(const std::vector<Span>& spans, int index,
                  const std::vector<int>& children) {
  const Span& s = spans[index];
  std::vector<std::pair<double, double>> intervals;
  intervals.reserve(children.size());
  for (int c : children) intervals.emplace_back(spans[c].start, spans[c].end);
  return (s.end - s.start) - CoveredLength(std::move(intervals), s.start, s.end);
}

}  // namespace

double NowSeconds() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  size_t rank = NearestRank(p, values.size());
  rank = std::clamp<size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double HighestSupportedPercentile(size_t n, const std::vector<double>& candidates,
                                  size_t min_beyond) {
  double best = -1.0;
  for (double p : candidates) {
    // Samples strictly above the nearest-rank position of p.
    size_t rank = NearestRank(p, n);
    size_t beyond = n - std::min(rank, n);
    if (beyond >= min_beyond && p > best) best = p;
  }
  return best;
}

int Tracer::Begin(const std::string& name, int parent,
                  const std::string& request) {
  if (!enabled_) return -1;
  double now = NowSeconds();
  return Add(name, now, now, parent, request);
}

void Tracer::End(int index) {
  if (!enabled_ || index < 0) return;
  double now = NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[index].end = now;
}

int Tracer::Add(const std::string& name, double start, double end, int parent,
                const std::string& request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start, end, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<Span> all = spans();
  for (size_t i = 0; i < all.size(); ++i) {
    sdadcs::serve::JsonObjectWriter w;
    w.Add("i", static_cast<uint64_t>(i));
    w.Add("name", all[i].name);
    w.Add("start_s", all[i].start);
    w.Add("end_s", all[i].end);
    w.Add("parent", all[i].parent);
    if (!all[i].request.empty()) w.Add("request", all[i].request);
    std::fprintf(f, "%s\n", w.Str().c_str());
  }
  return std::fclose(f) == 0;
}

double SelfTime(const std::vector<Span>& spans, int index) {
  std::vector<int> children;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == index) children.push_back(static_cast<int>(i));
  }
  return SelfTimeOf(spans, index, children);
}

std::map<std::string, LayerTime> LayerTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    int p = spans[i].parent;
    if (p >= 0 && static_cast<size_t>(p) < spans.size()) {
      children[p].push_back(static_cast<int>(i));
    }
  }
  std::map<std::string, LayerTime> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    LayerTime& t = out[spans[i].name];
    ++t.count;
    t.total_s += spans[i].end - spans[i].start;
    t.self_s += SelfTimeOf(spans, static_cast<int>(i), children[i]);
  }
  return out;
}

}  // namespace perfbench
