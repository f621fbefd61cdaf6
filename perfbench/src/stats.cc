#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double QuantileSorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n - 1e-9));
  if (rank < 1) rank = 1;
  return sorted[std::min(rank, sorted.size()) - 1];
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return QuantileSorted(values, 0.5);
}

Tail ReportableTail(std::vector<double> samples, double want) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  tail.quantile = std::max(0.5, std::min(want, (n - 10.0) / n));
  tail.value = QuantileSorted(samples, tail.quantile);
  return tail;
}

bool BacklogGrows(std::span<const double> outstanding, double slack) {
  const size_t third = outstanding.size() / 3;
  if (third == 0) return false;
  double first = 0;
  double last = 0;
  for (size_t i = 0; i < third; ++i) {
    first += outstanding[i];
    last += outstanding[outstanding.size() - third + i];
  }
  return (last - first) / static_cast<double>(third) > slack;
}

double SloRate(std::vector<Rung> ladder, double p99_limit_us) {
  std::sort(ladder.begin(), ladder.end(),
            [](const Rung& a, const Rung& b) { return a.rate < b.rate; });
  double best = 0;
  for (const Rung& rung : ladder) {
    if (rung.backlog_grows || rung.p99_us > p99_limit_us) break;
    best = rung.rate;
  }
  return best;
}

int64_t CoveredNs(Interval parent, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.start = std::max(c.start, parent.start);
    c.end = std::min(c.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  int64_t covered = 0;
  int64_t reach = parent.start;
  for (const Interval& c : children) {
    if (c.end <= c.start) continue;
    const int64_t from = std::max(c.start, reach);
    if (c.end > from) {
      covered += c.end - from;
      reach = c.end;
    }
  }
  return covered;
}

}  // namespace perfbench
