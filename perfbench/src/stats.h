#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of an ascending-sorted sample: the smallest value
/// with at least q·n samples at or below it. q is clamped to [0, 1]; an
/// empty sample reads 0.
double QuantileSorted(std::span<const double> sorted, double q);

/// Median of an unsorted sample (nearest-rank, lower middle on ties).
double Median(std::vector<double> values);

/// A tail percentile together with the rank it was actually read at.
struct Tail {
  double quantile = 0;  // the quantile the value was read at
  double value = 0;
  size_t samples = 0;
};

/// The percentile rule: reads `want` (e.g. 0.99) only when at least ten
/// samples lie beyond it; otherwise the highest quantile that still has
/// ten samples beyond it, never below the median. With n samples the
/// nearest-rank quantile q leaves n - ceil(q·n) samples beyond it, so q is
/// capped at (n - 10) / n.
Tail ReportableTail(std::vector<double> samples, double want);

/// Backlog check of one open-loop rung. `outstanding` holds the number of
/// admitted-but-incomplete items sampled at even intervals while the rung
/// was sending. The backlog grows when the mean of the last third of the
/// samples exceeds the mean of the first third by more than `slack` items
/// (the arrivals one latency limit covers at the rung's rate). Fewer than
/// three samples never count as growth.
bool BacklogGrows(std::span<const double> outstanding, double slack);

/// One rung of the fixed open-loop rate ladder.
struct Rung {
  double rate = 0;  // arrivals per second
  double p99_us = 0;
  bool backlog_grows = false;
};

/// The highest rate on the ladder that meets the latency limit without a
/// growing backlog, counting up from the lowest rung and stopping at the
/// first rung that fails (a lucky pass above a failing rung does not
/// count). Rungs may come in any order. 0 when the lowest rung fails.
double SloRate(std::vector<Rung> ladder, double p99_limit_us);

/// A half-open time interval in nanoseconds.
struct Interval {
  int64_t start = 0;
  int64_t end = 0;
};

/// Nanoseconds of `parent` covered by the union of `children`, each
/// clipped to the parent first. Overlapping children count once — the
/// quantity a span's self time subtracts.
int64_t CoveredNs(Interval parent, std::vector<Interval> children);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
