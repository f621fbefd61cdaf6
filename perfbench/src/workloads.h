#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "harness.h"
#include "trace.h"

namespace perfbench {

/// Per-item latency samples of one window of a run, and the subset for
/// warm items. Latency percentiles are read per window and reported as the
/// median over windows, so one stalled window does not move the result.
struct LatencySet {
  std::vector<double> all_us;
  std::vector<double> warm_us;
};

/// What one measurement phase of a workload produced.
struct Measured {
  /// Queries answered per wall second (reads only, on read_write).
  double qps = 0;
  std::vector<LatencySet> windows;
  int64_t attempted = 0;
  /// Failed, shed, deadline-expired and refused operations.
  int64_t failed = 0;
  /// Answered batches, and those answered by one kernel call.
  int64_t batches = 0;
  int64_t kernel_batches = 0;
  int64_t queue_depth_max = 0;
  double preparer_busy_frac = 0;
};

/// One named workload. The runner calls Generate once, then Setup (timed as
/// setup_s) / Measure / Teardown one or more times.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Makes the inputs from the seed; excluded from setup_s. Engine work
  /// that precedes the measured set-up (churn's prior engine, which spills
  /// its parts) also runs here, traced when `tracer` is set.
  virtual void Generate(uint64_t seed, Tracer* tracer) = 0;
  /// From engine construction to a serving-ready store.
  virtual void Setup(Tracer* tracer) = 0;
  virtual void Teardown() = 0;
  /// Runs the workload's load for `seconds`. Workload-specific figures go
  /// to `report` as details.
  virtual Measured Measure(double seconds, Tracer* tracer, Report* report) = 0;
  /// Warm member batches of the current engine state, for the step replay.
  virtual std::vector<ReplayItem> ReplaySample(size_t n) = 0;
  virtual pitract::engine::QueryEngine* engine() = 0;
  /// The workload's sizes as a JSON object body (provenance).
  virtual std::string Sizes() const = 0;
};

/// The named workload, or null. `scratch` is a directory the workload may
/// write to (churn's spill directory lives under it).
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& scratch,
                                       Verifier* verifier);

/// Every workload name, in BENCHMARK.json order.
std::vector<std::string> WorkloadNames();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
