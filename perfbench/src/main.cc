// pitract_bench: runs one named workload of the prepare-once/answer-many
// benchmark and prints its metrics, ending with one JSON line.
//
//   pitract_bench --workload NAME --seed N --seconds S --trace 0|1
//                 [--scratch DIR] [--commit ID]
//
// --trace 0 prints the end-to-end metrics (setup_s, qps, peak_rss_mb).
// --trace 1 runs the load untraced for half the time, then traced for the
// other half, and prints the per-layer metrics and tracing.overhead_frac.
// Per-item latency (p50_us, p99_us, warm_p99_us) and workload-specific
// figures (slo_rate, delta_p50_ms, ...) print as "detail" lines. Exits 1 on
// any wrong answer or failed operation, 2 on bad arguments.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "harness.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 5;
/// Warm batches replayed step by step in a traced run.
constexpr size_t kReplayBatches = 256;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch = ".bench_build/perfbench-run";
  std::string commit = "unknown";
};

int Usage() {
  std::fprintf(stderr,
               "usage: pitract_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scratch DIR] [--commit ID]\nworkloads:");
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool Parse(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

void PrintProvenance(const Args& args, const Workload& workload) {
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::printf(
      "provenance {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
      "\"trace\":%d,\"nproc\":%u,\"build_type\":\"%s\",\"compiler\":\"%s\","
      "\"commit\":\"%s\",\"llc_mb\":%.1f,\"sizes\":{%s}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, args.commit.c_str(),
      llc > 0 ? static_cast<double>(llc) / (1 << 20) : 0.0,
      workload.Sizes().c_str());
}

/// Per-item latency, printed as details: each percentile is read per window
/// (the percentile rule applies within the window) and reported as the
/// median over windows.
void ReportLatency(const Measured& m, Report* report) {
  std::vector<double> p50, p99, warm_p99, p99_q, warm_q;
  double samples = 0;
  for (const LatencySet& w : m.windows) {
    if (w.all_us.empty()) continue;
    p50.push_back(Median(w.all_us));
    const Tail all = ReportableTail(w.all_us, 0.99);
    p99.push_back(all.value);
    p99_q.push_back(all.quantile);
    samples += static_cast<double>(all.samples);
    if (w.warm_us.empty()) continue;
    const Tail warm = ReportableTail(w.warm_us, 0.99);
    warm_p99.push_back(warm.value);
    warm_q.push_back(warm.quantile);
  }
  report->Detail("p50_us", Median(p50), "us");
  report->Detail("p99_us", Median(p99), "us");
  report->Detail("warm_p99_us", Median(warm_p99), "us");
  report->Detail("latency.windows", static_cast<double>(p99.size()), "count");
  report->Detail("latency.samples", samples, "count");
  auto lowest = [](const std::vector<double>& v) {
    return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
  };
  report->Detail("latency.p99_quantile_min", lowest(p99_q), "fraction");
  report->Detail("latency.warm_p99_quantile_min", lowest(warm_q), "fraction");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, &args)) return Usage();
  Verifier verifier;
  std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, args.scratch, &verifier);
  if (workload == nullptr) return Usage();
  std::error_code ec;
  std::filesystem::create_directories(args.scratch, ec);

  Report report;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::unique_ptr<Tracer> tracer;
  if (args.trace) tracer = std::make_unique<Tracer>();
  workload->Generate(args.seed, tracer.get());

  if (!args.trace) {
    std::vector<double> setup_s;
    for (int k = 0; k < kSetups; ++k) {
      if (k > 0) workload->Teardown();
      const int64_t t0 = NowNs();
      workload->Setup(nullptr);
      setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
    const Measured m = workload->Measure(args.seconds, nullptr, &report);
    report.Detail("store.bytes_resident_mb",
                  static_cast<double>(
                      workload->engine()->store().bytes_resident()) /
                      (1 << 20),
                  "MB");
    workload->Teardown();
    attempted = m.attempted;
    failed = m.failed;
    report.Set("setup_s", Median(setup_s), "s");
    report.Set("qps", m.qps, "queries/s");
    ReportLatency(m, &report);
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    // Untraced half first: the base of tracing.overhead_frac.
    Report untraced;
    workload->Setup(nullptr);
    const Measured base =
        workload->Measure(args.seconds / 2, nullptr, &untraced);
    workload->Teardown();
    workload->Setup(tracer.get());
    const Measured m =
        workload->Measure(args.seconds / 2, tracer.get(), &report);
    attempted = base.attempted + m.attempted;
    failed = base.failed + m.failed;
    pitract::engine::QueryEngine* eng = workload->engine();
    ReportStoreStats(eng->store(), eng->store().stats(), &report);
    MeasureWarmSteps(eng, tracer.get(), workload->ReplaySample(kReplayBatches),
                     &report, &verifier);
    workload->Teardown();
    MeasureKernelFidelity(args.seed, &report, &verifier);
    const std::vector<Span> spans = tracer->Collect();
    ReportSpans(spans, &report);
    report.Set("pipeline.queue_depth_max",
               static_cast<double>(m.queue_depth_max), "count");
    report.Set("pipeline.kernel_batch_frac",
               m.batches > 0 ? static_cast<double>(m.kernel_batches) /
                                   static_cast<double>(m.batches)
                             : 0,
               "fraction");
    report.Detail("pipeline.preparer_busy_frac", m.preparer_busy_frac,
                  "fraction");
    report.Set("tracing.overhead_frac",
               base.qps > 0 ? 1.0 - m.qps / base.qps : 0, "fraction");
    report.Detail("trace.spans", static_cast<double>(spans.size()), "count");
    report.Detail("trace.dropped", static_cast<double>(tracer->dropped()),
                  "count");
    // One file per workload: the latest traced run's spans.
    const std::string trace_path =
        args.scratch + "/trace-" + args.workload + ".jsonl";
    if (!tracer->WriteJsonl(trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
    }
  }

  // A per-layer metric of the traced run; a detail of the untraced one.
  const double error_rate =
      attempted > 0
          ? static_cast<double>(failed) / static_cast<double>(attempted)
          : 0;
  if (args.trace) {
    report.Set("error_rate", error_rate, "fraction");
  } else {
    report.Detail("error_rate", error_rate, "fraction");
  }
  report.Detail("answers_checked", static_cast<double>(verifier.checked()),
                "count");
  report.Detail("answers_wrong", static_cast<double>(verifier.wrong()),
                "count");
  const bool correct =
      verifier.wrong() == 0 && failed == 0 && verifier.checked() > 0;
  PrintProvenance(args, *workload);
  report.Print();
  std::printf("%s\n", report.Json(correct, attempted, failed).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
