// X3b — the serving layer under concurrent traffic.
//
// Four measurements, all driven through engine::ServePipeline:
//
//  1. Cold-store scaling ("x3_concurrency" rows): a workload of query
//     batches over K distinct data parts at increasing thread counts,
//     starting from a cold store each time — the full serving profile,
//     miss storm (and its in-flight dedup) included. pi_runs must stay
//     pinned at K no matter how many threads collide.
//
//  2. Warm-hit contention ("x3_contention" rows): the store is warmed
//     first, then N threads hammer pre-admitted DataHandles — either one
//     hot handle ("hot") or a zipf mix over all K ("zipf"). Since PR 5 a
//     warm hit takes zero locks and touches zero shared mutable cache
//     lines (RCU snapshot probe + relaxed recency stamp + per-thread
//     stats), so warm queries/sec should grow with threads on multi-core
//     hardware; locked_hits is printed and must stay 0.
//
//  3. Open-loop tail latency ("x3_openloop" rows, `openloop` argument):
//     a single submitter thread feeds ServePipeline::Submit with Poisson
//     arrivals at a configured rate — arrivals do NOT wait for
//     completions, so queueing delay is measured instead of hidden (the
//     coordinated-omission trap of closed-loop drivers). Three traffic
//     shapes: "warm" (pure pre-admitted handles, zipf-mixed), "cold_storm"
//     (same, plus a mid-run burst of never-seen data parts, each a full Π
//     on arrival), and "mixed" (a fresh cold part every ~32 arrivals).
//     Rows report p50/p99/p999 completion latency overall and for the
//     warm subset — the pipeline's no-head-of-line-blocking claim is the
//     warm p99 under cold_storm staying near the warm-only p99 at the
//     same rate (target: within 2x; printed in the readout).
//
//  4. Fault-rate degradation ("x3_faults" rows, `faults` argument): the
//     mixed open-loop traffic re-run with the "store.pi_build" failpoint
//     armed at preparer failure rate f in {0, 0.01, 0.1} — each cold Π
//     build fails with probability f and rides the pipeline's
//     retry/quarantine policy. Rows record warm p99 plus the
//     errors/shed/quarantined/pi_failures/pi_retries counters, so the
//     degradation curve (how much tail latency and goodput a flaky Π
//     costs) lands in the JSON artifact.
//
// One JSON line per (mode, threads[, distribution]) is appended to
// BENCH_x3_concurrency.json (or argv[1]); every row records
// hardware_concurrency so single-core container runs are distinguishable
// from real multi-core runs.
//
// Usage: bench_x3_concurrency [json_path] [tiny] [openloop|faults] [numbers...]
//        (numbers are thread counts, or arrival rates with `openloop`/`faults`)

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "core/problems.h"
#include "engine/builtins.h"
#include "engine/engine.h"
#include "engine/pipeline.h"
#include "engine/serve.h"

namespace {

using pitract::Rng;
namespace core = pitract::core;
namespace engine = pitract::engine;

/// One closed-loop run: `workload` x `repeat` through a fresh ServePipeline
/// with `threads` answer workers, timed around the whole pipeline lifetime
/// (worker start-up, submission, drain and join).
struct TimedRun {
  engine::ServeReport report;
  double wall_seconds = 0;

  double queries_per_second() const {
    return wall_seconds > 0 ? static_cast<double>(report.queries) / wall_seconds
                            : 0;
  }
};

TimedRun ServeTimed(engine::QueryEngine* eng,
                    std::span<const engine::ServeWorkItem> workload,
                    int threads, int repeat) {
  engine::PipelineOptions options;
  options.threads = threads;
  TimedRun run;
  const auto start = std::chrono::steady_clock::now();
  {
    engine::ServePipeline pipeline(eng, options);
    pipeline.SubmitWorkload(workload, repeat);
    pipeline.Drain();
    run.report = pipeline.report();
  }
  run.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  return run;
}

struct Config {
  int data_parts = 16;
  int list_length = 2048;
  int queries_per_batch = 64;
  int repeat = 32;            // cold-store passes per measurement
  int contention_items = 256; // work items per warm-contention workload
  int contention_repeat = 64; // passes over that workload
  std::vector<int> thread_counts = {1, 2, 4, 8, 16};
  // Open-loop section (the `openloop` argument).
  std::vector<int> openloop_rates = {2000, 8000};  // arrivals/second
  int openloop_arrivals = 4000;  // arrivals per (traffic, rate) row
  int openloop_cold_parts = 64;  // fresh parts the cold storm injects
  int openloop_threads = 2;      // answer workers (fixed for comparability)
  int openloop_preparers = 2;    // Π preparers
};

std::string MakeMemberData(Rng* rng, int list_length) {
  std::vector<int64_t> list;
  for (int i = 0; i < list_length; ++i) {
    list.push_back(static_cast<int64_t>(rng->NextBelow(2 * list_length)));
  }
  return core::MemberFactorization()
      .pi1(core::MakeMemberInstance(2 * list_length, list, 0))
      .value();
}

std::vector<std::string> MakeQueries(Rng* rng, int count, int universe) {
  std::vector<std::string> queries;
  for (int i = 0; i < count; ++i) {
    queries.push_back(
        std::to_string(rng->NextBelow(static_cast<uint64_t>(universe))));
  }
  return queries;
}

std::vector<engine::ServeWorkItem> MakeColdWorkload(const Config& config) {
  Rng rng(42);
  std::vector<engine::ServeWorkItem> workload;
  for (int part = 0; part < config.data_parts; ++part) {
    engine::ServeWorkItem item;
    item.problem = "list-membership";
    item.data = MakeMemberData(&rng, config.list_length);
    item.queries =
        MakeQueries(&rng, config.queries_per_batch, 2 * config.list_length);
    workload.push_back(std::move(item));
  }
  return workload;
}

int RunColdScaling(const Config& config, std::FILE* json, unsigned hw,
                   size_t* json_lines) {
  std::printf(
      "[cold] queries/sec vs threads over %d data parts x %d queries/batch\n"
      "       (x%d passes, fresh engine per row). pi_runs must stay %d:\n"
      "       the store dedups in-flight Π.\n\n",
      config.data_parts, config.queries_per_batch, config.repeat,
      config.data_parts);
  std::printf("%8s %12s %12s %10s %12s %12s\n", "threads", "batches",
              "queries", "pi_runs", "seconds", "queries/s");
  std::printf(
      "----------------------------------------------------------------------"
      "\n");

  const auto workload = MakeColdWorkload(config);
  for (int threads : config.thread_counts) {
    // Fresh engine per thread count: every measurement starts from a cold
    // store, so it includes the miss storm (and its dedup) plus the warm
    // steady state — the full serving profile.
    engine::QueryEngine eng{engine::PreparedStore::Options{}};
    auto status = engine::RegisterBuiltins(&eng);
    if (!status.ok()) {
      std::fprintf(stderr, "RegisterBuiltins failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    const TimedRun run = ServeTimed(&eng, workload, threads, config.repeat);
    const engine::ServeReport& report = run.report;
    if (report.errors != 0) {
      std::fprintf(stderr, "serving errors: %lld (first: %s)\n",
                   static_cast<long long>(report.errors),
                   report.first_error.ToString().c_str());
      return 1;
    }
    if (report.pi_runs != config.data_parts) {
      std::fprintf(stderr,
                   "FAIL: pi_runs=%lld, want %d (in-flight dedup broken?)\n",
                   static_cast<long long>(report.pi_runs), config.data_parts);
      return 1;
    }
    std::printf("%8d %12lld %12lld %10lld %12.4f %12.0f\n", threads,
                static_cast<long long>(report.batches),
                static_cast<long long>(report.queries),
                static_cast<long long>(report.pi_runs), run.wall_seconds,
                run.queries_per_second());
    if (json != nullptr) {
      // Row identity + derived rates stay inline; every counter comes from
      // the one ServeReport::ToJson() blob instead of a hand-picked subset.
      std::fprintf(json,
                   "{\"bench\":\"x3_concurrency\",\"threads\":%d,"
                   "\"data_parts\":%d,\"wall_ns\":%.0f,\"ns_per_query\":%.1f,"
                   "\"hardware_concurrency\":%u,\"report\":%s}\n",
                   threads, config.data_parts, run.wall_seconds * 1e9,
                   report.queries > 0
                       ? run.wall_seconds * 1e9 /
                             static_cast<double>(report.queries)
                       : 0.0,
                   hw, report.ToJson().c_str());
      ++(*json_lines);
    }
  }
  return 0;
}

int RunWarmContention(const Config& config, std::FILE* json, unsigned hw,
                      size_t* json_lines) {
  std::printf(
      "\n[warm] hit-path contention: %d work items x%d passes over\n"
      "       pre-admitted handles; \"hot\" hammers one handle, \"zipf\"\n"
      "       a zipf(0.99) mix over %d. locked_hits must stay 0 — the\n"
      "       lock-free-hit proof under maximal line sharing.\n\n",
      config.contention_items, config.contention_repeat, config.data_parts);
  std::printf("%8s %6s %12s %12s %12s %12s\n", "threads", "dist", "queries",
              "seconds", "queries/s", "locked_hits");
  std::printf(
      "----------------------------------------------------------------------"
      "\n");

  // One engine for the whole section: Π runs once per data part during
  // warm-up, then every measured pass is pure warm hits.
  engine::QueryEngine eng{engine::PreparedStore::Options{}};
  auto status = engine::RegisterBuiltins(&eng);
  if (!status.ok()) {
    std::fprintf(stderr, "RegisterBuiltins failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  Rng rng(271828);
  std::vector<std::shared_ptr<const engine::DataHandle>> handles;
  for (int part = 0; part < config.data_parts; ++part) {
    auto handle =
        eng.Intern("list-membership", MakeMemberData(&rng, config.list_length));
    if (!handle.ok()) {
      std::fprintf(stderr, "Intern failed: %s\n",
                   handle.status().ToString().c_str());
      return 1;
    }
    handles.push_back(std::make_shared<const engine::DataHandle>(
        std::move(handle).value()));
  }
  const auto queries =
      MakeQueries(&rng, config.queries_per_batch, 2 * config.list_length);

  for (const char* distribution : {"hot", "zipf"}) {
    std::vector<engine::ServeWorkItem> workload;
    for (int i = 0; i < config.contention_items; ++i) {
      engine::ServeWorkItem item;
      const size_t pick =
          std::strcmp(distribution, "hot") == 0
              ? 0
              : static_cast<size_t>(
                    rng.NextZipf(handles.size(), /*theta=*/0.99));
      item.handle = handles[pick];
      item.queries = queries;
      workload.push_back(std::move(item));
    }
    // Warm every handle this workload touches (and the rest) once, so the
    // measured passes never run Π or take the miss path.
    std::vector<engine::ServeWorkItem> all;
    for (const auto& handle : handles) {
      engine::ServeWorkItem item;
      item.handle = handle;
      item.queries = queries;
      all.push_back(std::move(item));
    }
    const TimedRun warm = ServeTimed(&eng, all, /*threads=*/1, /*repeat=*/1);
    if (warm.report.errors != 0) {
      std::fprintf(stderr, "warm-up errors: %s\n",
                   warm.report.first_error.ToString().c_str());
      return 1;
    }

    for (int threads : config.thread_counts) {
      eng.store().ResetStats();
      const TimedRun run =
          ServeTimed(&eng, workload, threads, config.contention_repeat);
      const engine::ServeReport& report = run.report;
      if (report.errors != 0) {
        std::fprintf(stderr, "serving errors: %s\n",
                     report.first_error.ToString().c_str());
        return 1;
      }
      const auto stats = eng.store().stats();
      if (report.pi_runs != 0 || stats.misses != 0) {
        std::fprintf(stderr,
                     "FAIL: warm run recomputed Π (pi_runs=%lld misses=%lld)\n",
                     static_cast<long long>(report.pi_runs),
                     static_cast<long long>(stats.misses));
        return 1;
      }
      if (stats.locked_hits != 0) {
        std::fprintf(stderr,
                     "FAIL: locked_hits=%lld, want 0 (warm hits took the "
                     "shard mutex — snapshot probe broken?)\n",
                     static_cast<long long>(stats.locked_hits));
        return 1;
      }
      std::printf("%8d %6s %12lld %12.4f %12.0f %12lld\n", threads,
                  distribution, static_cast<long long>(report.queries),
                  run.wall_seconds, run.queries_per_second(),
                  static_cast<long long>(stats.locked_hits));
      if (json != nullptr) {
        // Serving-side counters via ServeReport::ToJson(), store-side (the
        // locked_hits/key_builds proof) via Stats::ToJson() — two embedded
        // blobs, no hand-formatted counter subset.
        std::fprintf(json,
                     "{\"bench\":\"x3_contention\",\"distribution\":\"%s\","
                     "\"threads\":%d,\"data_parts\":%d,\"wall_ns\":%.0f,"
                     "\"ns_per_query\":%.1f,\"hardware_concurrency\":%u,"
                     "\"report\":%s,\"store\":%s}\n",
                     distribution, threads, config.data_parts,
                     run.wall_seconds * 1e9,
                     report.queries > 0
                         ? run.wall_seconds * 1e9 /
                               static_cast<double>(report.queries)
                         : 0.0,
                     hw, report.ToJson().c_str(), stats.ToJson().c_str());
        ++(*json_lines);
      }
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Open-loop load generation.
// ---------------------------------------------------------------------------

/// q-th quantile of an ascending-sorted latency vector (nearest-rank on
/// the (n-1)-scaled index), or -1 when empty.
int64_t PercentileSorted(const std::vector<int64_t>& sorted, double q) {
  if (sorted.empty()) return -1;
  const auto idx = static_cast<size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

int RunOpenLoop(const Config& config, std::FILE* json, unsigned hw,
                size_t* json_lines) {
  std::printf(
      "\n[open] open-loop tail latency: Poisson arrivals into\n"
      "       ServePipeline::Submit (%d answer workers, %d preparers),\n"
      "       %d arrivals per row. \"cold_storm\" injects %d never-seen\n"
      "       parts mid-run; the pipeline claim is that the *warm* p99\n"
      "       barely moves while the storm's Π runs ride the preparers.\n\n",
      config.openloop_threads, config.openloop_preparers,
      config.openloop_arrivals, config.openloop_cold_parts);
  std::printf("%11s %8s %9s %10s %10s %10s %10s %6s %8s\n", "traffic",
              "rate/s", "arrivals", "p50_us", "p99_us", "p999_us",
              "warmp99_us", "shed", "pi_runs");
  std::printf(
      "----------------------------------------------------------------------"
      "--------\n");

  // Warm-subset p99 per rate, kept across traffic shapes for the readout.
  std::vector<double> warm_only_p99(config.openloop_rates.size(), -1);
  std::vector<double> storm_warm_p99(config.openloop_rates.size(), -1);

  for (const char* traffic : {"warm", "cold_storm", "mixed"}) {
    for (size_t ri = 0; ri < config.openloop_rates.size(); ++ri) {
      const int rate = config.openloop_rates[ri];
      const int n = config.openloop_arrivals;

      // Fresh engine per row so the storm's parts are genuinely cold.
      engine::QueryEngine eng{engine::PreparedStore::Options{}};
      auto status = engine::RegisterBuiltins(&eng);
      if (!status.ok()) {
        std::fprintf(stderr, "RegisterBuiltins failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      Rng rng(0x0be2 + static_cast<uint64_t>(rate) * 31 +
              static_cast<uint64_t>(traffic[0]));

      // Pre-admit and warm the steady-state parts.
      std::vector<std::shared_ptr<const engine::DataHandle>> handles;
      for (int part = 0; part < config.data_parts; ++part) {
        auto handle = eng.Intern("list-membership",
                                 MakeMemberData(&rng, config.list_length));
        if (!handle.ok()) {
          std::fprintf(stderr, "Intern failed: %s\n",
                       handle.status().ToString().c_str());
          return 1;
        }
        handles.push_back(std::make_shared<const engine::DataHandle>(
            std::move(handle).value()));
      }
      const auto queries =
          MakeQueries(&rng, config.queries_per_batch, 2 * config.list_length);
      for (const auto& handle : handles) {
        auto warm = eng.AnswerBatch(*handle, queries);
        if (!warm.ok()) {
          std::fprintf(stderr, "warm-up failed: %s\n",
                       warm.status().ToString().c_str());
          return 1;
        }
      }

      // Arrival plan: cold_slot[i] >= 0 marks arrival i as a never-seen
      // part (index into cold_parts). Pregenerated so data synthesis never
      // perturbs the arrival process.
      std::vector<int> cold_slot(static_cast<size_t>(n), -1);
      std::vector<std::string> cold_parts;
      if (std::strcmp(traffic, "cold_storm") == 0) {
        const int storm = std::min(config.openloop_cold_parts, n / 4);
        const int start = n / 2 - storm / 2;
        for (int i = 0; i < storm; ++i) {
          cold_slot[static_cast<size_t>(start + i)] =
              static_cast<int>(cold_parts.size());
          cold_parts.push_back(MakeMemberData(&rng, config.list_length));
        }
      } else if (std::strcmp(traffic, "mixed") == 0) {
        for (int i = 0; i < n; ++i) {
          if (rng.NextBelow(32) == 0) {
            cold_slot[static_cast<size_t>(i)] =
                static_cast<int>(cold_parts.size());
            cold_parts.push_back(MakeMemberData(&rng, config.list_length));
          }
        }
      }

      engine::PipelineOptions popts;
      popts.threads = config.openloop_threads;
      popts.preparers = config.openloop_preparers;
      engine::ServePipeline pipeline(&eng, popts);

      // Per-arrival completion slots, disjoint per item; Drain()'s join
      // makes the writes visible before the percentile pass reads them.
      std::vector<int64_t> latency(static_cast<size_t>(n), -1);
      std::vector<uint8_t> answered(static_cast<size_t>(n), 0);

      // Poisson process: exponential gaps at `rate`, absolute sleep
      // targets so scheduler jitter shifts arrivals instead of thinning
      // them. Arrivals never wait for completions — open loop.
      auto next = std::chrono::steady_clock::now();
      for (int i = 0; i < n; ++i) {
        const double u = std::min(rng.NextDouble(), 0.999999999);
        const double gap_seconds = -std::log(1.0 - u) / rate;
        next += std::chrono::nanoseconds(
            static_cast<int64_t>(gap_seconds * 1e9));
        std::this_thread::sleep_until(next);

        engine::ServeWorkItem item;
        const int cold = cold_slot[static_cast<size_t>(i)];
        if (cold >= 0) {
          item.problem = "list-membership";
          item.data = cold_parts[static_cast<size_t>(cold)];
        } else {
          item.handle = handles[static_cast<size_t>(
              rng.NextZipf(handles.size(), /*theta=*/0.99))];
        }
        item.queries = queries;
        int64_t* lat = &latency[static_cast<size_t>(i)];
        uint8_t* okp = &answered[static_cast<size_t>(i)];
        auto admit = pipeline.Submit(
            std::move(item), [lat, okp](const engine::ItemOutcome& outcome) {
              *lat = outcome.latency_ns;
              *okp = outcome.status.ok() ? 1 : 0;
            });
        if (!admit.ok()) {
          std::fprintf(stderr, "Submit refused: %s\n",
                       admit.ToString().c_str());
          return 1;  // no queue_depth configured: admission never sheds
        }
      }
      pipeline.Drain();
      auto report = pipeline.report();
      if (report.errors != 0) {
        std::fprintf(stderr, "open-loop errors: %lld (first: %s)\n",
                     static_cast<long long>(report.errors),
                     report.first_error.ToString().c_str());
        return 1;
      }

      std::vector<int64_t> all;
      std::vector<int64_t> warm;
      all.reserve(static_cast<size_t>(n));
      warm.reserve(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) {
        if (answered[static_cast<size_t>(i)] == 0) continue;
        all.push_back(latency[static_cast<size_t>(i)]);
        if (cold_slot[static_cast<size_t>(i)] < 0) {
          warm.push_back(latency[static_cast<size_t>(i)]);
        }
      }
      std::sort(all.begin(), all.end());
      std::sort(warm.begin(), warm.end());
      const int64_t p50 = PercentileSorted(all, 0.50);
      const int64_t p99 = PercentileSorted(all, 0.99);
      const int64_t p999 = PercentileSorted(all, 0.999);
      const int64_t warm_p50 = PercentileSorted(warm, 0.50);
      const int64_t warm_p99 = PercentileSorted(warm, 0.99);
      const int64_t warm_p999 = PercentileSorted(warm, 0.999);
      if (std::strcmp(traffic, "warm") == 0) {
        warm_only_p99[ri] = static_cast<double>(warm_p99);
      } else if (std::strcmp(traffic, "cold_storm") == 0) {
        storm_warm_p99[ri] = static_cast<double>(warm_p99);
      }

      std::printf("%11s %8d %9d %10.1f %10.1f %10.1f %10.1f %6lld %8lld\n",
                  traffic, rate, n, static_cast<double>(p50) / 1e3,
                  static_cast<double>(p99) / 1e3,
                  static_cast<double>(p999) / 1e3,
                  static_cast<double>(warm_p99) / 1e3,
                  static_cast<long long>(report.shed),
                  static_cast<long long>(report.pi_runs));
      if (json != nullptr) {
        std::fprintf(
            json,
            "{\"bench\":\"x3_openloop\",\"traffic\":\"%s\",\"rate\":%d,"
            "\"arrivals\":%d,\"answered\":%zu,\"queries_per_item\":%d,"
            "\"data_parts\":%d,\"cold_arrivals\":%zu,"
            "\"threads\":%d,\"preparers\":%d,"
            "\"p50_ns\":%lld,\"p99_ns\":%lld,\"p999_ns\":%lld,"
            "\"warm_p50_ns\":%lld,\"warm_p99_ns\":%lld,"
            "\"warm_p999_ns\":%lld,"
            "\"shed\":%lld,\"deadline_expired\":%lld,"
            "\"queue_depth_max\":%lld,\"preparer_busy_ns\":%lld,"
            "\"pi_runs\":%lld,\"hardware_concurrency\":%u}\n",
            traffic, rate, n, all.size(), config.queries_per_batch,
            config.data_parts, cold_parts.size(), report.threads,
            report.preparers, static_cast<long long>(p50),
            static_cast<long long>(p99), static_cast<long long>(p999),
            static_cast<long long>(warm_p50),
            static_cast<long long>(warm_p99),
            static_cast<long long>(warm_p999),
            static_cast<long long>(report.shed),
            static_cast<long long>(report.deadline_expired),
            static_cast<long long>(report.queue_depth_max),
            static_cast<long long>(report.preparer_busy_ns),
            static_cast<long long>(report.pi_runs), hw);
        ++(*json_lines);
      }
    }
  }

  // The acceptance readout: warm p99 under the cold storm vs warm-only
  // p99 at the same arrival rate. Advisory (the CI artifact carries the
  // raw rows) — timing-threshold hard-failures flake on shared runners.
  std::printf("\n[open] warm-p99 storm/baseline ratio (target <= 2x):\n");
  for (size_t ri = 0; ri < config.openloop_rates.size(); ++ri) {
    if (warm_only_p99[ri] <= 0 || storm_warm_p99[ri] <= 0) continue;
    const double ratio = storm_warm_p99[ri] / warm_only_p99[ri];
    std::printf("       rate %6d: %.1fus vs %.1fus -> %.2fx%s\n",
                config.openloop_rates[ri], storm_warm_p99[ri] / 1e3,
                warm_only_p99[ri] / 1e3, ratio,
                ratio <= 2.0 ? "" : "  (WARNING: over 2x target)");
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Fault-rate degradation: mixed open-loop traffic with a flaky Π.
// ---------------------------------------------------------------------------

int RunFaults(const Config& config, std::FILE* json, unsigned hw,
              size_t* json_lines) {
  const double fault_rates[] = {0.0, 0.01, 0.1};
  std::printf(
      "\n[faults] open-loop mixed traffic with \"store.pi_build\" armed at\n"
      "         failure rate f: each cold Π build fails with probability f\n"
      "         and rides the preparer retry (+ quarantine) policy. The\n"
      "         degradation claim: warm p99 holds while failures convert\n"
      "         to fast errors, never to stalls or wrong answers.\n\n");
  std::printf("%8s %8s %9s %10s %10s %7s %7s %9s %8s %8s\n", "f", "rate/s",
              "arrivals", "p99_us", "warmp99_us", "errors", "quar",
              "pi_fails", "retries", "pi_runs");
  std::printf(
      "----------------------------------------------------------------------"
      "--------\n");

  for (double f : fault_rates) {
    for (size_t ri = 0; ri < config.openloop_rates.size(); ++ri) {
      const int rate = config.openloop_rates[ri];
      const int n = config.openloop_arrivals;

      engine::QueryEngine eng{engine::PreparedStore::Options{}};
      auto status = engine::RegisterBuiltins(&eng);
      if (!status.ok()) {
        std::fprintf(stderr, "RegisterBuiltins failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      Rng rng(0xfa17 + static_cast<uint64_t>(rate) * 31 +
              static_cast<uint64_t>(f * 1000));

      std::vector<std::shared_ptr<const engine::DataHandle>> handles;
      for (int part = 0; part < config.data_parts; ++part) {
        auto handle = eng.Intern("list-membership",
                                 MakeMemberData(&rng, config.list_length));
        if (!handle.ok()) {
          std::fprintf(stderr, "Intern failed: %s\n",
                       handle.status().ToString().c_str());
          return 1;
        }
        handles.push_back(std::make_shared<const engine::DataHandle>(
            std::move(handle).value()));
      }
      const auto queries =
          MakeQueries(&rng, config.queries_per_batch, 2 * config.list_length);
      for (const auto& handle : handles) {
        auto warm = eng.AnswerBatch(*handle, queries);
        if (!warm.ok()) {
          std::fprintf(stderr, "warm-up failed: %s\n",
                       warm.status().ToString().c_str());
          return 1;
        }
      }

      // Mixed plan: a fresh cold part every ~32 arrivals keeps Π builds
      // (the faultable edge) flowing through the whole run.
      std::vector<int> cold_slot(static_cast<size_t>(n), -1);
      std::vector<std::string> cold_parts;
      for (int i = 0; i < n; ++i) {
        if (rng.NextBelow(32) == 0) {
          cold_slot[static_cast<size_t>(i)] =
              static_cast<int>(cold_parts.size());
          cold_parts.push_back(MakeMemberData(&rng, config.list_length));
        }
      }

      engine::PipelineOptions popts;
      popts.threads = config.openloop_threads;
      popts.preparers = config.openloop_preparers;
      popts.pi_retry_backoff_ns = 50'000;  // keep rows fast at f = 0.1

      std::vector<int64_t> latency(static_cast<size_t>(n), -1);
      std::vector<uint8_t> answered(static_cast<size_t>(n), 0);
      long long report_errors = 0;
      long long quarantined = 0;
      long long pi_failures = 0;
      long long pi_retries = 0;
      long long pi_runs = 0;
      long long shed = 0;

      {
        // Armed only around the measured run (warm-up already done), and
        // seeded from the row config so a rerun replays the same faults.
        pitract::failpoint::ScopedFailpoints guard;
        if (f > 0.0) {
          pitract::failpoint::Arm(
              "store.pi_build",
              pitract::failpoint::WithProbability(
                  f, 0x5eed + static_cast<uint64_t>(rate) +
                         static_cast<uint64_t>(f * 1000)));
        }
        engine::ServePipeline pipeline(&eng, popts);
        auto next = std::chrono::steady_clock::now();
        for (int i = 0; i < n; ++i) {
          const double u = std::min(rng.NextDouble(), 0.999999999);
          const double gap_seconds = -std::log(1.0 - u) / rate;
          next += std::chrono::nanoseconds(
              static_cast<int64_t>(gap_seconds * 1e9));
          std::this_thread::sleep_until(next);

          engine::ServeWorkItem item;
          const int cold = cold_slot[static_cast<size_t>(i)];
          if (cold >= 0) {
            item.problem = "list-membership";
            item.data = cold_parts[static_cast<size_t>(cold)];
          } else {
            item.handle = handles[static_cast<size_t>(
                rng.NextZipf(handles.size(), /*theta=*/0.99))];
          }
          item.queries = queries;
          int64_t* lat = &latency[static_cast<size_t>(i)];
          uint8_t* okp = &answered[static_cast<size_t>(i)];
          auto admit = pipeline.Submit(
              std::move(item),
              [lat, okp](const engine::ItemOutcome& outcome) {
                *lat = outcome.latency_ns;
                *okp = outcome.status.ok() ? 1 : 0;
              });
          if (!admit.ok()) {
            std::fprintf(stderr, "Submit refused: %s\n",
                         admit.ToString().c_str());
            return 1;
          }
        }
        pipeline.Drain();
        auto report = pipeline.report();
        // Errors are the *measurement* here, not a harness failure: at
        // f > 0 some cold items terminally fail or quarantine by design.
        report_errors = report.errors;
        quarantined = report.quarantined;
        pi_failures = report.pi_failures;
        pi_retries = report.pi_retries;
        pi_runs = report.pi_runs;
        shed = report.shed;
        if (f == 0.0 && report.errors != 0) {
          std::fprintf(stderr, "fault-free row saw errors: %s\n",
                       report.first_error.ToString().c_str());
          return 1;
        }
      }

      std::vector<int64_t> all;
      std::vector<int64_t> warm;
      for (int i = 0; i < n; ++i) {
        if (answered[static_cast<size_t>(i)] == 0) continue;
        all.push_back(latency[static_cast<size_t>(i)]);
        if (cold_slot[static_cast<size_t>(i)] < 0) {
          warm.push_back(latency[static_cast<size_t>(i)]);
        }
      }
      std::sort(all.begin(), all.end());
      std::sort(warm.begin(), warm.end());
      const int64_t p50 = PercentileSorted(all, 0.50);
      const int64_t p99 = PercentileSorted(all, 0.99);
      const int64_t p999 = PercentileSorted(all, 0.999);
      const int64_t warm_p99 = PercentileSorted(warm, 0.99);

      std::printf(
          "%8.2f %8d %9d %10.1f %10.1f %7lld %7lld %9lld %8lld %8lld\n", f,
          rate, n, static_cast<double>(p99) / 1e3,
          static_cast<double>(warm_p99) / 1e3, report_errors, quarantined,
          pi_failures, pi_retries, pi_runs);
      if (json != nullptr) {
        std::fprintf(
            json,
            "{\"bench\":\"x3_faults\",\"fault_rate\":%.3f,\"rate\":%d,"
            "\"arrivals\":%d,\"answered\":%zu,\"cold_arrivals\":%zu,"
            "\"threads\":%d,\"preparers\":%d,"
            "\"p50_ns\":%lld,\"p99_ns\":%lld,\"p999_ns\":%lld,"
            "\"warm_p99_ns\":%lld,\"errors\":%lld,\"shed\":%lld,"
            "\"quarantined\":%lld,\"pi_failures\":%lld,\"pi_retries\":%lld,"
            "\"pi_runs\":%lld,\"hardware_concurrency\":%u}\n",
            f, rate, n, all.size(), cold_parts.size(),
            config.openloop_threads, config.openloop_preparers,
            static_cast<long long>(p50), static_cast<long long>(p99),
            static_cast<long long>(p999), static_cast<long long>(warm_p99),
            report_errors, shed, quarantined, pi_failures, pi_retries,
            pi_runs, hw);
        ++(*json_lines);
      }
    }
  }
  std::printf(
      "\n[faults] Reading: a flaky Π costs retries (and at f=0.1 a few\n"
      "         terminal failures + quarantined items), but the warm tail\n"
      "         holds — failures degrade to fast errors on the cold\n"
      "         subset, never to head-of-line stalls on warm traffic.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  const char* json_path = "BENCH_x3_concurrency.json";
  bool openloop = false;
  bool faults = false;
  std::vector<int> requested_numbers;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "tiny") == 0) {
      // CI smoke: small enough for a single runner, same code paths.
      config.data_parts = 4;
      config.list_length = 256;
      config.queries_per_batch = 16;
      config.repeat = 4;
      config.contention_items = 32;
      config.contention_repeat = 8;
      config.thread_counts = {1, 2};
      config.openloop_rates = {500, 2000};
      config.openloop_arrivals = 600;
      config.openloop_cold_parts = 16;
    } else if (std::strcmp(argv[i], "openloop") == 0) {
      openloop = true;  // run only the open-loop section
    } else if (std::strcmp(argv[i], "faults") == 0) {
      faults = true;  // run only the fault-degradation section
    } else if (argv[i][0] >= '0' && argv[i][0] <= '9') {
      requested_numbers.push_back(std::atoi(argv[i]));
    } else {
      json_path = argv[i];
    }
  }
  if (!requested_numbers.empty()) {
    // Plain numbers are thread counts for the closed-loop sections, or
    // arrival rates when `openloop` or `faults` is requested.
    (openloop || faults ? config.openloop_rates : config.thread_counts) =
        requested_numbers;
  }

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf(
      "X3b | The engine as a concurrent serving layer.\n"
      "hardware_concurrency: %u\n\n", hw);

  std::FILE* json = std::fopen(json_path, "a");
  if (json == nullptr) {
    std::fprintf(stderr, "warning: cannot open %s for append; JSON lines "
                 "skipped\n", json_path);
  }

  size_t json_lines = 0;
  int rc = 0;
  if (faults) {
    rc = RunFaults(config, json, hw, &json_lines);
  } else if (openloop) {
    rc = RunOpenLoop(config, json, hw, &json_lines);
  } else {
    rc = RunColdScaling(config, json, hw, &json_lines);
    if (rc == 0) rc = RunWarmContention(config, json, hw, &json_lines);
  }
  if (json != nullptr) {
    std::fclose(json);
    if (rc == 0) {
      std::printf("\n(appended %zu JSON lines to %s)\n", json_lines,
                  json_path);
    }
  }
  if (rc != 0) return rc;
  if (faults) return 0;  // RunFaults prints its own reading
  if (openloop) {
    std::printf(
        "\nReading: open-loop latency includes queueing delay, so the tail\n"
        "is what a caller actually waits. The completion pipeline keeps the\n"
        "cold storm's Π runs on the preparer pool: warm items keep flowing\n"
        "through the lock-free snapshot path, so their p99 under the storm\n"
        "should sit within ~2x of the warm-only baseline at the same rate.\n");
    return 0;
  }
  std::printf(
      "\nReading: Π executed exactly once per data part at every thread\n"
      "count, and warm hits never took a lock. Past the miss storm the\n"
      "stream is pure NC answering over published snapshots, so\n"
      "throughput scales with threads until the hardware runs out.\n");
  return 0;
}
