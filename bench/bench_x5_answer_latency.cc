// X5 — warm answer-path latency: wall-clock ns/query vs |D|.
//
// The paper's bound makes a warm query O(polylog |D|) in *charged* cost,
// but a serving layer only earns it in wall-clock terms if nothing on the
// warm path re-touches the whole data part. This harness measures exactly
// that, per view-enabled builtin, on a warm PreparedStore:
//
//   * path=view   — the decoded Π-view layer (PiWitness::deserialize,
//     memoized per store entry, probed by answer_view_batch): expected
//     *flat* ns/query as |D| doubles;
//   * path=string — the same witnesses with their view and batch hooks
//     cleared before registration, so every query re-decodes the
//     Σ*-encoded Π(D): expected ns/query growing linearly in |D|;
//   * metric=admission — per-batch overhead of the string-keyed
//     AnswerBatch (O(|D|) key hash + compare per batch) against the
//     digest-handle AnswerBatch (QueryEngine::Intern pays it once); the
//     handle loop must leave PreparedStore::Stats::key_builds untouched,
//     checked here and enforced again in engine_test.
//   * metric=batch — the vectorised kernel layer (answer_view_batch, one
//     pre-decoded span per batch) across batch sizes; rows report
//     queries/sec/core and bytes/query so the remaining distance to the
//     hardware's random-access floor is visible.
//
// One JSON line per measurement is appended to BENCH_x5_answer_latency.json
// (or argv[1]) in the f2_landscape trajectory convention. Every row carries
// `batch` (queries per AnswerBatch call) and `hardware_concurrency`
// (matching the x3 row convention) so cross-runner numbers are
// interpretable. A trailing "tiny" argument shrinks every size so CI can
// smoke the emitters.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "circuit/generators.h"
#include "common/rng.h"
#include "core/problems.h"
#include "engine/builtins.h"
#include "engine/engine.h"
#include "graph/generators.h"

namespace {

using pitract::Rng;
namespace core = pitract::core;
namespace engine = pitract::engine;

constexpr int kQueriesPerBatch = 64;

struct Workload {
  std::string data;
  std::vector<std::string> queries;  // warm-path queries
};

Workload MakeMemberWorkload(int64_t n, Rng* rng,
                            int num_queries = kQueriesPerBatch) {
  const int64_t universe = 4 * n;
  std::vector<int64_t> list;
  list.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    list.push_back(static_cast<int64_t>(
        rng->NextBelow(static_cast<uint64_t>(universe))));
  }
  Workload w;
  w.data = core::MemberFactorization()
               .pi1(core::MakeMemberInstance(universe, list, 0))
               .value();
  for (int i = 0; i < num_queries; ++i) {
    w.queries.push_back(std::to_string(
        rng->NextBelow(static_cast<uint64_t>(universe))));
  }
  return w;
}

Workload MakeGraphWorkload(int64_t n, Rng* rng, bool bds,
                           int num_queries = kQueriesPerBatch) {
  auto g = pitract::graph::ErdosRenyi(static_cast<pitract::graph::NodeId>(n),
                                      2 * n, /*directed=*/false, rng);
  Workload w;
  w.data = bds ? core::BdsFactorization()
                     .pi1(core::MakeBdsInstance(g, 0, 0))
                     .value()
               : core::ConnFactorization()
                     .pi1(core::MakeConnInstance(g, 0, 0))
                     .value();
  for (int i = 0; i < num_queries; ++i) {
    const auto u = rng->NextBelow(static_cast<uint64_t>(n));
    const auto v = rng->NextBelow(static_cast<uint64_t>(n));
    w.queries.push_back(std::to_string(u) + "#" + std::to_string(v));
  }
  return w;
}

Workload MakeGvpWorkload(int64_t n, Rng* rng, int num_queries) {
  pitract::circuit::CircuitGenOptions copts;
  copts.num_inputs = 16;
  copts.num_gates = static_cast<int32_t>(n);
  auto instance = pitract::circuit::RandomCvpInstance(copts, rng);
  Workload w;
  w.data = core::GvpFactorization()
               .pi1(core::MakeGvpInstance(instance, 0))
               .value();
  const auto gates = static_cast<uint64_t>(instance.circuit.num_gates());
  for (int i = 0; i < num_queries; ++i) {
    w.queries.push_back(std::to_string(rng->NextBelow(gates)));
  }
  return w;
}

Workload MakeReachWorkload(int64_t n, Rng* rng, int num_queries) {
  auto g = pitract::graph::ErdosRenyi(static_cast<pitract::graph::NodeId>(n),
                                      2 * n, /*directed=*/true, rng);
  Workload w;
  w.data = core::ReachFactorization()
               .pi1(core::MakeReachInstance(g, 0, 0))
               .value();
  for (int i = 0; i < num_queries; ++i) {
    const auto u = rng->NextBelow(static_cast<uint64_t>(n));
    const auto v = rng->NextBelow(static_cast<uint64_t>(n));
    w.queries.push_back(std::to_string(u) + "#" + std::to_string(v));
  }
  return w;
}

/// Registers every builtin into `eng` on its string `answer` path only:
/// each entry is copied out of DefaultEngine() with its view and batch
/// hooks cleared (and fresh cost profiles), so every query re-decodes Π(D).
pitract::Status RegisterStringPathBuiltins(engine::QueryEngine* eng) {
  auto strip = [](core::PiWitness* w) {
    w->deserialize = nullptr;
    w->answer_view = nullptr;
    w->decode_query = nullptr;
    w->answer_view_batch = nullptr;
  };
  engine::QueryEngine& builtins = engine::DefaultEngine();
  for (const std::string& name : builtins.Names()) {
    engine::ProblemEntry entry = *builtins.Find(name).value();
    entry.witness_profile = nullptr;
    strip(&entry.witness);
    for (engine::WitnessAlternative& alt : entry.alternatives) {
      alt.profile = nullptr;
      strip(&alt.witness);
    }
    PITRACT_RETURN_IF_ERROR(eng->Register(std::move(entry)));
  }
  return pitract::Status::OK();
}

struct LatencyPoint {
  double ns_per_query = -1;
  double answer_work_per_query = -1;
  double bytes_per_query = -1;
  long long batches = 0;
  long long kernel_batches = 0;
};

/// Warm-store steady state: answer the same batch until `min_ns` elapsed
/// (at least twice), so fast paths average over many batches while the
/// slow string path at large |D| still terminates.
LatencyPoint MeasureWarm(engine::QueryEngine* eng,
                         const engine::DataHandle& handle,
                         const std::vector<std::string>& queries,
                         long long min_ns, long long max_batches) {
  LatencyPoint point;
  long long answered = 0;
  long long answer_work = 0;
  long long answer_bytes = 0;
  pitract_bench::WallTimer timer;
  while ((timer.ElapsedNs() < min_ns || point.batches < 2) &&
         point.batches < max_batches) {
    auto batch = eng->AnswerBatch(handle, queries);
    if (!batch.ok()) {
      std::fprintf(stderr, "warm batch failed: %s\n",
                   batch.status().ToString().c_str());
      return point;
    }
    ++point.batches;
    if (batch->mode == engine::BatchAnswerMode::kKernel) {
      ++point.kernel_batches;
    }
    answered += static_cast<long long>(batch->answers.size());
    answer_work += batch->answer_cost.work;
    answer_bytes += batch->answer_bytes_read;
  }
  const long long total_ns = timer.ElapsedNs();
  if (answered > 0) {
    point.ns_per_query = static_cast<double>(total_ns) / answered;
    point.answer_work_per_query =
        static_cast<double>(answer_work) / answered;
    point.bytes_per_query = static_cast<double>(answer_bytes) / answered;
  }
  return point;
}

/// Per-batch admission overhead on a warm store: single-query batches, so
/// the key build dominates the string-keyed flavor at large |D|.
double MeasureAdmissionNsPerBatch(engine::QueryEngine* eng,
                                  const std::string& problem,
                                  const std::string& data,
                                  const engine::DataHandle* handle,
                                  const std::vector<std::string>& queries,
                                  long long min_ns, long long max_batches) {
  std::vector<std::string> one{queries.front()};
  long long batches = 0;
  pitract_bench::WallTimer timer;
  while ((timer.ElapsedNs() < min_ns || batches < 2) &&
         batches < max_batches) {
    auto batch = handle != nullptr ? eng->AnswerBatch(*handle, one)
                                   : eng->AnswerBatch(problem, data, one);
    if (!batch.ok()) return -1;
    ++batches;
  }
  return static_cast<double>(timer.ElapsedNs()) /
         static_cast<double>(batches);
}

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "X5 | Warm answer-path latency: wall-clock ns/query vs |D| on a warm\n"
      "     store. path=view answers through memoized decoded Π-views and\n"
      "     must stay flat in |D|; path=string re-decodes Π(D) per query\n"
      "     and grows with |D|. metric=admission contrasts per-batch\n"
      "     O(|D|) key hashing (string keys) with digest handles (zero).\n\n");
  const char* json_path = "BENCH_x5_answer_latency.json";
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "tiny") == 0) {
      tiny = true;
    } else {
      json_path = argv[i];
    }
  }
  std::FILE* json = std::fopen(json_path, "a");
  if (json == nullptr) {
    std::fprintf(stderr,
                 "warning: cannot open %s for append; JSON lines skipped\n",
                 json_path);
  }
  const int hardware_concurrency =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const long long min_ns = tiny ? 2'000'000 : 50'000'000;
  const long long max_batches = tiny ? 8 : 4096;
  const std::vector<int64_t> sizes =
      tiny ? std::vector<int64_t>{1 << 7}
           : std::vector<int64_t>{1 << 10, 1 << 13, 1 << 16};
  const char* kCases[] = {"list-membership", "connectivity",
                          "breadth-depth-search"};

  size_t json_lines = 0;
  int failures = 0;
  std::printf("%-22s %8s %14s %14s %9s\n", "case", "n", "view ns/q",
              "string ns/q", "speedup");
  std::printf(
      "----------------------------------------------------------------------"
      "\n");
  for (const char* case_name : kCases) {
    for (int64_t n : sizes) {
      Rng rng(0x9e05 + static_cast<uint64_t>(n));
      Workload w;
      if (std::strcmp(case_name, "list-membership") == 0) {
        w = MakeMemberWorkload(n, &rng);
      } else {
        w = MakeGraphWorkload(
            n, &rng,
            std::strcmp(case_name, "breadth-depth-search") == 0);
      }

      // Two engines over identical data: decoded views on vs stripped.
      engine::QueryEngine view_eng;
      engine::QueryEngine string_eng;
      if (!engine::RegisterBuiltins(&view_eng).ok() ||
          !RegisterStringPathBuiltins(&string_eng).ok()) {
        return 1;
      }
      auto view_handle = view_eng.Intern(case_name, w.data);
      auto string_handle = string_eng.Intern(case_name, w.data);
      if (!view_handle.ok() || !string_handle.ok()) {
        ++failures;
        continue;
      }
      // Warm both stores: one miss each, Π runs once per engine.
      if (!view_eng.AnswerBatch(*view_handle, w.queries).ok() ||
          !string_eng.AnswerBatch(*string_handle, w.queries).ok()) {
        ++failures;
        continue;
      }

      const auto key_builds_before = view_eng.store().stats().key_builds;
      LatencyPoint view_point =
          MeasureWarm(&view_eng, *view_handle, w.queries, min_ns,
                      max_batches);
      if (view_eng.store().stats().key_builds != key_builds_before) {
        std::fprintf(stderr,
                     "FAIL: warm handle batches built O(|D|) keys\n");
        ++failures;
      }
      LatencyPoint string_point =
          MeasureWarm(&string_eng, *string_handle, w.queries, min_ns,
                      max_batches);
      const double speedup =
          view_point.ns_per_query > 0
              ? string_point.ns_per_query / view_point.ns_per_query
              : -1;
      std::printf("%-22s %8lld %14.1f %14.1f %8.1fx\n", case_name,
                  static_cast<long long>(n), view_point.ns_per_query,
                  string_point.ns_per_query, speedup);
      if (json != nullptr) {
        std::fprintf(json,
                     "{\"bench\":\"x5_answer_latency\",\"case\":\"%s\","
                     "\"n\":%lld,\"path\":\"view\",\"batch\":%d,"
                     "\"batches\":%lld,\"ns_per_query\":%.1f,"
                     "\"answer_work_per_query\":%.1f,"
                     "\"hardware_concurrency\":%d}\n",
                     case_name, static_cast<long long>(n), kQueriesPerBatch,
                     view_point.batches, view_point.ns_per_query,
                     view_point.answer_work_per_query, hardware_concurrency);
        std::fprintf(json,
                     "{\"bench\":\"x5_answer_latency\",\"case\":\"%s\","
                     "\"n\":%lld,\"path\":\"string\",\"batch\":%d,"
                     "\"batches\":%lld,\"ns_per_query\":%.1f,"
                     "\"answer_work_per_query\":%.1f,"
                     "\"hardware_concurrency\":%d}\n",
                     case_name, static_cast<long long>(n), kQueriesPerBatch,
                     string_point.batches, string_point.ns_per_query,
                     string_point.answer_work_per_query,
                     hardware_concurrency);
        json_lines += 2;
      }

      // Admission: digest-handle batches vs per-batch string keys, both on
      // the warm view engine (the comparison isolates the key build).
      const double handle_ns = MeasureAdmissionNsPerBatch(
          &view_eng, case_name, w.data, &*view_handle, w.queries,
          min_ns / 4, max_batches);
      const double string_ns = MeasureAdmissionNsPerBatch(
          &view_eng, case_name, w.data, nullptr, w.queries, min_ns / 4,
          max_batches);
      if (json != nullptr && handle_ns > 0 && string_ns > 0) {
        std::fprintf(json,
                     "{\"bench\":\"x5_answer_latency\",\"case\":\"%s\","
                     "\"n\":%lld,\"metric\":\"admission\",\"batch\":1,"
                     "\"handle_ns_per_batch\":%.1f,"
                     "\"string_key_ns_per_batch\":%.1f,"
                     "\"hardware_concurrency\":%d}\n",
                     case_name, static_cast<long long>(n), handle_ns,
                     string_ns, hardware_concurrency);
        ++json_lines;
      }
    }
  }

  // --- metric=batch: the vectorised kernel layer across batch sizes.
  //
  // Same warm-store steady state, but sweeping the batch size: each
  // AnswerBatch call is answered by one answer_view_batch kernel (queries
  // pre-decoded once per batch). Kernel batches must stay lock-free and
  // key-build-free like every other warm handle batch.
  const std::vector<int> batch_sizes =
      tiny ? std::vector<int>{8, 64} : std::vector<int>{16, 64, 256, 1024};
  const int max_batch = *std::max_element(batch_sizes.begin(),
                                          batch_sizes.end());
  struct BatchCase {
    const char* name;
    int64_t n;
  };
  // The reach closure is O(n^2) bits, so its |D| stays modest; the rest
  // use the large size where per-query overhead dominates visibly.
  const int64_t big = tiny ? (1 << 7) : (1 << 16);
  const std::vector<BatchCase> batch_cases = {
      {"list-membership", big},
      {"cvp-refactorized", big},
      {"connectivity", big},
      {"breadth-depth-search", big},
      {"graph-reachability", tiny ? (1 << 6) : (1 << 10)},
  };

  std::printf("\n%-22s %8s %6s %12s %11s %7s\n", "case", "n", "batch",
              "kernel ns/q", "Mq/s/core", "B/query");
  std::printf(
      "----------------------------------------------------------------------"
      "-\n");
  for (const BatchCase& bc : batch_cases) {
    Rng rng(0xba7c4 + static_cast<uint64_t>(bc.n));
    Workload w;
    if (std::strcmp(bc.name, "list-membership") == 0) {
      w = MakeMemberWorkload(bc.n, &rng, max_batch);
    } else if (std::strcmp(bc.name, "cvp-refactorized") == 0) {
      w = MakeGvpWorkload(bc.n, &rng, max_batch);
    } else if (std::strcmp(bc.name, "graph-reachability") == 0) {
      w = MakeReachWorkload(bc.n, &rng, max_batch);
    } else {
      w = MakeGraphWorkload(
          bc.n, &rng, std::strcmp(bc.name, "breadth-depth-search") == 0,
          max_batch);
    }

    engine::QueryEngine kernel_eng;
    if (!engine::RegisterBuiltins(&kernel_eng).ok()) return 1;
    auto kernel_handle = kernel_eng.Intern(bc.name, w.data);
    if (!kernel_handle.ok() ||
        !kernel_eng.AnswerBatch(*kernel_handle, w.queries).ok()) {
      ++failures;
      continue;
    }

    for (int batch_size : batch_sizes) {
      const std::vector<std::string> queries(
          w.queries.begin(), w.queries.begin() + batch_size);
      const auto stats_before = kernel_eng.store().stats();
      LatencyPoint kernel_point = MeasureWarm(
          &kernel_eng, *kernel_handle, queries, min_ns, max_batches);
      const auto stats_after = kernel_eng.store().stats();
      if (stats_after.key_builds != stats_before.key_builds ||
          stats_after.locked_hits != stats_before.locked_hits) {
        std::fprintf(stderr,
                     "FAIL: warm kernel batches built keys or took locks\n");
        ++failures;
      }
      if (kernel_point.kernel_batches != kernel_point.batches) {
        std::fprintf(stderr,
                     "FAIL: %s answered %lld of %lld warm batches without "
                     "the kernel\n",
                     bc.name, kernel_point.batches - kernel_point.kernel_batches,
                     kernel_point.batches);
        ++failures;
      }
      const double kernel_qps_per_core =
          kernel_point.ns_per_query > 0 ? 1e9 / kernel_point.ns_per_query
                                        : -1;
      std::printf("%-22s %8lld %6d %12.1f %11.1f %7.1f\n", bc.name,
                  static_cast<long long>(bc.n), batch_size,
                  kernel_point.ns_per_query, kernel_qps_per_core / 1e6,
                  kernel_point.bytes_per_query);
      if (json != nullptr) {
        std::fprintf(json,
                     "{\"bench\":\"x5_answer_latency\",\"case\":\"%s\","
                     "\"n\":%lld,\"metric\":\"batch\",\"batch\":%d,"
                     "\"path\":\"kernel\",\"batches\":%lld,"
                     "\"ns_per_query\":%.1f,\"qps_per_core\":%.0f,"
                     "\"bytes_per_query\":%.1f,"
                     "\"answer_work_per_query\":%.1f,"
                     "\"hardware_concurrency\":%d,"
                     "\"store\":%s}\n",
                     bc.name, static_cast<long long>(bc.n), batch_size,
                     kernel_point.batches, kernel_point.ns_per_query,
                     kernel_qps_per_core, kernel_point.bytes_per_query,
                     kernel_point.answer_work_per_query,
                     hardware_concurrency,
                     // The whole store-counter blob (the key_builds /
                     // locked_hits lock-free proof included) in one
                     // Stats::ToJson() object instead of picked fields.
                     stats_after.ToJson().c_str());
        ++json_lines;
      }
    }
  }

  if (json != nullptr) {
    std::fclose(json);
    std::printf("\n(appended %zu JSON lines to %s)\n", json_lines, json_path);
  }
  std::printf(
      "\nReading: view ns/query stays flat as |D| doubles (the decoded-view\n"
      "layer probes a memoized typed structure); string ns/query tracks |D|\n"
      "(every warm query re-decodes the whole Π(D) payload). The admission\n"
      "lines show the per-batch O(|D|) key hash the digest handles delete.\n"
      "The batch table shows the vectorised kernels amortizing dispatch,\n"
      "parsing and metering to once per batch, with bytes/query exposing\n"
      "the remaining gap to the memory's random-access floor.\n");
  return failures == 0 ? 0 : 1;
}
