// Social-network reachability with query-preserving compression.
//
// The Section 4(5) scenario (after Fan et al. [16]): a skewed follower
// graph is compressed by reachability equivalence, then "can influence
// reach from u to v?" queries are answered exactly on the compressed
// structure. The example reports the compression ratio, validates answers
// against per-query BFS, and contrasts the two cost profiles; it also runs
// the bisimulation quotient used for pattern queries.
//
// Run:  ./build/examples/social_network [num_users]

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include <filesystem>

#include "common/rng.h"
#include "common/timer.h"
#include "compress/bisim_compress.h"
#include "compress/reach_compress.h"
#include "core/problems.h"
#include "engine/builtins.h"
#include "engine/engine.h"
#include "engine/pipeline.h"
#include "engine/serve.h"
#include "graph/algos.h"
#include "graph/generators.h"

int main(int argc, char** argv) {
  using pitract::CostMeter;
  const pitract::graph::NodeId num_users =
      argc > 1 ? static_cast<pitract::graph::NodeId>(std::atoi(argv[1])) : 3000;
  if (num_users <= 0) {
    std::fprintf(stderr, "usage: social_network [num_users > 0]\n");
    return 2;
  }

  std::printf("== pitract: influence reachability on a social graph ==\n\n");

  // Preferential-attachment "follows" graph, oriented old -> new (a
  // citation-style DAG with hubs), plus some mutual-follow back-edges that
  // create SCCs.
  pitract::Rng rng(7);
  pitract::graph::Graph undirected =
      pitract::graph::PreferentialAttachment(num_users, 3, &rng);
  std::vector<std::pair<pitract::graph::NodeId, pitract::graph::NodeId>> arcs;
  for (auto [u, v] : undirected.Edges()) {
    auto lo = std::min(u, v);
    auto hi = std::max(u, v);
    arcs.emplace_back(lo, hi);
    if (rng.NextBool(0.15)) arcs.emplace_back(hi, lo);  // mutual follow
  }
  auto graph_or = pitract::graph::Graph::FromEdges(num_users, arcs, true);
  if (!graph_or.ok()) {
    std::fprintf(stderr, "graph build failed\n");
    return 1;
  }
  const pitract::graph::Graph& g = *graph_or;
  std::printf("G: %d users, %" PRId64 " follow arcs (%.2f MB)\n\n",
              g.num_nodes(), g.num_edges(),
              static_cast<double>(g.EstimateBytes()) / 1e6);

  // Preprocess: query-preserving compression.
  CostMeter preprocess_cost;
  pitract::Timer build_timer;
  auto compressed =
      pitract::compress::ReachCompressed::Build(g, &preprocess_cost);
  std::printf("Pi(D): reachability-equivalence compression in %.1f ms\n",
              build_timer.ElapsedMillis());
  std::printf("  |Dc| = %d classes for %d users  (node ratio %.3f)\n\n",
              compressed.compressed().num_nodes(), g.num_nodes(),
              compressed.NodeRatio());

  // Answer a query batch on Dc and cross-check against BFS on D.
  const int kQueries = 200;
  CostMeter compressed_cost, bfs_cost;
  int64_t positive = 0;
  for (int qi = 0; qi < kQueries; ++qi) {
    auto u = static_cast<pitract::graph::NodeId>(
        rng.NextBelow(static_cast<uint64_t>(num_users)));
    auto v = static_cast<pitract::graph::NodeId>(
        rng.NextBelow(static_cast<uint64_t>(num_users)));
    auto fast = compressed.Reachable(u, v, &compressed_cost);
    bool slow = pitract::graph::BfsReachable(g, u, v, &bfs_cost);
    if (!fast.ok() || *fast != slow) {
      std::fprintf(stderr, "MISMATCH at (%d, %d)!\n", u, v);
      return 1;
    }
    if (slow) ++positive;
  }
  std::printf("%d queries (%.0f%% positive), answers identical on D and Dc\n",
              kQueries, 100.0 * static_cast<double>(positive) / kQueries);
  std::printf("  per-query BFS on D:   work = %" PRId64 " ops total\n",
              bfs_cost.work());
  std::printf("  probes on Dc:         work = %" PRId64 " ops total (%.0fx less)\n\n",
              compressed_cost.work(),
              static_cast<double>(bfs_cost.work()) /
                  static_cast<double>(
                      compressed_cost.work() ? compressed_cost.work() : 1));

  // Mutual-reachability ("same community") queries through the engine: the
  // undirected friendship graph is the data part of L_conn; one batch call
  // preprocesses component labels once and answers every probe in O(1).
  {
    auto& engine = pitract::engine::DefaultEngine();
    std::string conn_data =
        pitract::core::ConnFactorization()
            .pi1(pitract::core::MakeConnInstance(undirected, 0, 0))
            .value();
    std::vector<std::string> probes;
    for (int qi = 0; qi < 200; ++qi) {
      auto u = rng.NextBelow(static_cast<uint64_t>(num_users));
      auto v = rng.NextBelow(static_cast<uint64_t>(num_users));
      probes.push_back(std::to_string(u) + "#" + std::to_string(v));
    }
    auto batch = engine.AnswerBatch("connectivity", conn_data, probes);
    if (!batch.ok()) {
      std::fprintf(stderr, "connectivity batch failed: %s\n",
                   batch.status().ToString().c_str());
      return 1;
    }
    int64_t connected = 0;
    for (bool answer : batch->answers) connected += answer ? 1 : 0;
    std::printf("200 same-community probes via the engine: Pi ran %" PRId64
                " time (component labels),\n  answering work %" PRId64
                " ops total; %" PRId64 "/200 pairs connected\n\n",
                batch->prepare_runs, batch->answer_cost.work, connected);

    // The same probes as *concurrent traffic*: four worker threads replay
    // the batch 16 times through the serving layer. The sharded store
    // dedups in-flight Pi, so preprocessing still runs zero extra times
    // (the warm entry from the batch above serves everyone).
    pitract::engine::ServeWorkItem item;
    item.problem = "connectivity";
    item.data = conn_data;
    item.queries = probes;
    pitract::engine::PipelineOptions pipeline_options;
    pipeline_options.threads = 4;
    pitract::engine::ServeReport report;
    const pitract::Timer serve_timer;
    {
      pitract::engine::ServePipeline pipeline(&engine, pipeline_options);
      pipeline.SubmitWorkload(
          std::span<const pitract::engine::ServeWorkItem>(&item, 1),
          /*repeat=*/16);
      pipeline.Drain();
      report = pipeline.report();
    }
    const double serve_seconds = serve_timer.ElapsedSeconds();
    if (report.errors != 0) {
      std::fprintf(stderr, "concurrent serving failed: %s\n",
                   report.first_error.ToString().c_str());
      return 1;
    }
    std::printf("concurrent serving (4 threads x 16 passes): %" PRId64
                " queries at %.0f q/s,\n  Pi re-ran %" PRId64
                " times (in-flight dedup + warm store)\n\n",
                report.queries,
                serve_seconds > 0
                    ? static_cast<double>(report.queries) / serve_seconds
                    : 0.0,
                report.pi_runs);

    // Nightly-restart drill: spill the warm Pi(D) structures, rehydrate a
    // fresh engine from disk, and answer the same batch with zero
    // recomputation — the store survives the process.
    const std::filesystem::path spill_dir =
        std::filesystem::temp_directory_path() / "pitract_social_spill";
    if (engine.store().Spill(spill_dir.string()).ok()) {
      pitract::engine::QueryEngine restarted;
      if (pitract::engine::RegisterBuiltins(&restarted).ok() &&
          restarted.store().Load(spill_dir.string()).ok()) {
        auto warm = restarted.AnswerBatch("connectivity", conn_data, probes);
        if (warm.ok()) {
          std::printf("after spill -> restart -> load: Pi ran %" PRId64
                      " times (warm cache survived the restart)\n\n",
                      warm->prepare_runs);
        }
      }
      std::filesystem::remove_all(spill_dir);
    }
  }

  // Bisimulation quotient for pattern queries: label users by activity tier.
  std::vector<int32_t> labels(static_cast<size_t>(num_users));
  for (auto& l : labels) l = static_cast<int32_t>(rng.NextBelow(4));
  auto bisim = pitract::compress::BisimCompressed::Build(g, labels, nullptr);
  if (!bisim.ok()) {
    std::fprintf(stderr, "bisimulation failed\n");
    return 1;
  }
  std::printf("Bisimulation quotient for pattern queries: %d blocks (ratio %.3f)\n",
              bisim->num_blocks(), bisim->NodeRatio());
  CostMeter pattern_cost;
  bool has_path = bisim->HasLabelPath({0, 1, 2}, &pattern_cost);
  std::printf("  pattern tier0->tier1->tier2 path exists: %s "
              "(answered on the quotient alone, %" PRId64 " ops)\n",
              has_path ? "yes" : "no", pattern_cost.work());
  return 0;
}
