#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/algos.h"
#include "graph/generators.h"
#include "incremental/delta_index.h"
#include "incremental/incremental_tc.h"
#include "reach/reachability.h"

namespace pitract {
namespace incremental {
namespace {

// ---------------------------------------------------------------------------
// Incremental transitive closure
// ---------------------------------------------------------------------------

TEST(IncrementalTcTest, PathBuiltEdgeByEdge) {
  IncrementalTransitiveClosure tc(5);
  CostMeter m;
  EXPECT_EQ(*tc.InsertEdge(0, 1, &m), 1);  // (0,1)
  EXPECT_EQ(*tc.InsertEdge(1, 2, &m), 2);  // (1,2), (0,2)
  EXPECT_EQ(*tc.InsertEdge(2, 3, &m), 3);  // (2,3), (1,3), (0,3)
  EXPECT_TRUE(*tc.Reachable(0, 3, &m));
  EXPECT_FALSE(*tc.Reachable(3, 0, &m));
  EXPECT_EQ(tc.NumReachablePairs(), 5 + 3 + 2 + 1);  // reflexive + new
}

TEST(IncrementalTcTest, RedundantInsertIsConstantWork) {
  IncrementalTransitiveClosure tc(100);
  ASSERT_TRUE(tc.InsertEdge(0, 1, nullptr).ok());
  ASSERT_TRUE(tc.InsertEdge(1, 2, nullptr).ok());
  auto changed = tc.InsertEdge(0, 2, nullptr);  // already implied
  ASSERT_TRUE(changed.ok());
  EXPECT_EQ(*changed, 0);
  EXPECT_EQ(tc.last_insert_work(), 1)
      << "bounded incremental: no-op changes cost O(1)";
}

TEST(IncrementalTcTest, CycleMakesEverythingMutual) {
  IncrementalTransitiveClosure tc(4);
  for (graph::NodeId i = 0; i < 4; ++i) {
    ASSERT_TRUE(tc.InsertEdge(i, (i + 1) % 4, nullptr).ok());
  }
  for (graph::NodeId u = 0; u < 4; ++u) {
    for (graph::NodeId v = 0; v < 4; ++v) {
      EXPECT_TRUE(*tc.Reachable(u, v, nullptr));
    }
  }
}

TEST(IncrementalTcTest, RejectsBadIds) {
  IncrementalTransitiveClosure tc(3);
  EXPECT_FALSE(tc.InsertEdge(0, 3, nullptr).ok());
  EXPECT_FALSE(tc.Reachable(-1, 0, nullptr).ok());
}

struct TcParam {
  uint64_t seed;
  graph::NodeId n;
  int inserts;
};

class IncrementalTcPropertyTest : public ::testing::TestWithParam<TcParam> {};

TEST_P(IncrementalTcPropertyTest, AgreesWithFromScratchClosure) {
  const auto param = GetParam();
  Rng rng(param.seed);
  IncrementalTransitiveClosure tc(param.n);
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
  for (int step = 0; step < param.inserts; ++step) {
    auto u = static_cast<graph::NodeId>(
        rng.NextBelow(static_cast<uint64_t>(param.n)));
    auto v = static_cast<graph::NodeId>(
        rng.NextBelow(static_cast<uint64_t>(param.n)));
    auto before = tc.NumReachablePairs();
    auto changed = tc.InsertEdge(u, v, nullptr);
    ASSERT_TRUE(changed.ok());
    EXPECT_EQ(tc.NumReachablePairs(), before + *changed)
        << "|CHANGED| accounting must be exact";
    edges.emplace_back(u, v);
    if (step % 10 == 9) {
      // Differential check against a from-scratch closure.
      auto g = graph::Graph::FromEdges(param.n, edges, true);
      ASSERT_TRUE(g.ok());
      auto matrix = reach::ReachabilityMatrix::Build(*g);
      for (int probe = 0; probe < 50; ++probe) {
        auto a = static_cast<graph::NodeId>(
            rng.NextBelow(static_cast<uint64_t>(param.n)));
        auto b = static_cast<graph::NodeId>(
            rng.NextBelow(static_cast<uint64_t>(param.n)));
        ASSERT_EQ(*tc.Reachable(a, b, nullptr),
                  matrix.Reachable(a, b, nullptr))
            << "a=" << a << " b=" << b << " after " << step + 1 << " inserts";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Runs, IncrementalTcPropertyTest,
                         ::testing::Values(TcParam{1, 20, 60},
                                           TcParam{2, 40, 100},
                                           TcParam{3, 60, 80},
                                           TcParam{4, 30, 200}));

TEST(IncrementalTcTest, BuildFromGraphMatchesMatrix) {
  Rng rng(110);
  graph::Graph g = graph::ErdosRenyi(50, 150, true, &rng);
  auto tc = IncrementalTransitiveClosure::Build(g, nullptr);
  auto matrix = reach::ReachabilityMatrix::Build(g);
  for (graph::NodeId u = 0; u < 50; ++u) {
    for (graph::NodeId v = 0; v < 50; ++v) {
      EXPECT_EQ(*tc.Reachable(u, v, nullptr), matrix.Reachable(u, v, nullptr));
    }
  }
}

TEST(IncrementalTcTest, WorkTracksChangedPairsNotGraphSize) {
  // Insert a far-apart edge into a big, mostly-disconnected graph: the
  // affected region is two nodes, so work must stay near-constant even
  // though n is large.
  IncrementalTransitiveClosure tc(2000);
  ASSERT_TRUE(tc.InsertEdge(0, 1, nullptr).ok());
  int64_t small_work = tc.last_insert_work();
  ASSERT_TRUE(tc.InsertEdge(1500, 1501, nullptr).ok());
  EXPECT_LE(tc.last_insert_work(), 2 * small_work + 64);
}

// ---------------------------------------------------------------------------
// From-scratch Build vs the insert-by-insert closure
// ---------------------------------------------------------------------------

using EdgeList = std::vector<std::pair<graph::NodeId, graph::NodeId>>;

/// The insert-by-insert build: every arc of g replayed through InsertEdge.
IncrementalTransitiveClosure InsertByInsert(const graph::Graph& g) {
  IncrementalTransitiveClosure tc(g.num_nodes());
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    for (graph::NodeId v : g.OutNeighbors(u)) {
      EXPECT_TRUE(tc.InsertEdge(u, v, nullptr).ok());
    }
  }
  return tc;
}

/// m random arcs over n nodes, self-loops and repeats included.
EdgeList RandomArcs(graph::NodeId n, int64_t m, Rng* rng) {
  EdgeList edges;
  for (int64_t i = 0; i < m; ++i) {
    edges.emplace_back(
        static_cast<graph::NodeId>(rng->NextBelow(static_cast<uint64_t>(n))),
        static_cast<graph::NodeId>(rng->NextBelow(static_cast<uint64_t>(n))));
  }
  return edges;
}

/// Reads word `w` of row `row` (desc rows first, then anc rows) out of a
/// Serialize image.
uint64_t ImageWord(const std::string& image, int64_t wpr, int64_t row,
                   int64_t w) {
  uint64_t word = 0;
  for (int i = 0; i < 8; ++i) {
    word |= static_cast<uint64_t>(static_cast<unsigned char>(
                image[static_cast<size_t>(24 + (row * wpr + w) * 8 + i)]))
            << (8 * i);
  }
  return word;
}

/// The ancestor rows of the image must be exactly the transpose of its
/// descendant rows.
void ExpectAncIsTransposeOfDesc(const IncrementalTransitiveClosure& tc) {
  const std::string image = tc.Serialize();
  const int64_t n = tc.num_nodes();
  const int64_t wpr = (n + 63) / 64;
  int64_t mismatches = 0;
  for (int64_t u = 0; u < n; ++u) {
    for (int64_t v = 0; v < n; ++v) {
      const bool desc = (ImageWord(image, wpr, u, v / 64) >> (v % 64)) & 1;
      const bool anc = (ImageWord(image, wpr, n + v, u / 64) >> (u % 64)) & 1;
      mismatches += desc != anc;
    }
  }
  EXPECT_EQ(mismatches, 0) << "anc rows are not the transpose of desc rows";
}

/// Build and the insert-by-insert reference must write the same image.
void ExpectBuildMatchesReference(const graph::Graph& g) {
  const auto built = IncrementalTransitiveClosure::Build(g, nullptr);
  const auto reference = InsertByInsert(g);
  EXPECT_TRUE(built.Serialize() == reference.Serialize())
      << "n=" << g.num_nodes() << " m=" << g.num_edges();
  EXPECT_EQ(built.NumEdges(), reference.NumEdges());
  EXPECT_EQ(built.NumReachablePairs(), reference.NumReachablePairs());
  ExpectAncIsTransposeOfDesc(built);
}

TEST(IncrementalTcBuildTest, RandomDigraphsMatchInsertByInsertImage) {
  Rng rng(170);
  for (graph::NodeId n : {0, 1, 63, 64, 65, 200, 1100}) {
    // Sparse to dense, so the graphs range from mostly singleton
    // components to one that swallows most nodes.
    for (int64_t per_node : {1, 2, 4}) {
      if (n == 1100 && per_node == 4) continue;  // keep the reference cheap
      const int64_t m = n == 0 ? 0 : per_node * n;
      auto g = graph::Graph::FromEdges(n, RandomArcs(n, m, &rng),
                                       /*directed=*/true, /*dedup=*/false);
      ASSERT_TRUE(g.ok());
      ExpectBuildMatchesReference(*g);
    }
  }
}

TEST(IncrementalTcBuildTest, SelfLoopsAndDuplicateArcsCollapse) {
  // 0->0 twice, 0->1 three times, 1->2, 2->1: the image keeps each arc
  // once and the self-loop as a maintained edge.
  const EdgeList edges = {{0, 0}, {0, 1}, {0, 0}, {0, 1},
                          {1, 2}, {0, 1}, {2, 1}, {3, 3}};
  auto g = graph::Graph::FromEdges(4, edges, /*directed=*/true,
                                   /*dedup=*/false);
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(g->num_edges(), 8);
  ExpectBuildMatchesReference(*g);
  const auto tc = IncrementalTransitiveClosure::Build(*g, nullptr);
  EXPECT_EQ(tc.NumEdges(), 5);
  EXPECT_TRUE(*tc.Reachable(0, 2, nullptr));
  EXPECT_TRUE(*tc.Reachable(2, 1, nullptr));
  EXPECT_FALSE(*tc.Reachable(1, 0, nullptr));
  EXPECT_FALSE(*tc.Reachable(3, 0, nullptr));
}

TEST(IncrementalTcBuildTest, DagAndGiantComponentMatchInsertByInsertImage) {
  Rng rng(171);
  ExpectBuildMatchesReference(graph::RandomDag(300, 900, &rng));
  // One SCC of every node: a directed cycle plus random chords.
  const graph::NodeId n = 257;
  EdgeList edges = RandomArcs(n, 2 * n, &rng);
  for (graph::NodeId v = 0; v < n; ++v) edges.emplace_back(v, (v + 1) % n);
  auto g = graph::Graph::FromEdges(n, edges, /*directed=*/true);
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(graph::StronglyConnectedComponents(*g).num_components, 1);
  ExpectBuildMatchesReference(*g);
  const auto tc = IncrementalTransitiveClosure::Build(*g, nullptr);
  EXPECT_EQ(tc.NumReachablePairs(), int64_t{n} * n);
}

TEST(IncrementalTcBuildTest, ChargesRowWorkNotPerEdgePropagation) {
  // A 1024-node path: inserting arc by arc propagates each new arc to
  // every ancestor row, while the condensation build does one union per
  // DAG arc per sweep.
  const graph::Graph g = graph::Path(1024, /*directed=*/true);
  CostMeter built, replayed;
  IncrementalTransitiveClosure::Build(g, &built);
  IncrementalTransitiveClosure tc(g.num_nodes());
  for (graph::NodeId u = 0; u + 1 < g.num_nodes(); ++u) {
    ASSERT_TRUE(tc.InsertEdge(u, u + 1, &replayed).ok());
  }
  const int64_t n = 1024, m = 1023, wpr = 16;
  EXPECT_EQ(built.work(), n + m + 2 * m * wpr);
  EXPECT_EQ(built.bytes_written(), 2 * n * wpr * 8);
  EXPECT_LT(10 * built.work(), replayed.work());
}

TEST(IncrementalTcBuildTest, MixedStreamsAfterBuildAgreeWithBfsOracle) {
  for (uint64_t seed : {172u, 173u, 174u}) {
    Rng rng(seed);
    const graph::NodeId n = static_cast<graph::NodeId>(40 + 13 * (seed % 3));
    auto g = graph::Graph::FromEdges(n, RandomArcs(n, 2 * n, &rng),
                                     /*directed=*/true);
    ASSERT_TRUE(g.ok());
    auto tc = IncrementalTransitiveClosure::Build(*g, nullptr);
    std::set<std::pair<graph::NodeId, graph::NodeId>> live;
    for (const auto& e : g->Edges()) live.insert(e);
    for (int step = 0; step < 120; ++step) {
      if (!live.empty() && rng.NextBool(0.5)) {
        auto it = live.begin();
        std::advance(it, static_cast<int64_t>(rng.NextBelow(live.size())));
        const auto [u, v] = *it;
        const int64_t before = tc.NumReachablePairs();
        auto removed = tc.DeleteEdge(u, v, nullptr);
        ASSERT_TRUE(removed.ok());
        EXPECT_EQ(tc.NumReachablePairs(), before - *removed);
        live.erase(it);
      } else {
        const auto arc = RandomArcs(n, 1, &rng).front();
        const int64_t before = tc.NumReachablePairs();
        auto added = tc.InsertEdge(arc.first, arc.second, nullptr);
        ASSERT_TRUE(added.ok());
        EXPECT_EQ(tc.NumReachablePairs(), before + *added);
        live.insert(arc);
      }
      ASSERT_EQ(tc.NumEdges(), static_cast<int64_t>(live.size()));
      if (step % 8 != 7) continue;
      auto oracle = graph::Graph::FromEdges(
          n, EdgeList(live.begin(), live.end()), /*directed=*/true);
      ASSERT_TRUE(oracle.ok());
      for (graph::NodeId a = 0; a < n; ++a) {
        const auto dist = graph::BfsDistances(*oracle, a);
        for (graph::NodeId b = 0; b < n; ++b) {
          ASSERT_EQ(tc.ReachableUnchecked(a, b),
                    dist[static_cast<size_t>(b)] >= 0)
              << "seed=" << seed << " step=" << step << " " << a << "->"
              << b;
        }
      }
      ExpectAncIsTransposeOfDesc(tc);
      const std::string image = tc.Serialize();
      auto round_trip = IncrementalTransitiveClosure::Deserialize(image);
      ASSERT_TRUE(round_trip.ok()) << round_trip.status().ToString();
      EXPECT_TRUE(round_trip->Serialize() == image);
      // The rebuilt closure of the live edges is the same image too.
      EXPECT_TRUE(IncrementalTransitiveClosure::Build(*oracle, nullptr)
                      .Serialize() == image);
    }
  }
}

// ---------------------------------------------------------------------------
// Delta-maintained index
// ---------------------------------------------------------------------------

TEST(DeltaIndexTest, ApplyDeltaMatchesRebuild) {
  Rng rng(120);
  std::vector<std::pair<int64_t, int64_t>> entries;
  for (int64_t i = 0; i < 500; ++i) {
    entries.emplace_back(static_cast<int64_t>(rng.NextBelow(1000)), i);
  }
  auto incremental = DeltaMaintainedIndex::Build(entries, nullptr);
  auto rebuilt = DeltaMaintainedIndex::Build(entries, nullptr);
  ASSERT_TRUE(incremental.ok() && rebuilt.ok());

  std::multiset<int64_t> reference;
  for (const auto& [k, v] : entries) {
    (void)v;
    reference.insert(k);
  }
  int64_t next_row = 500;
  for (int batch = 0; batch < 20; ++batch) {
    std::vector<Delta> deltas;
    for (int i = 0; i < 10; ++i) {
      Delta d;
      d.op = Delta::Op::kInsert;
      d.key = static_cast<int64_t>(rng.NextBelow(1000));
      d.row_id = next_row++;
      reference.insert(d.key);
      deltas.push_back(d);
    }
    CostMeter inc_m, reb_m;
    ASSERT_TRUE(incremental->ApplyDelta(deltas, &inc_m).ok());
    ASSERT_TRUE(rebuilt->RebuildWith(deltas, &reb_m).ok());
    EXPECT_LT(inc_m.work(), reb_m.work())
        << "Δ-maintenance must undercut the rebuild";
    ASSERT_TRUE(incremental->Validate().ok());
    for (int probe = 0; probe < 30; ++probe) {
      int64_t key = static_cast<int64_t>(rng.NextBelow(1000));
      CostMeter m;
      bool expect = reference.count(key) > 0;
      EXPECT_EQ(incremental->PointExists(key, &m), expect);
      EXPECT_EQ(rebuilt->PointExists(key, &m), expect);
    }
  }
}

TEST(DeltaIndexTest, DeletesMaintained) {
  std::vector<std::pair<int64_t, int64_t>> entries = {
      {1, 100}, {2, 200}, {3, 300}};
  auto index = DeltaMaintainedIndex::Build(entries, nullptr);
  ASSERT_TRUE(index.ok());
  std::vector<Delta> batch;
  Delta del;
  del.op = Delta::Op::kDelete;
  del.key = 2;
  del.row_id = 200;
  batch.push_back(del);
  ASSERT_TRUE(index->ApplyDelta(batch, nullptr).ok());
  CostMeter m;
  EXPECT_FALSE(index->PointExists(2, &m));
  EXPECT_TRUE(index->PointExists(1, &m));
  EXPECT_EQ(index->size(), 2);
  // Deleting an absent entry fails loudly.
  EXPECT_FALSE(index->ApplyDelta(batch, nullptr).ok());
}

TEST(DeltaIndexTest, DeltaCostIsIndependentOfDataSize) {
  std::vector<std::pair<int64_t, int64_t>> small_entries, large_entries;
  for (int64_t i = 0; i < 1 << 8; ++i) small_entries.emplace_back(i, i);
  for (int64_t i = 0; i < 1 << 16; ++i) large_entries.emplace_back(i, i);
  auto small = DeltaMaintainedIndex::Build(small_entries, nullptr);
  auto large = DeltaMaintainedIndex::Build(large_entries, nullptr);
  ASSERT_TRUE(small.ok() && large.ok());
  std::vector<Delta> batch;
  for (int i = 0; i < 16; ++i) {
    Delta d;
    d.op = Delta::Op::kInsert;
    d.key = -i;
    d.row_id = i;
    batch.push_back(d);
  }
  CostMeter small_m, large_m;
  ASSERT_TRUE(small->ApplyDelta(batch, &small_m).ok());
  ASSERT_TRUE(large->ApplyDelta(batch, &large_m).ok());
  // 256x more data, cost may only grow by the log factor (~2x).
  EXPECT_LT(large_m.work(), 3 * small_m.work());
}

}  // namespace
}  // namespace incremental
}  // namespace pitract
