#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "graph/algos.h"
#include "graph/generators.h"
#include "graph/graph.h"

namespace pitract {
namespace graph {
namespace {

TEST(GraphTest, FromEdgesBuildsSortedCsr) {
  auto g = Graph::FromEdges(4, {{2, 1}, {0, 3}, {0, 1}, {0, 2}}, true);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 4);
  EXPECT_EQ(g->num_edges(), 4);
  auto nbrs = g->OutNeighbors(0);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 3u);
  EXPECT_TRUE(g->HasEdge(2, 1));
  EXPECT_FALSE(g->HasEdge(1, 2));
}

TEST(GraphTest, UndirectedStoresBothDirections) {
  auto g = Graph::FromEdges(3, {{0, 1}, {1, 2}}, false);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 2);
  EXPECT_TRUE(g->HasEdge(1, 0));
  EXPECT_TRUE(g->HasEdge(2, 1));
  EXPECT_EQ(g->Edges().size(), 2u) << "Edges() lists undirected edges once";
}

TEST(GraphTest, DedupCollapsesParallelEdges) {
  auto g = Graph::FromEdges(2, {{0, 1}, {0, 1}, {0, 1}}, true);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 1);
}

TEST(GraphTest, SelfLoopsKept) {
  auto g = Graph::FromEdges(2, {{0, 0}, {0, 1}}, false);
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->HasEdge(0, 0));
  EXPECT_EQ(g->num_edges(), 2);
}

TEST(GraphTest, OutOfRangeEdgeRejected) {
  EXPECT_FALSE(Graph::FromEdges(2, {{0, 2}}, true).ok());
  EXPECT_FALSE(Graph::FromEdges(2, {{-1, 0}}, true).ok());
}

TEST(GraphTest, ReversedSwapsDirections) {
  auto g = Graph::FromEdges(3, {{0, 1}, {1, 2}, {0, 2}}, true);
  ASSERT_TRUE(g.ok());
  Graph rev = g->Reversed();
  EXPECT_TRUE(rev.HasEdge(1, 0));
  EXPECT_TRUE(rev.HasEdge(2, 1));
  EXPECT_TRUE(rev.HasEdge(2, 0));
  EXPECT_FALSE(rev.HasEdge(0, 1));
  EXPECT_EQ(rev.num_edges(), 3);
  // Double reversal restores the original arc set.
  Graph twice = rev.Reversed();
  EXPECT_EQ(twice.Edges(), g->Edges());
}

TEST(GraphTest, EncodeDecodeRoundTrip) {
  Rng rng(31);
  Graph g = ErdosRenyi(50, 150, /*directed=*/true, &rng);
  auto back = Graph::Decode(g.Encode());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_nodes(), g.num_nodes());
  EXPECT_EQ(back->Edges(), g.Edges());
  EXPECT_EQ(back->directed(), g.directed());
}

TEST(GraphTest, EncodeDecodeUndirected) {
  Rng rng(32);
  Graph g = ErdosRenyi(30, 60, /*directed=*/false, &rng);
  auto back = Graph::Decode(g.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->Edges(), g.Edges());
  EXPECT_FALSE(back->directed());
}

/// The CSR a sort of every arc pair gives: each node's sorted row (with
/// `dedup`, unique) and the edge count FromEdges reports.
struct ReferenceCsr {
  std::vector<std::vector<NodeId>> rows;
  int64_t num_edges = 0;
};

ReferenceCsr SortUniqueReference(
    NodeId n, const std::vector<std::pair<NodeId, NodeId>>& edges,
    bool directed, bool dedup) {
  std::vector<std::pair<NodeId, NodeId>> arcs;
  for (const auto& [u, v] : edges) {
    arcs.emplace_back(u, v);
    if (!directed && u != v) arcs.emplace_back(v, u);
  }
  std::sort(arcs.begin(), arcs.end());
  if (dedup) arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
  ReferenceCsr ref;
  ref.rows.resize(static_cast<size_t>(n));
  int64_t self_loops = 0;
  for (const auto& [u, v] : arcs) {
    ref.rows[static_cast<size_t>(u)].push_back(v);
    if (u == v) ++self_loops;
  }
  const auto total = static_cast<int64_t>(arcs.size());
  ref.num_edges = directed ? total : (total - self_loops) / 2 + self_loops;
  return ref;
}

class FromEdgesPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FromEdgesPropertyTest, CsrMatchesSortUniqueReference) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    const auto n = static_cast<NodeId>(1 + rng.NextBelow(40));
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (uint64_t i = rng.NextBelow(120); i > 0; --i) {
      const auto u = static_cast<NodeId>(rng.NextBelow(n));
      // Self-loops and parallel edges both show up often.
      const auto v =
          rng.NextBool(0.15) ? u : static_cast<NodeId>(rng.NextBelow(n));
      edges.emplace_back(u, v);
      if (rng.NextBool(0.2)) edges.emplace_back(u, v);
      if (rng.NextBool(0.1)) edges.emplace_back(v, u);
    }
    // One hub row long enough to exercise the per-row sort.
    for (int i = 0; i < 64; ++i) {
      edges.emplace_back(0, static_cast<NodeId>(rng.NextBelow(n)));
    }
    for (bool directed : {true, false}) {
      for (bool dedup : {true, false}) {
        SCOPED_TRACE(testing::Message() << "trial " << trial << " directed "
                                        << directed << " dedup " << dedup);
        auto g = Graph::FromEdges(n, edges, directed, dedup);
        ASSERT_TRUE(g.ok()) << g.status().ToString();
        const ReferenceCsr ref =
            SortUniqueReference(n, edges, directed, dedup);
        EXPECT_EQ(g->num_edges(), ref.num_edges);
        int64_t stored = 0;
        for (NodeId u = 0; u < n; ++u) {
          auto row = g->OutNeighbors(u);
          EXPECT_EQ(std::vector<NodeId>(row.begin(), row.end()),
                    ref.rows[static_cast<size_t>(u)])
              << "row " << u;
          stored += g->OutDegree(u);
        }
        EXPECT_EQ(g->EstimateBytes(),
                  static_cast<int64_t>((n + 1) * sizeof(int64_t) +
                                       stored * sizeof(NodeId)));
      }
    }
  }
}

TEST(GraphTest, EmptyAndEdgelessGraphs) {
  for (NodeId n : {0, 5}) {
    for (bool directed : {true, false}) {
      auto g = Graph::FromEdges(n, {}, directed);
      ASSERT_TRUE(g.ok());
      EXPECT_EQ(g->num_nodes(), n);
      EXPECT_EQ(g->num_edges(), 0);
      for (NodeId u = 0; u < n; ++u) EXPECT_EQ(g->OutDegree(u), 0);
    }
  }
  // A negative node count is refused where it enters, also when it comes
  // from an encoded data part.
  for (bool directed : {true, false}) {
    auto negative = Graph::FromEdges(-1, {}, directed);
    ASSERT_FALSE(negative.ok());
    EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument);
  }
  auto decoded = Graph::Decode(Graph::FromEdges(3, {}, true)->Encode());
  ASSERT_TRUE(decoded.ok());
  std::string encoded = decoded->Encode();
  ASSERT_EQ(encoded.substr(0, 2), "3#");
  auto negative_decode = Graph::Decode("-5" + encoded.substr(1));
  ASSERT_FALSE(negative_decode.ok());
  EXPECT_EQ(negative_decode.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphTest, DecodeRefusesValuesPastNodeIdRange) {
  // int64 numerals that do not fit a NodeId are refused, not narrowed:
  // 4294967297 would wrap to 1 and 4294967299 to 3.
  for (const char* encoded :
       {"3#u#0,4294967297", "3#d#4294967296,0", "3#u#0,-4294967295",
        "4294967299#u#0,1", "-4294967293#d#"}) {
    SCOPED_TRACE(encoded);
    auto g = Graph::Decode(encoded);
    ASSERT_FALSE(g.ok());
    EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
  }
  auto fits = Graph::Decode("3#u#0,2");
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();
  EXPECT_EQ(fits->num_nodes(), 3);
  EXPECT_TRUE(fits->HasEdge(2, 0));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FromEdgesPropertyTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(BfsTest, DistancesOnPath) {
  Graph g = Path(5, /*directed=*/true);
  auto dist = BfsDistances(g, 0);
  EXPECT_EQ(dist, (std::vector<int64_t>{0, 1, 2, 3, 4}));
  auto from_2 = BfsDistances(g, 2);
  EXPECT_EQ(from_2[0], -1) << "directed path: no way back";
  EXPECT_EQ(from_2[4], 2);
}

TEST(BfsTest, ReachableChargesWork) {
  Graph g = Path(1000, /*directed=*/true);
  CostMeter m;
  EXPECT_TRUE(BfsReachable(g, 0, 999, &m));
  EXPECT_GE(m.work(), 999);
  CostMeter m2;
  EXPECT_FALSE(BfsReachable(g, 999, 0, &m2));
}

TEST(BfsTest, SelfReachable) {
  Graph g = Path(3, true);
  EXPECT_TRUE(BfsReachable(g, 1, 1, nullptr));
}

TEST(DfsTest, PreorderVisitsAllNodes) {
  Rng rng(33);
  Graph g = ErdosRenyi(64, 128, true, &rng);
  auto order = DfsPreorder(g);
  std::set<NodeId> seen(order.begin(), order.end());
  EXPECT_EQ(seen.size(), 64u);
  EXPECT_EQ(order[0], 0) << "DFS starts at the smallest node";
}

TEST(SccTest, CycleIsOneComponent) {
  Graph g = Cycle(5, /*directed=*/true);
  auto scc = StronglyConnectedComponents(g);
  EXPECT_EQ(scc.num_components, 1);
}

TEST(SccTest, PathIsAllSingletons) {
  Graph g = Path(5, /*directed=*/true);
  auto scc = StronglyConnectedComponents(g);
  EXPECT_EQ(scc.num_components, 5);
}

TEST(SccTest, ComponentsAreMaximalAndMutuallyReachable) {
  Rng rng(34);
  Graph g = ErdosRenyi(60, 150, true, &rng);
  auto scc = StronglyConnectedComponents(g);
  // Same component <=> mutually reachable (checked by BFS both ways).
  for (NodeId u = 0; u < g.num_nodes(); u += 7) {
    for (NodeId v = 0; v < g.num_nodes(); v += 5) {
      bool mutual = BfsReachable(g, u, v, nullptr) &&
                    BfsReachable(g, v, u, nullptr);
      bool same = scc.component[static_cast<size_t>(u)] ==
                  scc.component[static_cast<size_t>(v)];
      EXPECT_EQ(mutual, same) << "u=" << u << " v=" << v;
    }
  }
}

TEST(SccTest, ReverseTopologicalNumbering) {
  Rng rng(35);
  Graph g = ErdosRenyi(50, 120, true, &rng);
  auto scc = StronglyConnectedComponents(g);
  // For every arc u -> v in distinct components, comp(u) > comp(v).
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.OutNeighbors(u)) {
      NodeId cu = scc.component[static_cast<size_t>(u)];
      NodeId cv = scc.component[static_cast<size_t>(v)];
      if (cu != cv) EXPECT_GT(cu, cv);
    }
  }
}

TEST(SccTest, DeepGraphDoesNotOverflowStack) {
  // 200k-node path: a recursive Tarjan would blow the stack.
  Graph g = Path(200000, /*directed=*/true);
  auto scc = StronglyConnectedComponents(g);
  EXPECT_EQ(scc.num_components, 200000);
}

TEST(CondenseTest, CondensationIsDag) {
  Rng rng(36);
  Graph g = ErdosRenyi(80, 240, true, &rng);
  auto scc = StronglyConnectedComponents(g);
  Graph dag = Condense(g, scc);
  EXPECT_EQ(dag.num_nodes(), scc.num_components);
  EXPECT_TRUE(TopologicalSort(dag).is_dag);
}

TEST(TopoTest, DetectsCycle) {
  EXPECT_FALSE(TopologicalSort(Cycle(4, true)).is_dag);
  EXPECT_TRUE(TopologicalSort(Path(4, true)).is_dag);
}

TEST(TopoTest, OrderRespectsArcs) {
  Rng rng(37);
  Graph g = RandomDag(100, 300, &rng);
  auto topo = TopologicalSort(g);
  ASSERT_TRUE(topo.is_dag);
  std::vector<int64_t> position(100);
  for (size_t i = 0; i < topo.order.size(); ++i) {
    position[static_cast<size_t>(topo.order[i])] = static_cast<int64_t>(i);
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.OutNeighbors(u)) {
      EXPECT_LT(position[static_cast<size_t>(u)],
                position[static_cast<size_t>(v)]);
    }
  }
}

TEST(ComponentsTest, CountsIslands) {
  auto g = Graph::FromEdges(6, {{0, 1}, {1, 2}, {4, 5}}, false);
  ASSERT_TRUE(g.ok());
  auto comp = ConnectedComponents(*g);
  EXPECT_EQ(comp.num_components, 3);  // {0,1,2}, {3}, {4,5}
  EXPECT_EQ(comp.component[0], comp.component[2]);
  EXPECT_NE(comp.component[0], comp.component[3]);
  EXPECT_EQ(comp.component[4], comp.component[5]);
}

TEST(GeneratorsTest, RandomDagIsAcyclic) {
  Rng rng(38);
  for (int trial = 0; trial < 5; ++trial) {
    Graph g = RandomDag(64, 256, &rng);
    EXPECT_TRUE(TopologicalSort(g).is_dag);
  }
}

TEST(GeneratorsTest, RandomTreeIsConnectedWithNMinus1Edges) {
  Rng rng(39);
  Graph g = RandomTree(128, &rng);
  EXPECT_EQ(g.num_edges(), 127);
  EXPECT_EQ(ConnectedComponents(g).num_components, 1);
}

TEST(GeneratorsTest, ParentArrayIsValidTree) {
  Rng rng(40);
  auto parent = RandomParentArray(100, &rng);
  EXPECT_EQ(parent[0], -1);
  for (NodeId i = 1; i < 100; ++i) {
    EXPECT_GE(parent[static_cast<size_t>(i)], 0);
    EXPECT_LT(parent[static_cast<size_t>(i)], i);
  }
}

TEST(GeneratorsTest, PreferentialAttachmentIsSkewed) {
  Rng rng(41);
  Graph g = PreferentialAttachment(2000, 2, &rng);
  int64_t max_degree = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    max_degree = std::max(max_degree, g.OutDegree(u));
  }
  // A hub emerges; uniform graphs with mean degree ~4 would cap far lower.
  EXPECT_GT(max_degree, 30);
  EXPECT_EQ(ConnectedComponents(g).num_components, 1);
}

TEST(GeneratorsTest, DeterministicInSeed) {
  Rng a(42), b(42);
  Graph ga = ErdosRenyi(64, 128, true, &a);
  Graph gb = ErdosRenyi(64, 128, true, &b);
  EXPECT_EQ(ga.Encode(), gb.Encode());
}

TEST(GeneratorsTest, StarShape) {
  Graph g = Star(5, false);
  EXPECT_EQ(g.OutDegree(0), 4);
  for (NodeId i = 1; i < 5; ++i) EXPECT_EQ(g.OutDegree(i), 1);
}

}  // namespace
}  // namespace graph
}  // namespace pitract
