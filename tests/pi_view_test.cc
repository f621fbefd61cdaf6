// Π's two faces. The int-list witnesses (member, interval, connectivity,
// BDS) define Π once, as PiWitness::preprocess_view, and print it for the
// string face (preprocess = encode_view ∘ preprocess_view). These tests
// pin, for those witnesses and for the entries derived from them through
// reductions, that the two faces give the same payload bytes, the same Π
// charges and the same Status on malformed data; that the payload is the
// one the reference computation gives (sorted list, BFS component labels,
// BDS ranks); that the union-find connectivity labels equal
// graph::ConnectedComponents'; and that directed data is refused by the
// connectivity Π instead of answered wrongly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bds/bds.h"
#include "common/codec.h"
#include "common/cost_meter.h"
#include "common/rng.h"
#include "core/int_column.h"
#include "core/problems.h"
#include "engine/builtins.h"
#include "engine/engine.h"
#include "graph/algos.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "ncsim/ncsim.h"

namespace pitract {
namespace engine {
namespace {

using core::IntColumn;
using core::PiWitness;

const ProblemEntry& Entry(const char* name) {
  auto entry = DefaultEngine().Find(name);
  EXPECT_TRUE(entry.ok()) << name;
  return **entry;
}

std::vector<int64_t> ValuesOf(const IntColumn& column) {
  std::vector<int64_t> values(column.size());
  for (size_t i = 0; i < column.size(); ++i) values[i] = column[i];
  return values;
}

struct Charges {
  int64_t work = 0;
  int64_t depth = 0;
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  bool operator==(const Charges&) const = default;
};

Charges ChargesOf(const CostMeter& meter) {
  return {meter.work(), meter.depth(), meter.bytes_read(),
          meter.bytes_written()};
}

/// Runs both faces of `w`'s Π on `data` and checks they agree: the same
/// Status (code and message) on failure; otherwise the same payload bytes,
/// the view's encoded size, the same charges, and a view equal to the one
/// `deserialize` decodes from the payload. Returns the payload ("" on
/// failure) and sets `*status` to the faces' common status.
std::string ExpectFacesAgree(const PiWitness& w, const std::string& data,
                             Status* status, Charges* charges = nullptr) {
  EXPECT_TRUE(w.builds_view()) << w.name;
  CostMeter string_meter;
  CostMeter view_meter;
  auto payload = w.preprocess(data, &string_meter);
  auto view = w.preprocess_view(data, &view_meter);
  EXPECT_EQ(ChargesOf(string_meter), ChargesOf(view_meter)) << w.name;
  if (charges != nullptr) *charges = ChargesOf(view_meter);
  EXPECT_EQ(payload.ok(), view.ok()) << w.name;
  if (!payload.ok() || !view.ok()) {
    EXPECT_EQ(payload.status().code(), view.status().code()) << w.name;
    EXPECT_EQ(payload.status().message(), view.status().message()) << w.name;
    *status = payload.ok() ? view.status() : payload.status();
    return "";
  }
  *status = Status::OK();
  std::string encoded;
  EXPECT_TRUE(w.encode_view(view->get(), &encoded).ok());
  EXPECT_EQ(encoded, *payload) << w.name;
  EXPECT_EQ(w.encoded_size(view->get()), payload->size()) << w.name;

  const auto shared = std::make_shared<const std::string>(*payload);
  auto decoded = w.deserialize(shared, nullptr);
  EXPECT_TRUE(decoded.ok()) << w.name;
  if (decoded.ok()) {
    const auto& direct = *static_cast<const IntColumn*>(view->get());
    const auto& parsed = *static_cast<const IntColumn*>(decoded->get());
    EXPECT_EQ(direct.width(), parsed.width()) << w.name;
    EXPECT_EQ(direct.base(), parsed.base()) << w.name;
    EXPECT_EQ(direct.min(), parsed.min()) << w.name;
    EXPECT_EQ(direct.max(), parsed.max()) << w.name;
    EXPECT_EQ(ValuesOf(direct), ValuesOf(parsed)) << w.name;
    EXPECT_EQ(w.view_bytes(view->get()), w.view_bytes(decoded->get()));
  }
  return *payload;
}

std::string ExpectFacesAgree(const PiWitness& w, const std::string& data) {
  Status status;
  std::string payload = ExpectFacesAgree(w, data, &status);
  EXPECT_TRUE(status.ok()) << w.name << ": " << status.ToString();
  return payload;
}

/// A connectivity/BDS data part holding `graph_text` verbatim.
std::string GraphData(const std::string& graph_text) {
  return codec::EncodeFields({graph_text});
}

/// The Σ* graph text of an edge list as written: parallel edges and
/// self-loops stay, unlike Graph::Encode.
std::string RawGraph(int64_t n, bool directed,
                     const std::vector<std::pair<graph::NodeId,
                                                 graph::NodeId>>& edges) {
  std::vector<int64_t> flat;
  for (const auto& [u, v] : edges) {
    flat.push_back(u);
    flat.push_back(v);
  }
  return codec::EncodeFields(
      {std::to_string(n), directed ? "d" : "u", codec::EncodeInts(flat)});
}

// ---------------------------------------------------------------------------
// Payloads and charges against the reference computations.
// ---------------------------------------------------------------------------

TEST(PiViewTest, MemberAndIntervalPrintTheSortedList) {
  Rng rng(1901);
  for (int n : {0, 1, 2, 100, 20000}) {
    for (int64_t spread : {int64_t{16}, int64_t{1} << 20, int64_t{1} << 40}) {
      std::vector<int64_t> list;
      for (int i = 0; i < n; ++i) {
        list.push_back(rng.NextInRange(-spread, spread));
      }
      const std::string data =
          core::MemberFactorization()
              .pi1(core::MakeMemberInstance(4 * spread, list, 0))
              .value();
      std::sort(list.begin(), list.end());
      const int64_t charge =
          n * (ncsim::CeilLog2(n < 1 ? 1 : n) + 1);
      for (const char* name : {"list-membership", "predicate-selection"}) {
        SCOPED_TRACE(std::string(name) + " n=" + std::to_string(n));
        Status status;
        Charges charges;
        const std::string payload =
            ExpectFacesAgree(Entry(name).witness, data, &status, &charges);
        ASSERT_TRUE(status.ok()) << status.ToString();
        EXPECT_EQ(payload, codec::EncodeInts(list));
        EXPECT_EQ(charges, (Charges{charge, charge, 0, 0}));
      }
    }
  }
}

TEST(PiViewTest, ConnectivityPrintsTheBfsComponentLabels) {
  Rng rng(1902);
  for (graph::NodeId n : {0, 1, 2, 50, 4096, 20000}) {
    for (int64_t m : {int64_t{0}, int64_t{n} / 2, int64_t{2} * n}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " m=" + std::to_string(m));
      const graph::Graph g = graph::ErdosRenyi(n, m, /*directed=*/false, &rng);
      const std::string data =
          core::ConnFactorization()
              .pi1(core::MakeConnInstance(g, 0, 0))
              .value();
      Status status;
      Charges charges;
      const std::string payload =
          ExpectFacesAgree(Entry("connectivity").witness, data, &status,
                           &charges);
      ASSERT_TRUE(status.ok()) << status.ToString();
      const auto comp = graph::ConnectedComponents(g);
      EXPECT_EQ(payload, codec::EncodeInts(std::vector<int64_t>(
                             comp.component.begin(), comp.component.end())));
      const int64_t charge = g.num_nodes() + g.num_edges();
      EXPECT_EQ(charges, (Charges{charge, charge, 0, 0}));
    }
  }
}

TEST(PiViewTest, BdsPrintsTheVisitRanks) {
  Rng rng(1903);
  for (graph::NodeId n : {0, 1, 24, 1024}) {
    for (bool directed : {false, true}) {
      SCOPED_TRACE("n=" + std::to_string(n));
      const graph::Graph g = graph::ErdosRenyi(n, 2 * n, directed, &rng);
      const std::string data =
          core::BdsFactorization().pi1(core::MakeBdsInstance(g, 0, 0)).value();
      Status status;
      Charges charges;
      const std::string payload = ExpectFacesAgree(
          Entry("breadth-depth-search").witness, data, &status, &charges);
      ASSERT_TRUE(status.ok()) << status.ToString();
      CostMeter meter;
      const auto order = bds::BdsVisitOrder(g, &meter);
      std::vector<int64_t> rank(order.size(), 0);
      for (size_t pos = 0; pos < order.size(); ++pos) {
        rank[static_cast<size_t>(order[pos])] = static_cast<int64_t>(pos);
      }
      EXPECT_EQ(payload, codec::EncodeInts(rank));
      EXPECT_EQ(charges, ChargesOf(meter));
    }
  }
}

TEST(PiViewTest, DerivedEntriesTransportTheTypedPi) {
  // Π′ = preprocess_view ∘ α on every reduction-derived int-list entry;
  // their engine answers (through the directly built view) follow the
  // source problem's reference semantics.
  Rng rng(1904);
  QueryEngine engine;
  ASSERT_TRUE(RegisterBuiltins(&engine).ok());
  for (int trial = 0; trial < 6; ++trial) {
    const int64_t universe = 32 + trial * 40;
    std::vector<int64_t> list;
    for (int i = 0; i < trial * 9; ++i) {
      list.push_back(static_cast<int64_t>(rng.NextBelow(universe)));
    }
    const graph::Graph g =
        graph::ErdosRenyi(24 + trial, 10 + 3 * trial, false, &rng);
    std::vector<std::pair<const char*, std::string>> instances;
    for (int q = 0; q < 8; ++q) {
      const int64_t e = static_cast<int64_t>(rng.NextBelow(universe));
      instances.emplace_back("member-via-conn",
                             core::MakeMemberInstance(universe, list, e));
      instances.emplace_back("member-via-bds",
                             core::MakeMemberInstance(universe, list, e));
      instances.emplace_back(
          "connectivity-via-bds",
          core::MakeConnInstance(
              g, static_cast<graph::NodeId>(rng.NextBelow(24)),
              static_cast<graph::NodeId>(rng.NextBelow(24))));
    }
    for (const auto& [name, x] : instances) {
      SCOPED_TRACE(std::string(name) + " " + x);
      const ProblemEntry& entry = Entry(name);
      ExpectFacesAgree(entry.witness, entry.factorization.pi1(x).value());
      auto expected = entry.problem.contains(x);
      ASSERT_TRUE(expected.ok());
      auto answered = engine.AnswerInstance(name, x);
      ASSERT_TRUE(answered.ok()) << answered.status().ToString();
      EXPECT_EQ(*answered, *expected);
    }
  }
}

// ---------------------------------------------------------------------------
// Malformed data parts fail both faces alike, with the parent's Status.
// ---------------------------------------------------------------------------

TEST(PiViewTest, MalformedMemberDataFailsBothFacesAlike) {
  const std::vector<std::string> malformed = {
      "",                               // one field, two expected
      codec::EncodeFields({"8", "1,2", "3"}),  // three fields
      codec::EncodeFields({"8", "1,x,3"}),     // bad int
      codec::EncodeFields({"8", "1,,3"}),      // empty token
      codec::EncodeFields({"8", "99999999999999999999"}),  // overflow
  };
  for (const char* name :
       {"list-membership", "predicate-selection", "member-via-conn"}) {
    for (const std::string& data : malformed) {
      SCOPED_TRACE(std::string(name) + " '" + data + "'");
      Status status;
      ExpectFacesAgree(Entry(name).witness, data, &status);
      EXPECT_FALSE(status.ok());
    }
  }
  // member-via-bds pads the query into its data part: α sees the padded
  // pair, and both faces still fail alike.
  for (const std::string& data : malformed) {
    Status status;
    ExpectFacesAgree(Entry("member-via-bds").witness,
                     codec::PadPair(data, "1"), &status);
    EXPECT_FALSE(status.ok());
  }
}

TEST(PiViewTest, MalformedGraphDataFailsBothFacesWithTheDecodersStatus) {
  // Each graph text fails Graph::Decode, whose Status the connectivity and
  // BDS Π reported before they decoded through graph::DecodeEdgeList.
  const std::vector<std::string> malformed_graphs = {
      codec::EncodeFields({"3", "u"}),                  // field count
      codec::EncodeFields({"3", "u", "0,1", "x"}),      // field count
      codec::EncodeFields({"x", "u", "0,1"}),           // bad node count
      codec::EncodeFields({"1,2", "u", "0,1"}),         // two node counts
      codec::EncodeFields({"4294967296", "u", ""}),     // n not a NodeId
      codec::EncodeFields({"3", "q", "0,1"}),           // bad tag
      codec::EncodeFields({"3", "u", "0,x"}),           // bad int
      codec::EncodeFields({"3", "u", "0,1,2"}),         // odd endpoints
      codec::EncodeFields({"3", "u", "0,4294967296"}),  // endpoint not a NodeId
      codec::EncodeFields({"3", "u", "0,1,-1,2"}),      // endpoint < 0
      codec::EncodeFields({"3", "u", "0,3"}),           // endpoint >= n
      codec::EncodeFields({"-1", "u", ""}),             // negative n
      codec::EncodeFields({"-1", "u", "0,1"}),          // negative n first
  };
  for (const std::string& text : malformed_graphs) {
    SCOPED_TRACE("'" + text + "'");
    const auto reference = graph::Graph::Decode(text);
    ASSERT_FALSE(reference.ok());
    auto edge_list = graph::DecodeEdgeList(text);
    ASSERT_FALSE(edge_list.ok());
    EXPECT_EQ(edge_list.status().code(), reference.status().code());
    EXPECT_EQ(edge_list.status().message(), reference.status().message());
    for (const char* name : {"connectivity", "breadth-depth-search"}) {
      Status status;
      ExpectFacesAgree(Entry(name).witness, GraphData(text), &status);
      EXPECT_EQ(status.code(), reference.status().code()) << name;
      EXPECT_EQ(status.message(), reference.status().message()) << name;
    }
  }
  // A data part with more than its one field.
  for (const char* name : {"connectivity", "breadth-depth-search"}) {
    Status status;
    ExpectFacesAgree(Entry(name).witness, "3#u", &status);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  }
  // connectivity-via-bds: α decodes the instance before the BDS Π runs.
  for (const std::string& x :
       {std::string("3#u"), codec::EncodeFields({"x", "0", "1"}),
        codec::EncodeFields({codec::EncodeFields({"3", "u", "0,1,2"}), "0",
                             "1"})}) {
    Status status;
    ExpectFacesAgree(Entry("connectivity-via-bds").witness, x, &status);
    EXPECT_FALSE(status.ok());
  }
}

// ---------------------------------------------------------------------------
// Union-find labels and the directed-data refusal.
// ---------------------------------------------------------------------------

TEST(PiViewTest, UnionFindLabelsEqualConnectedComponents) {
  // Random undirected edge lists written as they are — self-loops,
  // parallel edges (both orientations), isolated nodes — including n = 0
  // and n = 1 and a part above the parallel grain.
  Rng rng(1905);
  const PiWitness& conn = Entry("connectivity").witness;
  for (graph::NodeId n : {0, 1, 2, 3, 17, 300, 20000}) {
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
      const int64_t m = n == 0 ? 0 : rng.NextInRange(0, 2 * int64_t{n});
      for (int64_t i = 0; i < m; ++i) {
        const auto u = static_cast<graph::NodeId>(rng.NextBelow(n));
        const auto v = static_cast<graph::NodeId>(rng.NextBelow(n));
        edges.emplace_back(u, v);
        if (rng.NextBool(0.1)) edges.emplace_back(u, u);   // self-loop
        if (rng.NextBool(0.2)) edges.emplace_back(v, u);   // parallel edge
      }
      SCOPED_TRACE("n=" + std::to_string(n) + " |E|=" +
                   std::to_string(edges.size()));
      const auto g = graph::Graph::FromEdges(n, edges, /*directed=*/false);
      ASSERT_TRUE(g.ok());
      Status status;
      Charges charges;
      const std::string payload = ExpectFacesAgree(
          conn, GraphData(RawGraph(n, false, edges)), &status, &charges);
      ASSERT_TRUE(status.ok()) << status.ToString();
      const auto comp = graph::ConnectedComponents(*g);
      EXPECT_EQ(payload, codec::EncodeInts(std::vector<int64_t>(
                             comp.component.begin(), comp.component.end())));
      // n + |E|, |E| de-duplicated as FromEdges counts it.
      const int64_t charge = n + g->num_edges();
      EXPECT_EQ(charges, (Charges{charge, charge, 0, 0}));
    }
  }
}

TEST(PiViewTest, ConnectivityRefusesDirectedData) {
  // The arc 0→1 does not connect 1 to 0, so L_conn says no; component
  // labels cannot say that, so the connectivity Π refuses directed data
  // instead of answering yes.
  const auto arc = graph::Graph::FromEdges(2, {{0, 1}}, /*directed=*/true);
  ASSERT_TRUE(arc.ok());
  const std::string x = core::MakeConnInstance(*arc, 1, 0);
  auto reference = core::ConnectivityProblem().contains(x);
  ASSERT_TRUE(reference.ok());
  EXPECT_FALSE(*reference);

  auto answered = DefaultEngine().AnswerInstance("connectivity", x);
  ASSERT_FALSE(answered.ok()) << "answered " << *answered;
  EXPECT_EQ(answered.status().code(), StatusCode::kInvalidArgument);

  Status status;
  ExpectFacesAgree(core::ConnWitness(),
                   core::ConnFactorization().pi1(x).value(), &status);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);

  // The same arc undirected is answered.
  const auto edge = graph::Graph::FromEdges(2, {{0, 1}}, /*directed=*/false);
  ASSERT_TRUE(edge.ok());
  auto connected = DefaultEngine().AnswerInstance(
      "connectivity", core::MakeConnInstance(*edge, 1, 0));
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  EXPECT_TRUE(*connected);
}

}  // namespace
}  // namespace engine
}  // namespace pitract
