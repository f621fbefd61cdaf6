#include "core/problems.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <type_traits>

#include "bds/bds.h"
#include "circuit/transforms.h"
#include "common/codec.h"
#include "common/heap_bytes.h"
#include "common/parallel.h"
#include "core/int_column.h"
#include "graph/algos.h"
#include "ncsim/ncsim.h"

namespace pitract {
namespace core {

namespace {

/// Decodes a single int64 field.
Result<int64_t> DecodeInt(const std::string& field) {
  return codec::DecodeSingleInt(field);
}

Result<std::vector<std::string>> DecodeExactly(const std::string& x,
                                               size_t n,
                                               const std::string& what) {
  return codec::DecodeFieldsExactly(x, n, what);
}

/// The int-list view of `values`, whose smallest and largest are known.
PiViewPtr ColumnView(std::span<const int64_t> values, int64_t min,
                     int64_t max) {
  return std::make_shared<const IntColumn>(values, min, max);
}

/// Shared deserialize hook for the int-list-shaped Π payloads (sorted
/// column, component labels, BDS ranks): one IntColumn at the narrowest
/// width the values' range allows, decoded once per store entry instead
/// of once per query. The parse folds in the bounds the width needs.
Result<PiViewPtr> DeserializeIntListView(
    const std::shared_ptr<const std::string>& prepared, CostMeter*) {
  codec::IntBounds bounds;
  auto values = codec::DecodeInts(*prepared, &bounds);
  if (!values.ok()) return values.status();
  return ColumnView(*values, bounds.min, bounds.max);
}

const IntColumn& ColumnOf(const void* view) {
  return *static_cast<const IntColumn*>(view);
}

/// encode_view for the int-list views: the member, connectivity, BDS and
/// interval Π print their payload from the column (EncodedPreprocess) and
/// the member Δ-patch with codec::EncodeInts, so printing the column's
/// values reproduces it byte for byte.
Status EncodeIntListView(const void* view, std::string* out) {
  ColumnOf(view).AppendTo(out);
  return Status::OK();
}

size_t IntListEncodedSize(const void* view) {
  return ColumnOf(view).EncodedSize();
}

/// view_bytes for the int-list views: the make_shared block plus the
/// column's one buffer.
size_t IntListViewBytes(const void* view) {
  return MakeSharedHeapBytes<IntColumn>() + ColumnOf(view).heap_bytes();
}

/// Makes `pi` the witness's Π (preprocess_view) with the int-list view
/// hooks, and its string face the column printed.
void SetIntListPi(
    std::function<Result<PiViewPtr>(const std::string&, CostMeter*)> pi,
    PiWitness* w) {
  w->preprocess_view = std::move(pi);
  w->deserialize = DeserializeIntListView;
  w->encode_view = EncodeIntListView;
  w->encoded_size = IntListEncodedSize;
  w->view_bytes = IntListViewBytes;
  w->preprocess = EncodedPreprocess(*w);
}

/// The member (and interval) Π: decode the list, radix-sort it, and hold
/// it as a column whose bounds are the sorted ends.
Result<PiViewPtr> SortedColumnPi(const std::string& data, CostMeter* meter) {
  std::vector<std::string> storage;
  auto fields =
      codec::DecodeFieldViewsExactly(data, 2, "member data", &storage);
  if (!fields.ok()) return fields.status();
  auto list = codec::DecodeInts((*fields)[1]);
  if (!list.ok()) return list.status();
  parallel::RadixSortInts(&*list);
  const auto n = static_cast<int64_t>(list->size());
  if (meter != nullptr) {
    meter->AddSerial(n * (ncsim::CeilLog2(n < 1 ? 1 : n) + 1));
  }
  if (list->empty()) return ColumnView(*list, 0, 0);
  return ColumnView(*list, list->front(), list->back());
}

/// Distinct undirected edges, as Graph::FromEdges counts them: parallel
/// edges once, a self-loop once.
int64_t DistinctUndirectedEdges(
    const std::vector<std::pair<graph::NodeId, graph::NodeId>>& edges) {
  std::vector<int64_t> keys;
  keys.reserve(edges.size());
  for (const auto& [u, v] : edges) {
    keys.push_back((int64_t{std::min(u, v)} << 32) | std::max(u, v));
  }
  parallel::RadixSortInts(&keys);
  return std::unique(keys.begin(), keys.end()) - keys.begin();
}

/// The connectivity Π: component labels by union-find over the validated
/// edge list. Each union links the larger root under the smaller, so a
/// root is its component's smallest node, and numbering roots in node
/// order gives the labels graph::ConnectedComponents' BFS gives. Charged
/// n + |E|, |E| as Graph::FromEdges counts it.
Result<PiViewPtr> ComponentLabelsPi(const std::string& data,
                                    CostMeter* meter) {
  std::vector<std::string> storage;
  auto fields = codec::DecodeFieldViewsExactly(data, 1, "conn data", &storage);
  if (!fields.ok()) return fields.status();
  PITRACT_ASSIGN_OR_RETURN(graph::EdgeList list,
                           graph::DecodeEdgeList((*fields)[0]));
  if (list.directed) {
    // Labels are symmetric; directed connectivity is reachability.
    return Status::InvalidArgument(
        "component labels need an undirected graph, got a directed one");
  }
  const auto n = static_cast<size_t>(list.num_nodes);
  std::vector<graph::NodeId> parent(n);
  for (size_t i = 0; i < n; ++i) parent[i] = static_cast<graph::NodeId>(i);
  auto find = [&parent](graph::NodeId x) {
    while (parent[static_cast<size_t>(x)] != x) {
      // Path halving.
      x = parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
    }
    return x;
  };
  for (const auto& [u, v] : list.edges) {
    const graph::NodeId ru = find(u);
    const graph::NodeId rv = find(v);
    if (ru < rv) {
      parent[static_cast<size_t>(rv)] = ru;
    } else if (rv < ru) {
      parent[static_cast<size_t>(ru)] = rv;
    }
  }
  std::vector<int64_t> labels(n);
  int64_t components = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto root = static_cast<size_t>(find(static_cast<graph::NodeId>(i)));
    labels[i] = root == i ? components++ : labels[root];
  }
  if (meter != nullptr) {
    meter->AddSerial(static_cast<int64_t>(n) +
                     DistinctUndirectedEdges(list.edges));
  }
  return ColumnView(labels, 0, components - 1);
}

/// The BDS Π (Example 5): run the breadth-depth search once and hold the
/// rank of each node in the visit order M (the inverted list).
Result<PiViewPtr> BdsRankPi(const std::string& data, CostMeter* meter) {
  std::vector<std::string> storage;
  auto fields = codec::DecodeFieldViewsExactly(data, 1, "bds data", &storage);
  if (!fields.ok()) return fields.status();
  auto g = graph::Graph::Decode((*fields)[0]);
  if (!g.ok()) return g.status();
  auto order = bds::BdsVisitOrder(*g, meter);
  std::vector<int64_t> rank(order.size(), 0);
  for (size_t pos = 0; pos < order.size(); ++pos) {
    rank[static_cast<size_t>(order[pos])] = static_cast<int64_t>(pos);
  }
  return ColumnView(rank, 0, static_cast<int64_t>(order.size()) - 1);
}

// ---------------------------------------------------------------------------
// Batch kernels (PiWitness::decode_query / answer_view_batch)
// ---------------------------------------------------------------------------
//
// The vectorized face of the decoded views: queries arrive pre-decoded as
// a span, answers leave through a caller-owned 0/1 span, and the meter is
// charged once per batch — identical total work to `answer`'s probes,
// depth of one probe (the batch is conceptually parallel — the NC claim),
// and one set of relaxed RMWs instead of two per query. The probe loops
// are branchless: conditional moves instead of data-dependent branches,
// range violations accumulated into one flag checked after the loop, so
// the pipeline stays full and the gather-and-compare shapes autovectorize
// under -march=native (cmake -DPITRACT_NATIVE=ON).

/// Branchless std::lower_bound: index of the first element >= key. The
/// selects compile to conditional moves, so the probe loop carries no
/// unpredictable branch.
template <typename T>
inline size_t BranchlessLowerBound(const T* a, size_t n, T key) {
  size_t lo = 0;
  size_t len = n;
  while (len > 0) {
    const size_t half = len >> 1;
    const bool right = a[lo + half] < key;
    lo = right ? lo + half + 1 : lo;
    len = right ? len - half - 1 : half;
  }
  return lo;
}

/// The per-query charge of one binary search (ncsim::ChargeBinarySearch).
inline int64_t BinarySearchOps(size_t n) {
  return ncsim::CeilLog2(n < 1 ? 1 : static_cast<int64_t>(n)) + 1;
}

/// Once-per-batch charge for `probes` independent probes of
/// `ops_per_probe` serial ops touching `bytes_per_probe` bytes each.
inline void ChargeBatch(CostMeter* meter, int64_t probes,
                        int64_t ops_per_probe, int64_t bytes_per_probe) {
  if (meter == nullptr || probes <= 0) return;
  meter->AddParallel(probes * ops_per_probe, ops_per_probe);
  meter->AddBytesRead(probes * bytes_per_probe);
}

/// decode_query for single-int queries (membership element, gate id).
Status DecodeIntQueryHook(const std::string& query, DecodedQuery* out,
                          std::vector<int64_t>*) {
  auto e = codec::DecodeSingleInt(query);
  if (!e.ok()) return e.status();
  out->a = *e;
  return Status::OK();
}

/// decode_query for "a#b" int-pair queries (graph endpoints).
Status DecodeIntPairQueryHook(const std::string& query, DecodedQuery* out,
                              std::vector<int64_t>*) {
  auto q = DecodeIntPairQuery(query, "pair query");
  if (!q.ok()) return q.status();
  out->a = q->first;
  out->b = q->second;
  return Status::OK();
}

/// Shared kernel shape of the two int-pair gather views (component labels,
/// BDS ranks): gather two stored offsets per query, compare. `Compare`
/// maps the gathered pair to the 0/1 answer; offsets compare as their
/// values do, since the frame subtracts one base from both.
/// `ops_per_probe` preserves each witness's per-query charge (two label
/// reads for connectivity; Example 5's two binary searches for BDS).
template <typename Compare>
Status PairGatherKernel(const IntColumn& column,
                        std::span<const DecodedQuery> queries,
                        std::span<uint8_t> answers, CostMeter* meter,
                        int64_t ops_per_probe, const char* range_error,
                        Compare compare) {
  const uint64_t n = column.size();
  if (n == 0) {
    return queries.empty() ? Status::OK() : Status::OutOfRange(range_error);
  }
  const uint64_t bad = column.Visit([&](const auto* data) {
    uint64_t bad = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      // Negative ids wrap to huge unsigned values, so one compare covers
      // both range violations; violating gathers are clamped in-range (the
      // whole batch fails below, the gathered value is never reported).
      const uint64_t u = static_cast<uint64_t>(queries[i].a);
      const uint64_t v = static_cast<uint64_t>(queries[i].b);
      bad |= (u >= n) | (v >= n);
      const size_t ui = u < n ? static_cast<size_t>(u) : 0;
      const size_t vi = v < n ? static_cast<size_t>(v) : 0;
      answers[i] = static_cast<uint8_t>(compare(data[ui], data[vi]));
    }
    return bad;
  });
  if (bad != 0) return Status::OutOfRange(range_error);
  ChargeBatch(meter, static_cast<int64_t>(queries.size()), ops_per_probe,
              /*bytes_per_probe=*/16);
  return Status::OK();
}

Result<std::pair<int64_t, int64_t>> DecodeIntPair(std::string_view first,
                                                  std::string_view second) {
  auto a = codec::DecodeSingleInt(first);
  if (!a.ok()) return a.status();
  auto b = codec::DecodeSingleInt(second);
  if (!b.ok()) return b.status();
  return std::make_pair(*a, *b);
}

}  // namespace

Result<std::pair<int64_t, int64_t>> DecodeIntPairQuery(std::string_view query,
                                                       std::string_view what) {
  if (auto views = codec::DecodeFieldsView(query)) {
    // Escape-free common case: two string_view slices, zero copies.
    if (views->size() != 2) {
      return Status::InvalidArgument(std::string(what) +
                                     " expects 2 fields, got " +
                                     std::to_string(views->size()));
    }
    return DecodeIntPair((*views)[0], (*views)[1]);
  }
  auto fields = codec::DecodeFieldsExactly(query, 2, what);
  if (!fields.ok()) return fields.status();
  return DecodeIntPair((*fields)[0], (*fields)[1]);
}

// ---------------------------------------------------------------------------
// Problems (reference semantics)
// ---------------------------------------------------------------------------

DecisionProblem ListMembershipProblem() {
  DecisionProblem p;
  p.name = "L_member";
  p.contains = [](const std::string& x) -> Result<bool> {
    auto fields = DecodeExactly(x, 3, "L_member");
    if (!fields.ok()) return fields.status();
    auto list = codec::DecodeInts((*fields)[1]);
    if (!list.ok()) return list.status();
    auto e = DecodeInt((*fields)[2]);
    if (!e.ok()) return e.status();
    return std::find(list->begin(), list->end(), *e) != list->end();
  };
  return p;
}

DecisionProblem ConnectivityProblem() {
  DecisionProblem p;
  p.name = "L_conn";
  p.contains = [](const std::string& x) -> Result<bool> {
    auto fields = DecodeExactly(x, 3, "L_conn");
    if (!fields.ok()) return fields.status();
    auto g = graph::Graph::Decode((*fields)[0]);
    if (!g.ok()) return g.status();
    auto s = DecodeInt((*fields)[1]);
    if (!s.ok()) return s.status();
    auto t = DecodeInt((*fields)[2]);
    if (!t.ok()) return t.status();
    if (*s < 0 || *s >= g->num_nodes() || *t < 0 || *t >= g->num_nodes()) {
      return Status::OutOfRange("endpoint out of range");
    }
    return graph::BfsReachable(*g, static_cast<graph::NodeId>(*s),
                               static_cast<graph::NodeId>(*t), nullptr);
  };
  return p;
}

DecisionProblem BdsProblem() {
  DecisionProblem p;
  p.name = "L_bds";
  p.contains = [](const std::string& x) -> Result<bool> {
    auto fields = DecodeExactly(x, 3, "L_bds");
    if (!fields.ok()) return fields.status();
    auto g = graph::Graph::Decode((*fields)[0]);
    if (!g.ok()) return g.status();
    auto u = DecodeInt((*fields)[1]);
    if (!u.ok()) return u.status();
    auto v = DecodeInt((*fields)[2]);
    if (!v.ok()) return v.status();
    return bds::BdsVisitedBeforeOnline(*g, static_cast<graph::NodeId>(*u),
                                       static_cast<graph::NodeId>(*v),
                                       nullptr);
  };
  return p;
}

DecisionProblem ReachabilityProblem() {
  DecisionProblem p;
  p.name = "L_reach";
  p.contains = [](const std::string& x) -> Result<bool> {
    auto fields = DecodeExactly(x, 3, "L_reach");
    if (!fields.ok()) return fields.status();
    auto g = graph::Graph::Decode((*fields)[0]);
    if (!g.ok()) return g.status();
    auto s = DecodeInt((*fields)[1]);
    if (!s.ok()) return s.status();
    auto t = DecodeInt((*fields)[2]);
    if (!t.ok()) return t.status();
    if (*s < 0 || *s >= g->num_nodes() || *t < 0 || *t >= g->num_nodes()) {
      return Status::OutOfRange("endpoint out of range");
    }
    return graph::BfsReachable(*g, static_cast<graph::NodeId>(*s),
                               static_cast<graph::NodeId>(*t), nullptr);
  };
  return p;
}

DecisionProblem CvpProblem() {
  DecisionProblem p;
  p.name = "L_cvp";
  p.contains = [](const std::string& x) -> Result<bool> {
    auto instance = circuit::CvpInstance::Decode(x);
    if (!instance.ok()) return instance.status();
    return instance->circuit.Evaluate(instance->assignment, nullptr);
  };
  return p;
}

DecisionProblem GateValueProblem() {
  DecisionProblem p;
  p.name = "L_gvp";
  p.contains = [](const std::string& x) -> Result<bool> {
    auto fields = DecodeExactly(x, 3, "L_gvp");
    if (!fields.ok()) return fields.status();
    auto instance = circuit::CvpInstance::Decode(
        codec::EncodeFields({(*fields)[0], (*fields)[1]}));
    if (!instance.ok()) return instance.status();
    auto gate = DecodeInt((*fields)[2]);
    if (!gate.ok()) return gate.status();
    if (*gate < 0 || *gate >= instance->circuit.num_gates()) {
      return Status::OutOfRange("gate id out of range");
    }
    auto values = instance->circuit.EvaluateAll(instance->assignment, nullptr);
    if (!values.ok()) return values.status();
    return (*values)[static_cast<size_t>(*gate)] != 0;
  };
  return p;
}

// ---------------------------------------------------------------------------
// Instance builders
// ---------------------------------------------------------------------------

std::string MakeMemberInstance(int64_t universe,
                               const std::vector<int64_t>& list, int64_t e) {
  return codec::EncodeFields({std::to_string(universe),
                              codec::EncodeInts(list), std::to_string(e)});
}

std::string MakeConnInstance(const graph::Graph& g, graph::NodeId s,
                             graph::NodeId t) {
  return codec::EncodeFields(
      {g.Encode(), std::to_string(s), std::to_string(t)});
}

std::string MakeBdsInstance(const graph::Graph& g, graph::NodeId u,
                            graph::NodeId v) {
  return codec::EncodeFields(
      {g.Encode(), std::to_string(u), std::to_string(v)});
}

std::string MakeReachInstance(const graph::Graph& g, graph::NodeId s,
                              graph::NodeId t) {
  return codec::EncodeFields(
      {g.Encode(), std::to_string(s), std::to_string(t)});
}

std::string MakeCvpInstanceString(const circuit::CvpInstance& instance) {
  return instance.Encode();
}

std::string MakeGvpInstance(const circuit::CvpInstance& instance,
                            circuit::GateId gate) {
  auto fields = codec::DecodeFields(instance.Encode());
  // CvpInstance::Encode always yields [circuit, bits].
  return codec::EncodeFields(
      {(*fields)[0], (*fields)[1], std::to_string(gate)});
}

// ---------------------------------------------------------------------------
// Factorizations
// ---------------------------------------------------------------------------

Factorization MemberFactorization() {
  return FieldSplitFactorization("Y_member", /*query_fields=*/1);
}
Factorization ConnFactorization() {
  return FieldSplitFactorization("Y_conn", /*query_fields=*/2);
}
Factorization BdsFactorization() {
  return FieldSplitFactorization("Y_BDS", /*query_fields=*/2);
}
Factorization ReachFactorization() {
  return FieldSplitFactorization("Y_reach", /*query_fields=*/2);
}
Factorization CvpCircuitDataFactorization() {
  return FieldSplitFactorization("Y_cvp_circ", /*query_fields=*/1);
}
Factorization GvpFactorization() {
  return FieldSplitFactorization("Y_gvp", /*query_fields=*/1);
}

// ---------------------------------------------------------------------------
// Witnesses
// ---------------------------------------------------------------------------

PiWitness MemberWitness() {
  PiWitness w;
  w.name = "sort+binary-search";
  SetIntListPi(SortedColumnPi, &w);
  w.answer = [](const std::string& prepared, const std::string& query,
                CostMeter* meter) -> Result<bool> {
    auto sorted = codec::DecodeInts(prepared);
    if (!sorted.ok()) return sorted.status();
    auto e = DecodeInt(query);
    if (!e.ok()) return e.status();
    ncsim::ChargeBinarySearch(meter, static_cast<int64_t>(sorted->size()));
    return std::binary_search(sorted->begin(), sorted->end(), *e);
  };
  // Decoded view: the sorted column as an IntColumn. Batches pre-decode
  // their elements, move each into the column's frame (a key outside
  // [min, max] answers false) and run branchless lower_bound probes over
  // the offsets, one charge per batch — no O(|Π(D)|) re-decode.
  w.decode_query = DecodeIntQueryHook;
  w.answer_view_batch = [](const void* view,
                           std::span<const DecodedQuery> queries,
                           std::span<uint8_t> answers,
                           CostMeter* meter) -> Status {
    const IntColumn& sorted = ColumnOf(view);
    const size_t n = sorted.size();
    sorted.Visit([&](const auto* data) {
      using T = std::remove_cvref_t<decltype(*data)>;
      for (size_t i = 0; i < queries.size(); ++i) {
        T key;
        const bool in = sorted.Offset(queries[i].a, &key);
        const size_t pos = BranchlessLowerBound(data, n, key);
        answers[i] = static_cast<uint8_t>(in && pos < n && data[pos] == key);
      }
    });
    const int64_t ops = BinarySearchOps(n);
    ChargeBatch(meter, static_cast<int64_t>(queries.size()), ops, 8 * ops);
    return Status::OK();
  };
  return w;
}

PiWitness ConnWitness() {
  PiWitness w;
  w.name = "component-labels";
  SetIntListPi(ComponentLabelsPi, &w);
  w.answer = [](const std::string& prepared, const std::string& query,
                CostMeter* meter) -> Result<bool> {
    auto labels = codec::DecodeInts(prepared);
    if (!labels.ok()) return labels.status();
    auto q = DecodeIntPairQuery(query, "conn query");
    if (!q.ok()) return q.status();
    const auto [s, t] = *q;
    if (s < 0 || s >= static_cast<int64_t>(labels->size()) || t < 0 ||
        t >= static_cast<int64_t>(labels->size())) {
      return Status::OutOfRange("endpoint out of range");
    }
    if (meter != nullptr) meter->AddSerial(2);
    return (*labels)[static_cast<size_t>(s)] ==
           (*labels)[static_cast<size_t>(t)];
  };
  // Decoded view: the component-label array — a warm query is two O(1)
  // label probes, gathered contiguously with branchless range checks.
  w.decode_query = DecodeIntPairQueryHook;
  w.answer_view_batch = [](const void* view,
                           std::span<const DecodedQuery> queries,
                           std::span<uint8_t> answers,
                           CostMeter* meter) -> Status {
    return PairGatherKernel(ColumnOf(view), queries, answers, meter,
                            /*ops_per_probe=*/2, "endpoint out of range",
                            [](auto a, auto b) { return a == b; });
  };
  return w;
}

PiWitness BdsWitness() {
  PiWitness w;
  w.name = "BDS-order (Example 5)";
  SetIntListPi(BdsRankPi, &w);
  w.answer = [](const std::string& prepared, const std::string& query,
                CostMeter* meter) -> Result<bool> {
    auto rank = codec::DecodeInts(prepared);
    if (!rank.ok()) return rank.status();
    auto q = DecodeIntPairQuery(query, "bds query");
    if (!q.ok()) return q.status();
    const auto [u, v] = *q;
    if (u < 0 || u >= static_cast<int64_t>(rank->size()) || v < 0 ||
        v >= static_cast<int64_t>(rank->size())) {
      return Status::OutOfRange("node id out of range");
    }
    // The paper's bound: two binary searches on M, O(log |M|).
    ncsim::ChargeBinarySearch(meter, static_cast<int64_t>(rank->size()));
    ncsim::ChargeBinarySearch(meter, static_cast<int64_t>(rank->size()));
    return (*rank)[static_cast<size_t>(u)] < (*rank)[static_cast<size_t>(v)];
  };
  // Decoded view: the rank array of Example 5's visit order M — a warm
  // query is two contiguous rank gathers, charged as the same two binary
  // searches, without re-decoding M.
  w.decode_query = DecodeIntPairQueryHook;
  w.answer_view_batch = [](const void* view,
                           std::span<const DecodedQuery> queries,
                           std::span<uint8_t> answers,
                           CostMeter* meter) -> Status {
    const IntColumn& rank = ColumnOf(view);
    return PairGatherKernel(rank, queries, answers, meter,
                            /*ops_per_probe=*/2 * BinarySearchOps(rank.size()),
                            "node id out of range",
                            [](auto a, auto b) { return a < b; });
  };
  return w;
}

PiWitness GvpWitness() {
  PiWitness w;
  w.name = "evaluate-all-gates";
  w.preprocess = [](const std::string& data,
                    CostMeter* meter) -> Result<std::string> {
    auto instance = circuit::CvpInstance::Decode(data);
    if (!instance.ok()) return instance.status();
    auto values = instance->circuit.EvaluateAll(instance->assignment, meter);
    if (!values.ok()) return values.status();
    std::string bitmap(values->size(), '0');
    for (size_t i = 0; i < values->size(); ++i) {
      if ((*values)[i]) bitmap[i] = '1';
    }
    return bitmap;
  };
  w.answer = [](const std::string& prepared, const std::string& query,
                CostMeter* meter) -> Result<bool> {
    auto gate = DecodeInt(query);
    if (!gate.ok()) return gate.status();
    if (*gate < 0 || *gate >= static_cast<int64_t>(prepared.size())) {
      return Status::OutOfRange("gate id out of range");
    }
    if (meter != nullptr) {
      meter->AddSerial(1);
      meter->AddBytesRead(1);
    }
    return prepared[static_cast<size_t>(*gate)] == '1';
  };
  // The bitmap is already its own O(1)-probe structure, so the "view" is
  // the payload itself: an aliasing shared_ptr, zero bytes copied. GVP
  // rides the same warm path as the rest without doubling its residency.
  w.deserialize = [](const std::shared_ptr<const std::string>& prepared,
                     CostMeter*) -> Result<PiViewPtr> {
    return PiViewPtr(prepared, static_cast<const void*>(prepared.get()));
  };
  // The alias holds no bytes of its own: dropping it frees nothing.
  w.view_bytes = [](const void*) -> size_t { return 0; };
  // Batch face: branchless byte probes over the gate-value bitmap.
  w.decode_query = DecodeIntQueryHook;
  w.answer_view_batch = [](const void* view,
                           std::span<const DecodedQuery> queries,
                           std::span<uint8_t> answers,
                           CostMeter* meter) -> Status {
    const std::string& bitmap = *static_cast<const std::string*>(view);
    const uint64_t n = bitmap.size();
    if (n == 0) {
      return queries.empty() ? Status::OK()
                             : Status::OutOfRange("gate id out of range");
    }
    const char* bits = bitmap.data();
    uint64_t bad = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      const uint64_t g = static_cast<uint64_t>(queries[i].a);
      bad |= g >= n;
      const size_t gi = g < n ? static_cast<size_t>(g) : 0;
      answers[i] = static_cast<uint8_t>(bits[gi] == '1');
    }
    if (bad != 0) return Status::OutOfRange("gate id out of range");
    ChargeBatch(meter, static_cast<int64_t>(queries.size()),
                /*ops_per_probe=*/1, /*bytes_per_probe=*/1);
    return Status::OK();
  };
  return w;
}

PiWitness CvpEmptyDataWitness() {
  PiWitness w;
  w.name = "Y0: preprocess nothing, evaluate per query";
  w.preprocess = [](const std::string& data,
                    CostMeter* meter) -> Result<std::string> {
    if (!data.empty()) {
      return Status::InvalidArgument("Y0 data part must be empty");
    }
    // Π(ε) is a constant function — there is nothing to preprocess, which
    // is precisely why this factorization cannot make CVP Π-tractable
    // (Theorem 9).
    if (meter != nullptr) meter->AddSerial(1);
    return std::string();
  };
  w.answer = [](const std::string& prepared, const std::string& query,
                CostMeter* meter) -> Result<bool> {
    if (!prepared.empty()) {
      return Status::InvalidArgument("Y0 preprocessed part must be empty");
    }
    auto instance = circuit::CvpInstance::Decode(query);
    if (!instance.ok()) return instance.status();
    return instance->circuit.Evaluate(instance->assignment, meter);
  };
  return w;
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

NcFactorReduction MemberToConnReduction() {
  NcFactorReduction r;
  r.name = "member<=conn";
  r.source_factorization = MemberFactorization();
  r.target_factorization = ConnFactorization();
  // α: (U, M) -> star graph with root 0 and value nodes 1..U; value m is
  // attached iff m ∈ M. A per-element (NC) map.
  r.alpha = [](const std::string& data) -> Result<std::string> {
    auto fields = DecodeExactly(data, 2, "member data");
    if (!fields.ok()) return fields.status();
    auto universe = DecodeInt((*fields)[0]);
    if (!universe.ok()) return universe.status();
    auto list = codec::DecodeInts((*fields)[1]);
    if (!list.ok()) return list.status();
    std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
    edges.reserve(list->size());
    for (int64_t m : *list) {
      if (m < 0 || m >= *universe) {
        return Status::OutOfRange("list element outside universe");
      }
      edges.emplace_back(0, static_cast<graph::NodeId>(1 + m));
    }
    auto g = graph::Graph::FromEdges(
        static_cast<graph::NodeId>(*universe + 1), edges,
        /*directed=*/false);
    if (!g.ok()) return g.status();
    return codec::EncodeFields({g->Encode()});
  };
  // β: e -> (0, 1 + e), touching only the query part.
  r.beta = [](const std::string& query) -> Result<std::string> {
    auto e = DecodeInt(query);
    if (!e.ok()) return e.status();
    if (*e < 0) return Status::OutOfRange("negative element");
    return codec::EncodeFields({"0", std::to_string(1 + *e)});
  };
  return r;
}

namespace {

/// The ConnToBds renumbering: s -> 0, the fresh isolated witness node is 1,
/// every other original node i -> i + 2 if i < s else i + 1.
graph::NodeId RenumberForBds(graph::NodeId i, graph::NodeId s) {
  if (i == s) return 0;
  return i < s ? i + 2 : i + 1;
}

}  // namespace

NcFactorReduction ConnToBdsReduction() {
  NcFactorReduction r;
  r.name = "conn<=bds";
  r.source_factorization = TrivialFactorization();
  r.target_factorization = BdsFactorization();
  // α sees the whole CONN instance (trivial factorization — the shape of
  // Theorem 5's hardness construction) and emits the renumbered graph plus
  // the isolated witness node.
  r.alpha = [](const std::string& x) -> Result<std::string> {
    auto fields = DecodeExactly(x, 3, "conn instance");
    if (!fields.ok()) return fields.status();
    auto g = graph::Graph::Decode((*fields)[0]);
    if (!g.ok()) return g.status();
    auto s = DecodeInt((*fields)[1]);
    if (!s.ok()) return s.status();
    const auto source = static_cast<graph::NodeId>(*s);
    if (source < 0 || source >= g->num_nodes()) {
      return Status::OutOfRange("source out of range");
    }
    std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
    for (const auto& [a, b] : g->Edges()) {
      edges.emplace_back(RenumberForBds(a, source),
                         RenumberForBds(b, source));
    }
    auto mapped = graph::Graph::FromEdges(g->num_nodes() + 1, edges,
                                          /*directed=*/false);
    if (!mapped.ok()) return mapped.status();
    return codec::EncodeFields({mapped->Encode()});
  };
  // β also sees the whole instance and emits (t', witness): the BDS of the
  // renumbered graph exhausts comp(s) starting at node 0, then restarts at
  // the isolated node 1 — so conn(s, t) iff t' is visited before node 1.
  r.beta = [](const std::string& x) -> Result<std::string> {
    auto fields = DecodeExactly(x, 3, "conn instance");
    if (!fields.ok()) return fields.status();
    auto s = DecodeInt((*fields)[1]);
    if (!s.ok()) return s.status();
    auto t = DecodeInt((*fields)[2]);
    if (!t.ok()) return t.status();
    const auto mapped_t = RenumberForBds(static_cast<graph::NodeId>(*t),
                                         static_cast<graph::NodeId>(*s));
    return codec::EncodeFields({std::to_string(mapped_t), "1"});
  };
  return r;
}

namespace {

/// The data part produced by CvpCircuitDataFactorization is the circuit
/// encoding wrapped as a single (escaped) field; unwrap before decoding.
Result<circuit::Circuit> DecodeCircuitDataPart(const std::string& data) {
  auto fields = DecodeExactly(data, 1, "cvp data part");
  if (!fields.ok()) return fields.status();
  return circuit::Circuit::Decode((*fields)[0]);
}

}  // namespace

// ---------------------------------------------------------------------------
// λ-rewriting: predicate selection (remark under Definition 1)
// ---------------------------------------------------------------------------

namespace {

constexpr int64_t kPredEq = 0;
constexpr int64_t kPredLe = 1;
constexpr int64_t kPredGe = 2;
constexpr int64_t kPredBetween = 3;
constexpr int64_t kIntervalMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kIntervalMax = std::numeric_limits<int64_t>::max();

/// Normalizes "op,a(,b)" to the closed interval [lo, hi].
Result<std::pair<int64_t, int64_t>> PredicateToInterval(
    const std::string& predicate) {
  auto parts = codec::DecodeInts(predicate);
  if (!parts.ok()) return parts.status();
  if (parts->empty()) return Status::InvalidArgument("empty predicate");
  const int64_t op = (*parts)[0];
  switch (op) {
    case kPredEq:
      if (parts->size() != 2) {
        return Status::InvalidArgument("eq predicate needs 1 argument");
      }
      return std::make_pair((*parts)[1], (*parts)[1]);
    case kPredLe:
      if (parts->size() != 2) {
        return Status::InvalidArgument("le predicate needs 1 argument");
      }
      return std::make_pair(kIntervalMin, (*parts)[1]);
    case kPredGe:
      if (parts->size() != 2) {
        return Status::InvalidArgument("ge predicate needs 1 argument");
      }
      return std::make_pair((*parts)[1], kIntervalMax);
    case kPredBetween:
      if (parts->size() != 3) {
        return Status::InvalidArgument("between predicate needs 2 arguments");
      }
      return std::make_pair((*parts)[1], (*parts)[2]);
    default:
      return Status::InvalidArgument("unknown predicate op " +
                                     std::to_string(op));
  }
}

}  // namespace

DecisionProblem PredicateSelectionProblem() {
  DecisionProblem p;
  p.name = "L_sel";
  p.contains = [](const std::string& x) -> Result<bool> {
    auto fields = DecodeExactly(x, 3, "L_sel");
    if (!fields.ok()) return fields.status();
    auto list = codec::DecodeInts((*fields)[1]);
    if (!list.ok()) return list.status();
    auto interval = PredicateToInterval((*fields)[2]);
    if (!interval.ok()) return interval.status();
    for (int64_t m : *list) {
      if (m >= interval->first && m <= interval->second) return true;
    }
    return false;
  };
  return p;
}

std::string MakeSelectionInstance(int64_t universe,
                                  const std::vector<int64_t>& list,
                                  const std::vector<int64_t>& predicate) {
  return codec::EncodeFields({std::to_string(universe),
                              codec::EncodeInts(list),
                              codec::EncodeInts(predicate)});
}

Factorization SelectionFactorization() {
  return FieldSplitFactorization("Y_sel", /*query_fields=*/1);
}

QueryRewriter IntervalNormalizingRewriter() {
  QueryRewriter r;
  r.name = "lambda: predicate -> interval";
  r.lambda = [](const std::string& query) -> Result<std::string> {
    auto interval = PredicateToInterval(query);
    if (!interval.ok()) return interval.status();
    return codec::EncodeInts({interval->first, interval->second});
  };
  return r;
}

PiWitness IntervalWitness() {
  PiWitness w;
  w.name = "sorted-list interval probe";
  // Same Π as the membership witness (sort once), same view of it.
  SetIntListPi(SortedColumnPi, &w);
  w.answer = [](const std::string& prepared, const std::string& query,
                CostMeter* meter) -> Result<bool> {
    auto sorted = codec::DecodeInts(prepared);
    if (!sorted.ok()) return sorted.status();
    auto bounds = codec::DecodeInts(query);
    if (!bounds.ok()) return bounds.status();
    if (bounds->size() != 2) {
      return Status::InvalidArgument("interval query needs 2 bounds");
    }
    const int64_t lo = (*bounds)[0];
    const int64_t hi = (*bounds)[1];
    if (lo > hi) return false;
    ncsim::ChargeBinarySearch(meter, static_cast<int64_t>(sorted->size()));
    auto it = std::lower_bound(sorted->begin(), sorted->end(), lo);
    return it != sorted->end() && *it <= hi;
  };
  // Batches run one branchless lower_bound per interval; λ-rewritten
  // entries (predicate-selection) pre-decode through the same rewriter
  // chain, so the kernel only ever sees normalized [lo, hi] pairs.
  w.decode_query = [](const std::string& query, DecodedQuery* out,
                      std::vector<int64_t>* scratch) -> Status {
    std::vector<int64_t> local;
    std::vector<int64_t>* bounds = scratch != nullptr ? scratch : &local;
    bounds->clear();
    PITRACT_RETURN_IF_ERROR(codec::DecodeIntsInto(query, bounds));
    if (bounds->size() != 2) {
      return Status::InvalidArgument("interval query needs 2 bounds");
    }
    out->a = (*bounds)[0];
    out->b = (*bounds)[1];
    return Status::OK();
  };
  w.answer_view_batch = [](const void* view,
                           std::span<const DecodedQuery> queries,
                           std::span<uint8_t> answers,
                           CostMeter* meter) -> Status {
    const IntColumn& sorted = ColumnOf(view);
    const size_t n = sorted.size();
    // Empty intervals answer false without a probe (and without a charge,
    // matching `answer`'s early-out), so count real probes separately.
    int64_t probes = 0;
    sorted.Visit([&](const auto* data) {
      using T = std::remove_cvref_t<decltype(*data)>;
      for (size_t i = 0; i < queries.size(); ++i) {
        const int64_t lo = queries[i].a;
        const int64_t hi = queries[i].b;
        const bool nonempty = lo <= hi;
        probes += nonempty;
        // Bounds clamped into [min, max] keep the probe's answer whenever
        // the interval meets that range at all.
        const bool meets = nonempty && lo <= sorted.max() && hi >= sorted.min();
        const size_t pos = BranchlessLowerBound(data, n, sorted.Clamp<T>(lo));
        answers[i] = static_cast<uint8_t>(meets && pos < n &&
                                          data[pos] <= sorted.Clamp<T>(hi));
      }
    });
    const int64_t ops = BinarySearchOps(n);
    ChargeBatch(meter, probes, ops, /*bytes_per_probe=*/8 * ops);
    return Status::OK();
  };
  return w;
}

FReduction CvpToNandFReduction() {
  FReduction r;
  r.name = "cvp<=nandcvp";
  r.alpha = [](const std::string& data) -> Result<std::string> {
    auto c = DecodeCircuitDataPart(data);
    if (!c.ok()) return c.status();
    auto nand = circuit::ToNandOnly(*c);
    if (!nand.ok()) return nand.status();
    return codec::EncodeFields({nand->Encode()});
  };
  r.beta = [](const std::string& query) -> Result<std::string> {
    return query;  // the assignment is unchanged
  };
  return r;
}

FReduction CvpToMonotoneFReduction() {
  FReduction r;
  r.name = "cvp<=mcvp";
  r.alpha = [](const std::string& data) -> Result<std::string> {
    auto c = DecodeCircuitDataPart(data);
    if (!c.ok()) return c.status();
    auto mono = circuit::ToMonotoneDoubleRail(*c);
    if (!mono.ok()) return mono.status();
    return codec::EncodeFields({mono->Encode()});
  };
  r.beta = [](const std::string& query) -> Result<std::string> {
    std::string doubled;
    doubled.reserve(query.size() * 2);
    for (char bit : query) {
      if (bit != '0' && bit != '1') {
        return Status::InvalidArgument("bad assignment bit");
      }
      doubled.push_back(bit);
      doubled.push_back(bit == '1' ? '0' : '1');
    }
    return doubled;
  };
  return r;
}

}  // namespace core
}  // namespace pitract
