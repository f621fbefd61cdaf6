#include "graph/graph.h"

#include <algorithm>

#include "common/codec.h"

namespace pitract {
namespace graph {

namespace {

/// The checks FromEdges makes of its arguments: n >= 0, every endpoint in
/// [0, n).
Status CheckEdges(NodeId num_nodes,
                  const std::vector<std::pair<NodeId, NodeId>>& edges) {
  if (num_nodes < 0) {
    return Status::InvalidArgument("negative node count n=" +
                                   std::to_string(num_nodes));
  }
  for (const auto& [u, v] : edges) {
    if (u < 0 || u >= num_nodes || v < 0 || v >= num_nodes) {
      return Status::InvalidArgument(
          "edge (" + std::to_string(u) + ", " + std::to_string(v) +
          ") out of range for n=" + std::to_string(num_nodes));
    }
  }
  return Status::OK();
}

}  // namespace

Result<Graph> Graph::FromEdges(
    NodeId num_nodes, const std::vector<std::pair<NodeId, NodeId>>& edges,
    bool directed, bool dedup) {
  PITRACT_RETURN_IF_ERROR(CheckEdges(num_nodes, edges));
  return Build(num_nodes, edges, directed, dedup);
}

Graph Graph::Build(NodeId num_nodes,
                   const std::vector<std::pair<NodeId, NodeId>>& edges,
                   bool directed, bool dedup) {
  Graph g;
  g.num_nodes_ = num_nodes;
  g.directed_ = directed;

  // Counting sort of the arcs (both directions for undirected graphs) by
  // source, then a sort (and with `dedup` a unique) within each row: the
  // CSR a sort of every (source, target) pair would give, without that
  // sort or the pair array.
  const auto n = static_cast<size_t>(num_nodes);
  g.offsets_.assign(n + 1, 0);
  for (const auto& [u, v] : edges) {
    ++g.offsets_[static_cast<size_t>(u) + 1];
    if (!directed && u != v) ++g.offsets_[static_cast<size_t>(v) + 1];
  }
  for (size_t i = 1; i <= n; ++i) g.offsets_[i] += g.offsets_[i - 1];
  g.adj_.resize(static_cast<size_t>(g.offsets_[n]));
  {
    std::vector<int64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
    for (const auto& [u, v] : edges) {
      g.adj_[static_cast<size_t>(cursor[static_cast<size_t>(u)]++)] = v;
      if (!directed && u != v) {
        g.adj_[static_cast<size_t>(cursor[static_cast<size_t>(v)]++)] = u;
      }
    }
  }
  // Rows are sorted in place and, with dedup, compacted leftwards.
  int64_t self_loops = 0;
  int64_t write = 0;
  for (size_t u = 0; u < n; ++u) {
    NodeId* const row = g.adj_.data() + g.offsets_[u];
    NodeId* row_end = g.adj_.data() + g.offsets_[u + 1];
    if (row_end - row > 1) {
      std::sort(row, row_end);
      if (dedup) row_end = std::unique(row, row_end);
    }
    if (!directed) {
      const auto self =
          std::equal_range(row, row_end, static_cast<NodeId>(u));
      self_loops += self.second - self.first;
    }
    g.offsets_[u] = write;
    if (row != g.adj_.data() + write) {
      std::copy(row, row_end, g.adj_.data() + write);
    }
    write += row_end - row;
  }
  g.offsets_[n] = write;
  g.adj_.resize(static_cast<size_t>(write));
  g.adj_.shrink_to_fit();
  if (directed) {
    g.num_edges_ = write;
  } else {
    // Count undirected edges once: self-loops are stored once, ordinary
    // edges twice.
    g.num_edges_ = (write - self_loops) / 2 + self_loops;
  }
  return g;
}

bool Graph::HasEdge(NodeId u, NodeId v) const {
  auto nbrs = OutNeighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

Graph Graph::Reversed() const {
  if (!directed_) return *this;
  Graph g;
  g.num_nodes_ = num_nodes_;
  g.directed_ = true;
  g.num_edges_ = 0;
  g.offsets_.assign(static_cast<size_t>(num_nodes_) + 1, 0);
  for (NodeId u = 0; u < num_nodes_; ++u) {
    for (NodeId v : OutNeighbors(u)) {
      ++g.offsets_[static_cast<size_t>(v) + 1];
    }
  }
  for (size_t i = 1; i < g.offsets_.size(); ++i) {
    g.offsets_[i] += g.offsets_[i - 1];
  }
  g.adj_.resize(adj_.size());
  std::vector<int64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (NodeId u = 0; u < num_nodes_; ++u) {
    for (NodeId v : OutNeighbors(u)) {
      g.adj_[static_cast<size_t>(cursor[static_cast<size_t>(v)]++)] = u;
    }
  }
  g.num_edges_ = static_cast<int64_t>(g.adj_.size());
  // Adjacency lists built by the counting pass are sorted because source
  // nodes are visited in increasing order.
  return g;
}

std::vector<std::pair<NodeId, NodeId>> Graph::Edges() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  for (NodeId u = 0; u < num_nodes_; ++u) {
    for (NodeId v : OutNeighbors(u)) {
      if (directed_ || u <= v) out.emplace_back(u, v);
    }
  }
  return out;
}

std::string Graph::Encode() const {
  std::vector<int64_t> flat;
  auto edges = Edges();
  flat.reserve(edges.size() * 2);
  for (const auto& [u, v] : edges) {
    flat.push_back(u);
    flat.push_back(v);
  }
  return codec::EncodeFields({std::to_string(num_nodes_),
                              directed_ ? "d" : "u",
                              codec::EncodeInts(flat)});
}

Result<EdgeList> DecodeEdgeList(std::string_view encoded) {
  std::vector<std::string> storage;
  auto fields =
      codec::DecodeFieldViewsExactly(encoded, 3, "graph encoding", &storage);
  if (!fields.ok()) return fields.status();
  auto n_field = codec::DecodeInts((*fields)[0]);
  if (!n_field.ok()) return n_field.status();
  if (n_field->size() != 1) {
    return Status::InvalidArgument("bad node count");
  }
  // Numerals are int64; a NodeId is narrower, so refuse what would wrap.
  auto fits = [](int64_t v) { return v == static_cast<NodeId>(v); };
  if (!fits((*n_field)[0])) {
    return Status::InvalidArgument("node count " +
                                   std::to_string((*n_field)[0]) +
                                   " does not fit a NodeId");
  }
  EdgeList list;
  list.num_nodes = static_cast<NodeId>((*n_field)[0]);
  if ((*fields)[1] == "d") {
    list.directed = true;
  } else if ((*fields)[1] == "u") {
    list.directed = false;
  } else {
    return Status::InvalidArgument("bad directedness tag: " +
                                   std::string((*fields)[1]));
  }
  auto flat = codec::DecodeInts((*fields)[2]);
  if (!flat.ok()) return flat.status();
  if (flat->size() % 2 != 0) {
    return Status::InvalidArgument("odd edge-endpoint count");
  }
  list.edges.reserve(flat->size() / 2);
  for (size_t i = 0; i < flat->size(); i += 2) {
    const int64_t u = (*flat)[i];
    const int64_t v = (*flat)[i + 1];
    if (!fits(u) || !fits(v)) {
      return Status::InvalidArgument("edge (" + std::to_string(u) + ", " +
                                     std::to_string(v) +
                                     ") does not fit a NodeId");
    }
    list.edges.emplace_back(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  PITRACT_RETURN_IF_ERROR(CheckEdges(list.num_nodes, list.edges));
  return list;
}

Result<Graph> Graph::Decode(std::string_view encoded) {
  PITRACT_ASSIGN_OR_RETURN(EdgeList list, DecodeEdgeList(encoded));
  return Build(list.num_nodes, list.edges, list.directed, /*dedup=*/true);
}

}  // namespace graph
}  // namespace pitract
