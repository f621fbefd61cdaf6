#ifndef PITRACT_GRAPH_GRAPH_H_
#define PITRACT_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/heap_bytes.h"
#include "common/result.h"

namespace pitract {
namespace graph {

/// Node identifier. Graphs in this repository are bounded by memory, not by
/// the 2^31 id space.
using NodeId = int32_t;

/// An immutable graph in CSR (compressed sparse row) form.
///
/// Directed graphs store out-edges; undirected graphs store each edge in
/// both directions (num_edges() still counts each undirected edge once).
/// Adjacency lists are sorted, which downstream algorithms (notably the
/// breadth-depth search of Example 2, which visits neighbours "in the order
/// induced by the vertex numbering") rely on.
class Graph {
 public:
  Graph() = default;

  /// Builds a graph from an edge list. Node ids must be in [0, num_nodes).
  /// With `dedup` (the default) parallel edges are collapsed; self-loops are
  /// always kept.
  static Result<Graph> FromEdges(NodeId num_nodes,
                                 const std::vector<std::pair<NodeId, NodeId>>& edges,
                                 bool directed, bool dedup = true);

  NodeId num_nodes() const { return num_nodes_; }
  int64_t num_edges() const { return num_edges_; }
  bool directed() const { return directed_; }

  /// Sorted out-neighbourhood of `u`.
  std::span<const NodeId> OutNeighbors(NodeId u) const {
    return {adj_.data() + offsets_[static_cast<size_t>(u)],
            static_cast<size_t>(offsets_[static_cast<size_t>(u) + 1] -
                                offsets_[static_cast<size_t>(u)])};
  }

  int64_t OutDegree(NodeId u) const {
    return offsets_[static_cast<size_t>(u) + 1] -
           offsets_[static_cast<size_t>(u)];
  }

  /// Edge test via binary search in the sorted adjacency list: O(log deg).
  bool HasEdge(NodeId u, NodeId v) const;

  /// The reverse digraph (in-edges become out-edges). Identity for
  /// undirected graphs.
  Graph Reversed() const;

  /// All edges as stored (directed: each arc once; undirected: u <= v once).
  std::vector<std::pair<NodeId, NodeId>> Edges() const;

  /// Approximate memory footprint (the |D| of graph data).
  int64_t EstimateBytes() const {
    return static_cast<int64_t>(offsets_.size() * sizeof(int64_t) +
                                adj_.size() * sizeof(NodeId));
  }

  /// Heap bytes of the adjacency buffers, allocator chunks included (the
  /// Graph object itself is its holder's to count).
  size_t HeapBytes() const {
    return VectorHeapBytes(offsets_) + VectorHeapBytes(adj_);
  }

  /// Σ*-encoding "n#directed#src,dst,src,dst,..." per Section 3.
  std::string Encode() const;
  /// DecodeEdgeList, then the CSR of its edges (de-duplicated).
  static Result<Graph> Decode(std::string_view encoded);

 private:
  /// FromEdges after its checks: the CSR of edges already validated.
  static Graph Build(NodeId num_nodes,
                     const std::vector<std::pair<NodeId, NodeId>>& edges,
                     bool directed, bool dedup);

  NodeId num_nodes_ = 0;
  int64_t num_edges_ = 0;
  bool directed_ = true;
  std::vector<int64_t> offsets_;  // size num_nodes_ + 1
  std::vector<NodeId> adj_;
};

/// A graph encoding decoded and validated, before any CSR is built: the
/// node count, the directedness tag and the edges as written (parallel
/// edges and self-loops included).
struct EdgeList {
  NodeId num_nodes = 0;
  bool directed = true;
  std::vector<std::pair<NodeId, NodeId>> edges;
};

/// Decodes Graph::Encode's "n#d|u#src,dst,..." and makes every check
/// Graph::Decode makes, in the same order and with the same Status: field
/// count, numerals, NodeId range of n and of each endpoint, directedness
/// tag, even endpoint count, n >= 0 and endpoints in [0, n). For callers
/// that need the edges, not the CSR (the connectivity Π).
Result<EdgeList> DecodeEdgeList(std::string_view encoded);

}  // namespace graph
}  // namespace pitract

#endif  // PITRACT_GRAPH_GRAPH_H_
