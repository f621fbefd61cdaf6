#ifndef PITRACT_INCREMENTAL_INCREMENTAL_TC_H_
#define PITRACT_INCREMENTAL_INCREMENTAL_TC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/cost_meter.h"
#include "common/result.h"
#include "graph/graph.h"
#include "reach/reachability.h"

namespace pitract {
namespace incremental {

/// Bounded incremental transitive closure under edge insertions *and*
/// deletions (Section 4(7) and the incremental-preprocessing discussion of
/// Section 1, after Ramalingam–Reps [35] and Italiano's incremental TC).
///
/// The closure bit-matrix is maintained in place alongside the edge set
/// (sorted adjacency, set semantics — parallel edges collapse, matching
/// graph::Graph::FromEdges dedup). Inserting (u, v) updates only rows of
/// nodes x with x ⇝ u that actually gain descendants. Deleting (u, v)
/// recomputes only the SES affected set AFF = {x : x ⇝ u ∧ v ∈ desc(x)} —
/// every reachable pair that can die routes through the deleted edge, so
/// rows outside AFF are final — via a least-fixpoint sweep seeded from the
/// untouched boundary rows, then clears exactly the removed ancestor bits.
/// Both costs are functions of the affected region / |CHANGED|, *not* of
/// |D|; the per-operation counters expose exactly the quantities
/// Ramalingam–Reps analyse, so benchmarks can plot cost against |CHANGED|.
class IncrementalTransitiveClosure {
 public:
  /// Initializes the closure of `g` from scratch (the paper's "evaluate
  /// once as preprocessing" step). Works on the SCC condensation: each
  /// component's descendant row is its members OR'd with its successors'
  /// rows in reverse topological order, its ancestor row the mirror sweep,
  /// and every member gets its component's rows. The result (rows and
  /// edge list) equals inserting g's arcs one by one with InsertEdge, at
  /// O(n + m + (m_dag + n) · n/64) word work instead of per-edge
  /// affected-region propagation.
  static IncrementalTransitiveClosure Build(const graph::Graph& g,
                                            CostMeter* meter);

  /// Starts from n isolated nodes.
  explicit IncrementalTransitiveClosure(graph::NodeId n);

  /// Inserts an edge and incrementally maintains the closure.
  /// Returns the number of newly reachable pairs (|CHANGED| for this op).
  /// Re-inserting a present edge is a charged O(1) no-op (set semantics).
  Result<int64_t> InsertEdge(graph::NodeId u, graph::NodeId v,
                             CostMeter* meter);

  /// Deletes an edge and decrementally maintains the closure (SES-style
  /// affected-set recompute; see the class comment). Returns the number of
  /// reachable pairs removed (|CHANGED| for this op). NotFound if the edge
  /// is not present.
  Result<int64_t> DeleteEdge(graph::NodeId u, graph::NodeId v,
                             CostMeter* meter);

  /// O(1) closure probe (reflexive).
  Result<bool> Reachable(graph::NodeId u, graph::NodeId v,
                         CostMeter* meter) const;

  /// Uncharged, unchecked closure probe for batch kernels that have
  /// already range-validated the whole batch and charge the meter once.
  bool ReachableUnchecked(graph::NodeId u, graph::NodeId v) const {
    return desc_[static_cast<size_t>(u)].Test(v);
  }

  graph::NodeId num_nodes() const { return n_; }
  int64_t NumReachablePairs() const;
  /// Edges currently maintained (set semantics).
  int64_t NumEdges() const;

  /// Work spent by the last InsertEdge / DeleteEdge (unit ops), for
  /// boundedness plots.
  int64_t last_insert_work() const { return last_insert_work_; }
  int64_t last_delete_work() const { return last_delete_work_; }

  /// Heap bytes of the closure rows and edge lists, allocator chunks
  /// included (the object itself is its holder's to count).
  size_t HeapBytes() const;

  /// Binary image of the maintained closure, fit for a PreparedStore
  /// payload: u64 format tag, u64 n, u64 m, then the n descendant rows and
  /// the n ancestor rows — each row (n+63)/64 little-endian u64 words —
  /// then the m edges packed one u64 each ((u << 32) | v, strictly
  /// increasing). The edge list is what makes deletions maintainable after
  /// a round trip; the rows stay fixed-width, so a probe of bit (u, v) is
  /// plain offset arithmetic — see ReachableInSerialized.
  std::string Serialize() const;
  /// Inverse of Serialize; rejects truncated, size-inconsistent, or
  /// pre-edge-list (v1) images.
  static Result<IncrementalTransitiveClosure> Deserialize(
      std::string_view bytes);
  /// O(1) probe of a Serialize image without rehydrating it: the online
  /// answer step of the engine's incremental-closure witness.
  static Result<bool> ReachableInSerialized(std::string_view bytes,
                                            int64_t u, int64_t v);

 private:
  graph::NodeId n_ = 0;
  std::vector<reach::Bitset> desc_;  // desc_[u]: nodes reachable from u
  std::vector<reach::Bitset> anc_;   // anc_[v]: nodes reaching v
  /// Sorted out-neighbor lists: the maintained edge set. Required by the
  /// decremental side (the fixpoint recompute re-derives affected rows
  /// from surviving edges) and carried through Serialize for it.
  std::vector<std::vector<graph::NodeId>> out_;
  int64_t last_insert_work_ = 0;
  int64_t last_delete_work_ = 0;
};

}  // namespace incremental
}  // namespace pitract

#endif  // PITRACT_INCREMENTAL_INCREMENTAL_TC_H_
