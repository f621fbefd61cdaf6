#ifndef PITRACT_REACH_REACHABILITY_H_
#define PITRACT_REACH_REACHABILITY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/cost_meter.h"
#include "graph/algos.h"
#include "graph/graph.h"

namespace pitract {
namespace reach {

/// Dense bitset over node ids (64 nodes per word).
class Bitset {
 public:
  Bitset() = default;
  explicit Bitset(int64_t bits)
      : bits_(bits), words_(static_cast<size_t>((bits + 63) / 64), 0) {}

  void Set(int64_t i) {
    words_[static_cast<size_t>(i >> 6)] |= uint64_t{1} << (i & 63);
  }
  void Clear(int64_t i) {
    words_[static_cast<size_t>(i >> 6)] &= ~(uint64_t{1} << (i & 63));
  }
  bool Test(int64_t i) const {
    return (words_[static_cast<size_t>(i >> 6)] >> (i & 63)) & 1;
  }
  /// Raw word storage (little-endian bit order), for hashing/signatures.
  const std::vector<uint64_t>& words() const { return words_; }
  /// Writable word storage, for word-parallel writers that fuse their own
  /// per-word logic: the closure's InsertEdge and Deserialize
  /// (incremental::IncrementalTransitiveClosure).
  std::span<uint64_t> mutable_words() { return words_; }
  /// this |= other; returns true if any bit changed.
  bool UnionWith(const Bitset& other) {
    bool changed = false;
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t before = words_[w];
      words_[w] |= other.words_[w];
      changed |= words_[w] != before;
    }
    return changed;
  }
  int64_t Count() const;
  int64_t num_bits() const { return bits_; }
  int64_t num_words() const { return static_cast<int64_t>(words_.size()); }

  friend bool operator==(const Bitset& a, const Bitset& b) {
    return a.bits_ == b.bits_ && a.words_ == b.words_;
  }

 private:
  int64_t bits_ = 0;
  std::vector<uint64_t> words_;
};

/// The Example 3 preprocessing: "precompute a matrix that records the
/// reachability between all pairs of nodes in G, then answer all queries on
/// G in O(1) time".
///
/// Build cost is PTIME — O(n · (n + m)) via one BFS per node over the SCC
/// condensation (bit-parallel union along reverse-topological order) — and
/// each query is a single bit probe.
class ReachabilityMatrix {
 public:
  /// Preprocesses `g`; charges the PTIME preprocessing cost to `meter`.
  static ReachabilityMatrix Build(const graph::Graph& g,
                                  CostMeter* meter = nullptr);

  /// O(1): is there a path from u to v (u reaches itself by convention)?
  bool Reachable(graph::NodeId u, graph::NodeId v, CostMeter* meter) const;

  /// Total number of reachable ordered pairs (incl. reflexive pairs); the
  /// |CHANGED| unit of the incremental experiments counts against this.
  int64_t NumReachablePairs() const;

  int64_t EstimateBytes() const {
    return num_nodes_ == 0
               ? 0
               : static_cast<int64_t>(closure_.size()) *
                     closure_.front().num_words() * 8;
  }

  graph::NodeId num_nodes() const { return num_nodes_; }

 private:
  graph::NodeId num_nodes_ = 0;
  // closure_[c] = bitset over *component* ids reachable from component c.
  std::vector<Bitset> closure_;
  std::vector<graph::NodeId> component_;  // node -> component id
};

}  // namespace reach
}  // namespace pitract

#endif  // PITRACT_REACH_REACHABILITY_H_
