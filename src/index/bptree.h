#ifndef PITRACT_INDEX_BPTREE_H_
#define PITRACT_INDEX_BPTREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/cost_meter.h"
#include "common/heap_bytes.h"
#include "common/status.h"

namespace pitract {
namespace index {

/// Tuning knobs for the B+-tree node geometry.
struct BPlusTreeOptions {
  /// Maximum number of (key, payload) entries per leaf. Must be >= 4.
  int max_leaf_entries = 64;
  /// Maximum number of children per internal node. Must be >= 4.
  int max_internal_children = 64;
};

/// Summary counters exposed for tests and experiment harnesses.
struct BPlusTreeStats {
  int height = 0;  // 1 for a lone leaf.
  int64_t num_entries = 0;
  int64_t num_leaves = 0;
  int64_t num_internal = 0;
};

/// A classic in-memory B+-tree over (int64 key → int64 payload) entries with
/// duplicate keys allowed — the preprocessing structure of Example 1 ("build
/// a B+-tree on the values of the A column, then answer any point-selection
/// query in O(log |D|)").
///
/// Supported operations: Insert, Delete (with borrow/merge rebalancing),
/// sorted BulkLoad, point/range existence probes, leaf-chained iteration,
/// and a Validate() that checks every structural invariant (used heavily by
/// the property tests).
///
/// Cost accounting: each probe charges its CostMeter ~log2(fanout) unit ops
/// per visited node plus the node bytes touched, so measured depth is
/// Θ(height · log fanout) = Θ(log n).
class BPlusTree {
 public:
  explicit BPlusTree(BPlusTreeOptions options = {});
  ~BPlusTree();

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;
  BPlusTree(BPlusTree&&) noexcept;
  BPlusTree& operator=(BPlusTree&&) noexcept;

  /// Inserts one entry (duplicates allowed).
  void Insert(int64_t key, int64_t payload);

  /// Removes one entry matching (key, payload). Returns NotFound if absent.
  Status Delete(int64_t key, int64_t payload);

  /// Replaces the tree contents from entries sorted by key (stable on
  /// payloads). Fails if `sorted_entries` is not sorted.
  Status BulkLoad(const std::vector<std::pair<int64_t, int64_t>>& sorted_entries);

  /// Is there any entry with exactly this key? O(log n), charged to meter.
  bool PointExists(int64_t key, CostMeter* meter) const;

  /// Is there any entry with lo <= key <= hi? O(log n), charged to meter.
  bool RangeExists(int64_t lo, int64_t hi, CostMeter* meter) const;

  /// Number of entries with lo <= key <= hi (walks the leaf chain across the
  /// range; O(log n + answer) charged to meter).
  int64_t RangeCount(int64_t lo, int64_t hi, CostMeter* meter) const;

  /// Payloads of all entries with key == `key`, in insertion-sorted order.
  std::vector<int64_t> Lookup(int64_t key, CostMeter* meter) const;

  int64_t size() const { return num_entries_; }
  bool empty() const { return num_entries_ == 0; }
  BPlusTreeStats Stats() const;
  /// Heap bytes of every node and its key/payload/child arrays, allocator
  /// chunks included (the tree object itself is its holder's to count).
  size_t HeapBytes() const;

  /// Checks every invariant (key order, occupancy, uniform depth, separator
  /// correctness, leaf-chain consistency). Returns the first violation.
  Status Validate() const;

  /// Forward iterator over entries in key order.
  class Iterator {
   public:
    bool Valid() const { return leaf_ != nullptr; }
    int64_t key() const;
    int64_t payload() const;
    void Next();

   private:
    friend class BPlusTree;
    const void* leaf_ = nullptr;  // Leaf node, type-erased in the header.
    int pos_ = 0;
  };

  /// Iterator at the first entry with key >= `key` (invalid if none).
  Iterator SeekFirst(int64_t key) const;
  /// Iterator at the smallest entry (invalid if empty).
  Iterator Begin() const;

 private:
  struct Node;

  Node* root() const { return root_.get(); }
  const Node* FindLeaf(int64_t key, CostMeter* meter) const;

  // Insert helpers.
  struct SplitResult;
  bool InsertRec(Node* node, int64_t key, int64_t payload, SplitResult* split);

  // Delete helpers.
  bool DeleteRec(Node* node, int64_t key, int64_t payload, bool* underflow);
  void FixChildUnderflow(Node* parent, int child_idx);

  Status ValidateRec(const Node* node, int depth, int expected_depth,
                     int64_t lower, bool has_lower, int64_t upper,
                     bool has_upper) const;

  BPlusTreeOptions options_;
  std::unique_ptr<Node> root_;
  int height_ = 1;
  int64_t num_entries_ = 0;
};

}  // namespace index
}  // namespace pitract

#endif  // PITRACT_INDEX_BPTREE_H_
