#include "index/bptree.h"

#include <algorithm>
#include <cassert>

#include "ncsim/ncsim.h"

namespace pitract {
namespace index {

namespace {
constexpr int64_t kEntryBytes = 16;  // key + payload.
}  // namespace

/// One tree node. Internal nodes hold `children.size() - 1` separators with
/// the invariant  entries(children[i]) <= keys[i] <= entries(children[i+1])
/// (separators need not themselves occur as entry keys, which lets Delete
/// skip separator rewrites). Leaves hold parallel keys/payloads arrays and
/// are chained through `next`.
struct BPlusTree::Node {
  explicit Node(bool leaf) : is_leaf(leaf) {}

  bool is_leaf;
  std::vector<int64_t> keys;
  std::vector<int64_t> payloads;                 // leaf only
  std::vector<std::unique_ptr<Node>> children;   // internal only
  Node* next = nullptr;                          // leaf chain

  int entry_count() const { return static_cast<int>(keys.size()); }
  int child_count() const { return static_cast<int>(children.size()); }
};

struct BPlusTree::SplitResult {
  int64_t separator = 0;
  std::unique_ptr<Node> right;
};

BPlusTree::BPlusTree(BPlusTreeOptions options) : options_(options) {
  assert(options_.max_leaf_entries >= 4);
  assert(options_.max_internal_children >= 4);
  root_ = std::make_unique<Node>(/*leaf=*/true);
}

BPlusTree::~BPlusTree() {
  if (!root_) return;
  // Destroy iteratively: deep trees must not overflow the call stack.
  std::vector<std::unique_ptr<Node>> pending;
  pending.push_back(std::move(root_));
  while (!pending.empty()) {
    std::unique_ptr<Node> node = std::move(pending.back());
    pending.pop_back();
    for (auto& child : node->children) pending.push_back(std::move(child));
  }
}

size_t BPlusTree::HeapBytes() const {
  size_t bytes = 0;
  std::vector<const Node*> pending;
  if (root_) pending.push_back(root_.get());
  while (!pending.empty()) {
    const Node* node = pending.back();
    pending.pop_back();
    bytes += HeapChunkBytes(sizeof(Node)) + VectorHeapBytes(node->keys) +
             VectorHeapBytes(node->payloads) + VectorHeapBytes(node->children);
    for (const auto& child : node->children) pending.push_back(child.get());
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Search
// ---------------------------------------------------------------------------

namespace {

/// Index of the child to descend into when looking for the *first* entry
/// with key >= `key`: the leftmost child whose upper separator is >= key.
int DescendLowerBound(const std::vector<int64_t>& separators, int64_t key) {
  return static_cast<int>(
      std::lower_bound(separators.begin(), separators.end(), key) -
      separators.begin());
}

/// Index of the child to receive an inserted `key`: the rightmost child
/// whose range admits it (keeps equal keys clustered to the right).
int DescendUpperBound(const std::vector<int64_t>& separators, int64_t key) {
  return static_cast<int>(
      std::upper_bound(separators.begin(), separators.end(), key) -
      separators.begin());
}

void ChargeNodeProbe(CostMeter* meter, int node_size) {
  if (meter == nullptr) return;
  meter->AddSerial(ncsim::CeilLog2(node_size < 1 ? 1 : node_size) + 1);
  meter->AddBytesRead(static_cast<int64_t>(node_size) * kEntryBytes);
}

}  // namespace

BPlusTree::BPlusTree(BPlusTree&&) noexcept = default;
BPlusTree& BPlusTree::operator=(BPlusTree&&) noexcept = default;

BPlusTree::Iterator BPlusTree::SeekFirst(int64_t key) const {
  const Node* node = root();
  while (!node->is_leaf) {
    int idx = DescendLowerBound(node->keys, key);
    node = node->children[static_cast<size_t>(idx)].get();
  }
  int pos = static_cast<int>(
      std::lower_bound(node->keys.begin(), node->keys.end(), key) -
      node->keys.begin());
  if (pos == node->entry_count()) {
    // All entries in this leaf are < key; the next leaf (if any) starts with
    // an entry >= key by the separator invariant.
    node = node->next;
    pos = 0;
  }
  Iterator it;
  if (node != nullptr && node->entry_count() > 0) {
    it.leaf_ = node;
    it.pos_ = pos;
  }
  return it;
}

BPlusTree::Iterator BPlusTree::Begin() const {
  const Node* node = root();
  while (!node->is_leaf) node = node->children.front().get();
  Iterator it;
  if (node->entry_count() > 0) {
    it.leaf_ = node;
    it.pos_ = 0;
  }
  return it;
}

int64_t BPlusTree::Iterator::key() const {
  const auto* leaf = static_cast<const BPlusTree::Node*>(leaf_);
  return leaf->keys[static_cast<size_t>(pos_)];
}

int64_t BPlusTree::Iterator::payload() const {
  const auto* leaf = static_cast<const BPlusTree::Node*>(leaf_);
  return leaf->payloads[static_cast<size_t>(pos_)];
}

void BPlusTree::Iterator::Next() {
  const auto* leaf = static_cast<const BPlusTree::Node*>(leaf_);
  if (++pos_ >= leaf->entry_count()) {
    leaf_ = leaf->next;
    pos_ = 0;
  }
}

const BPlusTree::Node* BPlusTree::FindLeaf(int64_t key,
                                           CostMeter* meter) const {
  const Node* node = root();
  while (!node->is_leaf) {
    ChargeNodeProbe(meter, node->entry_count());
    int idx = DescendLowerBound(node->keys, key);
    node = node->children[static_cast<size_t>(idx)].get();
  }
  ChargeNodeProbe(meter, node->entry_count());
  return node;
}

bool BPlusTree::PointExists(int64_t key, CostMeter* meter) const {
  const Node* leaf = FindLeaf(key, meter);
  auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key);
  if (it != leaf->keys.end() && *it == key) return true;
  // One-hop case: equal keys may start in the successor leaf.
  if (it == leaf->keys.end() && leaf->next != nullptr) {
    ChargeNodeProbe(meter, leaf->next->entry_count());
    return !leaf->next->keys.empty() && leaf->next->keys.front() == key;
  }
  return false;
}

bool BPlusTree::RangeExists(int64_t lo, int64_t hi, CostMeter* meter) const {
  if (lo > hi) return false;
  const Node* leaf = FindLeaf(lo, meter);
  auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), lo);
  if (it == leaf->keys.end()) {
    leaf = leaf->next;
    if (leaf == nullptr) return false;
    ChargeNodeProbe(meter, leaf->entry_count());
    it = leaf->keys.begin();
    if (it == leaf->keys.end()) return false;
  }
  return *it <= hi;
}

int64_t BPlusTree::RangeCount(int64_t lo, int64_t hi, CostMeter* meter) const {
  if (lo > hi) return 0;
  Iterator it = SeekFirst(lo);
  // Charge the descent once.
  FindLeaf(lo, meter);
  int64_t count = 0;
  while (it.Valid() && it.key() <= hi) {
    ++count;
    if (meter != nullptr) {
      meter->AddSerial(1);
      meter->AddBytesRead(kEntryBytes);
    }
    it.Next();
  }
  return count;
}

std::vector<int64_t> BPlusTree::Lookup(int64_t key, CostMeter* meter) const {
  std::vector<int64_t> out;
  Iterator it = SeekFirst(key);
  FindLeaf(key, meter);
  while (it.Valid() && it.key() == key) {
    out.push_back(it.payload());
    if (meter != nullptr) meter->AddSerial(1);
    it.Next();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Insert
// ---------------------------------------------------------------------------

void BPlusTree::Insert(int64_t key, int64_t payload) {
  SplitResult split;
  if (InsertRec(root_.get(), key, payload, &split)) {
    auto new_root = std::make_unique<Node>(/*leaf=*/false);
    new_root->keys.push_back(split.separator);
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(split.right));
    root_ = std::move(new_root);
    ++height_;
  }
  ++num_entries_;
}

bool BPlusTree::InsertRec(Node* node, int64_t key, int64_t payload,
                          SplitResult* split) {
  if (node->is_leaf) {
    auto it = std::upper_bound(node->keys.begin(), node->keys.end(), key);
    size_t pos = static_cast<size_t>(it - node->keys.begin());
    node->keys.insert(it, key);
    node->payloads.insert(node->payloads.begin() + static_cast<long>(pos),
                          payload);
    if (node->entry_count() <= options_.max_leaf_entries) return false;
    // Split the leaf: right half moves to a new node.
    int total = node->entry_count();
    int keep = total / 2;
    auto right = std::make_unique<Node>(/*leaf=*/true);
    right->keys.assign(node->keys.begin() + keep, node->keys.end());
    right->payloads.assign(node->payloads.begin() + keep,
                           node->payloads.end());
    node->keys.resize(static_cast<size_t>(keep));
    node->payloads.resize(static_cast<size_t>(keep));
    right->next = node->next;
    node->next = right.get();
    split->separator = right->keys.front();
    split->right = std::move(right);
    return true;
  }

  int idx = DescendUpperBound(node->keys, key);
  SplitResult child_split;
  if (!InsertRec(node->children[static_cast<size_t>(idx)].get(), key, payload,
                 &child_split)) {
    return false;
  }
  node->keys.insert(node->keys.begin() + idx, child_split.separator);
  node->children.insert(node->children.begin() + idx + 1,
                        std::move(child_split.right));
  if (node->child_count() <= options_.max_internal_children) return false;
  // Split the internal node, promoting the middle separator.
  int child_total = node->child_count();
  int keep_children = child_total / 2;  // left keeps children [0, keep).
  auto right = std::make_unique<Node>(/*leaf=*/false);
  split->separator = node->keys[static_cast<size_t>(keep_children - 1)];
  right->keys.assign(node->keys.begin() + keep_children, node->keys.end());
  for (int i = keep_children; i < child_total; ++i) {
    right->children.push_back(std::move(node->children[static_cast<size_t>(i)]));
  }
  node->keys.resize(static_cast<size_t>(keep_children - 1));
  node->children.resize(static_cast<size_t>(keep_children));
  split->right = std::move(right);
  return true;
}

// ---------------------------------------------------------------------------
// Delete
// ---------------------------------------------------------------------------

Status BPlusTree::Delete(int64_t key, int64_t payload) {
  bool underflow = false;
  if (!DeleteRec(root_.get(), key, payload, &underflow)) {
    return Status::NotFound("no entry (" + std::to_string(key) + ", " +
                            std::to_string(payload) + ")");
  }
  --num_entries_;
  // Collapse a single-child internal root.
  while (!root_->is_leaf && root_->child_count() == 1) {
    std::unique_ptr<Node> only = std::move(root_->children.front());
    root_ = std::move(only);
    --height_;
  }
  return Status::OK();
}

bool BPlusTree::DeleteRec(Node* node, int64_t key, int64_t payload,
                          bool* underflow) {
  if (node->is_leaf) {
    auto lo = std::lower_bound(node->keys.begin(), node->keys.end(), key);
    for (auto it = lo; it != node->keys.end() && *it == key; ++it) {
      size_t pos = static_cast<size_t>(it - node->keys.begin());
      if (node->payloads[pos] == payload) {
        node->keys.erase(it);
        node->payloads.erase(node->payloads.begin() + static_cast<long>(pos));
        *underflow = node->entry_count() < options_.max_leaf_entries / 2;
        return true;
      }
    }
    return false;
  }

  // The pair may live in any child whose key range admits `key`; with
  // duplicates that is the DescendLowerBound child and any run of subsequent
  // children guarded by separators == key.
  int idx = DescendLowerBound(node->keys, key);
  for (int i = idx; i < node->child_count(); ++i) {
    if (i > idx && node->keys[static_cast<size_t>(i - 1)] > key) break;
    bool child_underflow = false;
    if (DeleteRec(node->children[static_cast<size_t>(i)].get(), key, payload,
                  &child_underflow)) {
      if (child_underflow) FixChildUnderflow(node, i);
      *underflow =
          node->child_count() < (options_.max_internal_children + 1) / 2;
      return true;
    }
  }
  return false;
}

void BPlusTree::FixChildUnderflow(Node* parent, int child_idx) {
  Node* child = parent->children[static_cast<size_t>(child_idx)].get();
  Node* left = child_idx > 0
                   ? parent->children[static_cast<size_t>(child_idx - 1)].get()
                   : nullptr;
  Node* right = child_idx + 1 < parent->child_count()
                    ? parent->children[static_cast<size_t>(child_idx + 1)].get()
                    : nullptr;

  if (child->is_leaf) {
    const int min_entries = options_.max_leaf_entries / 2;
    if (left != nullptr && left->entry_count() > min_entries) {
      // Borrow the left sibling's last entry.
      child->keys.insert(child->keys.begin(), left->keys.back());
      child->payloads.insert(child->payloads.begin(), left->payloads.back());
      left->keys.pop_back();
      left->payloads.pop_back();
      parent->keys[static_cast<size_t>(child_idx - 1)] = child->keys.front();
      return;
    }
    if (right != nullptr && right->entry_count() > min_entries) {
      // Borrow the right sibling's first entry.
      child->keys.push_back(right->keys.front());
      child->payloads.push_back(right->payloads.front());
      right->keys.erase(right->keys.begin());
      right->payloads.erase(right->payloads.begin());
      parent->keys[static_cast<size_t>(child_idx)] = right->keys.front();
      return;
    }
    // Merge with a sibling.
    int left_idx = left != nullptr ? child_idx - 1 : child_idx;
    Node* a = parent->children[static_cast<size_t>(left_idx)].get();
    Node* b = parent->children[static_cast<size_t>(left_idx + 1)].get();
    a->keys.insert(a->keys.end(), b->keys.begin(), b->keys.end());
    a->payloads.insert(a->payloads.end(), b->payloads.begin(),
                       b->payloads.end());
    a->next = b->next;
    parent->keys.erase(parent->keys.begin() + left_idx);
    parent->children.erase(parent->children.begin() + left_idx + 1);
    return;
  }

  const int min_children = (options_.max_internal_children + 1) / 2;
  if (left != nullptr && left->child_count() > min_children) {
    // Rotate right through the parent separator.
    child->keys.insert(child->keys.begin(),
                       parent->keys[static_cast<size_t>(child_idx - 1)]);
    parent->keys[static_cast<size_t>(child_idx - 1)] = left->keys.back();
    left->keys.pop_back();
    child->children.insert(child->children.begin(),
                           std::move(left->children.back()));
    left->children.pop_back();
    return;
  }
  if (right != nullptr && right->child_count() > min_children) {
    // Rotate left through the parent separator.
    child->keys.push_back(parent->keys[static_cast<size_t>(child_idx)]);
    parent->keys[static_cast<size_t>(child_idx)] = right->keys.front();
    right->keys.erase(right->keys.begin());
    child->children.push_back(std::move(right->children.front()));
    right->children.erase(right->children.begin());
    return;
  }
  // Merge internal nodes around the separating key.
  int left_idx = left != nullptr ? child_idx - 1 : child_idx;
  Node* a = parent->children[static_cast<size_t>(left_idx)].get();
  Node* b = parent->children[static_cast<size_t>(left_idx + 1)].get();
  a->keys.push_back(parent->keys[static_cast<size_t>(left_idx)]);
  a->keys.insert(a->keys.end(), b->keys.begin(), b->keys.end());
  for (auto& grandchild : b->children) {
    a->children.push_back(std::move(grandchild));
  }
  parent->keys.erase(parent->keys.begin() + left_idx);
  parent->children.erase(parent->children.begin() + left_idx + 1);
}

// ---------------------------------------------------------------------------
// Bulk load
// ---------------------------------------------------------------------------

Status BPlusTree::BulkLoad(
    const std::vector<std::pair<int64_t, int64_t>>& sorted_entries) {
  for (size_t i = 1; i < sorted_entries.size(); ++i) {
    if (sorted_entries[i - 1].first > sorted_entries[i].first) {
      return Status::InvalidArgument("BulkLoad input not sorted at index " +
                                     std::to_string(i));
    }
  }
  const int64_t n = static_cast<int64_t>(sorted_entries.size());
  num_entries_ = n;
  if (n == 0) {
    root_ = std::make_unique<Node>(/*leaf=*/true);
    height_ = 1;
    return Status::OK();
  }

  // Build the leaf level with even occupancy (each leaf gets floor or ceil
  // of n / num_leaves entries, which respects the half-full minimum).
  struct Built {
    std::unique_ptr<Node> node;
    int64_t min_key;
  };
  std::vector<Built> level;
  const int64_t leaves =
      (n + options_.max_leaf_entries - 1) / options_.max_leaf_entries;
  int64_t taken = 0;
  Node* prev_leaf = nullptr;
  for (int64_t i = 0; i < leaves; ++i) {
    int64_t count = n / leaves + (i < n % leaves ? 1 : 0);
    auto leaf = std::make_unique<Node>(/*leaf=*/true);
    leaf->keys.reserve(static_cast<size_t>(count));
    leaf->payloads.reserve(static_cast<size_t>(count));
    for (int64_t j = 0; j < count; ++j) {
      leaf->keys.push_back(sorted_entries[static_cast<size_t>(taken + j)].first);
      leaf->payloads.push_back(
          sorted_entries[static_cast<size_t>(taken + j)].second);
    }
    taken += count;
    if (prev_leaf != nullptr) prev_leaf->next = leaf.get();
    prev_leaf = leaf.get();
    level.push_back({std::move(leaf), prev_leaf->keys.front()});
  }

  // Stack internal levels until a single root remains.
  height_ = 1;
  while (level.size() > 1) {
    std::vector<Built> next_level;
    const int64_t groups =
        (static_cast<int64_t>(level.size()) + options_.max_internal_children -
         1) /
        options_.max_internal_children;
    int64_t used = 0;
    const int64_t total = static_cast<int64_t>(level.size());
    for (int64_t g = 0; g < groups; ++g) {
      int64_t count = total / groups + (g < total % groups ? 1 : 0);
      auto node = std::make_unique<Node>(/*leaf=*/false);
      int64_t min_key = level[static_cast<size_t>(used)].min_key;
      for (int64_t j = 0; j < count; ++j) {
        auto& built = level[static_cast<size_t>(used + j)];
        if (j > 0) node->keys.push_back(built.min_key);
        node->children.push_back(std::move(built.node));
      }
      used += count;
      next_level.push_back({std::move(node), min_key});
    }
    level = std::move(next_level);
    ++height_;
  }
  root_ = std::move(level.front().node);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Stats & validation
// ---------------------------------------------------------------------------

BPlusTreeStats BPlusTree::Stats() const {
  BPlusTreeStats stats;
  stats.height = height_;
  stats.num_entries = num_entries_;
  std::vector<const Node*> stack = {root()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (node->is_leaf) {
      ++stats.num_leaves;
    } else {
      ++stats.num_internal;
      for (const auto& child : node->children) stack.push_back(child.get());
    }
  }
  return stats;
}

Status BPlusTree::Validate() const {
  PITRACT_RETURN_IF_ERROR(
      ValidateRec(root(), 0, height_ - 1, 0, false, 0, false));
  // Leaf chain must enumerate exactly num_entries_ keys in sorted order.
  Iterator it = Begin();
  int64_t count = 0;
  bool first = true;
  int64_t prev = 0;
  while (it.Valid()) {
    if (!first && it.key() < prev) {
      return Status::Internal("leaf chain out of order");
    }
    prev = it.key();
    first = false;
    ++count;
    it.Next();
  }
  if (count != num_entries_) {
    return Status::Internal("leaf chain has " + std::to_string(count) +
                            " entries, expected " +
                            std::to_string(num_entries_));
  }
  return Status::OK();
}

Status BPlusTree::ValidateRec(const Node* node, int depth, int expected_depth,
                              int64_t lower, bool has_lower, int64_t upper,
                              bool has_upper) const {
  const bool is_root = depth == 0;
  if (node->is_leaf) {
    if (depth != expected_depth) {
      return Status::Internal("leaf at depth " + std::to_string(depth) +
                              ", expected " + std::to_string(expected_depth));
    }
    if (node->keys.size() != node->payloads.size()) {
      return Status::Internal("leaf keys/payloads size mismatch");
    }
    if (!is_root && node->entry_count() < options_.max_leaf_entries / 2) {
      return Status::Internal("leaf under-occupied: " +
                              std::to_string(node->entry_count()));
    }
    if (node->entry_count() > options_.max_leaf_entries) {
      return Status::Internal("leaf over-occupied");
    }
    for (size_t i = 0; i < node->keys.size(); ++i) {
      if (i > 0 && node->keys[i - 1] > node->keys[i]) {
        return Status::Internal("leaf keys out of order");
      }
      if (has_lower && node->keys[i] < lower) {
        return Status::Internal("leaf key below separator bound");
      }
      if (has_upper && node->keys[i] > upper) {
        return Status::Internal("leaf key above separator bound");
      }
    }
    return Status::OK();
  }

  if (!is_root && node->child_count() < (options_.max_internal_children + 1) / 2) {
    return Status::Internal("internal node under-occupied: " +
                            std::to_string(node->child_count()));
  }
  if (is_root && node->child_count() < 2) {
    return Status::Internal("internal root with fewer than 2 children");
  }
  if (node->child_count() > options_.max_internal_children) {
    return Status::Internal("internal node over-occupied");
  }
  if (node->entry_count() != node->child_count() - 1) {
    return Status::Internal("separator/child count mismatch");
  }
  for (size_t i = 1; i < node->keys.size(); ++i) {
    if (node->keys[i - 1] > node->keys[i]) {
      return Status::Internal("separators out of order");
    }
  }
  for (int i = 0; i < node->child_count(); ++i) {
    int64_t child_lower = lower;
    bool child_has_lower = has_lower;
    int64_t child_upper = upper;
    bool child_has_upper = has_upper;
    if (i > 0) {
      child_lower = node->keys[static_cast<size_t>(i - 1)];
      child_has_lower = true;
    }
    if (i < node->entry_count()) {
      child_upper = node->keys[static_cast<size_t>(i)];
      child_has_upper = true;
    }
    PITRACT_RETURN_IF_ERROR(ValidateRec(
        node->children[static_cast<size_t>(i)].get(), depth + 1,
        expected_depth, child_lower, child_has_lower, child_upper,
        child_has_upper));
  }
  return Status::OK();
}

}  // namespace index
}  // namespace pitract
