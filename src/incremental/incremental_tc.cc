#include "incremental/incremental_tc.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/heap_bytes.h"
#include "common/serde.h"

namespace pitract {
namespace incremental {

namespace {

/// Words per closure row for an n-node graph.
int64_t WordsPerRow(int64_t n) { return (n + 63) / 64; }

/// Serialize format tag: deliberately above any representable node count
/// (NodeId is 32-bit), so a v1 image — whose first u64 was n itself —
/// can never alias a v2 header.
constexpr uint64_t kFormatTagV2 = 0xFFFFFFFF00000002ull;

}  // namespace

IncrementalTransitiveClosure::IncrementalTransitiveClosure(graph::NodeId n)
    : n_(n),
      desc_(static_cast<size_t>(n), reach::Bitset(n)),
      anc_(static_cast<size_t>(n), reach::Bitset(n)),
      out_(static_cast<size_t>(n)) {
  for (graph::NodeId v = 0; v < n; ++v) {
    desc_[static_cast<size_t>(v)].Set(v);
    anc_[static_cast<size_t>(v)].Set(v);
  }
}

IncrementalTransitiveClosure IncrementalTransitiveClosure::Build(
    const graph::Graph& g, CostMeter* meter) {
  IncrementalTransitiveClosure tc(g.num_nodes());
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    for (graph::NodeId v : g.OutNeighbors(u)) {
      auto changed = tc.InsertEdge(u, v, meter);
      (void)changed;
    }
  }
  return tc;
}

Result<int64_t> IncrementalTransitiveClosure::InsertEdge(graph::NodeId u,
                                                         graph::NodeId v,
                                                         CostMeter* meter) {
  if (u < 0 || u >= n_ || v < 0 || v >= n_) {
    return Status::OutOfRange("node id out of range");
  }
  last_insert_work_ = 1;
  // Record the edge first: even an already-reachable insert must land in
  // the edge set, or a later DeleteEdge would reconstruct the wrong graph.
  auto& adj = out_[static_cast<size_t>(u)];
  const auto pos = std::lower_bound(adj.begin(), adj.end(), v);
  if (pos == adj.end() || *pos != v) adj.insert(pos, v);
  if (desc_[static_cast<size_t>(u)].Test(v)) {
    // Already reachable: a bounded incremental algorithm does O(1) work.
    if (meter != nullptr) meter->AddSerial(1);
    return 0;
  }
  // For every x ⇝ u whose descendant set misses something in desc(v),
  // merge desc(v) into desc(x); symmetrically for ancestor rows. Work is
  // proportional to the rows actually touched — the affected region.
  int64_t changed_pairs = 0;
  const reach::Bitset& dv = desc_[static_cast<size_t>(v)];
  const auto& anc_words = anc_[static_cast<size_t>(u)].words();
  for (size_t w = 0; w < anc_words.size(); ++w) {
    const uint64_t word = anc_words[w];
    ++last_insert_work_;
    if (word == 0) continue;  // skip unaffected id ranges wholesale
    for (int bit = 0; bit < 64; ++bit) {
      if (((word >> bit) & 1) == 0) continue;
      const auto x = static_cast<graph::NodeId>(w * 64 + bit);
      reach::Bitset& dx = desc_[static_cast<size_t>(x)];
      const int64_t before = dx.Count();
      const bool changed = dx.UnionWith(dv);
      last_insert_work_ += dx.num_words();
      if (!changed) continue;
      changed_pairs += dx.Count() - before;
      // Maintain ancestor rows for each node v's subtree made reachable:
      // visit only the set bits of desc(v), not all n nodes.
      const auto& dv_words = dv.words();
      for (size_t dw = 0; dw < dv_words.size(); ++dw) {
        for (uint64_t bits = dv_words[dw]; bits != 0; bits &= bits - 1) {
          const auto y =
              static_cast<graph::NodeId>(dw * 64 + std::countr_zero(bits));
          reach::Bitset& ay = anc_[static_cast<size_t>(y)];
          if (!ay.Test(x)) {
            ay.Set(x);
            ++last_insert_work_;
          }
        }
      }
    }
  }
  if (meter != nullptr) {
    meter->AddSerial(last_insert_work_);
    meter->AddBytesWritten(changed_pairs / 8 + 1);
  }
  return changed_pairs;
}

Result<int64_t> IncrementalTransitiveClosure::DeleteEdge(graph::NodeId u,
                                                         graph::NodeId v,
                                                         CostMeter* meter) {
  if (u < 0 || u >= n_ || v < 0 || v >= n_) {
    return Status::OutOfRange("node id out of range");
  }
  last_delete_work_ = 1;
  auto& adj = out_[static_cast<size_t>(u)];
  const auto pos = std::lower_bound(adj.begin(), adj.end(), v);
  if (pos == adj.end() || *pos != v) {
    return Status::NotFound("edge not present");
  }
  adj.erase(pos);
  // SES affected set: every pair (x, y) that can die routes through
  // (u, v), so x ⇝ u and v ∈ desc(x) pre-delete. Rows outside AFF are
  // already final; only AFF rows are recomputed.
  std::vector<graph::NodeId> aff;
  const auto& anc_words = anc_[static_cast<size_t>(u)].words();
  for (size_t w = 0; w < anc_words.size(); ++w) {
    const uint64_t word = anc_words[w];
    ++last_delete_work_;
    if (word == 0) continue;  // skip unaffected id ranges wholesale
    for (int bit = 0; bit < 64; ++bit) {
      if (((word >> bit) & 1) == 0) continue;
      const auto x = static_cast<graph::NodeId>(w * 64 + bit);
      if (desc_[static_cast<size_t>(x)].Test(v)) aff.push_back(x);
    }
  }
  // Snapshot the old rows (for the ancestor repair diff) and reseed each
  // affected row at its reflexive bottom element.
  std::vector<reach::Bitset> old_rows;
  old_rows.reserve(aff.size());
  for (graph::NodeId x : aff) {
    reach::Bitset& dx = desc_[static_cast<size_t>(x)];
    old_rows.push_back(dx);
    last_delete_work_ += dx.num_words();
    dx = reach::Bitset(n_);
    dx.Set(x);
  }
  // Least-fixpoint sweep over AFF: desc(x) = {x} ∪ ⋃_{w ∈ out(x)} desc(w),
  // with non-affected rows as the exact boundary. Monotone from below, so
  // it converges to the true post-delete closure restricted to AFF.
  bool changed = true;
  while (changed) {
    changed = false;
    for (graph::NodeId x : aff) {
      reach::Bitset& dx = desc_[static_cast<size_t>(x)];
      for (graph::NodeId w : out_[static_cast<size_t>(x)]) {
        ++last_delete_work_;
        if (dx.UnionWith(desc_[static_cast<size_t>(w)])) changed = true;
        last_delete_work_ += dx.num_words();
      }
    }
  }
  // Ancestor repair: clear exactly the bits that left each affected row.
  int64_t removed_pairs = 0;
  for (size_t i = 0; i < aff.size(); ++i) {
    const graph::NodeId x = aff[i];
    const auto& old_words = old_rows[i].words();
    const auto& new_words = desc_[static_cast<size_t>(x)].words();
    for (size_t w = 0; w < old_words.size(); ++w) {
      ++last_delete_work_;
      uint64_t gone = old_words[w] & ~new_words[w];
      if (gone == 0) continue;
      for (int bit = 0; bit < 64; ++bit) {
        if (((gone >> bit) & 1) == 0) continue;
        const auto y = static_cast<graph::NodeId>(w * 64 + bit);
        anc_[static_cast<size_t>(y)].Clear(x);
        ++removed_pairs;
        ++last_delete_work_;
      }
    }
  }
  if (meter != nullptr) {
    meter->AddSerial(last_delete_work_);
    meter->AddBytesWritten(removed_pairs / 8 + 1);
  }
  return removed_pairs;
}

Result<bool> IncrementalTransitiveClosure::Reachable(graph::NodeId u,
                                                     graph::NodeId v,
                                                     CostMeter* meter) const {
  if (u < 0 || u >= n_ || v < 0 || v >= n_) {
    return Status::OutOfRange("node id out of range");
  }
  if (meter != nullptr) {
    meter->AddSerial(1);
    meter->AddBytesRead(8);
  }
  return desc_[static_cast<size_t>(u)].Test(v);
}

int64_t IncrementalTransitiveClosure::NumEdges() const {
  int64_t m = 0;
  for (const auto& adj : out_) m += static_cast<int64_t>(adj.size());
  return m;
}

size_t IncrementalTransitiveClosure::HeapBytes() const {
  size_t bytes = VectorHeapBytes(desc_) + VectorHeapBytes(anc_) +
                 VectorHeapBytes(out_);
  for (const reach::Bitset& row : desc_) bytes += VectorHeapBytes(row.words());
  for (const reach::Bitset& row : anc_) bytes += VectorHeapBytes(row.words());
  for (const auto& targets : out_) bytes += VectorHeapBytes(targets);
  return bytes;
}

std::string IncrementalTransitiveClosure::Serialize() const {
  std::string out;
  const int64_t wpr = WordsPerRow(n_);
  const int64_t m = NumEdges();
  out.reserve(static_cast<size_t>(24 + 2 * n_ * wpr * 8 + 8 * m));
  serde::PutU64(&out, kFormatTagV2);
  serde::PutU64(&out, static_cast<uint64_t>(n_));
  serde::PutU64(&out, static_cast<uint64_t>(m));
  for (const auto* rows : {&desc_, &anc_}) {
    for (const reach::Bitset& row : *rows) {
      for (uint64_t word : row.words()) serde::PutU64(&out, word);
    }
  }
  for (graph::NodeId u = 0; u < n_; ++u) {
    for (graph::NodeId v : out_[static_cast<size_t>(u)]) {
      serde::PutU64(&out, (static_cast<uint64_t>(u) << 32) |
                              static_cast<uint64_t>(static_cast<uint32_t>(v)));
    }
  }
  return out;
}

Result<IncrementalTransitiveClosure>
IncrementalTransitiveClosure::Deserialize(std::string_view bytes) {
  serde::Reader reader(bytes);
  PITRACT_ASSIGN_OR_RETURN(uint64_t tag, reader.ReadU64());
  if (tag != kFormatTagV2) {
    return Status::InvalidArgument(
        "closure image: unsupported format (pre-edge-list image?)");
  }
  PITRACT_ASSIGN_OR_RETURN(uint64_t n_raw, reader.ReadU64());
  if (n_raw > static_cast<uint64_t>(std::numeric_limits<graph::NodeId>::max())) {
    return Status::InvalidArgument("closure image: node count overflows");
  }
  const auto n = static_cast<graph::NodeId>(n_raw);
  const int64_t wpr = WordsPerRow(n);
  PITRACT_ASSIGN_OR_RETURN(uint64_t m_raw, reader.ReadU64());
  if (m_raw > static_cast<uint64_t>(n) * static_cast<uint64_t>(n)) {
    return Status::InvalidArgument("closure image: edge count overflows");
  }
  const auto m = static_cast<int64_t>(m_raw);
  if (reader.remaining() != static_cast<size_t>(2 * n * wpr * 8 + 8 * m)) {
    return Status::InvalidArgument("closure image: truncated or oversized");
  }
  // Bits at or above n in a row's last word would name nodes that do not
  // exist; InsertEdge walks set bits unchecked, so such a row is refused.
  const uint64_t past_n =
      n % 64 == 0 ? 0 : ~uint64_t{0} << static_cast<unsigned>(n % 64);
  IncrementalTransitiveClosure tc(n);
  for (auto* rows : {&tc.desc_, &tc.anc_}) {
    for (reach::Bitset& row : *rows) {
      for (int64_t w = 0; w < wpr; ++w) {
        PITRACT_ASSIGN_OR_RETURN(uint64_t word, reader.ReadU64());
        if (w == wpr - 1 && (word & past_n) != 0) {
          return Status::InvalidArgument(
              "closure image: row bit past node count");
        }
        row.SetWord(w, word);
      }
    }
  }
  // Edges are written strictly increasing as (u << 32) | v keys, which
  // both validates sorted/unique adjacency and lets them stream straight
  // into the per-node lists.
  uint64_t prev_key = 0;
  bool have_prev = false;
  for (int64_t e = 0; e < m; ++e) {
    PITRACT_ASSIGN_OR_RETURN(uint64_t key, reader.ReadU64());
    if (have_prev && key <= prev_key) {
      return Status::InvalidArgument("closure image: edge list not sorted");
    }
    prev_key = key;
    have_prev = true;
    const auto u = static_cast<int64_t>(key >> 32);
    const auto v = static_cast<int64_t>(key & 0xFFFFFFFFull);
    if (u >= n || v >= n) {
      return Status::InvalidArgument("closure image: edge endpoint overflows");
    }
    tc.out_[static_cast<size_t>(u)].push_back(static_cast<graph::NodeId>(v));
  }
  // A closure row must at least contain its own node (Build/ctor set the
  // reflexive bit), so an all-zero diagonal is a corrupt image, not data.
  for (graph::NodeId v = 0; v < n; ++v) {
    if (!tc.desc_[static_cast<size_t>(v)].Test(v) ||
        !tc.anc_[static_cast<size_t>(v)].Test(v)) {
      return Status::InvalidArgument("closure image: missing reflexive bit");
    }
  }
  return tc;
}

Result<bool> IncrementalTransitiveClosure::ReachableInSerialized(
    std::string_view bytes, int64_t u, int64_t v) {
  serde::Reader reader(bytes);
  PITRACT_ASSIGN_OR_RETURN(uint64_t tag, reader.ReadU64());
  if (tag != kFormatTagV2) {
    return Status::InvalidArgument(
        "closure image: unsupported format (pre-edge-list image?)");
  }
  PITRACT_ASSIGN_OR_RETURN(uint64_t n_raw, reader.ReadU64());
  // Bound n (and m) before any size arithmetic: adversarial counts would
  // both overflow the expected-size product and defeat the u/v range
  // checks, turning the offset probe below into an out-of-bounds read.
  if (n_raw > static_cast<uint64_t>(std::numeric_limits<graph::NodeId>::max())) {
    return Status::InvalidArgument("closure image: node count overflows");
  }
  const auto n = static_cast<int64_t>(n_raw);
  const int64_t wpr = WordsPerRow(n);  // n <= 2^31: products fit in int64
  PITRACT_ASSIGN_OR_RETURN(uint64_t m_raw, reader.ReadU64());
  if (m_raw > static_cast<uint64_t>(n) * static_cast<uint64_t>(n)) {
    return Status::InvalidArgument("closure image: edge count overflows");
  }
  const auto m = static_cast<int64_t>(m_raw);
  if (bytes.size() != static_cast<size_t>(24 + 2 * n * wpr * 8 + 8 * m)) {
    return Status::InvalidArgument("closure image: truncated or oversized");
  }
  if (u < 0 || u >= n || v < 0 || v >= n) {
    return Status::OutOfRange("node id out of range");
  }
  const size_t offset =
      static_cast<size_t>(24 + (u * wpr + (v >> 6)) * 8);
  uint64_t word = 0;
  for (size_t i = 0; i < 8; ++i) {
    word |= static_cast<uint64_t>(
                static_cast<unsigned char>(bytes[offset + i]))
            << (8 * i);
  }
  return ((word >> (v & 63)) & 1) != 0;
}

int64_t IncrementalTransitiveClosure::NumReachablePairs() const {
  int64_t pairs = 0;
  for (const auto& row : desc_) pairs += row.Count();
  return pairs;
}

}  // namespace incremental
}  // namespace pitract
