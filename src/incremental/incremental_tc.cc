#include "incremental/incremental_tc.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <span>

#include "common/heap_bytes.h"
#include "common/serde.h"
#include "graph/algos.h"

namespace pitract {
namespace incremental {

namespace {

/// Words per closure row for an n-node graph.
int64_t WordsPerRow(int64_t n) { return (n + 63) / 64; }

/// Serialize format tag: deliberately above any representable node count
/// (NodeId is 32-bit), so a v1 image — whose first u64 was n itself —
/// can never alias a v2 header.
constexpr uint64_t kFormatTagV2 = 0xFFFFFFFF00000002ull;

/// Image header: format tag, n, m.
constexpr int64_t kHeaderBytes = 24;

/// Writes `words` as little-endian u64s at `dst`; returns the end.
char* StoreWords(char* dst, std::span<const uint64_t> words) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, words.data(), words.size() * 8);
    return dst + words.size() * 8;
  } else {
    for (uint64_t word : words) {
      for (int i = 0; i < 8; ++i) *dst++ = static_cast<char>(word >> (8 * i));
    }
    return dst;
  }
}

char* StoreWord(char* dst, uint64_t word) {
  return StoreWords(dst, std::span<const uint64_t>(&word, 1));
}

/// Reads `words.size()` little-endian u64s from `src`; returns the end.
const char* LoadWords(const char* src, std::span<uint64_t> words) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(words.data(), src, words.size() * 8);
    return src + words.size() * 8;
  } else {
    for (uint64_t& word : words) {
      word = 0;
      for (int i = 0; i < 8; ++i) {
        word |= static_cast<uint64_t>(static_cast<unsigned char>(*src++))
                << (8 * i);
      }
    }
    return src;
  }
}

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
  const graph::NodeId n = g.num_nodes();
  IncrementalTransitiveClosure tc(n);
  // The maintained edge set is the graph's sorted adjacency with parallel
  // arcs collapsed (set semantics, as InsertEdge keeps it).
  int64_t arcs = 0;
  for (graph::NodeId u = 0; u < n; ++u) {
    const auto nbrs = g.OutNeighbors(u);
    arcs += static_cast<int64_t>(nbrs.size());
    auto& adj = tc.out_[static_cast<size_t>(u)];
    adj.assign(nbrs.begin(), nbrs.end());
    adj.erase(std::unique(adj.begin(), adj.end()), adj.end());
  }
  // Reachability is invariant under SCC contraction: every member of a
  // component has the same descendant and ancestor sets. Each component's
  // two rows are built in its lowest member's slots, then copied to the
  // other members.
  const graph::SccResult scc = graph::StronglyConnectedComponents(g);
  const graph::Graph dag = graph::Condense(g, scc);
  const graph::NodeId k = scc.num_components;
  const std::vector<graph::NodeId>& comp = scc.component;
  std::vector<graph::NodeId> rep(static_cast<size_t>(k), -1);
  for (graph::NodeId v = 0; v < n; ++v) {
    auto& r = rep[static_cast<size_t>(comp[static_cast<size_t>(v)])];
    if (r < 0) {
      r = v;  // the constructor already set the reflexive bits
    } else {
      tc.desc_[static_cast<size_t>(r)].Set(v);
      tc.anc_[static_cast<size_t>(r)].Set(v);
    }
  }
  // Tarjan numbers components in reverse topological order, so every
  // condensation successor has a lower id. Ascending ids: a component's
  // successors' descendant rows are complete when it pulls them in.
  // Descending ids: a component's ancestor row is complete (all its
  // predecessors have pushed into it) when it pushes on to its successors.
  auto rows_of = [&](std::vector<reach::Bitset>& rows, graph::NodeId c)
      -> reach::Bitset& {
    return rows[static_cast<size_t>(rep[static_cast<size_t>(c)])];
  };
  int64_t row_words = 0;
  for (graph::NodeId c = 0; c < k; ++c) {
    reach::Bitset& row = rows_of(tc.desc_, c);
    for (graph::NodeId s : dag.OutNeighbors(c)) {
      row.UnionWith(rows_of(tc.desc_, s));
      row_words += row.num_words();
    }
  }
  for (graph::NodeId c = k - 1; c >= 0; --c) {
    const reach::Bitset& row = rows_of(tc.anc_, c);
    for (graph::NodeId s : dag.OutNeighbors(c)) {
      rows_of(tc.anc_, s).UnionWith(row);
      row_words += row.num_words();
    }
  }
  for (graph::NodeId v = 0; v < n; ++v) {
    const graph::NodeId c = comp[static_cast<size_t>(v)];
    if (rep[static_cast<size_t>(c)] == v) continue;
    tc.desc_[static_cast<size_t>(v)] = rows_of(tc.desc_, c);
    tc.anc_[static_cast<size_t>(v)] = rows_of(tc.anc_, c);
    row_words += 2 * WordsPerRow(n);
  }
  if (meter != nullptr) {
    // SCC, condensation and the adjacency copy are O(n + m); the row
    // unions and member copies are word-parallel.
    meter->AddSerial(n + arcs + row_words);
    meter->AddBytesWritten(2 * static_cast<int64_t>(n) * WordsPerRow(n) * 8);
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
  const auto& dv_words = desc_[static_cast<size_t>(v)].words();
  const auto& anc_words = anc_[static_cast<size_t>(u)].words();
  for (size_t w = 0; w < anc_words.size(); ++w) {
    const uint64_t word = anc_words[w];
    ++last_insert_work_;
    if (word == 0) continue;  // skip unaffected id ranges wholesale
    for (int bit = 0; bit < 64; ++bit) {
      if (((word >> bit) & 1) == 0) continue;
      const auto x = static_cast<graph::NodeId>(w * 64 + bit);
      const std::span<uint64_t> dx =
          desc_[static_cast<size_t>(x)].mutable_words();
      last_insert_work_ += static_cast<int64_t>(dx.size());
      // Union desc(v) into desc(x) word by word; only the bits x newly
      // gains need an ancestor-row update (anc is desc's transpose).
      for (size_t dw = 0; dw < dx.size(); ++dw) {
        const uint64_t gained = dv_words[dw] & ~dx[dw];
        if (gained == 0) continue;
        dx[dw] |= gained;
        const int gained_bits = std::popcount(gained);
        changed_pairs += gained_bits;
        last_insert_work_ += gained_bits;
        for (uint64_t bits = gained; bits != 0; bits &= bits - 1) {
          const auto y =
              static_cast<graph::NodeId>(dw * 64 + std::countr_zero(bits));
          anc_[static_cast<size_t>(y)].Set(x);
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
  const int64_t wpr = WordsPerRow(n_);
  const int64_t m = NumEdges();
  std::string out(static_cast<size_t>(kHeaderBytes + 2 * n_ * wpr * 8 + 8 * m),
                  '\0');
  char* p = out.data();
  p = StoreWord(p, kFormatTagV2);
  p = StoreWord(p, static_cast<uint64_t>(n_));
  p = StoreWord(p, static_cast<uint64_t>(m));
  for (const auto* rows : {&desc_, &anc_}) {
    for (const reach::Bitset& row : *rows) p = StoreWords(p, row.words());
  }
  for (graph::NodeId u = 0; u < n_; ++u) {
    for (graph::NodeId v : out_[static_cast<size_t>(u)]) {
      p = StoreWord(p, (static_cast<uint64_t>(u) << 32) |
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
  // The size is exact from here on: rows and edges are copied straight
  // out of the buffer.
  const char* p = bytes.data() + reader.consumed();
  // Bits at or above n in a row's last word would name nodes that do not
  // exist; InsertEdge walks set bits unchecked, so such a row is refused.
  const uint64_t past_n =
      n % 64 == 0 ? 0 : ~uint64_t{0} << static_cast<unsigned>(n % 64);
  IncrementalTransitiveClosure tc(n);
  for (auto* rows : {&tc.desc_, &tc.anc_}) {
    for (reach::Bitset& row : *rows) {
      const std::span<uint64_t> words = row.mutable_words();
      p = LoadWords(p, words);
      if ((words.back() & past_n) != 0) {
        return Status::InvalidArgument(
            "closure image: row bit past node count");
      }
    }
  }
  // Edges are written strictly increasing as (u << 32) | v keys, which
  // both validates sorted/unique adjacency and lets them stream straight
  // into the per-node lists.
  uint64_t prev_key = 0;
  for (int64_t e = 0; e < m; ++e) {
    uint64_t key;
    p = LoadWords(p, std::span<uint64_t>(&key, 1));
    if (e > 0 && key <= prev_key) {
      return Status::InvalidArgument("closure image: edge list not sorted");
    }
    prev_key = key;
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
  if (bytes.size() !=
      static_cast<size_t>(kHeaderBytes + 2 * n * wpr * 8 + 8 * m)) {
    return Status::InvalidArgument("closure image: truncated or oversized");
  }
  if (u < 0 || u >= n || v < 0 || v >= n) {
    return Status::OutOfRange("node id out of range");
  }
  const size_t offset =
      static_cast<size_t>(kHeaderBytes + (u * wpr + (v >> 6)) * 8);
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
