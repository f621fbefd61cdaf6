// Golden outputs of the one-time Π and the view build.
//
// Every figure below was pinned against the sort-based reference
// implementation of the codec, the member Π and Graph::FromEdges; the
// rows for parts above the parallel grain (member-large,
// member-large-signed, conn-large) were pinned against the serial radix
// sort and single-threaded codec. Any rewrite of those layers must
// reproduce, for seeded member, connectivity, BDS and reachability parts:
//   * the Fnv1a64 digest of each Π payload and of each decoded view,
//   * the CostMeter charges of Π (work, depth, bytes read and written),
//   * the Fnv1a64 digest of the spill frame the store writes (which covers
//     the store key and the payload), and that frame's clean Load,
//   * the post-delta data part and spill frames of a patched entry.
// On a mismatch the test prints the whole row as a ready-to-paste table
// line, so an intended format change re-pins in one step.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/cost_meter.h"
#include "common/rng.h"
#include "core/int_column.h"
#include "core/problems.h"
#include "engine/builtins.h"
#include "engine/delta_hooks.h"
#include "engine/engine.h"
#include "engine/prepared_store.h"
#include "graph/generators.h"
#include "incremental/incremental_tc.h"

namespace pitract {
namespace engine {
namespace {

namespace fs = std::filesystem;

std::string UniqueTempDir(const char* tag) {
  static std::atomic<int> counter{0};
  fs::path dir = fs::temp_directory_path() /
                 (std::string("pitract_golden_") + tag + "_" +
                  std::to_string(::getpid()) + "_" +
                  std::to_string(counter.fetch_add(1)));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::unique_ptr<QueryEngine> MakeEngine() {
  auto engine = std::make_unique<QueryEngine>();
  auto status = RegisterBuiltins(engine.get());
  EXPECT_TRUE(status.ok()) << status.ToString();
  return engine;
}

/// Digest of every spill frame under `dir`, in file-name order.
uint64_t DirectoryDigest(const std::string& dir, int* files) {
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::string all;
  for (const fs::path& path : paths) {
    std::ifstream in(path, std::ios::binary);
    all += path.filename().string();
    all.append(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
  }
  *files = static_cast<int>(paths.size());
  return Fnv1a64(all);
}

uint64_t IntsDigest(const std::vector<int64_t>& values) {
  return Fnv1a64(std::string_view(reinterpret_cast<const char*>(values.data()),
                                  values.size() * sizeof(int64_t)));
}

enum class ViewKind { kIntList, kClosure, kGraph };

struct Part {
  std::string name;
  std::string problem;
  core::PiWitness witness;
  ViewKind view = ViewKind::kIntList;
  std::string data;
  std::vector<std::string> queries;
  /// The registered entry's default witness: also run through the engine.
  bool primary = true;
};

std::string PairQuery(Rng* rng, int64_t n) {
  return std::to_string(rng->NextBelow(static_cast<uint64_t>(n))) + "#" +
         std::to_string(rng->NextBelow(static_cast<uint64_t>(n)));
}

std::string MemberData(const std::vector<int64_t>& list, int64_t universe) {
  return core::MemberFactorization()
      .pi1(core::MakeMemberInstance(universe, list, 0))
      .value();
}

Part MemberPart(std::string name, std::vector<int64_t> list, Rng* rng) {
  Part part{std::move(name), "list-membership", core::MemberWitness(),
            ViewKind::kIntList, MemberData(list, 1 << 20), {}, true};
  for (int i = 0; i < 64; ++i) {
    // Half the probes hit a stored value, half are arbitrary.
    const bool hit = !list.empty() && i % 2 == 0;
    part.queries.push_back(std::to_string(
        hit ? list[rng->NextBelow(list.size())]
            : rng->NextInRange(-(int64_t{1} << 20), int64_t{1} << 20)));
  }
  return part;
}

std::vector<Part> GoldenParts() {
  Rng rng(20130826);
  std::vector<Part> parts;

  {
    // The benchmark's shape: 2^14 draws from [0, 2n).
    std::vector<int64_t> list;
    for (int i = 0; i < (1 << 14); ++i) {
      list.push_back(static_cast<int64_t>(rng.NextBelow(1 << 15)));
    }
    parts.push_back(MemberPart("member-dense", std::move(list), &rng));
  }
  {
    // Full 64-bit keys with both signs, heavy duplicates and the extremes.
    std::vector<int64_t> list;
    for (int i = 0; i < 5000; ++i) {
      list.push_back(static_cast<int64_t>(rng.Next()));
      list.push_back(rng.NextInRange(-1000, 1000));
    }
    list.push_back(std::numeric_limits<int64_t>::min());
    list.push_back(std::numeric_limits<int64_t>::max());
    list.push_back(std::numeric_limits<int64_t>::min());
    list.push_back(0);
    list.push_back(-1);
    parts.push_back(MemberPart("member-signed", std::move(list), &rng));
  }
  {
    // Negative-only keys sharing their high bytes.
    std::vector<int64_t> list;
    for (int i = 0; i < 3000; ++i) {
      list.push_back(-(int64_t{1} << 40) - rng.NextInRange(0, 1 << 20));
    }
    parts.push_back(MemberPart("member-negative", std::move(list), &rng));
  }
  parts.push_back(MemberPart("member-single", {42}, &rng));
  parts.push_back(MemberPart("member-empty", {}, &rng));

  auto undirected = graph::ErdosRenyi(4096, 4096, /*directed=*/false, &rng);
  {
    Part conn{"conn", "connectivity", core::ConnWitness(), ViewKind::kIntList,
              core::ConnFactorization()
                  .pi1(core::MakeConnInstance(undirected, 0, 0))
                  .value(),
              {}};
    for (int i = 0; i < 64; ++i) conn.queries.push_back(PairQuery(&rng, 4096));
    parts.push_back(std::move(conn));
  }
  auto small = graph::ErdosRenyi(1024, 2048, /*directed=*/false, &rng);
  {
    Part bds{"bds", "breadth-depth-search", core::BdsWitness(),
             ViewKind::kIntList,
             core::BdsFactorization()
                 .pi1(core::MakeBdsInstance(small, 0, 0))
                 .value(),
             {}};
    for (int i = 0; i < 64; ++i) bds.queries.push_back(PairQuery(&rng, 1024));
    parts.push_back(std::move(bds));
  }
  auto directed = graph::ErdosRenyi(256, 512, /*directed=*/true, &rng);
  {
    const std::string data = core::ReachFactorization()
                                 .pi1(core::MakeReachInstance(directed, 0, 0))
                                 .value();
    Part closure{"reach-closure", "graph-reachability",
                 ReachClosureWitness(), ViewKind::kClosure, data, {}};
    for (int i = 0; i < 64; ++i) {
      closure.queries.push_back(PairQuery(&rng, 256));
    }
    Part scan = closure;
    scan.name = "reach-edge-scan";
    scan.witness = ReachEdgeScanWitness();
    scan.view = ViewKind::kGraph;
    scan.primary = false;
    parts.push_back(std::move(closure));
    parts.push_back(std::move(scan));
  }

  // Parts above the parallel grain, from their own seed so the rows above
  // keep their data: the Π and view-build passes split these into chunks.
  Rng large_rng(20260417);
  {
    // The benchmark's member shape at its size: 2^16 draws from [0, 2^17).
    std::vector<int64_t> list;
    for (int i = 0; i < (1 << 16); ++i) {
      list.push_back(static_cast<int64_t>(large_rng.NextBelow(1 << 17)));
    }
    parts.push_back(MemberPart("member-large", std::move(list), &large_rng));
  }
  {
    // Full 64-bit signed keys above the grain, with duplicates, the
    // extremes and a run of keys sharing their high bytes.
    std::vector<int64_t> list;
    for (int i = 0; i < 40000; ++i) {
      list.push_back(static_cast<int64_t>(large_rng.Next()));
      list.push_back(large_rng.NextInRange(-1000, 1000));
    }
    for (int i = 0; i < 10000; ++i) {
      list.push_back((int64_t{0x1234} << 48) + large_rng.NextInRange(0, 255));
    }
    list.push_back(std::numeric_limits<int64_t>::min());
    list.push_back(std::numeric_limits<int64_t>::max());
    parts.push_back(
        MemberPart("member-large-signed", std::move(list), &large_rng));
  }
  {
    auto big = graph::ErdosRenyi(1 << 16, 1 << 16, /*directed=*/false,
                                 &large_rng);
    Part conn{"conn-large", "connectivity", core::ConnWitness(),
              ViewKind::kIntList,
              core::ConnFactorization()
                  .pi1(core::MakeConnInstance(big, 0, 0))
                  .value(),
              {}};
    for (int i = 0; i < 64; ++i) {
      conn.queries.push_back(PairQuery(&large_rng, 1 << 16));
    }
    parts.push_back(std::move(conn));
  }
  return parts;
}

/// One pinned row: Π payload and view digests, Π's charges, and (for the
/// registered primary witnesses) the spill-frame digest and answer bits.
struct Golden {
  const char* name;
  uint64_t payload_digest;
  uint64_t view_digest;
  int64_t pi_work;
  int64_t pi_depth;
  int64_t pi_bytes_read;
  int64_t pi_bytes_written;
  uint64_t frame_digest;  // 0: the witness is not the entry's primary
  uint64_t answers_digest;
};

constexpr Golden kGolden[] = {
    {"member-dense", 0x46e4b53afd13d8c4ull, 0xc983c321d6c3d9b6ull, 245760,
     245760, 0, 0, 0x7a50c08ab81e5243ull, 0x487b60be751cfda7ull},
    {"member-signed", 0x2e82ebfd4caaa94full, 0x4a6707c1f91f0b49ull, 150075,
     150075, 0, 0, 0xeab073e10ec31194ull, 0x487b60be751cfda7ull},
    {"member-negative", 0x043161151814e889ull, 0xf96b451315f9e2abull, 39000,
     39000, 0, 0, 0x4e5d24d9121fc379ull, 0x487b60be751cfda7ull},
    {"member-single", 0x07ee7e07b4b19223ull, 0xaf63a749fd1ca819ull, 1, 1, 0, 0,
     0x0d843faaac2835c2ull, 0x487b60be751cfda7ull},
    {"member-empty", 0xcbf29ce484222325ull, 0xcbf29ce484222325ull, 0, 0, 0, 0,
     0x8b049ca60b90299aull, 0x3a3d7d870dd08f02ull},
    {"conn", 0xa282beeb891f3bddull, 0x639ce1063926c0c6ull, 8192, 8192, 0, 0,
     0x1150c286838b030aull, 0xd07a9f17b7c248ecull},
    {"bds", 0x11030d0f5e9010fcull, 0xe777ac89a6cc2373ull, 6130, 6130, 24520,
     4096, 0xc30de47ee9717342ull, 0x25306775f1f36bf0ull},
    {"reach-closure", 0xebb5added41d2535ull, 0xebb5added41d2535ull, 3113,
     3113, 0, 16384, 0x219d0266a0dd03b2ull, 0x3250598c4409c8e9ull},
    {"reach-edge-scan", 0xbe56d1dd648bea8dull, 0x9745e64cb07a65e6ull, 761, 761,
     0, 0, 0x0ull, 0x0ull},
    {"member-large", 0x8b11fd73ba7c3b13ull, 0x2383e336b79e6d59ull, 1114112,
     1114112, 0, 0, 0x92cbf24f5f50451cull, 0x338bbdcd7a7c04cdull},
    {"member-large-signed", 0xd3f098add478dc8eull, 0xaee1a7eb82a1baefull,
     1620036, 1620036, 0, 0, 0x61451a2e02e6d5f7ull, 0x487b60be751cfda7ull},
    {"conn-large", 0xc11e884aade7d41cull, 0x1b6e0041a80b7228ull, 131068,
     131068, 0, 0, 0x84935fb9be008132ull, 0x313329eafe0d0ac8ull},
};

const Golden* FindGolden(const std::string& name) {
  for (const Golden& g : kGolden) {
    if (name == g.name) return &g;
  }
  return nullptr;
}

std::string RowOf(const Golden& g) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"%s\", 0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull, %" PRId64
                ", %" PRId64 ", %" PRId64 ", %" PRId64 ", 0x%016" PRIx64
                "ull, 0x%016" PRIx64 "ull},",
                g.name, g.payload_digest, g.view_digest, g.pi_work,
                g.pi_depth, g.pi_bytes_read, g.pi_bytes_written,
                g.frame_digest, g.answers_digest);
  return buf;
}

uint64_t ViewDigest(ViewKind kind, const core::PiViewPtr& view) {
  switch (kind) {
    case ViewKind::kIntList: {
      // The column's int64 values, whatever width it stores them at.
      const auto& column = *static_cast<const core::IntColumn*>(view.get());
      std::vector<int64_t> values(column.size());
      for (size_t i = 0; i < values.size(); ++i) values[i] = column[i];
      return IntsDigest(values);
    }
    case ViewKind::kClosure:
      return Fnv1a64(
          static_cast<const incremental::IncrementalTransitiveClosure*>(
              view.get())
              ->Serialize());
    case ViewKind::kGraph:
      return Fnv1a64(static_cast<const graph::Graph*>(view.get())->Encode());
  }
  return 0;
}

uint64_t AnswersDigest(const std::vector<bool>& answers) {
  std::string bits;
  for (bool a : answers) bits.push_back(a ? '1' : '0');
  return Fnv1a64(bits);
}

/// Spills the single entry `engine` holds for `part` and checks a fresh
/// engine Loads that frame cleanly and answers from it without running Π.
uint64_t FrameDigestAndReload(QueryEngine* engine, const Part& part,
                              const std::vector<bool>& expected) {
  const std::string dir = UniqueTempDir("frame");
  EXPECT_TRUE(engine->store().Spill(dir).ok()) << part.name;
  int files = 0;
  const uint64_t digest = DirectoryDigest(dir, &files);
  EXPECT_EQ(files, 1) << part.name;

  auto fresh = MakeEngine();
  auto loaded = fresh->store().Load(dir);
  EXPECT_TRUE(loaded.ok()) << part.name;
  if (loaded.ok()) {
    EXPECT_EQ(*loaded, 1u) << part.name;
  }
  const auto stats = fresh->store().stats();
  EXPECT_EQ(stats.load_corrupt, 0) << part.name;
  EXPECT_EQ(stats.load_skipped, 0) << part.name;
  auto again = fresh->AnswerBatch(part.problem, part.data, part.queries);
  EXPECT_TRUE(again.ok()) << part.name;
  if (again.ok()) {
    EXPECT_EQ(again->prepare_runs, 0) << part.name << ": Π re-ran after Load";
    EXPECT_EQ(again->answers, expected) << part.name;
  }
  fs::remove_all(dir);
  return digest;
}

TEST(PiGoldenTest, PayloadsViewsChargesAndFramesArePinned) {
  for (const Part& part : GoldenParts()) {
    SCOPED_TRACE(part.name);
    const Golden* want = FindGolden(part.name);
    ASSERT_NE(want, nullptr);
    Golden got = *want;

    CostMeter pi_meter;
    auto payload = part.witness.preprocess(part.data, &pi_meter);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    got.payload_digest = Fnv1a64(*payload);
    got.pi_work = pi_meter.work();
    got.pi_depth = pi_meter.depth();
    got.pi_bytes_read = pi_meter.bytes_read();
    got.pi_bytes_written = pi_meter.bytes_written();

    CostMeter view_meter;
    auto view = part.witness.deserialize(
        std::make_shared<const std::string>(*payload), &view_meter);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    got.view_digest = ViewDigest(part.view, *view);
    EXPECT_EQ(view_meter.work(), 0);
    EXPECT_EQ(view_meter.bytes_read(), 0);

    // The primary witness of the registered entry also goes through the
    // engine: same Π bytes in the store, the same spill frame, the same
    // answers. (The edge-scan alternative is not the default choice.)
    if (part.primary) {
      auto engine = MakeEngine();
      auto batch = engine->AnswerBatch(part.problem, part.data, part.queries);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      EXPECT_EQ(batch->prepare_runs, 1);
      EXPECT_EQ(batch->prepare_cost, Cost(got.pi_work, got.pi_depth));
      got.answers_digest = AnswersDigest(batch->answers);
      got.frame_digest = FrameDigestAndReload(engine.get(), part,
                                              batch->answers);
    }

    EXPECT_EQ(RowOf(got), RowOf(*want)) << "GOLDEN " << RowOf(got);
  }
}

/// A view-first store entry keeps only the decoded view and re-encodes
/// Π(D) whenever the payload is asked for, so every witness with an
/// encode_view hook must give back Π's bytes exactly: signed, extreme and
/// duplicate values, empty and single-value parts, and parts above the
/// parallel grain. The hook appends to what the buffer already holds.
std::string EncodeThroughView(const core::PiWitness& w,
                              const std::string& payload) {
  auto view =
      w.deserialize(std::make_shared<const std::string>(payload), nullptr);
  EXPECT_TRUE(view.ok()) << view.status().ToString();
  if (!view.ok()) return "";
  std::string encoded = "frame-head";
  EXPECT_TRUE(w.encode_view(view->get(), &encoded).ok());
  return encoded.substr(std::string("frame-head").size());
}

TEST(PiGoldenTest, EncodeViewReproducesEveryPayload) {
  int encoders = 0;
  for (const Part& part : GoldenParts()) {
    if (!part.witness.encode_view) continue;
    SCOPED_TRACE(part.name);
    auto payload = part.witness.preprocess(part.data, nullptr);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    EXPECT_EQ(EncodeThroughView(part.witness, *payload), *payload);
    ++encoders;
  }
  // Seven member parts, two connectivity parts and the BDS part; the
  // closure, edge-scan and B+-tree views keep their payloads.
  EXPECT_EQ(encoders, 10);

  // Derived entries forward the hook with the view: the λ-rewritten
  // interval witness and the transported reductions encode the same way.
  auto engine = MakeEngine();
  for (const char* name : {"predicate-selection", "member-via-conn",
                           "connectivity-via-bds", "member-via-bds"}) {
    auto entry = engine->Find(name);
    ASSERT_TRUE(entry.ok()) << name;
    EXPECT_TRUE(static_cast<bool>((*entry)->witness.encode_view)) << name;
  }
  const std::vector<Part> parts = GoldenParts();
  for (const Part& part : parts) {
    if (part.problem != "list-membership") continue;
    SCOPED_TRACE(part.name);
    const core::PiWitness& interval =
        (*engine->Find("predicate-selection"))->witness;
    auto payload = interval.preprocess(part.data, nullptr);
    ASSERT_TRUE(payload.ok());
    EXPECT_EQ(EncodeThroughView(interval, *payload), *payload);

    // A Δ-patched column is what UpdateData hands the next re-key.
    if (payload->empty()) continue;
    std::string patched = *payload;
    DeltaBatch delta;
    delta.ops = {{DeltaOp::Kind::kListInsert, -5, 0},
                 {DeltaOp::Kind::kListInsert,
                  std::numeric_limits<int64_t>::max(), 0},
                 {DeltaOp::Kind::kListInsert,
                  std::numeric_limits<int64_t>::min(), 0}};
    ASSERT_TRUE(MemberPreparedPatch()(&patched, delta, nullptr).ok());
    EXPECT_EQ(EncodeThroughView(interval, patched), patched);
  }
}

/// Post-delta bytes: the patched member column and the rebuilt closure
/// must leave the same data part and the same re-spilled frames.
struct DeltaGolden {
  const char* name;
  uint64_t new_data_digest;
  uint64_t frames_digest;
  bool patched;
};

constexpr DeltaGolden kDeltaGolden[] = {
    {"member-delta", 0x20f4e97c4d826798ull, 0xbe2c5d0ce0092153ull, true},
    {"reach-delta", 0x3eb94f00ebfbd644ull, 0xf95033a66fbef9bcull, true},
};

TEST(PiGoldenTest, DeltaPatchedEntriesArePinned) {
  Rng rng(7741);
  std::vector<int64_t> list;
  for (int i = 0; i < 4096; ++i) {
    list.push_back(rng.NextInRange(0, 100000));
  }
  auto directed = graph::ErdosRenyi(128, 256, /*directed=*/true, &rng);
  struct Case {
    const char* name;
    std::string problem;
    std::string data;
    DeltaBatch delta;
    std::vector<std::string> queries;
  };
  std::vector<Case> cases;
  {
    Case member{"member-delta", "list-membership", MemberData(list, 1 << 20),
                {}, {}};
    member.delta.ops = {{DeltaOp::Kind::kListInsert, 77777, 0},
                        {DeltaOp::Kind::kListDelete, list[5], 0},
                        {DeltaOp::Kind::kValueUpdate, list[9], 123456}};
    for (int i = 0; i < 32; ++i) {
      member.queries.push_back(std::to_string(rng.NextInRange(0, 100000)));
    }
    member.queries.push_back("77777");
    member.queries.push_back("123456");
    cases.push_back(std::move(member));
  }
  {
    Case reach{"reach-delta", "graph-reachability",
               core::ReachFactorization()
                   .pi1(core::MakeReachInstance(directed, 0, 0))
                   .value(),
               {}, {}};
    const auto edges = directed.Edges();
    reach.delta.ops = {{DeltaOp::Kind::kEdgeInsert, 3, 97},
                       {DeltaOp::Kind::kEdgeDelete, edges[10].first,
                        edges[10].second}};
    for (int i = 0; i < 32; ++i) reach.queries.push_back(PairQuery(&rng, 128));
    cases.push_back(std::move(reach));
  }

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const DeltaGolden* want = nullptr;
    for (const DeltaGolden& g : kDeltaGolden) {
      if (std::string(c.name) == g.name) want = &g;
    }
    ASSERT_NE(want, nullptr);
    auto engine = MakeEngine();
    ASSERT_TRUE(engine->AnswerBatch(c.problem, c.data, c.queries).ok());
    auto outcome = engine->ApplyDelta(c.problem, c.data, c.delta);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    auto after = engine->AnswerBatch(c.problem, outcome->new_data, c.queries);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_EQ(after->prepare_runs, 0);

    // A recompute from scratch on the post-delta part answers the same.
    auto scratch = MakeEngine();
    auto reference =
        scratch->AnswerBatch(c.problem, outcome->new_data, c.queries);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(after->answers, reference->answers);

    const std::string dir = UniqueTempDir("delta");
    ASSERT_TRUE(engine->store().Spill(dir).ok());
    int files = 0;
    DeltaGolden got = *want;
    got.new_data_digest = Fnv1a64(outcome->new_data);
    got.frames_digest = DirectoryDigest(dir, &files);
    got.patched = outcome->patched;
    EXPECT_GE(files, 1);
    fs::remove_all(dir);

    char row[160];
    std::snprintf(row, sizeof(row),
                  "{\"%s\", 0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull, %s},",
                  got.name, got.new_data_digest, got.frames_digest,
                  got.patched ? "true" : "false");
    EXPECT_EQ(got.new_data_digest, want->new_data_digest) << "GOLDEN " << row;
    EXPECT_EQ(got.frames_digest, want->frames_digest) << "GOLDEN " << row;
    EXPECT_EQ(got.patched, want->patched) << "GOLDEN " << row;
  }
}

/// A spill frame written by the sort-based implementation for the member
/// part "1048576#-7,42,9,42,1000000" (hex of the whole .pit file).
constexpr char kReferenceMemberFrameHex[] =
    "5049543103000000f6450c80db09fbde3d000000000000006c6973742d6d656d"
    "626572736869701f736f72742b62696e6172792d7365617263681f3130343835"
    "3736232d372c34322c392c34322c3130303030303012000000000000002d372c"
    "392c34322c34322c313030303030308f00000000000000";

TEST(PiGoldenTest, ReferenceWrittenFrameLoadsAndMatchesTodaysFrame) {
  std::string frame;
  const std::string hex = kReferenceMemberFrameHex;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    frame.push_back(
        static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  const std::string data = MemberData({-7, 42, 9, 42, 1000000}, 1 << 20);
  const std::vector<std::string> queries = {"42", "-7", "8", "1000000"};

  // Today's frame for the same part is byte-identical.
  auto writer = MakeEngine();
  ASSERT_TRUE(writer->AnswerBatch("list-membership", data, queries).ok());
  const std::string written = UniqueTempDir("written");
  ASSERT_TRUE(writer->store().Spill(written).ok());
  int files = 0;
  for (const auto& entry : fs::directory_iterator(written)) {
    std::ifstream in(entry.path(), std::ios::binary);
    EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()),
              frame);
    ++files;
  }
  EXPECT_EQ(files, 1);
  fs::remove_all(written);

  const std::string dir = UniqueTempDir("reference");
  {
    std::ofstream out(fs::path(dir) / "reference_entry.pit",
                      std::ios::binary | std::ios::trunc);
    out << frame;
  }
  auto engine = MakeEngine();
  auto loaded = engine->store().Load(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 1u);
  EXPECT_EQ(engine->store().stats().load_corrupt, 0);
  EXPECT_EQ(engine->store().stats().load_skipped, 0);
  auto batch = engine->AnswerBatch("list-membership", data, queries);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->prepare_runs, 0);
  EXPECT_EQ(batch->answers, (std::vector<bool>{true, true, false, true}));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace engine
}  // namespace pitract
