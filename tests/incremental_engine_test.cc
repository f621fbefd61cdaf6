// Randomized and adversarial coverage for the serving layer's incremental
// Π(D) maintenance: QueryEngine::ApplyDelta / PreparedStore::UpdateData
// against a recompute-from-scratch shadow model, the O(|Δ|)-not-O(|D|)
// cost contract, and Δ-patching racing live ServePipeline traffic.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/codec.h"
#include "common/cost_meter.h"
#include "common/rng.h"
#include "core/problems.h"
#include "engine/builtins.h"
#include "engine/delta.h"
#include "engine/engine.h"
#include "engine/pipeline.h"
#include "engine/serve.h"
#include "graph/algos.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "ncsim/ncsim.h"
#include "string_path_engine.h"

namespace pitract {
namespace engine {
namespace {

namespace fs = std::filesystem;

std::string UniqueTempDir(const char* tag) {
  static std::atomic<int> counter{0};
  fs::path dir = fs::temp_directory_path() /
                 (std::string("pitract_") + tag + "_" +
                  std::to_string(::getpid()) + "_" +
                  std::to_string(counter.fetch_add(1)));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::unique_ptr<QueryEngine> MakeEngine(PreparedStore::Options options = {}) {
  auto engine = std::make_unique<QueryEngine>(options);
  auto status = RegisterBuiltins(engine.get());
  EXPECT_TRUE(status.ok()) << status.ToString();
  return engine;
}

std::string MemberData(int64_t universe, const std::vector<int64_t>& list) {
  return core::MemberFactorization()
      .pi1(core::MakeMemberInstance(universe, list, 0))
      .value();
}

bool ShadowMember(const std::vector<int64_t>& list, int64_t value) {
  return std::find(list.begin(), list.end(), value) != list.end();
}

// ---------------------------------------------------------------------------
// Randomized store equivalence: a seeded mix of answer / Δ-patch / evict /
// Spill / Load / Clear against a recompute-from-scratch shadow model.
// ---------------------------------------------------------------------------

class IncrementalEquivalenceTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(IncrementalEquivalenceTest, MemberDeltasMatchShadowModel) {
  Rng rng(GetParam());
  const std::string dir = UniqueTempDir("incr_equiv");

  PreparedStore::Options options;
  options.shards = 4;
  // Small enough that long runs evict; large enough to usually hold the
  // evolving entry, so both the patched and recompute paths are exercised.
  options.byte_budget = 1 << 14;
  auto engine = MakeEngine(options);

  const int64_t universe = 1024;
  std::vector<int64_t> shadow;
  for (int i = 0; i < 200; ++i) {
    shadow.push_back(
        static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(universe))));
  }
  std::string data = MemberData(universe, shadow);

  auto check_parity = [&] {
    std::vector<std::string> queries;
    std::vector<bool> expected;
    for (int i = 0; i < 8; ++i) {
      const auto value = static_cast<int64_t>(
          rng.NextBelow(static_cast<uint64_t>(universe)));
      queries.push_back(std::to_string(value));
      expected.push_back(ShadowMember(shadow, value));
    }
    auto batch = engine->AnswerBatch("list-membership", data, queries);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(batch->answers, expected);
  };

  // 25 operations per seed; with the 10-seed instantiation below the suite
  // runs 250 randomized iterations (the acceptance bar asks for 200+).
  for (int step = 0; step < 25; ++step) {
    switch (rng.NextBelow(8)) {
      case 0:    // plain batch answering
      case 1: {  // (weighted: answering dominates a serving mix)
        check_parity();
        break;
      }
      case 2: {  // Δ-patch: inserts
        DeltaBatch delta;
        const int k = 1 + static_cast<int>(rng.NextBelow(8));
        for (int i = 0; i < k; ++i) {
          DeltaOp op;
          op.kind = DeltaOp::Kind::kListInsert;
          op.a = static_cast<int64_t>(
              rng.NextBelow(static_cast<uint64_t>(universe)));
          delta.ops.push_back(op);
        }
        const auto n_before = static_cast<int64_t>(shadow.size());
        CostMeter meter;
        auto outcome =
            engine->ApplyDelta("list-membership", data, delta, &meter);
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        if (outcome->patched) {
          // CostMeter contract: patch work is O(|Δ| log |D|) — one
          // root-to-leaf traversal per change plus the digest probe —
          // never O(|D|).
          const int64_t per_change =
              ncsim::CeilLog2(n_before < 1 ? 1 : n_before) + 2;
          EXPECT_LE(meter.work(), k * per_change + 4)
              << "patch charged more than O(|Δ| log |D|)";
        }
        for (const DeltaOp& op : delta.ops) shadow.push_back(op.a);
        data = outcome->new_data;
        check_parity();
        break;
      }
      case 3: {  // Δ-patch: deletes (present values; absent must fail)
        if (shadow.empty()) break;
        DeltaBatch delta;
        DeltaOp op;
        op.kind = DeltaOp::Kind::kListDelete;
        op.a = shadow[rng.NextBelow(shadow.size())];
        delta.ops.push_back(op);
        auto outcome = engine->ApplyDelta("list-membership", data, delta);
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        shadow.erase(std::find(shadow.begin(), shadow.end(), op.a));
        data = outcome->new_data;

        // A delete of an absent value is rejected wholesale: neither the
        // data part nor the prepared structure moves.
        DeltaBatch absent;
        DeltaOp bad;
        bad.kind = DeltaOp::Kind::kListDelete;
        bad.a = universe + 17;  // outside every generated value
        absent.ops.push_back(bad);
        auto rejected =
            engine->ApplyDelta("list-membership", data, absent);
        EXPECT_FALSE(rejected.ok());
        check_parity();
        break;
      }
      case 4: {  // persistence round trip, possibly through a "restart"
        ASSERT_TRUE(engine->store().Spill(dir).ok());
        if (rng.NextBool(0.5)) {
          engine = MakeEngine(options);
          ASSERT_TRUE(engine->store().Load(dir).ok());
        }
        check_parity();
        break;
      }
      case 5: {  // Δ-patch: value updates (present a; absent must fail)
        if (shadow.empty()) break;
        DeltaBatch delta;
        DeltaOp op;
        op.kind = DeltaOp::Kind::kValueUpdate;
        op.a = shadow[rng.NextBelow(shadow.size())];
        op.b = static_cast<int64_t>(
            rng.NextBelow(static_cast<uint64_t>(universe)));
        delta.ops.push_back(op);
        CostMeter meter;
        auto outcome =
            engine->ApplyDelta("list-membership", data, delta, &meter);
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        if (outcome->patched) {
          // One update is algebraically delete-a + insert-b: at most two
          // root-to-leaf traversals, never O(|D|).
          const auto n_before = static_cast<int64_t>(shadow.size());
          const int64_t per_change =
              ncsim::CeilLog2(n_before < 1 ? 1 : n_before) + 2;
          EXPECT_LE(meter.work(), 2 * per_change + 4)
              << "update charged more than O(log |D|)";
        }
        if (op.a != op.b) {
          *std::find(shadow.begin(), shadow.end(), op.a) = op.b;
        }
        data = outcome->new_data;

        // An update whose old value is absent is rejected wholesale.
        DeltaBatch bad;
        DeltaOp absent;
        absent.kind = DeltaOp::Kind::kValueUpdate;
        absent.a = universe + 33;  // outside every generated value
        absent.b = 1;
        bad.ops.push_back(absent);
        EXPECT_FALSE(engine->ApplyDelta("list-membership", data, bad).ok());
        check_parity();
        break;
      }
      case 6: {  // coalesced burst: ± ops that net to a single insert
        DeltaBatch delta;
        const auto value = static_cast<int64_t>(
            rng.NextBelow(static_cast<uint64_t>(universe)));
        DeltaOp ins;
        ins.kind = DeltaOp::Kind::kListInsert;
        ins.a = value;
        DeltaOp del;
        del.kind = DeltaOp::Kind::kListDelete;
        del.a = value;
        // insert, insert, delete → net one insert; and a fully canceling
        // pair on an out-of-universe value must vanish before validation.
        delta.ops.push_back(ins);
        delta.ops.push_back(ins);
        delta.ops.push_back(del);
        DeltaOp ghost_ins;
        ghost_ins.kind = DeltaOp::Kind::kListInsert;
        ghost_ins.a = universe + 99;  // out of range — must coalesce away
        DeltaOp ghost_del;
        ghost_del.kind = DeltaOp::Kind::kListDelete;
        ghost_del.a = universe + 99;
        delta.ops.push_back(ghost_ins);
        delta.ops.push_back(ghost_del);
        auto outcome = engine->ApplyDelta("list-membership", data, delta);
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        shadow.push_back(value);
        data = outcome->new_data;
        check_parity();
        break;
      }
      default: {  // total eviction: everything recomputes from scratch
        engine->store().Clear();
        check_parity();
        break;
      }
    }
  }
  fs::remove_all(dir);
}

TEST_P(IncrementalEquivalenceTest, ReachabilityDeltasMatchShadowModel) {
  Rng rng(GetParam() + 500);
  auto engine = MakeEngine();

  const graph::NodeId n = 48;
  auto g = graph::ErdosRenyi(n, 96, /*directed=*/true, &rng);
  std::string data = core::ReachFactorization()
                         .pi1(core::MakeReachInstance(g, 0, 0))
                         .value();

  auto check_parity = [&] {
    std::vector<std::string> queries;
    std::vector<bool> expected;
    for (int i = 0; i < 8; ++i) {
      const auto s = static_cast<graph::NodeId>(
          rng.NextBelow(static_cast<uint64_t>(n)));
      const auto t = static_cast<graph::NodeId>(
          rng.NextBelow(static_cast<uint64_t>(n)));
      queries.push_back(
          codec::EncodeFields({std::to_string(s), std::to_string(t)}));
      expected.push_back(graph::BfsReachable(g, s, t, nullptr));
    }
    auto batch = engine->AnswerBatch("graph-reachability", data, queries);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(batch->answers, expected);
  };

  check_parity();  // cold Π
  for (int step = 0; step < 12; ++step) {
    // A mixed insert/delete batch, built against a running shadow of the
    // edge set so every delete targets a present edge (a delete of an
    // absent edge is rejected wholesale, covered below).
    DeltaBatch delta;
    const int k = 1 + static_cast<int>(rng.NextBelow(3));
    std::vector<std::pair<graph::NodeId, graph::NodeId>> edges = g.Edges();
    for (int i = 0; i < k; ++i) {
      DeltaOp op;
      if (!edges.empty() && rng.NextBool(0.4)) {
        const auto pick = edges[rng.NextBelow(edges.size())];
        op.kind = DeltaOp::Kind::kEdgeDelete;
        op.a = static_cast<int64_t>(pick.first);
        op.b = static_cast<int64_t>(pick.second);
        // Set semantics: the delete drops the arc, parallel copies and all.
        edges.erase(std::remove(edges.begin(), edges.end(), pick),
                    edges.end());
      } else {
        op.kind = DeltaOp::Kind::kEdgeInsert;
        op.a = static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(n)));
        op.b = static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(n)));
        edges.emplace_back(static_cast<graph::NodeId>(op.a),
                           static_cast<graph::NodeId>(op.b));
      }
      delta.ops.push_back(op);
    }
    auto outcome = engine->ApplyDelta("graph-reachability", data, delta);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_TRUE(outcome->patched) << "entry was resident; expected a patch";
    data = outcome->new_data;
    auto patched_graph = graph::Graph::FromEdges(n, edges, /*directed=*/true);
    ASSERT_TRUE(patched_graph.ok());
    g = std::move(patched_graph).value();
    check_parity();
  }
  // The whole evolving chain ran exactly one Π: every delta — insertions
  // and decremental deletions alike — was patched in place, every
  // post-delta batch hit the re-keyed entry.
  EXPECT_EQ(engine->store().stats().misses, 1);
  EXPECT_EQ(engine->store().stats().patches, 12);

  // A delete of an absent edge is rejected wholesale at the data hook:
  // neither the data part nor the prepared closure moves.
  {
    DeltaBatch absent;
    DeltaOp op;
    op.kind = DeltaOp::Kind::kEdgeDelete;
    op.a = 0;
    op.b = 0;  // self-loops are never generated above
    absent.ops.push_back(op);
    EXPECT_FALSE(engine->ApplyDelta("graph-reachability", data, absent).ok());
  }

  // List-vocabulary ops stay outside the reach data algebra: the data hook
  // refuses them loudly instead of guessing a meaning.
  DeltaBatch removal;
  DeltaOp op;
  op.kind = DeltaOp::Kind::kListDelete;
  removal.ops.push_back(op);
  EXPECT_FALSE(engine->ApplyDelta("graph-reachability", data, removal).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEquivalenceTest,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28,
                                           29, 30));

// ---------------------------------------------------------------------------
// The amortization claim, CostMeter-verified end to end: patching charges
// O(|Δ| log |D|) while the recompute it replaces charges Ω(|D|).
// ---------------------------------------------------------------------------

TEST(IncrementalCostTest, PatchWorkIsDeltaBoundedNeverLinearInData) {
  Rng rng(77);
  const int64_t n = 1 << 14;
  const int64_t universe = 4 * n;
  std::vector<int64_t> list;
  for (int64_t i = 0; i < n; ++i) {
    list.push_back(
        static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(universe))));
  }
  std::string data = MemberData(universe, list);

  auto engine = MakeEngine();
  std::vector<std::string> queries{"0"};
  auto cold = engine->AnswerBatch("list-membership", data, queries);
  ASSERT_TRUE(cold.ok());
  const int64_t recompute_work = cold->prepare_cost.work;

  constexpr int kDelta = 4;
  DeltaBatch delta;
  for (int i = 0; i < kDelta; ++i) {
    DeltaOp op;
    op.kind = DeltaOp::Kind::kListInsert;
    op.a = static_cast<int64_t>(
        rng.NextBelow(static_cast<uint64_t>(universe)));
    delta.ops.push_back(op);
  }
  CostMeter meter;
  auto outcome = engine->ApplyDelta("list-membership", data, delta, &meter);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->patched);

  // O(|Δ| log |D|), with explicit constants from the Δ-maintained index.
  EXPECT_LE(meter.work(), kDelta * (ncsim::CeilLog2(n) + 2) + 4);
  // …and therefore asymptotically nowhere near the Ω(|D| log |D|) rebuild.
  EXPECT_LT(meter.work() * 100, recompute_work);

  // The patched entry really serves: answering the post-delta data part is
  // a cache hit, not a second Π.
  auto warm = engine->AnswerBatch("list-membership", outcome->new_data,
                                  queries);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(warm->prepare_runs, 0);
  EXPECT_EQ(engine->store().stats().misses, 1);
}

TEST(IncrementalCostTest, DeletePatchWorkTracksAffectedSetNotGraphSize) {
  // Many small disjoint components: deleting one arc affects exactly one
  // closure row, so the SES-style decremental patch must charge a small
  // constant — while the recompute it replaces pays for the whole graph.
  const graph::NodeId n = 512;
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
  for (graph::NodeId i = 0; i + 1 < n; i += 2) pairs.emplace_back(i, i + 1);
  auto g = graph::Graph::FromEdges(n, pairs, /*directed=*/true);
  ASSERT_TRUE(g.ok());
  std::string data = core::ReachFactorization()
                         .pi1(core::MakeReachInstance(*g, 0, 0))
                         .value();

  auto engine = MakeEngine();
  std::vector<std::string> queries{codec::EncodeFields({"0", "1"})};
  auto cold = engine->AnswerBatch("graph-reachability", data, queries);
  ASSERT_TRUE(cold.ok());
  EXPECT_TRUE(cold->answers[0]);
  const int64_t recompute_work = cold->prepare_cost.work;

  DeltaBatch delta;
  DeltaOp op;
  op.kind = DeltaOp::Kind::kEdgeDelete;
  op.a = 0;
  op.b = 1;
  delta.ops.push_back(op);
  CostMeter meter;
  auto outcome = engine->ApplyDelta("graph-reachability", data, delta, &meter);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(outcome->patched);

  // AFF = {0}: the charge covers one ancestor-word scan plus one row
  // recompute — a |ΔD|/|CHANGED| function, structurally incapable of
  // reaching the Ω(n·m) closure rebuild.
  EXPECT_LT(meter.work() * 50, recompute_work)
      << "decremental patch charged like a rebuild";

  // The patched entry serves the post-delete closure warm: 0 ⇝ 1 is gone,
  // and Π never re-ran.
  auto warm =
      engine->AnswerBatch("graph-reachability", outcome->new_data, queries);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(warm->prepare_runs, 0);
  EXPECT_FALSE(warm->answers[0]);
  EXPECT_EQ(engine->store().stats().misses, 1);
}

// ---------------------------------------------------------------------------
// Decoded views under Δ-patches: a re-keyed entry must answer through a
// view of the *post-patch* payload — a stale pre-patch view would return
// the pre-delta answer while claiming a warm hit.
// ---------------------------------------------------------------------------

TEST(IncrementalViewTest, PatchedMemberEntryNeverServesThePrePatchView) {
  auto engine = MakeEngine();
  const int64_t universe = 256;
  std::string data = MemberData(universe, {1, 5, 9});
  std::vector<std::string> queries{"123"};  // absent pre-delta

  auto cold = engine->AnswerBatch("list-membership", data, queries);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->answers[0]);
  EXPECT_EQ(engine->store().stats().view_builds, 1);

  DeltaBatch delta;
  DeltaOp op;
  op.kind = DeltaOp::Kind::kListInsert;
  op.a = 123;
  delta.ops.push_back(op);
  auto outcome = engine->ApplyDelta("list-membership", data, delta);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->patched);
  // The re-key rebuilt the view from the patched payload.
  EXPECT_EQ(engine->store().stats().view_builds, 2);

  auto warm = engine->AnswerBatch("list-membership", outcome->new_data,
                                  queries);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);      // served from the patched entry...
  EXPECT_EQ(warm->prepare_runs, 0);  // ...with no Π recompute...
  EXPECT_TRUE(warm->answers[0]);     // ...through the post-patch view.
  EXPECT_EQ(engine->store().stats().view_builds, 2);  // memoized, not rebuilt
}

TEST(IncrementalViewTest, PatchedReachEntryServesThePostPatchClosureView) {
  auto engine = MakeEngine();
  auto g = graph::Graph::FromEdges(3, {{0, 1}}, /*directed=*/true);
  ASSERT_TRUE(g.ok());
  std::string data = core::ReachFactorization()
                         .pi1(core::MakeReachInstance(*g, 0, 0))
                         .value();
  std::vector<std::string> queries{codec::EncodeFields({"0", "2"})};

  auto cold = engine->AnswerBatch("graph-reachability", data, queries);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->answers[0]);  // 0 ⇝ 2 does not hold yet

  DeltaBatch delta;
  DeltaOp op;
  op.kind = DeltaOp::Kind::kEdgeInsert;
  op.a = 1;
  op.b = 2;
  delta.ops.push_back(op);
  auto outcome = engine->ApplyDelta("graph-reachability", data, delta);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->patched);

  auto warm = engine->AnswerBatch("graph-reachability", outcome->new_data,
                                  queries);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(warm->prepare_runs, 0);
  EXPECT_TRUE(warm->answers[0]);  // the closure view absorbed 1 -> 2
}

// ---------------------------------------------------------------------------
// Concurrency: ServePipeline traffic racing ApplyDelta on the same entry
// never observes a torn or stale-digest Π. Content addressing is the
// invariant under test: a batch against data version v must answer v's
// answers no matter how many Δ-patches land concurrently.
// ---------------------------------------------------------------------------

TEST(IncrementalConcurrencyTest, ServeTrafficRacingApplyDeltaStaysConsistent) {
  Rng rng(4242);
  const int64_t universe = 512;
  constexpr int kVersions = 6;

  // Precompute the version chain and its ground-truth answers.
  std::vector<std::vector<int64_t>> lists(kVersions);
  for (int i = 0; i < 120; ++i) {
    lists[0].push_back(
        static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(universe))));
  }
  std::vector<DeltaBatch> deltas(kVersions - 1);
  for (int v = 1; v < kVersions; ++v) {
    lists[v] = lists[v - 1];
    for (int i = 0; i < 5; ++i) {
      DeltaOp op;
      op.kind = DeltaOp::Kind::kListInsert;
      op.a = static_cast<int64_t>(
          rng.NextBelow(static_cast<uint64_t>(universe)));
      deltas[static_cast<size_t>(v - 1)].ops.push_back(op);
      lists[v].push_back(op.a);
    }
  }
  std::vector<std::string> version_data(kVersions);
  {
    // The Σ* encodings of every version, derived through the same hook the
    // racing engine will use (a scratch engine keeps digests identical).
    auto scratch = MakeEngine();
    version_data[0] = MemberData(universe, lists[0]);
    for (int v = 1; v < kVersions; ++v) {
      auto outcome = scratch->ApplyDelta("list-membership",
                                         version_data[v - 1],
                                         deltas[static_cast<size_t>(v - 1)]);
      ASSERT_TRUE(outcome.ok());
      version_data[v] = outcome->new_data;
    }
  }
  std::vector<std::string> queries;
  for (int i = 0; i < 12; ++i) {
    queries.push_back(std::to_string(rng.NextBelow(universe)));
  }
  std::vector<std::vector<bool>> expected(kVersions);
  for (int v = 0; v < kVersions; ++v) {
    for (const std::string& q : queries) {
      expected[v].push_back(ShadowMember(lists[v], std::stoll(q)));
    }
  }

  PreparedStore::Options options;
  options.shards = 8;
  auto engine = MakeEngine(options);
  // Warm version 0 so the first ApplyDelta has something to patch.
  ASSERT_TRUE(
      engine->AnswerBatch("list-membership", version_data[0], queries).ok());

  std::atomic<int> mismatches{0};
  std::atomic<int> errors{0};
  std::atomic<bool> done{false};

  // Updater: walks the delta chain over the live store. Patching may fall
  // back (e.g. an in-flight Π on the old version) — correctness must not
  // depend on which path won.
  std::thread updater([&] {
    for (int v = 1; v < kVersions; ++v) {
      auto outcome =
          engine->ApplyDelta("list-membership", version_data[v - 1],
                             deltas[static_cast<size_t>(v - 1)]);
      if (!outcome.ok()) {
        ++errors;
        continue;
      }
      if (outcome->new_data != version_data[v]) ++mismatches;
      std::this_thread::yield();
    }
  });

  // Verifier threads: batches against random pinned versions must answer
  // exactly that version's answers — never a torn or re-keyed Π.
  std::vector<std::thread> verifiers;
  for (int t = 0; t < 4; ++t) {
    verifiers.emplace_back([&, t] {
      Rng thread_rng(1000 + static_cast<uint64_t>(t));
      while (!done.load(std::memory_order_acquire)) {
        const int v = static_cast<int>(thread_rng.NextBelow(kVersions));
        auto batch = engine->AnswerBatch("list-membership",
                                         version_data[static_cast<size_t>(v)],
                                         queries);
        if (!batch.ok()) {
          ++errors;
          continue;
        }
        if (batch->answers != expected[static_cast<size_t>(v)]) ++mismatches;
      }
    });
  }

  // Bulk traffic through the multi-threaded serving driver, same store.
  // Alternate admission paths: even versions go through pre-admitted
  // digest handles (racing the Δ-patch re-keys through the pointer-equal
  // fast path), odd versions through per-batch string keys.
  std::vector<ServeWorkItem> workload;
  for (int v = 0; v < kVersions; ++v) {
    ServeWorkItem item;
    item.problem = "list-membership";
    item.data = version_data[static_cast<size_t>(v)];
    item.queries = queries;
    if (v % 2 == 0) {
      auto handle = engine->Intern("list-membership", item.data);
      ASSERT_TRUE(handle.ok());
      item.handle = std::make_shared<const DataHandle>(std::move(*handle));
    }
    workload.push_back(std::move(item));
  }
  constexpr int kRepeat = 20;
  PipelineOptions pipeline_options;
  pipeline_options.threads = 4;
  ServeReport report;
  {
    ServePipeline pipeline(engine.get(), pipeline_options);
    pipeline.SubmitWorkload(workload, kRepeat);
    pipeline.Drain();
    report = pipeline.report();
  }

  updater.join();
  done.store(true, std::memory_order_release);
  for (auto& t : verifiers) t.join();

  EXPECT_EQ(report.errors, 0) << report.first_error.ToString();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0)
      << "a batch observed a torn or stale-digest Π";
  EXPECT_EQ(report.batches, kVersions * kRepeat);
}

// Engine-level face of the PR 5 retry contract: an ApplyDelta racing the
// miss storm's in-flight Π blocks on the shared_future once and patches
// exactly the payload the storm publishes, so the post-delta data part is
// warm without ever recomputing Π (pre-PR-5 this degraded to
// recompute-on-miss with DeltaOutcome::patched == false).
TEST(IncrementalConcurrencyTest, ApplyDeltaWaitsOutInflightPiThenPatches) {
  auto engine = MakeEngine();
  std::atomic<bool> release{false};
  std::atomic<int> computes{0};
  ProblemEntry entry;
  entry.name = "blocking-echo";
  entry.paper_anchor = "test-only";
  entry.has_language = true;
  entry.witness.name = "echo";
  entry.witness.preprocess = [&](const std::string& data,
                                 CostMeter*) -> Result<std::string> {
    ++computes;
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    return "pi:" + data;
  };
  entry.witness.answer = [](const std::string& prepared,
                            const std::string& query,
                            CostMeter*) -> Result<bool> {
    return prepared.find(query) != std::string::npos;
  };
  entry.apply_delta_to_data =
      [](const std::string& data, const DeltaBatch&) -> Result<std::string> {
    return data + "+d";
  };
  entry.prepared_patch = [](std::string* prepared, const DeltaBatch&,
                            CostMeter*) {
    *prepared += "+d";
    return Status::OK();
  };
  ASSERT_TRUE(engine->Register(std::move(entry)).ok());

  const std::vector<std::string> queries = {"pi:base"};
  std::thread storm([&] {
    auto batch = engine->AnswerBatch("blocking-echo", "base", queries);
    EXPECT_TRUE(batch.ok()) << batch.status().ToString();
  });
  while (computes.load() == 0) std::this_thread::yield();

  Result<DeltaOutcome> outcome = Status::Internal("delta did not run");
  std::thread delta([&] {
    outcome = engine->ApplyDelta("blocking-echo", "base", DeltaBatch{});
  });
  // The delta is provably parked on the storm's future before we release.
  while (engine->store().stats().update_retries == 0) {
    std::this_thread::yield();
  }
  release.store(true, std::memory_order_release);
  storm.join();
  delta.join();

  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->patched);
  EXPECT_EQ(outcome->new_data, "base+d");
  const auto stats = engine->store().stats();
  EXPECT_EQ(stats.update_retries, 1);
  EXPECT_EQ(stats.patches, 1);
  EXPECT_EQ(stats.patch_fallbacks, 0);

  // The post-delta data part is warm: Π never re-runs, and the patched
  // payload answers for it.
  auto warm = engine->AnswerBatch("blocking-echo", "base+d",
                                  std::vector<std::string>{"pi:base+d"});
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(warm->prepare_runs, 0);
  EXPECT_TRUE(warm->answers[0]);
  EXPECT_EQ(computes.load(), 1);
}

// ---------------------------------------------------------------------------
// MVCC lineage: a reader holding a DataHandle for a version that deltas
// re-keyed away must either hit its still-retained version or resolve
// forward to the first resident successor — never a spurious Π rebuild,
// never a wrong answer.
// ---------------------------------------------------------------------------

/// Builds a kVersions-long chain of member lists, their Σ* encodings
/// (derived through a scratch engine so digests match the live one), and
/// the per-version ground-truth answers for `queries`.
struct VersionChain {
  std::vector<std::vector<int64_t>> lists;
  std::vector<DeltaBatch> deltas;
  std::vector<std::string> data;
  std::vector<std::string> queries;
  std::vector<std::vector<bool>> expected;
};

VersionChain MakeVersionChain(int versions, uint64_t seed) {
  Rng rng(seed);
  const int64_t universe = 512;
  VersionChain chain;
  chain.lists.resize(static_cast<size_t>(versions));
  for (int i = 0; i < 100; ++i) {
    chain.lists[0].push_back(
        static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(universe))));
  }
  chain.deltas.resize(static_cast<size_t>(versions - 1));
  for (int v = 1; v < versions; ++v) {
    chain.lists[static_cast<size_t>(v)] = chain.lists[static_cast<size_t>(v - 1)];
    for (int i = 0; i < 4; ++i) {
      DeltaOp op;
      op.kind = DeltaOp::Kind::kListInsert;
      op.a = static_cast<int64_t>(
          rng.NextBelow(static_cast<uint64_t>(universe)));
      chain.deltas[static_cast<size_t>(v - 1)].ops.push_back(op);
      chain.lists[static_cast<size_t>(v)].push_back(op.a);
    }
  }
  auto scratch = MakeEngine();
  chain.data.resize(static_cast<size_t>(versions));
  chain.data[0] = MemberData(universe, chain.lists[0]);
  for (int v = 1; v < versions; ++v) {
    auto outcome =
        scratch->ApplyDelta("list-membership", chain.data[static_cast<size_t>(v - 1)],
                            chain.deltas[static_cast<size_t>(v - 1)]);
    EXPECT_TRUE(outcome.ok());
    chain.data[static_cast<size_t>(v)] = outcome->new_data;
  }
  for (int i = 0; i < 10; ++i) {
    chain.queries.push_back(std::to_string(rng.NextBelow(universe)));
  }
  chain.expected.resize(static_cast<size_t>(versions));
  for (int v = 0; v < versions; ++v) {
    for (const std::string& q : chain.queries) {
      chain.expected[static_cast<size_t>(v)].push_back(
          ShadowMember(chain.lists[static_cast<size_t>(v)], std::stoll(q)));
    }
  }
  return chain;
}

TEST(MvccLineageTest, StaleHandleResolvesToFirstResidentSuccessor) {
  constexpr int kVersions = 4;
  VersionChain chain = MakeVersionChain(kVersions, 919);

  PreparedStore::Options options;
  options.shards = 4;
  options.versions = 2;
  auto engine = MakeEngine(options);

  auto handle0 = engine->Intern("list-membership", chain.data[0]);
  ASSERT_TRUE(handle0.ok());
  ASSERT_TRUE(
      engine->AnswerBatch(*handle0, chain.queries).ok());  // warm version 0
  for (int v = 1; v < kVersions; ++v) {
    auto outcome =
        engine->ApplyDelta("list-membership", chain.data[static_cast<size_t>(v - 1)],
                           chain.deltas[static_cast<size_t>(v - 1)]);
    ASSERT_TRUE(outcome.ok());
    ASSERT_TRUE(outcome->patched);
  }
  // Window of 2 over a 4-version chain: v3 (current) and v2 (retained)
  // are resident, v0/v1 were trimmed.
  EXPECT_EQ(engine->store().size(), 2u);

  // The stale v0 handle stays warm: TryAnswerWarm walks the lineage
  // records to the first resident successor (v2) and serves exactly its
  // answers — no Π rebuild, no torn mix of versions.
  BatchResult result;
  auto served = engine->TryAnswerWarm(*handle0, chain.queries, &result);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE(*served);
  EXPECT_TRUE(result.cache_hit);
  EXPECT_EQ(result.prepare_runs, 0);
  EXPECT_EQ(result.answers, chain.expected[2]);
  EXPECT_EQ(engine->store().stats().lineage_resolves, 1);
  EXPECT_EQ(engine->store().stats().misses, 1);

  // A still-resident retained version serves itself, not its successor.
  auto handle2 = engine->Intern("list-membership", chain.data[2]);
  ASSERT_TRUE(handle2.ok());
  BatchResult retained;
  auto warm2 = engine->TryAnswerWarm(*handle2, chain.queries, &retained);
  ASSERT_TRUE(warm2.ok());
  EXPECT_TRUE(*warm2);
  EXPECT_EQ(retained.answers, chain.expected[2]);
  EXPECT_EQ(engine->store().stats().lineage_resolves, 1);  // unchanged
}

// Tier × MVCC: under byte pressure the retained (superseded) predecessor
// is the first eviction victim, its demotion keeps byte and entry
// accounting exact, it is skipped by cold-frame spilling (a retired
// version must never be promoted back as a servable head), and readers
// still pinned on it resolve forward through the lineage records instead
// of being stranded.
TEST(MvccLineageTest, SupersededVersionEvictsFirstWithExactAccounting) {
  VersionChain chain = MakeVersionChain(2, 1013);
  const std::string filler_data =
      MemberData(512, std::vector<int64_t>{7, 11, 13});

  // Query the delta-inserted elements too, so the two versions provably
  // answer differently and a lineage-resolved reader is distinguishable.
  std::vector<std::string> queries = chain.queries;
  for (const DeltaOp& op : chain.deltas[0].ops) {
    queries.push_back(std::to_string(op.a));
  }
  std::vector<bool> expected0;
  std::vector<bool> expected1;
  for (const std::string& q : queries) {
    expected0.push_back(ShadowMember(chain.lists[0], std::stoll(q)));
    expected1.push_back(ShadowMember(chain.lists[1], std::stoll(q)));
  }
  ASSERT_NE(expected0, expected1);

  // Views off: the byte assertions below are exact payload accounting,
  // and the sweep exercises the eviction tier directly instead of first
  // shedding view bytes in the hot->warm phase.
  auto make_engine = [](size_t byte_budget) {
    PreparedStore::Options options;
    options.shards = 1;
    options.versions = 2;
    options.byte_budget = byte_budget;
    return MakeStringPathEngine(options);
  };

  // Dry run, unbounded: measure the exact residency of every step.
  auto probe = make_engine(0);
  ASSERT_TRUE(
      probe->AnswerBatch("list-membership", chain.data[0], queries)
          .ok());
  const size_t v0_bytes = probe->store().bytes_resident();
  auto probe_delta =
      probe->ApplyDelta("list-membership", chain.data[0], chain.deltas[0]);
  ASSERT_TRUE(probe_delta.ok());
  ASSERT_TRUE(probe_delta->patched);
  const size_t chain_bytes = probe->store().bytes_resident();  // v0 + v1
  ASSERT_GT(chain_bytes, v0_bytes);
  ASSERT_TRUE(
      probe->AnswerBatch("list-membership", filler_data, queries).ok());
  const size_t filler_bytes = probe->store().bytes_resident() - chain_bytes;
  ASSERT_GT(filler_bytes, 0u);
  // Evicting the superseded version alone must clear the filler's deficit.
  ASSERT_LT(filler_bytes, v0_bytes);

  // Budgeted run: exactly enough bytes for the two-version chain.
  const std::string dir = UniqueTempDir("superseded_evict");
  auto engine = make_engine(chain_bytes);
  auto handle0 = engine->Intern("list-membership", chain.data[0]);
  ASSERT_TRUE(handle0.ok());
  auto warm0 = engine->AnswerBatch(*handle0, queries);
  ASSERT_TRUE(warm0.ok());
  EXPECT_EQ(warm0->answers, expected0);
  EXPECT_EQ(engine->store().bytes_resident(), v0_bytes);
  // Arm the spill directory: evictions from here on write cold frames —
  // except for superseded versions, which must never leave one behind.
  ASSERT_TRUE(engine->store().Spill(dir).ok());

  auto outcome =
      engine->ApplyDelta("list-membership", chain.data[0], chain.deltas[0]);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->patched);
  // Version retention is exactly accounted: superseded v0 + patched v1
  // hold byte-for-byte what the unbounded engine holds, and both count.
  EXPECT_EQ(engine->store().bytes_resident(), chain_bytes);
  EXPECT_EQ(engine->store().size(), 2u);

  auto current =
      engine->AnswerBatch("list-membership", chain.data[1], queries);
  ASSERT_TRUE(current.ok());
  EXPECT_TRUE(current->cache_hit);
  EXPECT_EQ(current->answers, expected1);

  // The filler admission overflows the budget: the sweep takes the
  // superseded version first — not the current head, not the newcomer —
  // and the byte ledger moves by exactly (filler in, v0 out).
  ASSERT_TRUE(
      engine->AnswerBatch("list-membership", filler_data, queries).ok());
  EXPECT_EQ(engine->store().stats().evictions, 1);
  EXPECT_EQ(engine->store().size(), 2u);  // v1 + filler
  EXPECT_EQ(engine->store().bytes_resident(),
            chain_bytes - v0_bytes + filler_bytes);
  // No cold frame for the retired version despite the armed directory.
  EXPECT_EQ(engine->store().stats().cold_demotions, 0);

  // The pinned reader is not stranded: the stale handle resolves through
  // the lineage records to the resident successor — warm, no Π re-run.
  const int64_t misses_before = engine->store().stats().misses;
  BatchResult stale;
  auto served = engine->TryAnswerWarm(*handle0, queries, &stale);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE(*served);
  EXPECT_TRUE(stale.cache_hit);
  EXPECT_EQ(stale.prepare_runs, 0);
  EXPECT_EQ(stale.answers, expected1);
  EXPECT_EQ(engine->store().stats().lineage_resolves, 1);
  EXPECT_EQ(engine->store().stats().misses, misses_before);

  // The current head still serves itself warm after the sweep.
  auto again =
      engine->AnswerBatch("list-membership", chain.data[1], queries);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->cache_hit);
  EXPECT_EQ(again->answers, expected1);
  fs::remove_all(dir);
}

TEST(IncrementalConcurrencyTest, ReadersRaceDeltaChainAcrossVersions) {
  constexpr int kVersions = 5;
  VersionChain chain = MakeVersionChain(kVersions, 929);

  PreparedStore::Options options;
  options.shards = 8;
  options.versions = 2;
  auto engine = MakeEngine(options);

  std::vector<DataHandle> handles;
  for (int v = 0; v < kVersions; ++v) {
    auto handle =
        engine->Intern("list-membership", chain.data[static_cast<size_t>(v)]);
    ASSERT_TRUE(handle.ok());
    handles.push_back(std::move(*handle));
  }
  ASSERT_TRUE(engine->AnswerBatch(handles[0], chain.queries).ok());

  std::atomic<int> max_published{0};
  std::atomic<int> mismatches{0};
  std::atomic<int> cold_misses{0};
  std::atomic<int> errors{0};
  std::atomic<bool> done{false};

  // Readers pin any already-published version: the answer must be exactly
  // one version's answer vector, at least as new as the pinned one —
  // a patch landing mid-probe may legally forward the reader to a
  // successor, but never to a torn mix or a spurious rebuild.
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(3000 + static_cast<uint64_t>(t));
      while (!done.load(std::memory_order_acquire)) {
        const int v = static_cast<int>(rng.NextBelow(
            static_cast<uint64_t>(max_published.load() + 1)));
        BatchResult result;
        auto served =
            engine->TryAnswerWarm(handles[static_cast<size_t>(v)],
                                  chain.queries, &result);
        if (!served.ok()) {
          ++errors;
          continue;
        }
        if (!*served) {
          // A pinned version must always be answerable warm: it is either
          // inside the retained window or lineage-resolvable forward.
          ++cold_misses;
          continue;
        }
        bool matched = false;
        for (int j = v; j < kVersions; ++j) {
          if (result.answers == chain.expected[static_cast<size_t>(j)]) {
            matched = true;
            break;
          }
        }
        if (!matched) ++mismatches;
      }
    });
  }

  // The publisher walks the delta chain; with readers on the warm-only
  // path there is no in-flight Π to collide with, so every patch lands.
  for (int v = 1; v < kVersions; ++v) {
    auto outcome =
        engine->ApplyDelta("list-membership", chain.data[static_cast<size_t>(v - 1)],
                           chain.deltas[static_cast<size_t>(v - 1)]);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_TRUE(outcome->patched);
    max_published.store(v);
    std::this_thread::yield();
  }
  // Let the readers hammer the fully-published chain for a moment.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(cold_misses.load(), 0) << "a pinned version went spuriously cold";
  EXPECT_EQ(mismatches.load(), 0) << "a reader observed a torn answer set";
  EXPECT_EQ(engine->store().stats().misses, 1) << "a version rebuilt Π";
  EXPECT_EQ(engine->store().stats().patches, kVersions - 1);
}

}  // namespace
}  // namespace engine
}  // namespace pitract
