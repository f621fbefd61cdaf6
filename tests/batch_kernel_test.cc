// The batch answer layer (PiWitness::decode_query / answer_view_batch):
// one parity suite against the string `answer` reference — same answers,
// same error codes, same charged work — across every kernel-enabled entry
// (including a λ-rewritten and reduction-transported ones) and every
// registered witness alternative, over degenerate and large batch sizes;
// warm-store counter hygiene; and (under TSan) concurrent kernel batches
// racing ApplyDelta re-keys.

#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "circuit/generators.h"
#include "common/codec.h"
#include "common/rng.h"
#include "core/problems.h"
#include "engine/builtins.h"
#include "engine/delta.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "string_path_engine.h"

namespace pitract {
namespace engine {
namespace {

std::unique_ptr<QueryEngine> MakeEngine() {
  auto engine = std::make_unique<QueryEngine>();
  auto status = RegisterBuiltins(engine.get());
  EXPECT_TRUE(status.ok()) << status.ToString();
  return engine;
}

constexpr size_t kBatchSizes[] = {0, 1, 7, 64, 257};

struct Case {
  std::string problem;
  std::string data;
  std::vector<std::string> queries;
};

/// Every kernel-enabled entry, with enough queries for the largest batch
/// prefix the tests slice off: the direct sorted-column / graph / bitmap /
/// closure entries, the λ-rewritten predicate dialect, and the
/// reduction-transported members (Transport and a Lemma 2 composition).
std::vector<Case> MakeKernelCases(int num_queries) {
  Rng rng(77);
  std::vector<Case> cases;

  const int64_t universe = 256;
  std::vector<int64_t> list;
  for (int i = 0; i < 128; ++i) {
    list.push_back(
        static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(universe))));
  }
  std::string member_data =
      core::MemberFactorization()
          .pi1(core::MakeMemberInstance(universe, list, 0))
          .value();
  // member-via-bds is excluded: its Lemma 2 composition pads data and
  // query into one string per instance, so one data part never serves a
  // multi-query batch (its kernel transport is still covered by the
  // composed decode chain test below).
  Case member{"list-membership", member_data, {}};
  Case via_conn{"member-via-conn", member_data, {}};
  for (int i = 0; i < num_queries; ++i) {
    std::string e = std::to_string(rng.NextBelow(256));
    member.queries.push_back(e);
    via_conn.queries.push_back(e);
  }
  cases.push_back(std::move(member));
  cases.push_back(std::move(via_conn));

  // λ-rewritten dialect: predicates decode through the rewriter chain.
  Case selection{"predicate-selection",
                 core::SelectionFactorization()
                     .pi1(core::MakeSelectionInstance(universe, list, {0, 1}))
                     .value(),
                 {}};
  for (int i = 0; i < num_queries; ++i) {
    const int64_t a = static_cast<int64_t>(rng.NextBelow(256));
    switch (i % 4) {
      case 0:
        selection.queries.push_back(codec::EncodeInts({0, a}));  // = a
        break;
      case 1:
        selection.queries.push_back(codec::EncodeInts({1, a}));  // <= a
        break;
      case 2:
        selection.queries.push_back(codec::EncodeInts({2, a}));  // >= a
        break;
      default:
        selection.queries.push_back(
            codec::EncodeInts({3, a, a + 9}));  // between
    }
  }
  cases.push_back(std::move(selection));

  auto undirected = graph::ErdosRenyi(64, 96, /*directed=*/false, &rng);
  auto directed = graph::ErdosRenyi(64, 128, /*directed=*/true, &rng);
  Case conn{"connectivity",
            core::ConnFactorization()
                .pi1(core::MakeConnInstance(undirected, 0, 0))
                .value(),
            {}};
  Case bds{"breadth-depth-search",
           core::BdsFactorization()
               .pi1(core::MakeBdsInstance(undirected, 0, 0))
               .value(),
           {}};
  Case reach{"graph-reachability",
             core::ReachFactorization()
                 .pi1(core::MakeReachInstance(directed, 0, 0))
                 .value(),
             {}};
  for (int i = 0; i < num_queries; ++i) {
    std::string q = std::to_string(rng.NextBelow(64)) + "#" +
                    std::to_string(rng.NextBelow(64));
    conn.queries.push_back(q);
    bds.queries.push_back(q);
    reach.queries.push_back(q);
  }
  cases.push_back(std::move(conn));
  cases.push_back(std::move(bds));
  cases.push_back(std::move(reach));

  // GVP bitmap.
  circuit::CircuitGenOptions copts;
  copts.num_inputs = 6;
  copts.num_gates = 40;
  auto instance = circuit::RandomCvpInstance(copts, &rng);
  Case gvp{"cvp-refactorized",
           core::GvpFactorization()
               .pi1(core::MakeGvpInstance(instance, 0))
               .value(),
           {}};
  const auto gates = static_cast<uint64_t>(instance.circuit.num_gates());
  for (int i = 0; i < num_queries; ++i) {
    gvp.queries.push_back(std::to_string(rng.NextBelow(gates)));
  }
  cases.push_back(std::move(gvp));
  return cases;
}

const Case& CaseFor(const std::vector<Case>& cases, const std::string& name) {
  for (const Case& c : cases) {
    if (c.problem == name) return c;
  }
  ADD_FAILURE() << "no case for " << name;
  return cases.front();
}

// ---------------------------------------------------------------------------
// Parity: the kernel path and the string `answer` reference answer
// identically and charge the same work — across empty, single, odd and
// larger-than-typical batch sizes.
// ---------------------------------------------------------------------------

TEST(BatchKernelTest, KernelAndStringPathsAgreeOnEveryKernelEntry) {
  auto kernel_engine = MakeEngine();
  auto string_engine = MakeStringPathEngine();

  for (const Case& c : MakeKernelCases(257)) {
    auto entry = kernel_engine->Find(c.problem);
    ASSERT_TRUE(entry.ok()) << c.problem;
    EXPECT_TRUE((*entry)->witness.has_batch_kernel())
        << c.problem << " lost its batch kernel";
    auto stripped = string_engine->Find(c.problem);
    ASSERT_TRUE(stripped.ok()) << c.problem;
    EXPECT_FALSE((*stripped)->witness.has_view()) << c.problem;

    for (size_t batch : kBatchSizes) {
      const std::vector<std::string> queries(c.queries.begin(),
                                             c.queries.begin() + batch);
      auto kernel = kernel_engine->AnswerBatch(c.problem, c.data, queries);
      ASSERT_TRUE(kernel.ok())
          << c.problem << "/" << batch << ": " << kernel.status().ToString();
      EXPECT_EQ(kernel->mode, BatchAnswerMode::kKernel)
          << c.problem << "/" << batch;
      auto reference = string_engine->AnswerBatch(c.problem, c.data, queries);
      ASSERT_TRUE(reference.ok()) << c.problem << "/" << batch;
      EXPECT_EQ(reference->mode, BatchAnswerMode::kScalar)
          << c.problem << "/" << batch;
      EXPECT_EQ(kernel->answers, reference->answers)
          << c.problem << "/" << batch;
      // One kernel call charges the same conceptual work as the per-query
      // probes (the batch is parallel in depth, not in work).
      EXPECT_EQ(kernel->answer_cost.work, reference->answer_cost.work)
          << c.problem << "/" << batch;
    }
  }
}

// ---------------------------------------------------------------------------
// Every registered witness alternative, forced through the engine: the
// B+-tree column, the BFS edge scan (each a per-query loop behind
// answer_view_batch) and the view-less GVP bitmap. Answers and error codes
// match the alternative's own string `answer`; the tree and the scan
// charge each probe in sequence, so their work and depth are pinned here.
// ---------------------------------------------------------------------------

TEST(BatchKernelTest, EveryWitnessAlternativeMatchesItsStringReference) {
  struct Charge {
    int64_t work;
    int64_t depth;
  };
  struct Alternative {
    std::string problem;
    std::string witness;
    BatchAnswerMode mode;
    /// Charges per kBatchSizes entry; empty: must equal the reference's.
    std::vector<Charge> pinned;
    std::vector<std::string> bad_batch;
  };
  const std::vector<Alternative> alternatives = {
      {"list-membership",
       "bptree-column",
       BatchAnswerMode::kKernel,
       {{0, 0}, {8, 8}, {56, 56}, {512, 512}, {2056, 2056}},
       {"1", "not-an-int"}},
      {"graph-reachability",
       "edge-scan",
       BatchAnswerMode::kKernel,
       {{0, 0}, {2, 2}, {316, 316}, {2677, 2677}, {10246, 10246}},
       {"0#1", "5#999999", "2#3"}},
      {"cvp-refactorized",
       "evaluate-all-gates-string",
       BatchAnswerMode::kScalar,
       {},
       {"0", "-1"}},
  };
  auto kernel_engine = MakeEngine();
  kernel_engine->cost_model().ForceWitness(1);
  auto string_engine = MakeStringPathEngine();
  string_engine->cost_model().ForceWitness(1);
  const std::vector<Case> cases = MakeKernelCases(257);

  for (const Alternative& alt : alternatives) {
    const Case& c = CaseFor(cases, alt.problem);
    for (size_t b = 0; b < std::size(kBatchSizes); ++b) {
      const size_t batch = kBatchSizes[b];
      const std::vector<std::string> queries(c.queries.begin(),
                                             c.queries.begin() + batch);
      auto got = kernel_engine->AnswerBatch(c.problem, c.data, queries);
      ASSERT_TRUE(got.ok())
          << alt.witness << "/" << batch << ": " << got.status().ToString();
      EXPECT_EQ(got->mode, alt.mode) << alt.witness << "/" << batch;
      auto reference = string_engine->AnswerBatch(c.problem, c.data, queries);
      ASSERT_TRUE(reference.ok()) << alt.witness << "/" << batch;
      EXPECT_EQ(got->answers, reference->answers)
          << alt.witness << "/" << batch;
      if (alt.pinned.empty()) {
        EXPECT_EQ(got->answer_cost.work, reference->answer_cost.work)
            << alt.witness << "/" << batch;
      } else {
        EXPECT_EQ(got->answer_cost.work, alt.pinned[b].work)
            << alt.witness << "/" << batch;
        EXPECT_EQ(got->answer_cost.depth, alt.pinned[b].depth)
            << alt.witness << "/" << batch;
      }
    }
    // The batches really ran on the alternative, not on the primary.
    EXPECT_TRUE(
        kernel_engine->store().Contains(c.problem, alt.witness, c.data))
        << alt.witness;
    EXPECT_TRUE(
        string_engine->store().Contains(c.problem, alt.witness, c.data))
        << alt.witness;

    auto bad = kernel_engine->AnswerBatch(c.problem, c.data, alt.bad_batch);
    auto bad_reference =
        string_engine->AnswerBatch(c.problem, c.data, alt.bad_batch);
    ASSERT_FALSE(bad.ok()) << alt.witness;
    ASSERT_FALSE(bad_reference.ok()) << alt.witness;
    EXPECT_EQ(bad.status().code(), bad_reference.status().code())
        << alt.witness;
  }
}

TEST(BatchKernelTest, ComposedReductionDecodeChainKeepsTheKernelEngaged) {
  // member-via-bds transports BDS's kernel across the Lemma 2 composition:
  // β unpads, reassembles, renumbers — all folded into decode_query, so
  // even this doubly-derived entry answers through one kernel call. Its
  // padded factorization ties each query to its own data part, so batches
  // here are per-instance.
  auto engine = MakeEngine();
  auto entry = engine->Find("member-via-bds");
  ASSERT_TRUE(entry.ok());
  EXPECT_TRUE((*entry)->witness.has_batch_kernel());

  Rng rng(55);
  std::vector<int64_t> list;
  for (int i = 0; i < 48; ++i) {
    list.push_back(static_cast<int64_t>(rng.NextBelow(128)));
  }
  for (int i = 0; i < 8; ++i) {
    const int64_t e = static_cast<int64_t>(rng.NextBelow(128));
    const std::string x = core::MakeMemberInstance(128, list, e);
    auto expected = core::ListMembershipProblem().contains(x);
    ASSERT_TRUE(expected.ok());
    auto data = (*entry)->factorization.pi1(x);
    auto query = (*entry)->factorization.pi2(x);
    ASSERT_TRUE(data.ok());
    ASSERT_TRUE(query.ok());
    const std::vector<std::string> queries{*query};
    auto batch = engine->AnswerBatch("member-via-bds", *data, queries);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(batch->mode, BatchAnswerMode::kKernel);
    ASSERT_EQ(batch->answers.size(), 1u);
    EXPECT_EQ(batch->answers[0], *expected) << "element " << e;
  }
}

TEST(BatchKernelTest, EntriesWithoutNumericQueriesAnswerThroughTheView) {
  auto engine = MakeEngine();
  auto string_engine = MakeStringPathEngine();
  // Circuit-assignment queries are not numeric: no decode hook, no kernel,
  // but the per-query view face still skips the circuit re-decode.
  for (const char* name : {"cvp-nand-eval", "cvp-via-nand"}) {
    auto entry = engine->Find(name);
    ASSERT_TRUE(entry.ok()) << name;
    EXPECT_FALSE((*entry)->witness.has_batch_kernel()) << name;
    EXPECT_TRUE((*entry)->witness.has_view()) << name;
    EXPECT_TRUE(static_cast<bool>((*entry)->witness.answer_view)) << name;
  }
  Rng rng(5);
  circuit::CircuitGenOptions copts;
  copts.num_inputs = 5;
  copts.num_gates = 16;
  auto instance = circuit::RandomCvpInstance(copts, &rng);
  std::string data = core::CvpCircuitDataFactorization()
                         .pi1(core::MakeCvpInstanceString(instance))
                         .value();
  std::vector<std::string> queries;
  for (int i = 0; i < 4; ++i) {
    std::string bits;
    for (int b = 0; b < instance.circuit.num_inputs(); ++b) {
      bits.push_back(rng.NextBool() ? '1' : '0');
    }
    queries.push_back(std::move(bits));
  }
  for (const char* name : {"cvp-nand-eval", "cvp-via-nand"}) {
    auto batch = engine->AnswerBatch(name, data, queries);
    ASSERT_TRUE(batch.ok()) << name << ": " << batch.status().ToString();
    EXPECT_EQ(batch->mode, BatchAnswerMode::kScalar) << name;
    auto reference = string_engine->AnswerBatch(name, data, queries);
    ASSERT_TRUE(reference.ok()) << name;
    EXPECT_EQ(batch->answers, reference->answers) << name;
    EXPECT_EQ(batch->answer_cost.work, reference->answer_cost.work) << name;
  }
}

// ---------------------------------------------------------------------------
// A numeric witness builds its view only for the batch face: strip the
// kernel and there is no view to build, so batches answer through the
// string `answer` hook.
// ---------------------------------------------------------------------------

TEST(BatchKernelTest, NumericWitnessWithoutKernelAnswersThroughString) {
  auto engine = std::make_unique<QueryEngine>();
  ProblemEntry entry;
  entry.name = "member-no-kernel";
  entry.has_language = true;
  entry.problem = core::ListMembershipProblem();
  entry.factorization = core::MemberFactorization();
  entry.witness = core::MemberWitness();
  ASSERT_TRUE(entry.witness.has_batch_kernel());
  entry.witness.answer_view_batch = nullptr;
  ASSERT_FALSE(entry.witness.has_view());
  ASSERT_TRUE(engine->Register(std::move(entry)).ok());

  Rng rng(11);
  std::vector<int64_t> list;
  for (int i = 0; i < 64; ++i) {
    list.push_back(static_cast<int64_t>(rng.NextBelow(256)));
  }
  std::string data = core::MemberFactorization()
                         .pi1(core::MakeMemberInstance(256, list, 0))
                         .value();
  std::vector<std::string> queries;
  for (int i = 0; i < 33; ++i) {
    queries.push_back(std::to_string(rng.NextBelow(256)));
  }
  auto batch = engine->AnswerBatch("member-no-kernel", data, queries);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->mode, BatchAnswerMode::kScalar);
  EXPECT_EQ(engine->store().stats().view_builds, 0);
  for (size_t i = 0; i < queries.size(); ++i) {
    bool expected = false;
    const int64_t e = std::stoll(queries[i]);
    for (int64_t m : list) expected = expected || m == e;
    EXPECT_EQ(batch->answers[i], expected) << i;
  }
}

// ---------------------------------------------------------------------------
// Error parity: an invalid query fails the whole batch on both paths with
// the same status code (first-error-wins).
// ---------------------------------------------------------------------------

TEST(BatchKernelTest, InvalidQueriesFailTheBatchOnEveryPath) {
  auto kernel_engine = MakeEngine();
  auto string_engine = MakeStringPathEngine();

  Rng rng(21);
  auto g = graph::ErdosRenyi(32, 64, /*directed=*/false, &rng);
  std::string conn_data =
      core::ConnFactorization().pi1(core::MakeConnInstance(g, 0, 0)).value();
  // Out-of-range endpoints (positive and negative) sandwiched between
  // valid queries, and a malformed decode.
  const std::vector<std::vector<std::string>> bad_batches = {
      {"0#1", "5#999999", "2#3"},
      {"0#1", "-7#2"},
      {"0#1", "not-a-pair"},
  };
  for (const auto& queries : bad_batches) {
    auto kernel = kernel_engine->AnswerBatch("connectivity", conn_data,
                                             queries);
    auto reference = string_engine->AnswerBatch("connectivity", conn_data,
                                                queries);
    ASSERT_FALSE(kernel.ok()) << queries.back();
    ASSERT_FALSE(reference.ok()) << queries.back();
    EXPECT_EQ(kernel.status().code(), reference.status().code())
        << queries.back();
  }
}

// ---------------------------------------------------------------------------
// Warm kernel batches keep the serving-layer counters clean: lock-free
// snapshot hits, zero key builds, zero misses.
// ---------------------------------------------------------------------------

TEST(BatchKernelTest, WarmKernelBatchesStayLockFreeAndKeyBuildFree) {
  auto engine = MakeEngine();
  Rng rng(31);
  std::vector<int64_t> list;
  for (int i = 0; i < 256; ++i) {
    list.push_back(static_cast<int64_t>(rng.NextBelow(1024)));
  }
  auto handle = engine->Intern(
      "list-membership", core::MemberFactorization()
                             .pi1(core::MakeMemberInstance(1024, list, 0))
                             .value());
  ASSERT_TRUE(handle.ok());
  std::vector<std::string> queries;
  for (int i = 0; i < 128; ++i) {
    queries.push_back(std::to_string(rng.NextBelow(1024)));
  }
  // Cold batch runs Π; everything after is the warm steady state.
  ASSERT_TRUE(engine->AnswerBatch(*handle, queries).ok());
  const auto before = engine->store().stats();
  for (int i = 0; i < 50; ++i) {
    auto batch = engine->AnswerBatch(*handle, queries);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(batch->mode, BatchAnswerMode::kKernel);
    EXPECT_TRUE(batch->cache_hit);
    EXPECT_EQ(batch->prepare_runs, 0);
    EXPECT_GT(batch->answer_bytes_read, 0);
  }
  const auto after = engine->store().stats();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.key_builds, before.key_builds);
  EXPECT_EQ(after.locked_hits, 0);
  EXPECT_EQ(after.hits, before.hits + 50);
}

// ---------------------------------------------------------------------------
// Concurrency: kernel batches racing ApplyDelta re-keys (run under TSan in
// CI). Every batch must answer exactly its pinned version — never a torn
// view — and the kernel path must stay engaged throughout.
// ---------------------------------------------------------------------------

TEST(BatchKernelTest, ConcurrentKernelBatchesRacingApplyDeltaStayConsistent) {
  Rng rng(0xbead);
  const int64_t universe = 512;
  constexpr int kVersions = 5;

  std::vector<std::vector<int64_t>> lists(kVersions);
  for (int i = 0; i < 100; ++i) {
    lists[0].push_back(
        static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(universe))));
  }
  std::vector<DeltaBatch> deltas(kVersions - 1);
  for (int v = 1; v < kVersions; ++v) {
    lists[v] = lists[v - 1];
    for (int i = 0; i < 4; ++i) {
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
    auto scratch = MakeEngine();
    version_data[0] =
        core::MemberFactorization()
            .pi1(core::MakeMemberInstance(universe, lists[0], 0))
            .value();
    for (int v = 1; v < kVersions; ++v) {
      auto outcome = scratch->ApplyDelta("list-membership",
                                         version_data[v - 1],
                                         deltas[static_cast<size_t>(v - 1)]);
      ASSERT_TRUE(outcome.ok());
      version_data[v] = outcome->new_data;
    }
  }
  std::vector<std::string> queries;
  for (int i = 0; i < 16; ++i) {
    queries.push_back(std::to_string(rng.NextBelow(universe)));
  }
  std::vector<std::vector<bool>> expected(kVersions);
  for (int v = 0; v < kVersions; ++v) {
    for (const std::string& q : queries) {
      const int64_t e = std::stoll(q);
      bool found = false;
      for (int64_t m : lists[static_cast<size_t>(v)]) found = found || m == e;
      expected[static_cast<size_t>(v)].push_back(found);
    }
  }

  auto engine = MakeEngine();
  ASSERT_TRUE(
      engine->AnswerBatch("list-membership", version_data[0], queries).ok());

  std::atomic<int> mismatches{0};
  std::atomic<int> scalar_batches{0};
  std::atomic<int> errors{0};
  std::atomic<bool> done{false};

  std::thread updater([&] {
    for (int v = 1; v < kVersions; ++v) {
      auto outcome =
          engine->ApplyDelta("list-membership", version_data[v - 1],
                             deltas[static_cast<size_t>(v - 1)]);
      if (!outcome.ok()) ++errors;
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> verifiers;
  for (int t = 0; t < 4; ++t) {
    verifiers.emplace_back([&, t] {
      Rng thread_rng(500 + static_cast<uint64_t>(t));
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
        if (batch->mode != BatchAnswerMode::kKernel) ++scalar_batches;
      }
    });
  }
  updater.join();
  done.store(true, std::memory_order_release);
  for (auto& t : verifiers) t.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0)
      << "a kernel batch observed a torn or stale Π-view";
  EXPECT_EQ(scalar_batches.load(), 0)
      << "a racing batch fell off the kernel path";
}

}  // namespace
}  // namespace engine
}  // namespace pitract
