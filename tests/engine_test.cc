#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include <algorithm>

#include "circuit/generators.h"
#include "common/codec.h"
#include "common/rng.h"
#include "core/problems.h"
#include "engine/builtins.h"
#include "engine/crosscheck.h"
#include "engine/engine.h"
#include "engine/prepared_store.h"
#include "engine/pipeline.h"
#include "engine/serve.h"
#include "graph/generators.h"
#include "string_path_engine.h"

namespace pitract {
namespace engine {
namespace {

// QueryEngine owns a mutex-guarded store, so it is neither movable nor
// copyable; tests hold it behind a unique_ptr.
std::unique_ptr<QueryEngine> MakeEngine() {
  auto engine = std::make_unique<QueryEngine>();
  auto status = RegisterBuiltins(engine.get());
  EXPECT_TRUE(status.ok()) << status.ToString();
  return engine;
}

std::vector<int64_t> RandomList(Rng* rng, int64_t universe, int count) {
  std::vector<int64_t> list;
  for (int i = 0; i < count; ++i) {
    list.push_back(
        static_cast<int64_t>(rng->NextBelow(static_cast<uint64_t>(universe))));
  }
  return list;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(EngineRegistryTest, BuiltinsAreRegisteredUnderOneNameEach) {
  auto engine = MakeEngine();
  // Every typed Figure 2 row plus the Σ*-only and reduced entries.
  for (const char* name :
       {"point-selection", "range-selection", "list-membership",
        "graph-reachability", "range-minimum", "tree-lca",
        "breadth-depth-search", "cvp-refactorized", "compressed-reachability",
        "vertex-cover-k", "connectivity", "cvp-empty-data",
        "predicate-selection", "cvp-nand-eval", "member-via-conn",
        "connectivity-via-bds", "member-via-bds", "cvp-via-nand"}) {
    auto entry = engine->Find(name);
    ASSERT_TRUE(entry.ok()) << name;
    EXPECT_EQ((*entry)->name, name);
  }
  EXPECT_EQ(engine->Names().size(), 18u);
}

TEST(EngineRegistryTest, EntriesCarryTheExpectedPaths) {
  auto engine = MakeEngine();
  // Both paths: the three typed cases with Σ*-level twins.
  for (const char* name :
       {"list-membership", "breadth-depth-search", "cvp-refactorized"}) {
    auto entry = engine->Find(name);
    ASSERT_TRUE(entry.ok());
    EXPECT_TRUE((*entry)->has_language) << name;
    EXPECT_TRUE(static_cast<bool>((*entry)->make_case)) << name;
  }
  // Typed-only: no Σ* witness → string path refuses.
  auto typed_only = engine->Find("range-minimum");
  ASSERT_TRUE(typed_only.ok());
  EXPECT_FALSE((*typed_only)->has_language);
  auto refused = engine->AnswerBatch("range-minimum", "", {});
  EXPECT_FALSE(refused.ok());
  // Σ*-only: no typed case → typed path refuses.
  auto refused_typed = engine->AnswerTypedBatch("member-via-bds", 64, 1);
  EXPECT_FALSE(refused_typed.ok());
}

TEST(EngineRegistryTest, UnknownAndDuplicateNamesAreRejected) {
  auto engine = MakeEngine();
  EXPECT_FALSE(engine->Find("no-such-problem").ok());
  ProblemEntry duplicate;
  duplicate.name = "connectivity";
  duplicate.has_language = true;
  duplicate.problem = core::ConnectivityProblem();
  duplicate.factorization = core::ConnFactorization();
  duplicate.witness = core::ConnWitness();
  EXPECT_EQ(engine->Register(std::move(duplicate)).code(),
            StatusCode::kAlreadyExists);
}

TEST(EngineRegistryTest, NamesHoldingTheKeySeparatorAreRejected) {
  // Store keys are `problem \x1f witness \x1f D`. Were a separator allowed
  // inside a name, problem "x\x1fy" with witness "z" and problem "x" with
  // witness "y\x1fz" would key the same data part to the same bytes, and
  // the second would be served the first's Π(D) without running its own.
  auto member_entry = [](std::string name, std::string witness) {
    ProblemEntry entry;
    entry.name = std::move(name);
    entry.has_language = true;
    entry.problem = core::ListMembershipProblem();
    entry.factorization = core::MemberFactorization();
    entry.witness = core::MemberWitness();
    entry.witness.name = std::move(witness);
    return entry;
  };
  QueryEngine engine;
  EXPECT_EQ(engine.Register(member_entry("x\x1fy", "z")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Register(member_entry("x", "y\x1fz")).code(),
            StatusCode::kInvalidArgument);
  ProblemEntry with_alternative = member_entry("x", "y");
  WitnessAlternative alt;
  alt.witness = core::MemberWitness();
  alt.witness.name = "alt\x1f";
  with_alternative.alternatives.push_back(std::move(alt));
  EXPECT_EQ(engine.Register(std::move(with_alternative)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(engine.Names().empty());

  // Separator-free names register and key distinct entries per problem.
  ASSERT_TRUE(engine.Register(member_entry("x", "y")).ok());
  ASSERT_TRUE(engine.Register(member_entry("x-y", "z")).ok());
  const std::string data = core::MemberFactorization()
                               .pi1(core::MakeMemberInstance(64, {1, 5, 9}, 0))
                               .value();
  const std::vector<std::string> queries = {"5", "6"};
  for (const char* problem : {"x", "x-y"}) {
    auto batch = engine.AnswerBatch(problem, data, queries);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(batch->prepare_runs, 1) << problem;
    EXPECT_EQ(batch->answers, (std::vector<bool>{true, false})) << problem;
  }
}

TEST(EngineRegistryTest, ReductionRegistrationChecksTargetFactorization) {
  auto engine = MakeEngine();
  // member<=conn targets Y_conn; pointing it at a Y_BDS entry must fail.
  auto status = engine->RegisterViaReduction(
      "member-via-wrong-target", "test", core::ListMembershipProblem(),
      core::MemberToConnReduction(), "breadth-depth-search");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // Unknown target.
  EXPECT_EQ(engine
                ->RegisterViaReduction("member-via-nothing", "test",
                                       core::ListMembershipProblem(),
                                       core::MemberToConnReduction(), "nope")
                .code(),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// PreparedStore: Π runs exactly once per distinct data part.
// ---------------------------------------------------------------------------

TEST(PreparedStoreTest, PiRunsOncePerDataPartAcrossLargeBatch) {
  auto engine = MakeEngine();
  Rng rng(901);
  const int64_t universe = 512;
  std::string data = core::MemberFactorization()
                         .pi1(core::MakeMemberInstance(
                             universe, RandomList(&rng, universe, 200), 0))
                         .value();
  // N >= 100 queries against the same data part.
  std::vector<std::string> queries;
  for (int i = 0; i < 128; ++i) {
    queries.push_back(std::to_string(rng.NextBelow(universe)));
  }

  auto batch = engine->AnswerBatch("list-membership", data, queries);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->answers.size(), 128u);
  EXPECT_EQ(batch->prepare_runs, 1);
  EXPECT_FALSE(batch->cache_hit);
  // CostMeter-verified: the batch charged Π's full PTIME work exactly once.
  CostMeter reference;
  ASSERT_TRUE(core::MemberWitness().preprocess(data, &reference).ok());
  EXPECT_GT(reference.work(), 0);
  EXPECT_EQ(batch->prepare_cost.work, reference.work());

  // Second batch over the same data: served from the store, Π never re-runs.
  auto again = engine->AnswerBatch("list-membership", data, queries);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->prepare_runs, 0);
  EXPECT_TRUE(again->cache_hit);
  EXPECT_LT(again->prepare_cost.work, reference.work());
  EXPECT_EQ(again->answers, batch->answers);

  auto stats = engine->store().stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
}

TEST(PreparedStoreTest, DistinctDataPartsPreprocessSeparately) {
  auto engine = MakeEngine();
  Rng rng(902);
  std::vector<std::string> queries = {"1", "2", "3"};
  for (int variant = 0; variant < 3; ++variant) {
    std::string data =
        core::MemberFactorization()
            .pi1(core::MakeMemberInstance(64, RandomList(&rng, 64, 20), 0))
            .value();
    auto batch = engine->AnswerBatch("list-membership", data, queries);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(batch->prepare_runs, 1);
  }
  EXPECT_EQ(engine->store().stats().misses, 3);
  EXPECT_EQ(engine->store().size(), 3u);
}

TEST(PreparedStoreTest, LruEvictionPastCapacity) {
  PreparedStore store(/*max_entries=*/2);
  auto compute = [](CostMeter* meter) -> Result<std::string> {
    if (meter != nullptr) meter->AddSerial(10);
    return std::string("prepared");
  };
  for (const char* data : {"a", "b", "c"}) {
    ASSERT_TRUE(store.GetOrCompute("p", "w", data, compute).ok());
  }
  EXPECT_EQ(store.size(), 2u);
  auto stats = store.stats();
  EXPECT_EQ(stats.misses, 3);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_FALSE(store.Contains("p", "w", "a"));  // the least recently used
  EXPECT_TRUE(store.Contains("p", "w", "c"));
  // Re-requesting the evicted entry recomputes.
  bool hit = true;
  ASSERT_TRUE(store.GetOrCompute("p", "w", "a", compute, nullptr, &hit).ok());
  EXPECT_FALSE(hit);
}

TEST(PreparedStoreTest, KeysSeparateProblemWitnessAndData) {
  PreparedStore store;
  int computes = 0;
  auto compute = [&computes](CostMeter*) -> Result<std::string> {
    ++computes;
    return std::string("x");
  };
  ASSERT_TRUE(store.GetOrCompute("p1", "w", "d", compute).ok());
  ASSERT_TRUE(store.GetOrCompute("p2", "w", "d", compute).ok());
  ASSERT_TRUE(store.GetOrCompute("p1", "w2", "d", compute).ok());
  ASSERT_TRUE(store.GetOrCompute("p1", "w", "d", compute).ok());  // hit
  EXPECT_EQ(computes, 3);
  EXPECT_EQ(store.stats().hits, 1);
}

// ---------------------------------------------------------------------------
// Batch answering parity with per-query answering and reference semantics.
// ---------------------------------------------------------------------------

TEST(EngineBatchTest, BatchMatchesPerQueryAndReferenceSemantics) {
  auto engine = MakeEngine();
  Rng rng(903);
  const int64_t universe = 128;
  auto list = RandomList(&rng, universe, 40);
  std::string data =
      core::MemberFactorization()
          .pi1(core::MakeMemberInstance(universe, list, 0))
          .value();
  std::vector<std::string> queries;
  for (int i = 0; i < 64; ++i) {
    queries.push_back(std::to_string(rng.NextBelow(universe)));
  }
  auto batch = engine->AnswerBatch("list-membership", data, queries);
  ASSERT_TRUE(batch.ok());
  auto member = core::ListMembershipProblem();
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    auto single = engine->Answer("list-membership", data, queries[qi]);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(*single, batch->answers[qi]) << queries[qi];
    auto e = std::stoll(queries[qi]);
    auto reference =
        member.contains(core::MakeMemberInstance(universe, list, e));
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(*reference, batch->answers[qi]) << queries[qi];
  }
}

TEST(EngineBatchTest, AnswerInstanceRoundTripsDefinitionOne) {
  auto engine = MakeEngine();
  Rng rng(904);
  auto member = core::ListMembershipProblem();
  for (int trial = 0; trial < 25; ++trial) {
    auto list = RandomList(&rng, 32, 10);
    std::string x = core::MakeMemberInstance(
        32, list, static_cast<int64_t>(rng.NextBelow(32)));
    auto via_engine = engine->AnswerInstance("list-membership", x);
    auto reference = member.contains(x);
    ASSERT_TRUE(via_engine.ok() && reference.ok());
    EXPECT_EQ(*via_engine, *reference) << x;
  }
}

TEST(EngineBatchTest, LambdaRewritingEntryAnswersPredicates) {
  auto engine = MakeEngine();
  std::vector<int64_t> list = {4, 9, 17, 40};
  std::string data = core::SelectionFactorization()
                         .pi1(core::MakeSelectionInstance(64, list, {0, 0}))
                         .value();
  // Predicates: =9, <=3, >=40, between 10 20, between 18 30.
  std::vector<std::string> queries = {"0,9", "1,3", "2,40", "3,10,20",
                                      "3,18,30"};
  auto batch = engine->AnswerBatch("predicate-selection", data, queries);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->answers,
            (std::vector<bool>{true, false, true, true, false}));
}

// ---------------------------------------------------------------------------
// The reduction chain through the registry.
// ---------------------------------------------------------------------------

TEST(EngineReductionTest, TransportedEntriesAnswerTheSourceProblem) {
  auto engine = MakeEngine();
  Rng rng(905);
  auto member = core::ListMembershipProblem();
  for (const char* name : {"member-via-conn", "member-via-bds"}) {
    for (int trial = 0; trial < 10; ++trial) {
      auto list = RandomList(&rng, 24, 8);
      std::string x = core::MakeMemberInstance(
          24, list, static_cast<int64_t>(rng.NextBelow(24)));
      auto via_engine = engine->AnswerInstance(name, x);
      auto reference = member.contains(x);
      ASSERT_TRUE(via_engine.ok()) << name << ": "
                                   << via_engine.status().ToString();
      ASSERT_TRUE(reference.ok());
      EXPECT_EQ(*via_engine, *reference) << name << " on " << x;
    }
  }
}

TEST(EngineReductionTest, MemberToConnChainCachesPerDataPart) {
  auto engine = MakeEngine();
  Rng rng(906);
  auto list = RandomList(&rng, 48, 16);
  std::string data = core::MemberFactorization()
                         .pi1(core::MakeMemberInstance(48, list, 0))
                         .value();
  std::vector<std::string> queries;
  for (int i = 0; i < 100; ++i) {
    queries.push_back(std::to_string(rng.NextBelow(48)));
  }
  // The transported witness runs Π = (conn preprocessing) ∘ α once...
  auto first = engine->AnswerBatch("member-via-conn", data, queries);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->prepare_runs, 1);
  // ...and every later batch against the same data part reuses it.
  auto second = engine->AnswerBatch("member-via-conn", data, queries);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->prepare_runs, 0);
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(second->answers, first->answers);
  // The source entry and the reduced entry cache under distinct keys.
  auto direct = engine->AnswerBatch("list-membership", data, queries);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct->prepare_runs, 1);
  EXPECT_EQ(direct->answers, first->answers);
  EXPECT_EQ(engine->store().stats().misses, 2);
  EXPECT_EQ(engine->store().stats().hits, 1);
}

// ---------------------------------------------------------------------------
// Typed path through the same interface.
// ---------------------------------------------------------------------------

TEST(EngineTypedTest, TypedBatchPreparesOncePerGeneratedData) {
  auto engine = MakeEngine();
  auto first = engine->AnswerTypedBatch("list-membership", 256, 7);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->prepare_runs, 1);
  EXPECT_FALSE(first->cache_hit);
  EXPECT_GT(first->prepare_cost.work, 0);
  EXPECT_GT(first->answers.size(), 0u);

  auto second = engine->AnswerTypedBatch("list-membership", 256, 7);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->prepare_runs, 0);
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(second->answers, first->answers);

  // A different size is different data: Π runs again.
  auto other = engine->AnswerTypedBatch("list-membership", 512, 7);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->prepare_runs, 1);
}

// ---------------------------------------------------------------------------
// Typed-path vs Σ*-witness parity (engine::CrossCheck).
// ---------------------------------------------------------------------------

TEST(EngineCrossCheckTest, EveryDualPathBuiltinAgreesAcrossPaths) {
  auto engine = MakeEngine();
  // The three Figure 2 rows registered with both a typed case and a Σ*
  // witness must all be discoverable as cross-checkable...
  auto names = CrossCheckableNames(*engine);
  for (const char* expected :
       {"list-membership", "breadth-depth-search", "cvp-refactorized"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  // ...and answer identically, query for query, on several workloads.
  for (const std::string& name : names) {
    for (int64_t n : {64, 256}) {
      for (uint64_t seed : {1u, 9u}) {
        auto report = CrossCheck(engine.get(), name, n, seed);
        ASSERT_TRUE(report.ok()) << name << ": "
                                 << report.status().ToString();
        EXPECT_GT(report->queries, 0) << name;
        EXPECT_EQ(report->mismatches, 0)
            << name << " diverged at n=" << n << " seed=" << seed;
      }
    }
  }
}

TEST(EngineCrossCheckTest, SinglePathEntriesAreRejected) {
  auto engine = MakeEngine();
  // Typed-only: no Σ* witness to compare against.
  EXPECT_EQ(CrossCheck(engine.get(), "range-minimum", 64, 1).status().code(),
            StatusCode::kFailedPrecondition);
  // Σ*-only: no typed case to drive.
  EXPECT_EQ(CrossCheck(engine.get(), "member-via-bds", 64, 1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(CrossCheck(engine.get(), "no-such", 64, 1).status().code(),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Digest handles: Intern once, then zero O(|D|) key work per warm batch.
// ---------------------------------------------------------------------------

TEST(EngineHandleTest, WarmHandleBatchesDoZeroKeyBuildsAndMatchStringPath) {
  auto engine = MakeEngine();
  Rng rng(77);
  const int64_t universe = 512;
  std::string data = core::MemberFactorization()
                         .pi1(core::MakeMemberInstance(
                             universe, RandomList(&rng, universe, 256), 0))
                         .value();
  std::vector<std::string> queries;
  for (int i = 0; i < 32; ++i) {
    queries.push_back(std::to_string(rng.NextBelow(512)));
  }

  auto handle = engine->Intern("list-membership", data);
  ASSERT_TRUE(handle.ok());
  auto cold = engine->AnswerBatch(*handle, queries);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->prepare_runs, 1);

  engine->store().ResetStats();
  auto warm = engine->AnswerBatch(*handle, queries);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(warm->prepare_runs, 0);
  // The acceptance counter: a warm handle batch never copies or hashes the
  // O(|D|) store key.
  EXPECT_EQ(engine->store().stats().key_builds, 0);

  // Same answers as the string-keyed admission path...
  auto via_string = engine->AnswerBatch("list-membership", data, queries);
  ASSERT_TRUE(via_string.ok());
  EXPECT_EQ(via_string->answers, warm->answers);
  EXPECT_EQ(via_string->answers, cold->answers);
  // ...which paid the per-batch key build the handle skipped.
  EXPECT_EQ(engine->store().stats().key_builds, 1);
}

TEST(EngineHandleTest, InternValidatesTheProblem) {
  auto engine = MakeEngine();
  EXPECT_FALSE(engine->Intern("no-such-problem", "d").ok());
  // Typed-only entries have no Σ* witness to key against.
  EXPECT_FALSE(engine->Intern("range-minimum", "d").ok());
  EXPECT_FALSE(
      engine->AnswerBatch(DataHandle{}, std::vector<std::string>{"0"}).ok());
}

// ServePipeline's per-worker tallies (thread-local CostMeters, batched
// cursor pulls) must aggregate to the same totals a sequential driver
// sees: counts exact, Π cost charged once per data part, answer cost
// proportional to the query volume, threads = 0 resolved to the machine.
TEST(EngineServeReportTest, TalliesAggregateAcrossWorkersAndBatchedPulls) {
  auto engine = MakeEngine();
  Rng rng(88);
  constexpr int kParts = 3;
  constexpr int kQueries = 8;
  constexpr int kRepeat = 5;
  std::vector<ServeWorkItem> workload;
  for (int part = 0; part < kParts; ++part) {
    ServeWorkItem item;
    item.problem = "list-membership";
    item.data = core::MemberFactorization()
                    .pi1(core::MakeMemberInstance(
                        128, RandomList(&rng, 128, 40), 0))
                    .value();
    for (int i = 0; i < kQueries; ++i) {
      item.queries.push_back(std::to_string(rng.NextBelow(128)));
    }
    workload.push_back(std::move(item));
  }
  PipelineOptions options;
  options.threads = 0;      // auto: hardware_concurrency
  options.claim_batch = 2;  // force several pulls per worker
  ServePipeline pipeline(engine.get(), options);
  pipeline.SubmitWorkload(workload, kRepeat);
  pipeline.Drain();
  const ServeReport report = pipeline.report();
  EXPECT_EQ(report.errors, 0) << report.first_error.ToString();
  EXPECT_GE(report.threads, 1);
  EXPECT_EQ(report.batches, kParts * kRepeat);
  EXPECT_EQ(report.queries, kParts * kRepeat * kQueries);
  EXPECT_EQ(report.pi_runs, kParts);
  // Π cost was charged by exactly the kParts cold batches; every one of
  // the kParts*kRepeat*kQueries answers charged the answer meters.
  EXPECT_GT(report.prepare_cost.work, 0);
  EXPECT_GE(report.answer_cost.work, report.queries);
}

// ---------------------------------------------------------------------------
// Decoded Π-views: the view path must agree with the string path on every
// view-enabled builtin (including rewritten and reduction-derived ones).
// ---------------------------------------------------------------------------

TEST(EngineViewTest, ViewAndStringPathsAgreeOnEveryViewEnabledBuiltin) {
  auto view_engine = MakeEngine();
  auto string_engine = MakeStringPathEngine();
  Rng rng(4242);

  struct Case {
    std::string problem;
    std::string data;
    std::vector<std::string> queries;
  };
  std::vector<Case> cases;

  // Sorted-column problems: list-membership, its λ-rewritten dialect, and
  // the reduction-transported member-via-conn (Transport view propagation).
  const int64_t universe = 256;
  auto list = RandomList(&rng, universe, 128);
  std::string member_data =
      core::MemberFactorization()
          .pi1(core::MakeMemberInstance(universe, list, 0))
          .value();
  Case member{"list-membership", member_data, {}};
  Case via_conn{"member-via-conn", member_data, {}};
  for (int i = 0; i < 24; ++i) {
    std::string e = std::to_string(rng.NextBelow(256));
    member.queries.push_back(e);
    via_conn.queries.push_back(e);
  }
  Case selection{"predicate-selection",
                 core::SelectionFactorization()
                     .pi1(core::MakeSelectionInstance(universe, list, {0, 1}))
                     .value(),
                 {}};
  for (int i = 0; i < 12; ++i) {
    const int64_t a = static_cast<int64_t>(rng.NextBelow(256));
    selection.queries.push_back(codec::EncodeInts({0, a}));       // = a
    selection.queries.push_back(codec::EncodeInts({3, a, a + 9}));  // between
  }
  cases.push_back(std::move(member));
  cases.push_back(std::move(via_conn));
  cases.push_back(std::move(selection));

  // Graph problems: connectivity, BDS order, directed reachability.
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
  for (int i = 0; i < 24; ++i) {
    std::string q = std::to_string(rng.NextBelow(64)) + "#" +
                    std::to_string(rng.NextBelow(64));
    conn.queries.push_back(q);
    bds.queries.push_back(q);
    reach.queries.push_back(q);
  }
  cases.push_back(std::move(conn));
  cases.push_back(std::move(bds));
  cases.push_back(std::move(reach));

  // Circuit problems: the GVP bitmap and the kept-circuit evaluator.
  {
    Rng crng(9);
    circuit::CircuitGenOptions copts;
    copts.num_inputs = 6;
    copts.num_gates = 24;
    auto instance = circuit::RandomCvpInstance(copts, &crng);
    Case gvp{"cvp-refactorized",
             core::GvpFactorization()
                 .pi1(core::MakeGvpInstance(instance, 0))
                 .value(),
             {}};
    for (circuit::GateId g = 0; g < instance.circuit.num_gates(); ++g) {
      gvp.queries.push_back(std::to_string(g));
    }
    Case nand_eval{"cvp-nand-eval",
                   core::CvpCircuitDataFactorization()
                       .pi1(core::MakeCvpInstanceString(instance))
                       .value(),
                   {}};
    for (int i = 0; i < 8; ++i) {
      std::string bits;
      for (int b = 0; b < instance.circuit.num_inputs(); ++b) {
        bits.push_back(crng.NextBool() ? '1' : '0');
      }
      nand_eval.queries.push_back(std::move(bits));
    }
    cases.push_back(std::move(gvp));
    cases.push_back(std::move(nand_eval));
  }

  for (const Case& c : cases) {
    auto entry = view_engine->Find(c.problem);
    ASSERT_TRUE(entry.ok()) << c.problem;
    EXPECT_TRUE((*entry)->witness.has_view())
        << c.problem << " lost its decoded-view hooks";
    auto stripped = string_engine->Find(c.problem);
    ASSERT_TRUE(stripped.ok()) << c.problem;
    EXPECT_FALSE((*stripped)->witness.has_view()) << c.problem;

    auto cold = view_engine->AnswerBatch(c.problem, c.data, c.queries);
    ASSERT_TRUE(cold.ok()) << c.problem << ": " << cold.status().ToString();
    auto warm = view_engine->AnswerBatch(c.problem, c.data, c.queries);
    ASSERT_TRUE(warm.ok()) << c.problem;
    EXPECT_TRUE(warm->cache_hit) << c.problem;
    auto baseline = string_engine->AnswerBatch(c.problem, c.data, c.queries);
    ASSERT_TRUE(baseline.ok()) << c.problem;
    EXPECT_EQ(cold->answers, baseline->answers) << c.problem;
    EXPECT_EQ(warm->answers, baseline->answers) << c.problem;
    // Conceptual probe charges stay identical across the two paths: the
    // view changes wall-clock, never the cost model.
    EXPECT_EQ(warm->answer_cost.work, baseline->answer_cost.work)
        << c.problem;
  }
  // Views were actually built (one per distinct (problem, witness, data)).
  EXPECT_GT(view_engine->store().stats().view_builds, 0);
  EXPECT_EQ(string_engine->store().stats().view_builds, 0);
}

TEST(EngineTypedTest, TypedBatchMatchesManualCaseDrive) {
  auto engine = MakeEngine();
  auto batch = engine->AnswerTypedBatch("point-selection", 128, 3);
  ASSERT_TRUE(batch.ok());

  auto manual = engine->MakeCase("point-selection");
  ASSERT_TRUE(manual.ok());
  ASSERT_TRUE((*manual)->Generate(128, 3).ok());
  ASSERT_TRUE((*manual)->Preprocess(nullptr).ok());
  ASSERT_EQ((*manual)->num_queries(),
            static_cast<int>(batch->answers.size()));
  for (int qi = 0; qi < (*manual)->num_queries(); ++qi) {
    auto expected = (*manual)->AnswerPrepared(qi, nullptr);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(*expected, batch->answers[static_cast<size_t>(qi)]) << qi;
  }
}

}  // namespace
}  // namespace engine
}  // namespace pitract
