// Unit coverage for the witness-selection solver (engine/cost_model.h):
// policy gating, the expected-cost score (build amortization, residency,
// byte pressure, measured-profile blending), the traffic bookkeeping that
// drives re-selection, and the CostDescriptor linear fits — plus two
// engine-level tests proving answer parity across policies and the
// cold-part -> hot-part witness upgrade end to end.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/problems.h"
#include "engine/builtins.h"
#include "engine/cost_model.h"
#include "engine/delta_hooks.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "graph/graph.h"

namespace pitract {
namespace engine {
namespace {

// A witness that answers fast but builds at a flat (size-independent)
// cost, and one that builds free but pays per query — the canonical
// closure-vs-scan tension the solver exists to arbitrate.
CostDescriptor FastAnswerDescriptor() {
  CostDescriptor d;
  d.build_ops_base = 10000.0;
  d.build_ops_per_byte = 0.0;
  d.bytes_base = 0.0;
  d.bytes_per_byte = 0.0;
  d.answer_ops_base = 1.0;
  return d;
}

CostDescriptor CheapBuildDescriptor() {
  CostDescriptor d;
  d.build_ops_base = 0.0;
  d.build_ops_per_byte = 0.0;
  d.bytes_base = 0.0;
  d.bytes_per_byte = 0.0;
  d.answer_ops_base = 10.0;
  return d;
}

TEST(CostModelTest, PrimaryOnlyIgnoresCosts) {
  CostModel model;
  ASSERT_EQ(model.policy(), CostModel::Policy::kPrimaryOnly);
  // Candidate 1 is strictly cheaper on every axis; kPrimaryOnly must still
  // return 0 — the pre-adaptive engine's behavior, bit for bit.
  CostDescriptor expensive = FastAnswerDescriptor();
  CostDescriptor free_lunch;
  free_lunch.build_ops_base = 0.0;
  free_lunch.build_ops_per_byte = 0.0;
  free_lunch.bytes_per_byte = 0.0;
  free_lunch.answer_ops_base = 0.0;
  std::vector<CostModel::Candidate> candidates = {
      {"primary", &expensive, nullptr, false},
      {"better", &free_lunch, nullptr, true},
  };
  EXPECT_EQ(model.Select(candidates, 1000, 42, 0.0), 0);
}

TEST(CostModelTest, ForcedClampsToCandidateRange) {
  CostModel model;
  CostDescriptor a = FastAnswerDescriptor();
  CostDescriptor b = CheapBuildDescriptor();
  std::vector<CostModel::Candidate> candidates = {
      {"a", &a, nullptr, false},
      {"b", &b, nullptr, false},
  };
  model.ForceWitness(5);  // out of range: clamps to the last candidate
  EXPECT_EQ(model.policy(), CostModel::Policy::kForced);
  EXPECT_EQ(model.Select(candidates, 1000, 42, 0.0), 1);
  model.ForceWitness(-3);  // negative: clamps to the primary
  EXPECT_EQ(model.forced_index(), 0);
  EXPECT_EQ(model.Select(candidates, 1000, 42, 0.0), 0);
  model.ForceWitness(1);
  EXPECT_EQ(model.Select(candidates, 1000, 42, 0.0), 1);
}

TEST(CostModelTest, AdaptiveWeighsBuildAgainstExpectedTraffic) {
  CostModel model;
  model.SetPolicy(CostModel::Policy::kAdaptive);
  CostDescriptor closure = FastAnswerDescriptor();
  CostDescriptor scan = CheapBuildDescriptor();
  std::vector<CostModel::Candidate> candidates = {
      {"closure", &closure, nullptr, false},
      {"scan", &scan, nullptr, false},
  };
  // Cold part, modest prior (16 expected queries): amortizing a 10000-op
  // build over 16 queries loses to paying 10 ops per query.
  //   closure: 10000 + 16*1 = 10016   scan: 0 + 16*10 = 160
  EXPECT_EQ(model.Select(candidates, 1000, 7, 0.0), 1);
  // The same part after 5000 recorded queries: the build amortizes.
  //   closure: 10000 + 5000*1 = 15000   scan: 5000*10 = 50000
  model.NoteTraffic(7, 5000);
  EXPECT_EQ(model.Select(candidates, 1000, 7, 0.0), 0);
  // An unrelated part is still judged by its own (cold) traffic.
  EXPECT_EQ(model.Select(candidates, 1000, 8, 0.0), 1);
}

TEST(CostModelTest, ResidencyZeroesBuildCost) {
  CostModel model;
  model.SetPolicy(CostModel::Policy::kAdaptive);
  CostDescriptor closure = FastAnswerDescriptor();
  CostDescriptor scan = CheapBuildDescriptor();
  // A resident Π is sunk cost: with the build term zeroed the fast-answer
  // witness wins even at the cold-part prior (16*1 < 16*10).
  std::vector<CostModel::Candidate> candidates = {
      {"closure", &closure, nullptr, true},
      {"scan", &scan, nullptr, false},
  };
  EXPECT_EQ(model.Select(candidates, 1000, 7, 0.0), 0);
}

TEST(CostModelTest, BytePressurePenalizesByteHungryWitnesses) {
  CostModel model;
  model.SetPolicy(CostModel::Policy::kAdaptive);
  CostDescriptor fat;
  fat.build_ops_base = 0.0;
  fat.build_ops_per_byte = 0.0;
  fat.bytes_base = 0.0;
  fat.bytes_per_byte = 10.0;
  fat.answer_ops_base = 1.0;
  CostDescriptor lean = fat;
  lean.bytes_per_byte = 1.0;
  lean.answer_ops_base = 1.2;
  std::vector<CostModel::Candidate> candidates = {
      {"fat", &fat, nullptr, true},
      {"lean", &lean, nullptr, true},
  };
  // Empty store: answer cost is all that matters -> fat (16 < 19.2).
  EXPECT_EQ(model.Select(candidates, 1000, 7, 0.0), 0);
  // Full store: fat pays 10000*0.25 in footprint, lean only 1000*0.25.
  EXPECT_EQ(model.Select(candidates, 1000, 7, 1.0), 1);
  // Pressure is clamped to [0,1], not extrapolated.
  EXPECT_EQ(model.Select(candidates, 1000, 7, 7.0),
            model.Select(candidates, 1000, 7, 1.0));
}

TEST(CostModelTest, MeasuredProfileBlendsIntoPriors) {
  CostModel model;
  model.SetPolicy(CostModel::Policy::kAdaptive);
  // The registered prior claims near-free answers; measurements say 1000
  // ops per query. The blend pulls the estimate halfway to reality, which
  // is enough to flip the selection to the honestly-priced candidate.
  CostDescriptor lying;
  lying.build_ops_base = 0.0;
  lying.build_ops_per_byte = 0.0;
  lying.bytes_per_byte = 0.0;
  lying.answer_ops_base = 0.01;
  CostDescriptor honest = CheapBuildDescriptor();
  CostProfile measured;
  std::vector<CostModel::Candidate> candidates = {
      {"lying", &lying, &measured, false},
      {"honest", &honest, nullptr, false},
  };
  EXPECT_EQ(model.Select(candidates, 1000, 7, 0.0), 0);
  measured.RecordAnswer(/*queries=*/1000, /*ops=*/1000000);
  // Blended answer estimate: (0.01 + 1000)/2 ≈ 500 ops/query >> 10.
  EXPECT_EQ(model.Select(candidates, 1000, 7, 0.0), 1);

  // Build-side blending uses measured ops-per-input-byte the same way.
  CostDescriptor cheap_claim;
  cheap_claim.build_ops_base = 0.0;
  cheap_claim.build_ops_per_byte = 0.001;
  cheap_claim.bytes_per_byte = 0.0;
  cheap_claim.answer_ops_base = 1.0;
  CostDescriptor steady = cheap_claim;
  steady.build_ops_per_byte = 50.0;
  CostProfile measured_build;
  // 100 ops/byte measured: blend = (0.001 + 100)/2 ≈ 50.0005 > 50.
  measured_build.RecordBuild(/*data_bytes=*/1000, /*prepared_bytes=*/0,
                             /*ops=*/100000);
  std::vector<CostModel::Candidate> builds = {
      {"cheap_claim", &cheap_claim, &measured_build, false},
      {"steady", &steady, nullptr, false},
  };
  EXPECT_EQ(model.Select(builds, 1000, 9, 0.0), 1);
}

TEST(CostModelTest, NoteTrafficFiresOnDoublingBoundariesAboveFloor) {
  CostModel model;
  const uint64_t fp = 17;
  EXPECT_FALSE(model.NoteTraffic(fp, 0));    // no-op
  EXPECT_FALSE(model.NoteTraffic(fp, -4));   // no-op
  EXPECT_FALSE(model.NoteTraffic(fp, 31));   // below the floor
  EXPECT_TRUE(model.NoteTraffic(fp, 1));     // crosses 32
  EXPECT_FALSE(model.NoteTraffic(fp, 31));   // 63: no boundary
  EXPECT_TRUE(model.NoteTraffic(fp, 1));     // crosses 64
  EXPECT_TRUE(model.NoteTraffic(fp, 64));    // crosses 128
  EXPECT_FALSE(model.NoteTraffic(fp, 1));    // 129: between boundaries
  EXPECT_EQ(model.TrafficFor(fp), 129);
  // One large batch on a fresh part fires once even when it jumps several
  // boundaries at a time.
  EXPECT_TRUE(model.NoteTraffic(99, 1000));
  EXPECT_FALSE(model.NoteTraffic(99, 20));
}

TEST(CostModelTest, CarryTrafficMovesPopularityAndChoiceAcrossRekey) {
  CostModel model;
  const uint64_t old_fp = 11;
  const uint64_t new_fp = 22;
  model.NoteTraffic(old_fp, 100);
  model.SetChoice(old_fp, 1);
  model.CarryTraffic(old_fp, new_fp);
  EXPECT_EQ(model.TrafficFor(old_fp), 0);
  EXPECT_EQ(model.TrafficFor(new_fp), 100);
  EXPECT_EQ(model.ChoiceFor(old_fp), -1);
  EXPECT_EQ(model.ChoiceFor(new_fp), 1);
  // Carrying from an untracked fingerprint is a no-op, not a reset.
  model.CarryTraffic(12345, new_fp);
  EXPECT_EQ(model.TrafficFor(new_fp), 100);
  // The carried popularity keeps amortizing the expensive build: the
  // post-delta part selects as a hot part, not a cold one.
  CostModel adaptive;
  adaptive.SetPolicy(CostModel::Policy::kAdaptive);
  adaptive.NoteTraffic(old_fp, 5000);
  adaptive.CarryTraffic(old_fp, new_fp);
  CostDescriptor closure = FastAnswerDescriptor();
  CostDescriptor scan = CheapBuildDescriptor();
  std::vector<CostModel::Candidate> candidates = {
      {"closure", &closure, nullptr, false},
      {"scan", &scan, nullptr, false},
  };
  EXPECT_EQ(adaptive.Select(candidates, 1000, new_fp, 0.0), 0);
}

TEST(CostModelTest, ColdPriorIsCappedBelowInflatedGlobalAverage) {
  CostModel model;
  model.SetPolicy(CostModel::Policy::kAdaptive);
  // One scorching part inflates the model-wide average to 100000 q/part.
  const uint64_t hot_fp = 1;
  model.NoteTraffic(hot_fp, 100000);
  // Candidates cross at E = 100: A costs 2E, B costs 150 + 0.5E.
  CostDescriptor a;
  a.build_ops_base = 0.0;
  a.build_ops_per_byte = 0.0;
  a.bytes_per_byte = 0.0;
  a.answer_ops_base = 2.0;
  CostDescriptor b = a;
  b.build_ops_base = 150.0;
  b.answer_ops_base = 0.5;
  std::vector<CostModel::Candidate> candidates = {
      {"a", &a, nullptr, false},
      {"b", &b, nullptr, false},
  };
  // The hot part itself amortizes B's build instantly.
  EXPECT_EQ(model.Select(candidates, 1000, hot_fp, 0.0), 1);
  // A fresh part must NOT inherit the head's popularity: the ski-rental
  // cap holds its prior at 16 (32 < 158), so it starts on the cheap-build
  // side instead of eating an unamortized build on every cold part.
  EXPECT_EQ(model.Select(candidates, 1000, 777, 0.0), 0);
}

TEST(CostModelTest, CostDescriptorClampsLinearFitsAtZero) {
  // A negative base is a two-point fit of a superlinear build: below the
  // fit's root the model reads zero, never a negative credit.
  CostDescriptor closure;
  closure.build_ops_base = -38000.0;
  closure.build_ops_per_byte = 32.0;
  closure.bytes_base = -100.0;
  closure.bytes_per_byte = 1.0;
  closure.answer_ops_base = -5.0;
  closure.answer_ops_per_byte = 0.01;
  EXPECT_EQ(closure.BuildOps(100), 0.0);       // -38000 + 3200 < 0
  EXPECT_EQ(closure.BuildOps(2000), 26000.0);  // -38000 + 64000
  EXPECT_EQ(closure.Bytes(50), 0.0);
  EXPECT_EQ(closure.Bytes(1100), 1000.0);
  EXPECT_EQ(closure.AnswerOps(100), 0.0);
  EXPECT_EQ(closure.AnswerOps(1000), 5.0);
}

// ---------------------------------------------------------------------------
// Engine-level: the solver's choice must never change an answer, and a
// part that turns hot must graduate from the cheap-build witness to the
// fast-answer witness without a third build or a wrong batch.
// ---------------------------------------------------------------------------

std::string ReachData(int64_t n, int64_t m, uint64_t seed) {
  Rng rng(seed);
  auto g = graph::ErdosRenyi(static_cast<graph::NodeId>(n), m,
                             /*directed=*/true, &rng);
  return core::ReachFactorization()
      .pi1(core::MakeReachInstance(g, 0, 0))
      .value();
}

std::vector<std::string> ReachQueries(int64_t n, int count, Rng* rng) {
  std::vector<std::string> queries;
  queries.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    queries.push_back(
        std::to_string(rng->NextBelow(static_cast<uint64_t>(n))) + "#" +
        std::to_string(rng->NextBelow(static_cast<uint64_t>(n))));
  }
  return queries;
}

TEST(CostModelEngineTest, WitnessParityAcrossPolicies) {
  const std::string data = ReachData(48, 192, 404);
  Rng rng(405);
  const auto queries = ReachQueries(48, 64, &rng);

  auto make_engine = [] {
    auto engine = std::make_unique<QueryEngine>(PreparedStore::Options{});
    auto status = RegisterBuiltins(engine.get());
    EXPECT_TRUE(status.ok()) << status.ToString();
    return engine;
  };

  auto primary = make_engine();  // kPrimaryOnly (default)
  auto adaptive = make_engine();
  adaptive->cost_model().SetPolicy(CostModel::Policy::kAdaptive);
  auto forced_closure = make_engine();
  forced_closure->cost_model().ForceWitness(0);
  auto forced_scan = make_engine();
  forced_scan->cost_model().ForceWitness(1);

  auto baseline = primary->AnswerBatch("graph-reachability", data, queries);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  for (QueryEngine* engine :
       {adaptive.get(), forced_closure.get(), forced_scan.get()}) {
    auto batch = engine->AnswerBatch("graph-reachability", data, queries);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(batch->answers, baseline->answers);
  }
  // The forced-scan engine really did serve off the alternative witness:
  // parity came from equivalence, not from both picking the same Π.
  EXPECT_TRUE(forced_scan->store().Contains("graph-reachability", "edge-scan",
                                            data));
  EXPECT_FALSE(forced_scan->store().Contains("graph-reachability",
                                             "incremental-closure", data));
  EXPECT_TRUE(forced_closure->store().Contains("graph-reachability",
                                               "incremental-closure", data));
  EXPECT_FALSE(forced_closure->store().Contains("graph-reachability",
                                                "edge-scan", data));
}

TEST(CostModelEngineTest, AdaptiveStartsAColdPartOnTheClosureByDefault) {
  // With no traffic seen, a cold part is expected to take 16 queries. The
  // condensation build (≈ 440 ops here) then undercuts 16 BFS answers
  // (≈ 58 ops each) on top of the scan's own build.
  const std::string data = ReachData(64, 256, 1234);
  auto adaptive = std::make_unique<QueryEngine>(PreparedStore::Options{});
  ASSERT_TRUE(RegisterBuiltins(adaptive.get()).ok());
  adaptive->cost_model().SetPolicy(CostModel::Policy::kAdaptive);
  Rng rng(4322);
  ASSERT_TRUE(adaptive
                  ->AnswerBatch("graph-reachability", data,
                                ReachQueries(64, 8, &rng))
                  .ok());
  EXPECT_EQ(adaptive->cost_model().ChoiceFor(
                QueryEngine::PartFingerprint(data)),
            0);
  EXPECT_TRUE(adaptive->store().Contains("graph-reachability",
                                         ReachClosureWitness().name, data));
}

TEST(CostModelEngineTest, AdaptiveUpgradesHotPartToFastWitness) {
  // Sized so the closure's two-point fit prices its build above zero
  // (|D| past the fit root). The closure then wins the cold-part score
  // once ≈ 2 queries are expected, so the engine first serves eight other
  // parts one query each: the cold prior (the model-wide average traffic)
  // reads 1, the scan wins, and the part must earn the closure through
  // its own traffic alone.
  const std::string data = ReachData(64, 256, 1234);
  ASSERT_GT(data.size(), 1250u);
  ASSERT_LT(data.size(), 1700u);

  auto adaptive = std::make_unique<QueryEngine>(PreparedStore::Options{});
  ASSERT_TRUE(RegisterBuiltins(adaptive.get()).ok());
  adaptive->cost_model().SetPolicy(CostModel::Policy::kAdaptive);
  auto reference = std::make_unique<QueryEngine>(PreparedStore::Options{});
  ASSERT_TRUE(RegisterBuiltins(reference.get()).ok());
  reference->cost_model().ForceWitness(0);  // closure-always oracle

  Rng rng(4321);
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    ASSERT_TRUE(adaptive
                    ->AnswerBatch("graph-reachability", ReachData(16, 32, seed),
                                  ReachQueries(16, 1, &rng))
                    .ok());
  }
  adaptive->store().ResetStats();

  // The part starts cold on the edge-scan witness.
  {
    auto first = adaptive->AnswerBatch("graph-reachability", data,
                                       ReachQueries(64, 8, &rng));
    ASSERT_TRUE(first.ok());
  }
  EXPECT_EQ(adaptive->cost_model().ChoiceFor(
                QueryEngine::PartFingerprint(data)),
            1);
  EXPECT_EQ(adaptive->store().stats().misses, 1);

  // 130 batches x 8 queries drive the part's traffic through the 32, 64,
  // ..., 1024 re-selection boundaries; somewhere along the way the build
  // amortizes and the solver upgrades to the closure.
  Rng rng_adaptive(777);
  Rng rng_reference(777);
  for (int batch = 0; batch < 130; ++batch) {
    const auto queries = ReachQueries(64, 8, &rng_adaptive);
    const auto check = ReachQueries(64, 8, &rng_reference);
    ASSERT_EQ(queries, check);
    auto got = adaptive->AnswerBatch("graph-reachability", data, queries);
    auto want = reference->AnswerBatch("graph-reachability", data, queries);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    // Every batch — before, during, and after the upgrade — matches the
    // closure-always oracle.
    ASSERT_EQ(got->answers, want->answers) << "batch " << batch;
  }

  // The upgrade happened (sticky choice now the primary closure), cost
  // exactly one extra cold build, and never flapped back: scan Π then
  // closure Π, two misses total.
  EXPECT_EQ(adaptive->cost_model().ChoiceFor(
                QueryEngine::PartFingerprint(data)),
            0);
  EXPECT_EQ(adaptive->store().stats().misses, 2);
  EXPECT_EQ(reference->store().stats().misses, 1);
}

}  // namespace
}  // namespace engine
}  // namespace pitract
