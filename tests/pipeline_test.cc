// Coverage for the completion-based serving pipeline (engine/pipeline.h):
// the no-head-of-line-blocking property pinned with a blocking Π witness,
// deadline expiry at dequeue, admission / park-time load shedding, cost-
// model traffic from parked and fallback items, the ServeReport and store
// Stats JSON blobs, and a TSan suite racing submitters against preparers
// against eviction.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/cost_meter.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/problems.h"
#include "engine/builtins.h"
#include "engine/engine.h"
#include "engine/pipeline.h"
#include "engine/serve.h"
#include "graph/generators.h"

namespace pitract {
namespace engine {
namespace {

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

/// A problem whose Π spins until `release` flips: the deterministic witness
/// for "a cold prepare is in flight right now".
struct BlockingPi {
  std::atomic<bool> release{false};
  std::atomic<int> computes{0};
};

void RegisterBlocking(QueryEngine* engine, BlockingPi* pi) {
  ProblemEntry entry;
  entry.name = "blocking-echo";
  entry.paper_anchor = "test-only";
  entry.has_language = true;
  entry.witness.name = "echo";
  entry.witness.preprocess = [pi](const std::string& data,
                                  CostMeter*) -> Result<std::string> {
    pi->computes.fetch_add(1);
    while (!pi->release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    return "pi:" + data;
  };
  entry.witness.answer = [](const std::string& prepared,
                            const std::string& query,
                            CostMeter*) -> Result<bool> {
    return prepared.find(query) != std::string::npos;
  };
  ASSERT_TRUE(engine->Register(std::move(entry)).ok());
}

// ---------------------------------------------------------------------------
// The tentpole property: a cold Π in flight never head-of-line-blocks warm
// traffic. The blocking witness holds Π open for the whole middle of the
// test, so every warm completion observed there is *proof* the workers
// kept draining instead of parking on the shared_future.
// ---------------------------------------------------------------------------

TEST(ServePipelineTest, WarmItemsCompleteWhileColdPiInFlight) {
  auto engine = MakeEngine();
  BlockingPi pi;
  RegisterBlocking(engine.get(), &pi);

  // Pre-warm a list-membership part so its batches are pure snapshot hits.
  const std::string warm_data = MemberData(64, {1, 2, 3});
  const std::vector<std::string> warm_queries = {"1", "2", "63"};
  ASSERT_TRUE(
      engine->AnswerBatch("list-membership", warm_data, warm_queries).ok());

  PipelineOptions options;
  options.threads = 2;
  options.preparers = 1;
  ServePipeline pipeline(engine.get(), options);

  std::atomic<bool> cold_done{false};
  ServeWorkItem cold;
  cold.problem = "blocking-echo";
  cold.data = "base";
  cold.queries = {"pi:base"};
  ASSERT_TRUE(pipeline
                  .Submit(std::move(cold),
                          [&](const ItemOutcome& outcome) {
                            EXPECT_TRUE(outcome.status.ok())
                                << outcome.status.ToString();
                            EXPECT_EQ(outcome.queries, 1);
                            cold_done.store(true, std::memory_order_release);
                          })
                  .ok());
  // Π(base) is provably in flight on the preparer pool from here on.
  while (pi.computes.load() == 0) std::this_thread::yield();

  constexpr int kWarm = 64;
  std::atomic<int> warm_done{0};
  for (int i = 0; i < kWarm; ++i) {
    ServeWorkItem item;
    item.problem = "list-membership";
    item.data = warm_data;
    item.queries = warm_queries;
    ASSERT_TRUE(pipeline
                    .Submit(std::move(item),
                            [&](const ItemOutcome& outcome) {
                              EXPECT_TRUE(outcome.status.ok())
                                  << outcome.status.ToString();
                              EXPECT_GE(outcome.latency_ns, 0);
                              warm_done.fetch_add(1);
                            })
                    .ok());
  }

  // Bounded wall-clock: Π stays held, so warm completions can only happen
  // if no worker is blocked behind it. Pre-pipeline, a worker parked on
  // the in-flight future and this loop timed out.
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (warm_done.load() < kWarm &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  EXPECT_EQ(warm_done.load(), kWarm)
      << "warm items head-of-line-blocked behind a cold Π";
  EXPECT_FALSE(cold_done.load(std::memory_order_acquire));
  EXPECT_EQ(pi.computes.load(), 1);

  pi.release.store(true, std::memory_order_release);
  pipeline.Drain();
  EXPECT_TRUE(cold_done.load(std::memory_order_acquire));

  const auto report = pipeline.report();
  EXPECT_EQ(report.errors, 0) << report.first_error.ToString();
  EXPECT_EQ(report.batches, kWarm + 1);
  EXPECT_EQ(report.pi_runs, 1);
  EXPECT_EQ(report.shed, 0);
  EXPECT_EQ(report.deadline_expired, 0);
  EXPECT_GT(report.preparer_busy_ns, 0);
}

// ---------------------------------------------------------------------------
// Two cold Π at once on two preparers share the fork-join pool without
// oversubscribing the cores: one holds the pool, the other runs inline.
// ---------------------------------------------------------------------------

TEST(ServePipelineTest, TwoColdPiAtOnceShareThePoolOneRunsInline) {
  // A member problem whose Π waits until the other Π is in flight too,
  // then holds one parallel::Run until some Run elsewhere went inline (the
  // other Π's, which finds the pool busy), then runs the real member Π
  // on a part above the grain.
  const uint64_t inlined_before = parallel::inlined();
  std::atomic<int> in_flight{0};
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  auto engine = MakeEngine();
  ProblemEntry entry;
  entry.name = "paired-member";
  entry.paper_anchor = "test-only";
  entry.has_language = true;
  entry.witness = core::MemberWitness();
  // The member Π is its preprocess_view (preprocess prints its result).
  entry.witness.preprocess_view =
      [&, member_pi = entry.witness.preprocess_view](
          const std::string& data,
          CostMeter* meter) -> Result<core::PiViewPtr> {
    in_flight.fetch_add(1);
    while (in_flight.load() < 2 && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    parallel::Run(4, [&](size_t) {
      while (parallel::inlined() == inlined_before &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
    });
    return member_pi(data, meter);
  };
  ASSERT_TRUE(engine->Register(std::move(entry)).ok());

  Rng rng(2014);
  std::vector<std::string> data;
  std::vector<std::vector<std::string>> queries(2);
  std::vector<std::vector<bool>> expected(2);
  for (int part = 0; part < 2; ++part) {
    std::vector<int64_t> list;
    for (int i = 0; i < (1 << 15); ++i) {
      list.push_back(static_cast<int64_t>(rng.NextBelow(1 << 16)));
    }
    data.push_back(MemberData(1 << 16, list));
    for (int q = 0; q < 64; ++q) {
      const auto value = static_cast<int64_t>(rng.NextBelow(1 << 16));
      queries[part].push_back(std::to_string(value));
      expected[part].push_back(std::find(list.begin(), list.end(), value) !=
                               list.end());
    }
  }

  PipelineOptions options;
  options.threads = 2;
  options.preparers = 2;
  ServePipeline pipeline(engine.get(), options);
  std::atomic<int> ok{0};
  for (int part = 0; part < 2; ++part) {
    ServeWorkItem item;
    item.problem = "paired-member";
    item.data = data[part];
    item.queries = queries[part];
    ASSERT_TRUE(pipeline
                    .Submit(std::move(item),
                            [&](const ItemOutcome& outcome) {
                              EXPECT_TRUE(outcome.status.ok())
                                  << outcome.status.ToString();
                              if (outcome.status.ok()) ok.fetch_add(1);
                            })
                    .ok());
  }
  pipeline.Drain();
  EXPECT_EQ(ok.load(), 2);
  EXPECT_EQ(in_flight.load(), 2);
  EXPECT_GT(parallel::inlined(), inlined_before)
      << "neither concurrent Π ran its Run inline";
  const auto report = pipeline.report();
  EXPECT_EQ(report.errors, 0) << report.first_error.ToString();
  EXPECT_EQ(report.pi_runs, 2);

  // Both payloads, built side by side, answer as the lists say.
  for (int part = 0; part < 2; ++part) {
    auto batch = engine->AnswerBatch("paired-member", data[part],
                                     queries[part]);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(batch->prepare_runs, 0);
    EXPECT_EQ(batch->answers, expected[part]) << "part " << part;
  }
}

// ---------------------------------------------------------------------------
// Deadlines: an item whose deadline passed before dequeue completes with
// DeadlineExceeded and burns no answer work.
// ---------------------------------------------------------------------------

TEST(ServePipelineTest, ExpiredDeadlineCompletesWithDeadlineExceeded) {
  auto engine = MakeEngine();
  PipelineOptions options;
  options.threads = 1;
  options.preparers = 1;
  ServePipeline pipeline(engine.get(), options);

  ServeWorkItem item;
  item.problem = "list-membership";
  item.data = MemberData(16, {1, 2});
  item.queries = {"1"};

  Status got = Status::OK();
  std::atomic<bool> done{false};
  ASSERT_TRUE(pipeline
                  .Submit(std::move(item),
                          [&](const ItemOutcome& outcome) {
                            got = outcome.status;
                            EXPECT_EQ(outcome.queries, 0);
                            done.store(true, std::memory_order_release);
                          },
                          /*client=*/0,
                          /*deadline_ns=*/MonotonicNowNanos() - 1)
                  .ok());
  pipeline.Drain();

  EXPECT_TRUE(done.load(std::memory_order_acquire));
  EXPECT_EQ(got.code(), StatusCode::kDeadlineExceeded) << got.ToString();
  const auto report = pipeline.report();
  EXPECT_EQ(report.deadline_expired, 1);
  EXPECT_EQ(report.batches, 0);
  EXPECT_EQ(report.errors, 0);
}

// ---------------------------------------------------------------------------
// Load shedding, Submit face: past queue_depth the call returns
// Unavailable synchronously and the callback never fires.
// ---------------------------------------------------------------------------

TEST(ServePipelineTest, SubmitShedsWithUnavailableWhenGlobalQueueFull) {
  auto engine = MakeEngine();
  BlockingPi pi;
  RegisterBlocking(engine.get(), &pi);

  PipelineOptions options;
  options.threads = 1;
  options.preparers = 1;
  options.queue_depth = 1;
  ServePipeline pipeline(engine.get(), options);

  // One admitted-but-incomplete item fills the depth-1 queue: it can only
  // complete once Π(base) is released, so the next Submit must shed.
  std::atomic<bool> first_done{false};
  ServeWorkItem first;
  first.problem = "blocking-echo";
  first.data = "base";
  first.queries = {"pi:base"};
  ASSERT_TRUE(pipeline
                  .Submit(std::move(first),
                          [&](const ItemOutcome& outcome) {
                            EXPECT_TRUE(outcome.status.ok());
                            first_done.store(true, std::memory_order_release);
                          })
                  .ok());

  std::atomic<bool> second_callback_ran{false};
  ServeWorkItem second;
  second.problem = "blocking-echo";
  second.data = "other";
  second.queries = {"pi:other"};
  const Status shed = pipeline.Submit(
      std::move(second),
      [&](const ItemOutcome&) { second_callback_ran.store(true); });
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable) << shed.ToString();

  pi.release.store(true, std::memory_order_release);
  pipeline.Drain();
  EXPECT_TRUE(first_done.load(std::memory_order_acquire));
  EXPECT_FALSE(second_callback_ran.load());

  const auto report = pipeline.report();
  EXPECT_EQ(report.shed, 1);
  EXPECT_EQ(report.errors, 0);  // shed items are not errors
  EXPECT_EQ(report.batches, 1);
}

TEST(ServePipelineTest, PerClientDepthShedsOnlyTheGreedyClient) {
  auto engine = MakeEngine();
  BlockingPi pi;
  RegisterBlocking(engine.get(), &pi);
  const std::string warm_data = MemberData(16, {3});
  ASSERT_TRUE(engine
                  ->AnswerBatch("list-membership", warm_data,
                                std::vector<std::string>{"3"})
                  .ok());

  PipelineOptions options;
  options.threads = 1;
  options.preparers = 1;
  options.per_client_depth = 1;
  ServePipeline pipeline(engine.get(), options);

  // Client 1 parks one cold item (incomplete until release) — at its depth.
  ServeWorkItem first;
  first.problem = "blocking-echo";
  first.data = "base";
  first.queries = {"pi:base"};
  ASSERT_TRUE(pipeline.Submit(std::move(first), nullptr, /*client=*/1).ok());

  ServeWorkItem second;
  second.problem = "list-membership";
  second.data = warm_data;
  second.queries = {"3"};
  const Status shed =
      pipeline.Submit(std::move(second), nullptr, /*client=*/1);
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);

  // A different client is admitted fine.
  std::atomic<bool> other_done{false};
  ServeWorkItem third;
  third.problem = "list-membership";
  third.data = warm_data;
  third.queries = {"3"};
  ASSERT_TRUE(pipeline
                  .Submit(std::move(third),
                          [&](const ItemOutcome& outcome) {
                            EXPECT_TRUE(outcome.status.ok());
                            other_done.store(true, std::memory_order_release);
                          },
                          /*client=*/2)
                  .ok());

  pi.release.store(true, std::memory_order_release);
  pipeline.Drain();
  EXPECT_TRUE(other_done.load(std::memory_order_acquire));
  EXPECT_EQ(pipeline.report().shed, 1);
}

// ---------------------------------------------------------------------------
// Load shedding, workload face: cold items past queue_depth are shed at
// park time (warm items never queue, so depth only gates the cold side).
// ---------------------------------------------------------------------------

TEST(ServePipelineTest, WorkloadColdItemsShedWhenPendingQueueFull) {
  auto engine = MakeEngine();
  BlockingPi pi;
  RegisterBlocking(engine.get(), &pi);

  // A pre-warmed part used as a sequencing witness below: the single
  // worker processes a claimed workload span in order, so a snapshot hit
  // on the *last* index proves the earlier cold indexes already ran.
  const std::string warm_data = MemberData(16, {5});
  ASSERT_TRUE(engine
                  ->AnswerBatch("list-membership", warm_data,
                                std::vector<std::string>{"5"})
                  .ok());
  ASSERT_EQ(engine->store().stats().hits, 0);

  PipelineOptions options;
  options.threads = 1;
  options.preparers = 1;
  options.queue_depth = 1;
  ServePipeline pipeline(engine.get(), options);

  // Occupy the pending queue: one parked cold item whose Π is held open.
  ServeWorkItem holder;
  holder.problem = "blocking-echo";
  holder.data = "base";
  holder.queries = {"pi:base"};
  ASSERT_TRUE(pipeline.Submit(std::move(holder)).ok());
  while (pi.computes.load() == 0) std::this_thread::yield();
  // parked >= 1 stays true until release: Π(base) gates the only drain.

  std::vector<ServeWorkItem> workload(3);
  workload[0].problem = "blocking-echo";
  workload[0].data = "cold-b";
  workload[0].queries = {"pi:cold-b"};
  workload[1].problem = "blocking-echo";
  workload[1].data = "cold-c";
  workload[1].queries = {"pi:cold-c"};
  workload[2].problem = "list-membership";  // the sequencing witness
  workload[2].data = warm_data;
  workload[2].queries = {"5"};
  pipeline.SubmitWorkload(workload, /*repeat=*/1);

  // The witness hit lands strictly after both cold items were shed (same
  // worker, in claim order), so Π(base) provably stayed in flight — and
  // the pending queue at depth — across both shed decisions.
  while (engine->store().stats().hits == 0) std::this_thread::yield();
  pi.release.store(true, std::memory_order_release);
  pipeline.Drain();

  const auto report = pipeline.report();
  EXPECT_EQ(report.shed, 2);         // both workload colds shed at park
  EXPECT_EQ(report.batches, 2);      // the witness and the holder answered
  EXPECT_EQ(report.pi_runs, 1);
  EXPECT_EQ(pi.computes.load(), 1);  // shed items never reached Π
  EXPECT_EQ(report.errors, 0);
}

// ---------------------------------------------------------------------------
// Version-race orphan fix: a unit addressing a data part that a Δ-patch
// re-keyed away (the exact state a parked unit wakes up to) must answer
// warm through the store's lineage resolution — not re-park, burn its
// requeues, and fall back to a blocking second Π.
// ---------------------------------------------------------------------------

TEST(ServePipelineTest, ReKeyedPartAnswersThroughLineageNotASecondPi) {
  PreparedStore::Options store_options;
  store_options.versions = 1;  // worst case: the old version is erased
  auto engine = MakeEngine(store_options);
  std::atomic<int> computes{0};
  ProblemEntry entry;
  entry.name = "echo-delta";
  entry.paper_anchor = "test-only";
  entry.has_language = true;
  entry.witness.name = "echo";
  entry.witness.preprocess = [&](const std::string& data,
                                 CostMeter*) -> Result<std::string> {
    computes.fetch_add(1);
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

  // Warm "base", then re-key it away: digest("base") now resolves only
  // through the lineage record to the patched "base+d" entry.
  ASSERT_TRUE(engine
                  ->AnswerBatch("echo-delta", "base",
                                std::vector<std::string>{"pi:base"})
                  .ok());
  auto outcome = engine->ApplyDelta("echo-delta", "base", DeltaBatch{});
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->patched);
  ASSERT_EQ(computes.load(), 1);

  PipelineOptions options;
  options.threads = 1;
  options.preparers = 1;
  ServePipeline pipeline(engine.get(), options);
  std::atomic<bool> served{false};
  ServeWorkItem item;
  item.problem = "echo-delta";
  item.data = "base";  // the pre-delta part a parked unit would still hold
  item.queries = {"pi:base+d"};
  ASSERT_TRUE(pipeline
                  .Submit(std::move(item),
                          [&](const ItemOutcome& outcome) {
                            EXPECT_TRUE(outcome.status.ok())
                                << outcome.status.ToString();
                            served.store(true, std::memory_order_release);
                          })
                  .ok());
  pipeline.Drain();
  EXPECT_TRUE(served.load(std::memory_order_acquire));

  const auto report = pipeline.report();
  EXPECT_EQ(report.errors, 0) << report.first_error.ToString();
  EXPECT_EQ(report.batches, 1);
  EXPECT_EQ(report.pi_runs, 0) << "stale unit re-ran Π instead of resolving";
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(engine->store().stats().lineage_resolves, 1);
}

// ---------------------------------------------------------------------------
// Cost-model traffic: under kAdaptive every answered item counts toward its
// part's traffic — also an item that parked on a cold part first, and one
// that degraded to the blocking fallback. Each must keep its part
// fingerprint through the park, or its queries never reach the model.
// ---------------------------------------------------------------------------

std::string ReachData(uint64_t seed) {
  Rng rng(seed);
  auto g = graph::ErdosRenyi(32, 64, /*directed=*/true, &rng);
  return core::ReachFactorization()
      .pi1(core::MakeReachInstance(g, 0, 0))
      .value();
}

const std::vector<std::string> kReachQueries = {"0#1", "3#7", "31#0", "5#5"};

std::unique_ptr<QueryEngine> MakeAdaptiveEngine() {
  auto engine = MakeEngine();
  engine->cost_model().SetPolicy(CostModel::Policy::kAdaptive);
  return engine;
}

/// Runs `item` once through a fresh pipeline's bulk face.
ServeReport RunWorkloadItem(QueryEngine* engine, const ServeWorkItem& item) {
  PipelineOptions options;
  options.threads = 1;
  options.preparers = 1;
  ServePipeline pipeline(engine, options);
  pipeline.SubmitWorkload(std::span<const ServeWorkItem>(&item, 1),
                          /*repeat=*/1);
  pipeline.Drain();
  return pipeline.report();
}

/// Runs `item` once through a fresh pipeline's Submit face.
ServeReport RunSubmittedItem(QueryEngine* engine, ServeWorkItem item,
                             int max_requeues) {
  PipelineOptions options;
  options.threads = 1;
  options.preparers = 1;
  options.max_requeues = max_requeues;
  ServePipeline pipeline(engine, options);
  EXPECT_TRUE(pipeline.Submit(std::move(item)).ok());
  pipeline.Drain();
  return pipeline.report();
}

TEST(ServePipelineTrafficTest, ParkedHandleItemCountsTowardTraffic) {
  auto engine = MakeAdaptiveEngine();
  auto handle = engine->Intern("graph-reachability", ReachData(1));
  ASSERT_TRUE(handle.ok());
  const uint64_t fp = handle->part_fingerprint;
  ServeWorkItem item;
  item.handle = std::make_shared<const DataHandle>(*handle);
  item.queries = kReachQueries;

  // Cold: the item parks, a preparer runs Π, the requeued item answers.
  ServeReport cold = RunWorkloadItem(engine.get(), item);
  ASSERT_EQ(cold.errors, 0) << cold.first_error.ToString();
  ASSERT_EQ(cold.pi_runs, 1);
  ASSERT_EQ(cold.batches, 1);
  EXPECT_EQ(engine->cost_model().TrafficFor(fp), 4);

  // Warm: answered on the fast path, same count.
  ServeReport warm = RunWorkloadItem(engine.get(), item);
  ASSERT_EQ(warm.errors, 0) << warm.first_error.ToString();
  ASSERT_EQ(warm.pi_runs, 0);
  EXPECT_EQ(engine->cost_model().TrafficFor(fp), 8);

  // Submit face: a parked handle item on a fresh part counts too.
  auto other = engine->Intern("graph-reachability", ReachData(2));
  ASSERT_TRUE(other.ok());
  ServeWorkItem submitted;
  submitted.handle = std::make_shared<const DataHandle>(*other);
  submitted.queries = kReachQueries;
  ServeReport parked =
      RunSubmittedItem(engine.get(), std::move(submitted), /*max_requeues=*/2);
  ASSERT_EQ(parked.errors, 0) << parked.first_error.ToString();
  ASSERT_EQ(parked.pi_runs, 1);
  EXPECT_EQ(engine->cost_model().TrafficFor(other->part_fingerprint), 4);
}

TEST(ServePipelineTrafficTest, ParkedStringItemCountsTowardTraffic) {
  auto engine = MakeAdaptiveEngine();
  ServeWorkItem item;
  item.problem = "graph-reachability";
  item.data = ReachData(3);
  item.queries = kReachQueries;
  ServeReport cold = RunWorkloadItem(engine.get(), item);
  ASSERT_EQ(cold.errors, 0) << cold.first_error.ToString();
  ASSERT_EQ(cold.pi_runs, 1);
  ASSERT_EQ(cold.batches, 1);
  EXPECT_EQ(
      engine->cost_model().TrafficFor(QueryEngine::PartFingerprint(item.data)),
      4);
}

TEST(ServePipelineTrafficTest, BlockingFallbackAnswersAndCountsStringItems) {
  // max_requeues = 0: a cold submitted item skips the park and answers on
  // the blocking path at once.
  auto engine = MakeAdaptiveEngine();
  ServeWorkItem item;
  item.problem = "graph-reachability";
  item.data = ReachData(4);
  item.queries = kReachQueries;
  const uint64_t fp = QueryEngine::PartFingerprint(item.data);
  ServeReport report =
      RunSubmittedItem(engine.get(), std::move(item), /*max_requeues=*/0);
  EXPECT_EQ(report.errors, 0) << report.first_error.ToString();
  EXPECT_EQ(report.batches, 1);
  EXPECT_EQ(report.pi_runs, 1);
  EXPECT_EQ(engine->cost_model().TrafficFor(fp), 4);
}

// ---------------------------------------------------------------------------
// The observability blobs: one key per field, every value round-trips.
// ---------------------------------------------------------------------------

/// Parses a flat {"key":int,...} object; fails the test on anything else.
std::map<std::string, int64_t> ParseFlatJson(const std::string& json) {
  std::map<std::string, int64_t> fields;
  EXPECT_GE(json.size(), 2u);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  size_t pos = 1;
  while (pos + 1 < json.size()) {
    EXPECT_EQ(json[pos], '"') << json;
    const size_t end = json.find('"', pos + 1);
    EXPECT_NE(end, std::string::npos) << json;
    EXPECT_EQ(json[end + 1], ':') << json;
    const std::string key = json.substr(pos + 1, end - pos - 1);
    size_t value_end = json.find_first_of(",}", end + 2);
    EXPECT_TRUE(fields.emplace(key, std::stoll(json.substr(
                                        end + 2, value_end - end - 2)))
                    .second)
        << "duplicate key " << key;
    pos = value_end + 1;
  }
  return fields;
}

TEST(ReportJsonTest, ServeReportBlobHasOneKeyPerField) {
  ServeReport report;
  report.batches = 1;
  report.queries = 2;
  report.pi_runs = 3;
  report.cache_hits = 4;
  report.kernel_batches = 5;
  report.answer_bytes_read = 6;
  report.errors = 7;
  report.prepare_cost = Cost{8, 9};
  report.answer_cost = Cost{10, 11};
  report.threads = 12;
  report.deadline_expired = 13;
  report.shed = 14;
  report.queue_depth_max = 15;
  report.preparer_busy_ns = 16;
  report.preparers = 17;
  report.pi_failures = 18;
  report.pi_retries = 19;
  report.quarantined = 20;
  const std::map<std::string, int64_t> want = {
      {"batches", 1},         {"queries", 2},
      {"pi_runs", 3},         {"cache_hits", 4},
      {"kernel_batches", 5},  {"answer_bytes_read", 6},
      {"errors", 7},          {"prepare_work", 8},
      {"prepare_depth", 9},   {"answer_work", 10},
      {"answer_depth", 11},   {"threads", 12},
      {"deadline_expired", 13}, {"shed", 14},
      {"queue_depth_max", 15}, {"preparer_busy_ns", 16},
      {"preparers", 17},      {"pi_failures", 18},
      {"pi_retries", 19},     {"quarantined", 20},
  };
  const auto got = ParseFlatJson(report.ToJson());
  EXPECT_EQ(got, want);
  // Wall-clock rates belong to the caller's clock, not to the report.
  EXPECT_EQ(got.count("wall_seconds"), 0u);
  EXPECT_EQ(got.count("queries_per_second"), 0u);
}

TEST(ReportJsonTest, StoreStatsBlobHasOneKeyPerField) {
  PreparedStore::Stats stats;
  stats.hits = 1;
  stats.misses = 2;
  stats.evictions = 3;
  stats.inflight_waits = 4;
  stats.spilled = 5;
  stats.loaded = 6;
  stats.patches = 7;
  stats.patch_fallbacks = 8;
  stats.key_builds = 9;
  stats.view_builds = 10;
  stats.locked_hits = 11;
  stats.update_retries = 12;
  stats.lineage_resolves = 13;
  stats.respill_failures = 14;
  stats.load_skipped = 15;
  stats.load_corrupt = 16;
  stats.view_demotions = 17;
  stats.cold_demotions = 18;
  stats.cold_promotions = 19;
  stats.payload_encodes = 20;
  const std::map<std::string, int64_t> want = {
      {"hits", 1},           {"misses", 2},
      {"evictions", 3},      {"inflight_waits", 4},
      {"spilled", 5},        {"loaded", 6},
      {"patches", 7},        {"patch_fallbacks", 8},
      {"key_builds", 9},     {"view_builds", 10},
      {"locked_hits", 11},   {"update_retries", 12},
      {"lineage_resolves", 13}, {"respill_failures", 14},
      {"load_skipped", 15},  {"load_corrupt", 16},
      {"view_demotions", 17}, {"cold_demotions", 18},
      {"cold_promotions", 19}, {"payload_encodes", 20},
  };
  EXPECT_EQ(ParseFlatJson(stats.ToJson()), want);
}

// ---------------------------------------------------------------------------
// TSan suite: submitters racing the bulk-workload cursor, the preparer
// pool, and byte-budget eviction (entries get evicted between publish and
// requeue, exercising the max_requeues fallback) — every admitted item
// must complete exactly once with no data race.
// ---------------------------------------------------------------------------

TEST(ServePipelineStressTest, SubmittersRacePreparersAndEviction) {
  PreparedStore::Options store_options;
  store_options.shards = 4;
  store_options.byte_budget = 4096;  // small: constant eviction pressure
  auto engine = MakeEngine(store_options);

  constexpr int kParts = 8;
  constexpr int kSubmitters = 3;
  constexpr int kItemsPerSubmitter = 48;
  Rng rng(2718);
  std::vector<std::string> parts;
  std::vector<std::string> queries;
  for (int p = 0; p < kParts; ++p) {
    std::vector<int64_t> list;
    for (int i = 0; i < 128; ++i) {
      list.push_back(static_cast<int64_t>(rng.NextBelow(512)));
    }
    parts.push_back(MemberData(512, list));
  }
  for (int q = 0; q < 8; ++q) {
    queries.push_back(std::to_string(rng.NextBelow(512)));
  }

  PipelineOptions options;
  options.threads = 3;
  options.preparers = 2;
  ServePipeline pipeline(engine.get(), options);

  // The bulk face races the Submit face: same pipeline, same store.
  std::vector<ServeWorkItem> workload;
  for (int i = 0; i < 16; ++i) {
    ServeWorkItem item;
    item.problem = "list-membership";
    item.data = parts[static_cast<size_t>(i) % kParts];
    item.queries = queries;
    workload.push_back(std::move(item));
  }
  pipeline.SubmitWorkload(workload, /*repeat=*/4);

  std::atomic<int64_t> completed_ok{0};
  std::atomic<int64_t> completed_err{0};
  std::atomic<int64_t> admitted{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      Rng local(static_cast<uint64_t>(s) * 7919 + 1);
      for (int i = 0; i < kItemsPerSubmitter; ++i) {
        ServeWorkItem item;
        item.problem = "list-membership";
        item.data =
            parts[static_cast<size_t>(local.NextZipf(kParts, /*theta=*/0.99))];
        item.queries = queries;
        const auto status = pipeline.Submit(
            std::move(item), [&](const ItemOutcome& outcome) {
              (outcome.status.ok() ? completed_ok : completed_err)
                  .fetch_add(1);
            });
        ASSERT_TRUE(status.ok()) << status.ToString();  // no depth: no shed
        admitted.fetch_add(1);
      }
    });
  }
  for (auto& t : submitters) t.join();
  pipeline.Drain();

  EXPECT_EQ(completed_err.load(), 0);
  EXPECT_EQ(completed_ok.load(), admitted.load());
  const auto report = pipeline.report();
  EXPECT_EQ(report.errors, 0) << report.first_error.ToString();
  EXPECT_EQ(report.batches,
            admitted.load() + static_cast<int64_t>(workload.size()) * 4);
  EXPECT_EQ(report.shed, 0);
  // Eviction re-runs Π, so pi_runs >= the distinct-part floor — but every
  // run must have been charged through a preparer or the bounded fallback.
  EXPECT_GE(report.pi_runs, kParts);
}

}  // namespace
}  // namespace engine
}  // namespace pitract
