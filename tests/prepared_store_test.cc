#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/serde.h"
#include "core/problems.h"
#include "engine/builtins.h"
#include "engine/engine.h"
#include "engine/pipeline.h"
#include "engine/prepared_store.h"
#include "engine/serve.h"

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

std::vector<int64_t> RandomList(Rng* rng, int64_t universe, int count) {
  std::vector<int64_t> list;
  for (int i = 0; i < count; ++i) {
    list.push_back(
        static_cast<int64_t>(rng->NextBelow(static_cast<uint64_t>(universe))));
  }
  return list;
}

// ---------------------------------------------------------------------------
// In-flight Π deduplication: a concurrent miss storm runs Π exactly once.
// ---------------------------------------------------------------------------

TEST(PreparedStoreConcurrencyTest, MissStormRunsComputeExactlyOnce) {
  PreparedStore::Options options;
  options.shards = 8;
  PreparedStore store(options);

  constexpr int kThreads = 8;
  std::atomic<int> computes{0};
  std::atomic<int> started{0};
  auto compute = [&computes, &started](CostMeter* meter) -> Result<std::string> {
    ++computes;
    // Hold Π open until every thread has had the chance to miss, so the
    // storm genuinely contends instead of serializing by accident.
    while (started.load() < kThreads) {
      std::this_thread::yield();
    }
    if (meter != nullptr) meter->AddSerial(1000);
    return std::string("prepared-payload");
  };

  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const std::string>> results(kThreads);
  CostMeter meter;  // shared: atomic counters make concurrent charges safe
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ++started;
      auto result = store.GetOrCompute("p", "w", "same-data", compute, &meter);
      ASSERT_TRUE(result.ok());
      results[static_cast<size_t>(t)] = *result;
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(computes.load(), 1);  // Π executed exactly once
  for (const auto& result : results) {
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(*result, "prepared-payload");
  }
  auto stats = store.stats();
  EXPECT_EQ(stats.misses, 1);
  // Every non-winner was served without running Π — either by blocking on
  // the in-flight shared_future or (if it arrived late) by a plain hit.
  EXPECT_EQ(stats.hits, kThreads - 1);
  EXPECT_LE(stats.inflight_waits, kThreads - 1);
  // CostMeter-verified: Π's work was charged once; everyone else paid a
  // single probe op.
  EXPECT_EQ(meter.work(), 1000 + (kThreads - 1));
  EXPECT_EQ(store.size(), 1u);
}

TEST(PreparedStoreConcurrencyTest, FailedComputeIsSharedAndRetriable) {
  PreparedStore store;
  std::atomic<int> computes{0};
  auto failing = [&computes](CostMeter*) -> Result<std::string> {
    ++computes;
    return Status::Internal("Π exploded");
  };
  auto result = store.GetOrCompute("p", "w", "d", failing);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_FALSE(store.Contains("p", "w", "d"));
  // The failure is not cached: the next call recomputes (and may succeed).
  auto ok = store.GetOrCompute(
      "p", "w", "d", [](CostMeter*) -> Result<std::string> {
        return std::string("fine");
      });
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(computes.load(), 1);
}

TEST(PreparedStoreConcurrencyTest, ThrowingComputeDoesNotLeakInflightSlot) {
  PreparedStore store;
  auto throwing = [](CostMeter*) -> Result<std::string> {
    throw std::runtime_error("bad_alloc stand-in");
  };
  auto result = store.GetOrCompute("p", "w", "d", throwing);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  // The unwind released the in-flight slot: the key is retriable, not
  // deadlocked behind a promise nobody will fulfill.
  auto retry = store.GetOrCompute(
      "p", "w", "d",
      [](CostMeter*) -> Result<std::string> { return std::string("fine"); });
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(**retry, "fine");
}

TEST(PreparedStoreConcurrencyTest, DistinctKeysProceedInParallelShards) {
  PreparedStore::Options options;
  options.shards = 8;
  PreparedStore store(options);
  constexpr int kThreads = 8;
  std::atomic<int> computes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &computes, t] {
      auto result = store.GetOrCompute(
          "p", "w", "data-" + std::to_string(t),
          [&computes](CostMeter*) -> Result<std::string> {
            ++computes;
            return std::string("x");
          });
      ASSERT_TRUE(result.ok());
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(computes.load(), kThreads);
  EXPECT_EQ(store.size(), static_cast<size_t>(kThreads));
  EXPECT_EQ(store.stats().misses, kThreads);
}

// ---------------------------------------------------------------------------
// UpdateData: Δ-patching a resident entry in place.
// ---------------------------------------------------------------------------

TEST(PreparedStoreUpdateTest, PatchReKeysEntryAndFixesAccounting) {
  PreparedStore::Options options;
  options.shards = 4;
  PreparedStore store(options);
  ASSERT_TRUE(store
                  .GetOrCompute("p", "w", "old-data",
                                [](CostMeter*) -> Result<std::string> {
                                  return std::string("payload-v1");
                                })
                  .ok());
  const size_t bytes_before = store.bytes_resident();

  CostMeter meter;
  auto status = store.UpdateData(
      "p", "w", "old-data", "new-data!",
      [](std::string* prepared, CostMeter* m) {
        *prepared += "+delta";
        if (m != nullptr) m->AddSerial(3);
        return Status::OK();
      },
      &meter);
  ASSERT_TRUE(status.ok()) << status.ToString();

  // Re-keyed: the old data part no longer counts as current (it is
  // retained for pinned readers under the default two-version window, so
  // size() still sees it), and the new one serves the patched payload
  // without running Π.
  EXPECT_FALSE(store.Contains("p", "w", "old-data"));
  EXPECT_TRUE(store.Contains("p", "w", "new-data!"));
  EXPECT_EQ(store.size(), 2u);
  bool hit = false;
  auto patched = store.GetOrCompute(
      "p", "w", "new-data!",
      [](CostMeter*) -> Result<std::string> {
        return Status::Internal("Π must not run on a patched entry");
      },
      nullptr, &hit);
  ASSERT_TRUE(patched.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(**patched, "payload-v1+delta");
  // Both versions stay accounted: the retained v1 plus the patched v2,
  // whose payload (+6) and key (+1) grew past the original.
  EXPECT_EQ(store.bytes_resident(), 2 * bytes_before + 7);
  EXPECT_EQ(meter.work(), 1 + 3);  // digest probe + the patch's charges
  EXPECT_EQ(store.stats().patches, 1);
  EXPECT_EQ(store.stats().patch_fallbacks, 0);
}

TEST(PreparedStoreUpdateTest, RetainsVersionWindowTrimsAndResolvesLineage) {
  PreparedStore::Options options;
  options.shards = 4;
  options.versions = 2;
  PreparedStore store(options);
  ASSERT_TRUE(store
                  .GetOrCompute("p", "w", "d0",
                                [](CostMeter*) -> Result<std::string> {
                                  return std::string("v0");
                                })
                  .ok());
  auto bump = [&](const std::string& from, const std::string& to,
                  const std::string& suffix) {
    return store.UpdateData("p", "w", from, to,
                            [&suffix](std::string* prepared, CostMeter*) {
                              *prepared += suffix;
                              return Status::OK();
                            });
  };

  ASSERT_TRUE(bump("d0", "d1", "+1").ok());
  EXPECT_EQ(store.size(), 2u);  // the v1 head plus the retained v0
  ASSERT_TRUE(bump("d1", "d2", "+2").ok());
  EXPECT_EQ(store.size(), 2u);  // v2 + v1: the window trimmed v0
  EXPECT_EQ(store.stats().evictions, 1);

  // Only the head counts as current; the retained predecessor is
  // digest-addressable but invisible to Contains.
  EXPECT_TRUE(store.Contains("p", "w", "d2"));
  EXPECT_FALSE(store.Contains("p", "w", "d1"));
  EXPECT_FALSE(store.Contains("p", "w", "d0"));

  // A reader pinned on the retained v1 keeps getting exactly v1's Π.
  PreparedStore::Key k1 = store.BuildKeyCounted("p", "w", "d1");
  PreparedStore::PreparedView view;
  ASSERT_TRUE(store.TryGetView(k1, PreparedStore::EntryOptions{}, nullptr,
                               &view));
  EXPECT_EQ(*view.prepared, "v0+1");
  EXPECT_EQ(store.stats().lineage_resolves, 0);

  // A reader pinned on the trimmed v0 resolves forward to the first
  // resident successor (v1) instead of going cold.
  PreparedStore::Key k0 = store.BuildKeyCounted("p", "w", "d0");
  ASSERT_TRUE(store.TryGetView(k0, PreparedStore::EntryOptions{}, nullptr,
                               &view));
  EXPECT_EQ(*view.prepared, "v0+1");
  EXPECT_EQ(store.stats().lineage_resolves, 1);

  // The retained v1 must not accept a second delta: the lineage has one
  // successor per version, never a fork.
  auto forked = bump("d1", "d9", "+X");
  EXPECT_FALSE(forked.ok());
  EXPECT_EQ(store.stats().patch_fallbacks, 1);
  EXPECT_FALSE(store.Contains("p", "w", "d9"));
}

TEST(PreparedStoreUpdateTest, SingleVersionStoreStillForwardsStaleReaders) {
  PreparedStore::Options options;
  options.shards = 4;
  options.versions = 1;  // PR-6 behavior: the old entry is erased outright
  PreparedStore store(options);
  ASSERT_TRUE(store
                  .GetOrCompute("p", "w", "d0",
                                [](CostMeter*) -> Result<std::string> {
                                  return std::string("v0");
                                })
                  .ok());
  ASSERT_TRUE(store
                  .UpdateData("p", "w", "d0", "d1",
                              [](std::string* prepared, CostMeter*) {
                                *prepared += "+1";
                                return Status::OK();
                              })
                  .ok());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_FALSE(store.Contains("p", "w", "d0"));

  // Even without retention the lineage record forwards a stale reader to
  // the successor — the one consistent Π that still exists.
  PreparedStore::Key k0 = store.BuildKeyCounted("p", "w", "d0");
  PreparedStore::PreparedView view;
  ASSERT_TRUE(store.TryGetView(k0, PreparedStore::EntryOptions{}, nullptr,
                               &view));
  EXPECT_EQ(*view.prepared, "v0+1");
  EXPECT_EQ(store.stats().lineage_resolves, 1);
}

TEST(PreparedStoreUpdateTest, MissingEntryAndFailingPatchFallBack) {
  PreparedStore store;
  auto noop = [](std::string*, CostMeter*) { return Status::OK(); };
  auto missing = store.UpdateData("p", "w", "never-inserted", "next", noop);
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);

  ASSERT_TRUE(store
                  .GetOrCompute("p", "w", "d",
                                [](CostMeter*) -> Result<std::string> {
                                  return std::string("v1");
                                })
                  .ok());
  auto failing = store.UpdateData(
      "p", "w", "d", "d2",
      [](std::string* prepared, CostMeter*) {
        *prepared = "half-written garbage";
        return Status::Internal("patch exploded");
      });
  EXPECT_EQ(failing.code(), StatusCode::kInternal);
  // The failed patch worked on a private copy: the resident entry still
  // serves the pre-delta payload under the pre-delta key.
  EXPECT_TRUE(store.Contains("p", "w", "d"));
  EXPECT_FALSE(store.Contains("p", "w", "d2"));
  bool hit = false;
  auto intact = store.GetOrCompute(
      "p", "w", "d",
      [](CostMeter*) -> Result<std::string> { return std::string("nope"); },
      nullptr, &hit);
  ASSERT_TRUE(intact.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(**intact, "v1");
  EXPECT_EQ(store.stats().patch_fallbacks, 2);
  EXPECT_EQ(store.stats().patches, 0);
}

TEST(PreparedStoreUpdateTest, PatchRespillsUnderTheNewDigest) {
  const std::string dir = UniqueTempDir("patch_respill");
  PreparedStore store;
  ASSERT_TRUE(store
                  .GetOrCompute("p", "w", "v1",
                                [](CostMeter*) -> Result<std::string> {
                                  return std::string("pi-of-v1");
                                })
                  .ok());
  ASSERT_TRUE(store.Spill(dir).ok());
  ASSERT_TRUE(store
                  .UpdateData("p", "w", "v1", "v2",
                              [](std::string* prepared, CostMeter*) {
                                *prepared = "pi-of-v2";
                                return Status::OK();
                              })
                  .ok());
  // A restarted store sees exactly the post-delta world: the patched
  // entry under its new digest, no resurrected pre-delta file.
  PreparedStore restarted;
  auto loaded = restarted.Load(dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, 1u);
  EXPECT_TRUE(restarted.Contains("p", "w", "v2"));
  EXPECT_FALSE(restarted.Contains("p", "w", "v1"));
  bool hit = false;
  auto entry = restarted.GetOrCompute(
      "p", "w", "v2",
      [](CostMeter*) -> Result<std::string> { return std::string("nope"); },
      nullptr, &hit);
  ASSERT_TRUE(entry.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(**entry, "pi-of-v2");
  fs::remove_all(dir);
}

// The miss-storm interleaving: an ApplyDelta racing an in-flight Π for
// the same data part must never re-key the entry out from under the
// waiters blocked on the shared_future. Since PR 5 UpdateData does not
// degrade immediately either: it blocks on the storm's shared_future once
// and retries, so the delta patches exactly what the storm publishes
// (Stats::update_retries counts the wait).
TEST(PreparedStoreUpdateTest, InflightMissStormDeltaWaitsThenPatches) {
  PreparedStore::Options options;
  options.shards = 4;
  PreparedStore store(options);

  constexpr int kWaiters = 4;
  std::atomic<int> arrived{0};
  std::atomic<bool> release{false};
  auto blocking_compute = [&](CostMeter*) -> Result<std::string> {
    ++arrived;
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    return std::string("pi-of-old");
  };

  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const std::string>> results(kWaiters);
  for (int t = 0; t < kWaiters; ++t) {
    threads.emplace_back([&, t] {
      auto result =
          store.GetOrCompute("p", "w", "storm-data", blocking_compute);
      ASSERT_TRUE(result.ok());
      results[static_cast<size_t>(t)] = *result;
    });
  }
  // Wait until the winner is inside Π (the storm is in flight for real).
  while (arrived.load() == 0) std::this_thread::yield();

  std::atomic<bool> update_done{false};
  Status status = Status::Internal("UpdateData did not run");
  std::thread updater([&] {
    status = store.UpdateData("p", "w", "storm-data", "storm-data-v2",
                              [](std::string* prepared, CostMeter*) {
                                EXPECT_EQ(*prepared, "pi-of-old");
                                *prepared = "patched";
                                return Status::OK();
                              });
    update_done.store(true, std::memory_order_release);
  });

  // The delta must block on the storm, not fall back while it is in
  // flight (the pre-PR-5 behavior returned Unavailable here). The retry
  // counter ticks *before* the wait, so polling it proves the updater is
  // parked on the shared_future.
  while (store.stats().update_retries == 0) std::this_thread::yield();
  EXPECT_FALSE(update_done.load(std::memory_order_acquire));
  EXPECT_EQ(store.stats().patch_fallbacks, 0);

  release.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  updater.join();

  // The retry patched what the storm published and re-keyed it.
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(store.stats().update_retries, 1);
  EXPECT_EQ(store.stats().patches, 1);
  EXPECT_EQ(store.stats().patch_fallbacks, 0);
  EXPECT_FALSE(store.Contains("p", "w", "storm-data"));
  EXPECT_TRUE(store.Contains("p", "w", "storm-data-v2"));

  // Every waiter on the shared_future still got the *pre-delta* Π — the
  // re-key replaced the entry, it never mutated the published payload.
  for (const auto& result : results) {
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(*result, "pi-of-old");
  }
}

// When the storm UpdateData waited out *fails* its Π, the retry finds no
// resident entry and the delta degrades to recompute-on-miss (NotFound),
// still counting the retry.
TEST(PreparedStoreUpdateTest, RetryAfterFailedStormFallsBackToNotFound) {
  PreparedStore::Options options;
  options.shards = 4;
  PreparedStore store(options);

  std::atomic<bool> release{false};
  std::atomic<int> arrived{0};
  std::thread loser([&] {
    auto result = store.GetOrCompute(
        "p", "w", "doomed", [&](CostMeter*) -> Result<std::string> {
          ++arrived;
          while (!release.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
          return Status::Internal("Π failed");
        });
    EXPECT_FALSE(result.ok());
  });
  while (arrived.load() == 0) std::this_thread::yield();

  std::thread updater([&] {
    auto status = store.UpdateData("p", "w", "doomed", "doomed-v2",
                                   [](std::string* prepared, CostMeter*) {
                                     *prepared = "patched";
                                     return Status::OK();
                                   });
    EXPECT_EQ(status.code(), StatusCode::kNotFound);
  });
  // Only release the (failing) storm once the updater is provably parked
  // on its shared_future, so the retry is deterministic.
  while (store.stats().update_retries == 0) std::this_thread::yield();
  release.store(true, std::memory_order_release);
  loser.join();
  updater.join();

  EXPECT_EQ(store.stats().update_retries, 1);
  EXPECT_EQ(store.stats().patches, 0);
  EXPECT_EQ(store.stats().patch_fallbacks, 1);
  EXPECT_FALSE(store.Contains("p", "w", "doomed"));
  EXPECT_FALSE(store.Contains("p", "w", "doomed-v2"));
}

// ---------------------------------------------------------------------------
// Byte-budgeted eviction.
// ---------------------------------------------------------------------------

TEST(PreparedStoreEvictionTest, ByteBudgetEvictsLruFirst) {
  PreparedStore::Options options;
  options.shards = 4;
  options.byte_budget = 250;
  PreparedStore store(options);
  PreparedStore::EntryOptions entry_options;
  entry_options.size_of = [](const std::string&) -> size_t { return 100; };
  auto compute = [](CostMeter*) -> Result<std::string> {
    return std::string("payload");
  };

  ASSERT_TRUE(
      store.GetOrCompute("p", "w", "a", compute, nullptr, nullptr, entry_options)
          .ok());
  ASSERT_TRUE(
      store.GetOrCompute("p", "w", "b", compute, nullptr, nullptr, entry_options)
          .ok());
  // Touch "a" so "b" becomes the LRU entry.
  bool hit = false;
  ASSERT_TRUE(
      store.GetOrCompute("p", "w", "a", compute, nullptr, &hit, entry_options)
          .ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(store.bytes_resident(), 200u);

  // A third 100-byte entry overflows the 250-byte budget: LRU ("b") goes.
  ASSERT_TRUE(
      store.GetOrCompute("p", "w", "c", compute, nullptr, nullptr, entry_options)
          .ok());
  EXPECT_LE(store.bytes_resident(), 250u);
  EXPECT_FALSE(store.Contains("p", "w", "b"));
  EXPECT_TRUE(store.Contains("p", "w", "a"));
  EXPECT_TRUE(store.Contains("p", "w", "c"));
  EXPECT_EQ(store.stats().evictions, 1);
}

TEST(PreparedStoreEvictionTest, DefaultSizeTracksPayloadAndKeyBytes) {
  PreparedStore::Options options;
  options.byte_budget = 0;  // unbounded; just check the accounting
  PreparedStore store(options);
  ASSERT_TRUE(store
                  .GetOrCompute("p", "w", "d",
                                [](CostMeter*) -> Result<std::string> {
                                  return std::string(100, 'x');
                                })
                  .ok());
  // key "p\x1fw\x1fd" (5) + payload (100) + the fixed per-entry overhead.
  EXPECT_EQ(store.bytes_resident(),
            105u + PreparedStore::kEntryOverheadBytes);
}

TEST(PreparedStoreEvictionTest, EntryCapStillEnforced) {
  PreparedStore store(/*max_entries=*/2);
  auto compute = [](CostMeter*) -> Result<std::string> {
    return std::string("x");
  };
  for (const char* data : {"a", "b", "c", "d"}) {
    ASSERT_TRUE(store.GetOrCompute("p", "w", data, compute).ok());
  }
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.stats().evictions, 2);
  EXPECT_TRUE(store.Contains("p", "w", "d"));
}

// The CLOCK second-chance bit: a hit arms an entry's `referenced` bit, and
// the next eviction sweep consumes it instead of evicting the entry — so
// an entry that was *hit* survives one that was merely *inserted later*,
// which pure recency stamps would get backwards. The hit-rate can only
// improve: hot entries stay resident one sweep longer.
TEST(PreparedStoreEvictionTest, ClockSecondChanceSparesHitEntriesOverNewerColdOnes) {
  PreparedStore store(/*max_entries=*/2);
  std::atomic<int> computes{0};
  auto compute = [&computes](CostMeter*) -> Result<std::string> {
    ++computes;
    return std::string("x");
  };

  ASSERT_TRUE(store.GetOrCompute("p", "w", "a", compute).ok());
  bool hit = false;
  ASSERT_TRUE(store.GetOrCompute("p", "w", "a", compute, nullptr, &hit).ok());
  EXPECT_TRUE(hit);  // arms "a"'s second-chance bit
  ASSERT_TRUE(store.GetOrCompute("p", "w", "b", compute).ok());

  // Over cap: "b" has the newest stamp but no second chance, "a" has an
  // older stamp but was hit. Stamp-only LRU would evict "a"; CLOCK spares
  // it and takes "b".
  ASSERT_TRUE(store.GetOrCompute("p", "w", "c", compute).ok());
  EXPECT_TRUE(store.Contains("p", "w", "a"));
  EXPECT_FALSE(store.Contains("p", "w", "b"));
  EXPECT_TRUE(store.Contains("p", "w", "c"));
  EXPECT_EQ(store.stats().evictions, 1);

  // Hit-rate no worse: the spared entry still answers warm (Π not re-run),
  // and the hit re-arms its bit for the next sweep.
  hit = false;
  ASSERT_TRUE(store.GetOrCompute("p", "w", "a", compute, nullptr, &hit).ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(computes.load(), 3);  // a, b, c — never a recompute of "a"

  // Re-armed: "a" survives the next sweep too ("c" goes, never hit).
  ASSERT_TRUE(store.GetOrCompute("p", "w", "d", compute).ok());
  EXPECT_TRUE(store.Contains("p", "w", "a"));
  EXPECT_FALSE(store.Contains("p", "w", "c"));

  // The bit is one-shot: that sweep consumed "a"'s chance, so without a
  // fresh hit it is back to plain stamp order. Touch "d" into a newer
  // epoch (recency stamps are per-epoch, and "a"'s last hit tied "d"'s
  // insert epoch), and the next sweep takes "a" — its historical hits no
  // longer protect it.
  hit = false;
  ASSERT_TRUE(store.GetOrCompute("p", "w", "d", compute, nullptr, &hit).ok());
  EXPECT_TRUE(hit);
  ASSERT_TRUE(store.GetOrCompute("p", "w", "e", compute).ok());
  EXPECT_FALSE(store.Contains("p", "w", "a"));
  EXPECT_TRUE(store.Contains("p", "w", "d"));
  EXPECT_TRUE(store.Contains("p", "w", "e"));
}

// ---------------------------------------------------------------------------
// Spill / Load persistence.
// ---------------------------------------------------------------------------

TEST(PreparedStorePersistenceTest, SpillLoadRoundTripsBitForBit) {
  const std::string dir = UniqueTempDir("spill");
  PreparedStore store;
  const std::string payload_a = "sorted:1,2,3";
  std::string payload_b(1024, '\x7f');
  payload_b[17] = '\0';  // binary-safe round trip, not text-safe only
  ASSERT_TRUE(store
                  .GetOrCompute("prob-a", "wit", "data-a",
                                [&](CostMeter*) -> Result<std::string> {
                                  return payload_a;
                                })
                  .ok());
  ASSERT_TRUE(store
                  .GetOrCompute("prob-b", "wit", "data-b",
                                [&](CostMeter*) -> Result<std::string> {
                                  return payload_b;
                                })
                  .ok());
  // A non-spillable entry must stay out of the spill set.
  PreparedStore::EntryOptions ephemeral;
  ephemeral.spillable = false;
  ASSERT_TRUE(store
                  .GetOrCompute("prob-c", "wit", "data-c",
                                [](CostMeter*) -> Result<std::string> {
                                  return std::string("transient");
                                },
                                nullptr, nullptr, ephemeral)
                  .ok());
  ASSERT_TRUE(store.Spill(dir).ok());
  EXPECT_EQ(store.stats().spilled, 2);

  PreparedStore restarted;
  auto loaded = restarted.Load(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 2u);
  EXPECT_TRUE(restarted.Contains("prob-a", "wit", "data-a"));
  EXPECT_TRUE(restarted.Contains("prob-b", "wit", "data-b"));
  EXPECT_FALSE(restarted.Contains("prob-c", "wit", "data-c"));

  // Warm entries serve without recomputing, bit-for-bit.
  std::atomic<int> recomputes{0};
  auto must_not_run = [&recomputes](CostMeter*) -> Result<std::string> {
    ++recomputes;
    return std::string("recomputed");
  };
  bool hit = false;
  auto a = restarted.GetOrCompute("prob-a", "wit", "data-a", must_not_run,
                                  nullptr, &hit);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(**a, payload_a);
  auto b = restarted.GetOrCompute("prob-b", "wit", "data-b", must_not_run,
                                  nullptr, &hit);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(**b, payload_b);
  EXPECT_EQ(recomputes.load(), 0);
  // The non-spillable entry degrades to recompute-on-miss.
  auto c = restarted.GetOrCompute("prob-c", "wit", "data-c", must_not_run,
                                  nullptr, &hit);
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(recomputes.load(), 1);
  fs::remove_all(dir);
}

TEST(PreparedStorePersistenceTest, RespillDropsStaleFilesFromEarlierSpills) {
  const std::string dir = UniqueTempDir("respill");
  auto compute = [](CostMeter*) -> Result<std::string> {
    return std::string("x");
  };
  {
    PreparedStore store;
    ASSERT_TRUE(store.GetOrCompute("p", "w", "old", compute).ok());
    ASSERT_TRUE(store.GetOrCompute("p", "w", "kept", compute).ok());
    ASSERT_TRUE(store.Spill(dir).ok());
  }
  {
    // A later engine generation no longer holds "old" (evicted, say):
    // spilling to the same directory must not leave its file behind for
    // Load to resurrect.
    PreparedStore store;
    ASSERT_TRUE(store.GetOrCompute("p", "w", "kept", compute).ok());
    ASSERT_TRUE(store.Spill(dir).ok());
  }
  PreparedStore restarted;
  auto loaded = restarted.Load(dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, 1u);
  EXPECT_TRUE(restarted.Contains("p", "w", "kept"));
  EXPECT_FALSE(restarted.Contains("p", "w", "old"));
  fs::remove_all(dir);
}

// Satellite of the version-race fix: after a Δ-patch re-keys an entry,
// the spill directory must hold exactly the post-delta head, and loading
// that directory back into the *live* store must not clobber the resident
// MVCC lineage (the resident entry carries the superseded/predecessor
// metadata the on-disk frame does not).
TEST(PreparedStorePersistenceTest, LoadAfterRespillSkipsResidentHead) {
  const std::string dir = UniqueTempDir("load_respill");
  PreparedStore store;
  ASSERT_TRUE(store
                  .GetOrCompute("p", "w", "d0",
                                [](CostMeter*) -> Result<std::string> {
                                  return std::string("v0");
                                })
                  .ok());
  ASSERT_TRUE(store.Spill(dir).ok());
  ASSERT_TRUE(store
                  .UpdateData("p", "w", "d0", "d1",
                              [](std::string* prepared, CostMeter*) {
                                prepared->append("+1");
                                return Status::OK();
                              })
                  .ok());
  // The respill rewrote the directory: one file for the new head, the
  // pre-delta file removed.
  size_t pit_files = 0;
  for (const auto& dirent : fs::directory_iterator(dir)) {
    if (dirent.path().extension() == ".pit") ++pit_files;
  }
  EXPECT_EQ(pit_files, 1u);
  // Loading into the live store is a no-op: the head is already resident
  // under the same key, and the resident entry wins.
  auto reloaded = store.Load(dir);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(*reloaded, 0u);
  bool hit = false;
  auto entry = store.GetOrCompute(
      "p", "w", "d1",
      [](CostMeter*) -> Result<std::string> {
        return Status::Internal("must not recompute");
      },
      nullptr, &hit);
  ASSERT_TRUE(entry.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(**entry, "v0+1");
  // A restart sees only the post-delta head.
  PreparedStore restarted;
  auto loaded = restarted.Load(dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, 1u);
  EXPECT_TRUE(restarted.Contains("p", "w", "d1"));
  EXPECT_FALSE(restarted.Contains("p", "w", "d0"));
  fs::remove_all(dir);
}

// The UpdateData-vs-Load race: a loader replaying the spill directory
// while a delta chain re-keys the entry underneath it must never
// resurrect a pre-delta Π over the patched one. Both sides serialize on
// spill_dir_mutex_ (Load's scan+admit vs RespillPatched's write+remove),
// and Load's resident-key check keeps admitted frames from clobbering the
// live head. Run under TSan in CI.
TEST(PreparedStorePersistenceTest, ConcurrentLoadAndRespillKeepPatchedHead) {
  const std::string dir = UniqueTempDir("load_race");
  PreparedStore store;
  ASSERT_TRUE(store
                  .GetOrCompute("p", "w", "d0",
                                [](CostMeter*) -> Result<std::string> {
                                  return std::string("pi");
                                })
                  .ok());
  ASSERT_TRUE(store.Spill(dir).ok());
  constexpr int kVersions = 6;
  std::atomic<bool> done{false};
  std::thread loader([&] {
    while (!done.load(std::memory_order_acquire)) {
      EXPECT_TRUE(store.Load(dir).ok());
    }
    // One final replay after the chain settles: still must not
    // resurrect anything stale.
    EXPECT_TRUE(store.Load(dir).ok());
  });
  std::string data = "d0";
  for (int k = 1; k <= kVersions; ++k) {
    const std::string next = "d" + std::to_string(k);
    ASSERT_TRUE(store
                    .UpdateData("p", "w", data, next,
                                [k](std::string* prepared, CostMeter*) {
                                  prepared->append("+" + std::to_string(k));
                                  return Status::OK();
                                })
                    .ok());
    data = next;
  }
  done.store(true, std::memory_order_release);
  loader.join();
  bool hit = false;
  auto entry = store.GetOrCompute(
      "p", "w", data,
      [](CostMeter*) -> Result<std::string> {
        return Status::Internal("must not recompute");
      },
      nullptr, &hit);
  ASSERT_TRUE(entry.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(**entry, "pi+1+2+3+4+5+6");
  fs::remove_all(dir);
}

TEST(PreparedStorePersistenceTest, CorruptSpillFilesAreSkipped) {
  const std::string dir = UniqueTempDir("corrupt");
  PreparedStore store;
  ASSERT_TRUE(store
                  .GetOrCompute("p", "w", "d",
                                [](CostMeter*) -> Result<std::string> {
                                  return std::string("good");
                                })
                  .ok());
  ASSERT_TRUE(store.Spill(dir).ok());
  {  // Wrong magic.
    std::ofstream bad(fs::path(dir) / "deadbeefdeadbeef.pit",
                      std::ios::binary);
    bad << "not a spill file";
  }
  {  // Truncated frame.
    std::string framed;
    serde::PutU32(&framed, 0x31544950);
    serde::PutU32(&framed, 1);
    serde::PutU64(&framed, 1 << 30);  // claims 1 GiB of key bytes
    std::ofstream bad(fs::path(dir) / "0123456789abcdef.pit",
                      std::ios::binary);
    bad << framed;
  }
  PreparedStore restarted;
  auto loaded = restarted.Load(dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, 1u);  // only the well-formed file
  EXPECT_TRUE(restarted.Contains("p", "w", "d"));
  // Neither bad file is a *corruption* signal: foreign magic and an old
  // frame version are expected after upgrades, so both count as skips.
  auto stats = restarted.stats();
  EXPECT_EQ(stats.load_skipped, 2);
  EXPECT_EQ(stats.load_corrupt, 0);
  fs::remove_all(dir);
}

TEST(PreparedStorePersistenceTest, LoadClassifiesBitRotAsCorrupt) {
  const std::string dir = UniqueTempDir("bitrot");
  PreparedStore store;
  ASSERT_TRUE(store
                  .GetOrCompute("p", "w", "d",
                                [](CostMeter*) -> Result<std::string> {
                                  return std::string("payload-bytes");
                                })
                  .ok());
  ASSERT_TRUE(store.Spill(dir).ok());
  // Flip one bit somewhere in the body of the (only) spilled frame.
  fs::path victim;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) victim = entry.path();
  }
  ASSERT_FALSE(victim.empty());
  std::string framed;
  {
    std::ifstream in(victim, std::ios::binary);
    framed.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
  }
  ASSERT_GT(framed.size(), 24u);
  framed[framed.size() / 2] =
      static_cast<char>(static_cast<unsigned char>(framed[framed.size() / 2]) ^
                        0x01);
  {
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out << framed;
  }
  PreparedStore restarted;
  auto loaded = restarted.Load(dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, 0u);
  EXPECT_FALSE(restarted.Contains("p", "w", "d"));
  auto stats = restarted.stats();
  EXPECT_EQ(stats.load_corrupt, 1);  // valid header, checksum mismatch
  EXPECT_EQ(stats.load_skipped, 0);
  fs::remove_all(dir);
}

TEST(PreparedStorePersistenceTest, SpillFailuresAreCountedAndBestEffort) {
  const std::string dir = UniqueTempDir("spill_fail");
  PreparedStore store;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store
                    .GetOrCompute("p", "w", "d" + std::to_string(i),
                                  [i](CostMeter*) -> Result<std::string> {
                                    return "pi" + std::to_string(i);
                                  })
                    .ok());
  }
  {
    failpoint::ScopedFailpoints guard;
    failpoint::Arm("spill.write", failpoint::EveryNth(2));  // 2nd write dies
    auto status = store.Spill(dir);
    // Best effort: the pass visits every entry, counts each failure, and
    // returns the first error instead of aborting at it.
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("spill.write"), std::string::npos);
    EXPECT_NE(status.message().find("digest="), std::string::npos);
    auto stats = store.stats();
    EXPECT_EQ(stats.respill_failures, 1);
    EXPECT_EQ(stats.spilled, 2);  // the other two entries still landed
  }
  // With the fault cleared the full spill succeeds and a restart recovers
  // every entry.
  ASSERT_TRUE(store.Spill(dir).ok());
  PreparedStore restarted;
  auto loaded = restarted.Load(dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, 3u);
  fs::remove_all(dir);
}

TEST(PreparedStorePersistenceTest, RenameFailpointLeavesNoPublishedFrame) {
  const std::string dir = UniqueTempDir("rename_fail");
  PreparedStore store;
  ASSERT_TRUE(store
                  .GetOrCompute("p", "w", "d",
                                [](CostMeter*) -> Result<std::string> {
                                  return std::string("pi");
                                })
                  .ok());
  {
    failpoint::ScopedFailpoints guard;
    failpoint::Arm("spill.rename", failpoint::Always());
    auto status = store.Spill(dir);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("spill.rename"), std::string::npos);
    EXPECT_EQ(store.stats().respill_failures, 1);
  }
  // Write-tmp-then-rename atomicity: an unpublished spill never becomes a
  // loadable frame.
  PreparedStore restarted;
  auto loaded = restarted.Load(dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, 0u);
  fs::remove_all(dir);
}

TEST(PreparedStorePersistenceTest, LoadFromMissingDirectoryFails) {
  PreparedStore store;
  EXPECT_FALSE(store.Load("/nonexistent/pitract/spill/dir").ok());
}

// ---------------------------------------------------------------------------
// Engine-level: miss storm through AnswerBatch, spill→restart→load.
// ---------------------------------------------------------------------------

std::unique_ptr<QueryEngine> MakeEngine(PreparedStore::Options options = {}) {
  auto engine = std::make_unique<QueryEngine>(options);
  auto status = RegisterBuiltins(engine.get());
  EXPECT_TRUE(status.ok()) << status.ToString();
  return engine;
}

TEST(EngineServingTest, ConcurrentBatchStormOnOneDataPartRunsPiOnce) {
  auto engine = MakeEngine();
  Rng rng(1201);
  const int64_t universe = 512;
  std::string data = core::MemberFactorization()
                         .pi1(core::MakeMemberInstance(
                             universe, RandomList(&rng, universe, 300), 0))
                         .value();
  std::vector<std::string> queries;
  for (int i = 0; i < 32; ++i) {
    queries.push_back(std::to_string(rng.NextBelow(universe)));
  }

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int64_t> total_pi_runs{0};
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto batch = engine->AnswerBatch("list-membership", data, queries);
      if (!batch.ok()) {
        ++failures;
        return;
      }
      total_pi_runs += batch->prepare_runs;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // The acceptance bar: ≥8 concurrent batches over one data part, Π ran
  // exactly once (CostMeter/store accounting agrees).
  EXPECT_EQ(total_pi_runs.load(), 1);
  EXPECT_EQ(engine->store().stats().misses, 1);
}

TEST(EngineServingTest, SpillRestartLoadAnswersWithZeroPiRecomputation) {
  const std::string dir = UniqueTempDir("engine_spill");
  Rng rng(1202);
  const int64_t universe = 256;
  std::string data = core::MemberFactorization()
                         .pi1(core::MakeMemberInstance(
                             universe, RandomList(&rng, universe, 120), 0))
                         .value();
  std::vector<std::string> queries;
  for (int i = 0; i < 48; ++i) {
    queries.push_back(std::to_string(rng.NextBelow(universe)));
  }

  std::vector<bool> first_answers;
  {
    auto engine = MakeEngine();
    auto batch = engine->AnswerBatch("list-membership", data, queries);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(batch->prepare_runs, 1);
    first_answers = batch->answers;
    ASSERT_TRUE(engine->store().Spill(dir).ok());
  }  // "restart": the first engine and its store are gone

  auto engine = MakeEngine();
  auto loaded = engine->store().Load(dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_GE(*loaded, 1u);
  auto batch = engine->AnswerBatch("list-membership", data, queries);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->prepare_runs, 0);  // zero Π recomputations post-restart
  EXPECT_TRUE(batch->cache_hit);
  EXPECT_EQ(batch->answers, first_answers);
  EXPECT_EQ(engine->store().stats().misses, 0);
  fs::remove_all(dir);
}

/// Runs `workload` x `repeat` through a fresh ServePipeline to completion.
ServeReport ServeWorkload(QueryEngine* engine,
                          const std::vector<ServeWorkItem>& workload,
                          int threads, int repeat, int claim_batch = 8) {
  PipelineOptions options;
  options.threads = threads;
  options.claim_batch = claim_batch;
  ServePipeline pipeline(engine, options);
  pipeline.SubmitWorkload(workload, repeat);
  pipeline.Drain();
  return pipeline.report();
}

TEST(EngineServingTest, ServePipelineScalesAndDedupsPi) {
  PreparedStore::Options options;
  options.shards = 8;
  auto engine = MakeEngine(options);
  Rng rng(1203);
  constexpr int kParts = 4;
  std::vector<ServeWorkItem> workload;
  for (int part = 0; part < kParts; ++part) {
    ServeWorkItem item;
    item.problem = "list-membership";
    item.data = core::MemberFactorization()
                    .pi1(core::MakeMemberInstance(
                        128, RandomList(&rng, 128, 64), 0))
                    .value();
    for (int i = 0; i < 16; ++i) {
      item.queries.push_back(std::to_string(rng.NextBelow(128)));
    }
    workload.push_back(std::move(item));
  }
  const ServeReport report =
      ServeWorkload(engine.get(), workload, /*threads=*/8, /*repeat=*/6);
  EXPECT_EQ(report.errors, 0) << report.first_error.ToString();
  EXPECT_EQ(report.batches, kParts * 6);
  EXPECT_EQ(report.queries, kParts * 6 * 16);
  // Π ran once per distinct data part no matter how many threads hammered.
  EXPECT_EQ(report.pi_runs, kParts);
  EXPECT_EQ(engine->store().stats().misses, kParts);
}

// ---------------------------------------------------------------------------
// Decoded Π-views: memoized next to the payload, built once per entry.
// ---------------------------------------------------------------------------

/// View = a counted string copy of the payload, so tests can both count
/// builds and verify a view's content matches the payload it decodes.
PreparedStore::ViewFn CountingViewFn(std::atomic<int>* builds,
                                     int64_t charge = 0) {
  return [builds, charge](const std::shared_ptr<const std::string>& prepared,
                          CostMeter* meter)
             -> Result<std::shared_ptr<const void>> {
    builds->fetch_add(1);
    if (meter != nullptr && charge > 0) meter->AddSerial(charge);
    return std::shared_ptr<const void>(
        std::make_shared<const std::string>(*prepared));
  };
}

const std::string& ViewString(const PreparedStore::PreparedView& pv) {
  return *static_cast<const std::string*>(pv.view.get());
}

TEST(PreparedStoreViewTest, ViewBuiltExactlyOnceUnderMissStorm) {
  PreparedStore::Options options;
  options.shards = 8;
  PreparedStore store(options);
  constexpr int kThreads = 8;
  std::atomic<int> builds{0};
  std::atomic<int> computes{0};
  std::atomic<int> started{0};
  PreparedStore::EntryOptions entry_options;
  entry_options.make_view = CountingViewFn(&builds, /*charge=*/500);
  auto compute = [&](CostMeter* meter) -> Result<std::string> {
    ++computes;
    while (started.load() < kThreads) std::this_thread::yield();
    if (meter != nullptr) meter->AddSerial(1000);
    return std::string("payload");
  };

  std::vector<std::thread> threads;
  std::vector<PreparedStore::PreparedView> results(kThreads);
  CostMeter meter;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ++started;
      auto result = store.GetOrComputeView("p", "w", "same-data", compute,
                                           &meter, nullptr, entry_options);
      ASSERT_TRUE(result.ok());
      results[static_cast<size_t>(t)] = *result;
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(builds.load(), 1);  // one view build for the whole storm
  EXPECT_EQ(store.stats().view_builds, 1);
  for (const auto& pv : results) {
    ASSERT_NE(pv.view, nullptr);
    EXPECT_EQ(pv.view, results[0].view);  // everyone shares the one view
    EXPECT_EQ(ViewString(pv), "payload");
  }
  // CostMeter-asserted: Π charged once, the view build charged once, every
  // non-winner paid one probe op.
  EXPECT_EQ(meter.work(), 1000 + 500 + (kThreads - 1));
}

TEST(PreparedStoreViewTest, WarmHitServesMemoizedViewWithoutRebuild) {
  PreparedStore store;
  std::atomic<int> builds{0};
  PreparedStore::EntryOptions entry_options;
  entry_options.make_view = CountingViewFn(&builds);
  auto compute = [](CostMeter*) -> Result<std::string> {
    return std::string("v1");
  };
  auto cold = store.GetOrComputeView("p", "w", "d", compute, nullptr, nullptr,
                                     entry_options);
  ASSERT_TRUE(cold.ok());
  bool hit = false;
  auto warm = store.GetOrComputeView("p", "w", "d", compute, nullptr, &hit,
                                     entry_options);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(warm->view, cold->view);
}

TEST(PreparedStoreViewTest, ViewRebuiltLazilyAfterLoad) {
  const std::string dir = UniqueTempDir("view_load");
  std::atomic<int> builds{0};
  PreparedStore::EntryOptions entry_options;
  entry_options.make_view = CountingViewFn(&builds);
  auto compute = [](CostMeter*) -> Result<std::string> {
    return std::string("persisted");
  };
  {
    PreparedStore store;
    ASSERT_TRUE(store
                    .GetOrComputeView("p", "w", "d", compute, nullptr,
                                      nullptr, entry_options)
                    .ok());
    ASSERT_TRUE(store.Spill(dir).ok());
  }
  PreparedStore restarted;
  auto loaded = restarted.Load(dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, 1u);
  EXPECT_EQ(restarted.stats().view_builds, 0);  // payload only, no view yet

  bool hit = false;
  auto fail_compute = [](CostMeter*) -> Result<std::string> {
    return Status::Internal("Π must not run on a loaded entry");
  };
  auto warm = restarted.GetOrComputeView("p", "w", "d", fail_compute, nullptr,
                                         &hit, entry_options);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(hit);
  ASSERT_NE(warm->view, nullptr);
  EXPECT_EQ(ViewString(*warm), "persisted");
  EXPECT_EQ(restarted.stats().view_builds, 1);  // rebuilt lazily, once
  auto again = restarted.GetOrComputeView("p", "w", "d", fail_compute,
                                          nullptr, &hit, entry_options);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->view, warm->view);  // memoized thereafter
  EXPECT_EQ(restarted.stats().view_builds, 1);
  fs::remove_all(dir);
}

TEST(PreparedStoreViewTest, EvictionDropsViewAndMissRebuildsIt) {
  PreparedStore::Options options;
  options.max_entries = 1;
  PreparedStore store(options);
  std::atomic<int> builds{0};
  PreparedStore::EntryOptions entry_options;
  entry_options.make_view = CountingViewFn(&builds);
  auto compute_a = [](CostMeter*) -> Result<std::string> {
    return std::string("a");
  };
  auto compute_b = [](CostMeter*) -> Result<std::string> {
    return std::string("b");
  };
  auto first = store.GetOrComputeView("p", "w", "a", compute_a, nullptr,
                                      nullptr, entry_options);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(store
                  .GetOrComputeView("p", "w", "b", compute_b, nullptr,
                                    nullptr, entry_options)
                  .ok());  // evicts "a" (and its view) past the entry cap
  EXPECT_FALSE(store.Contains("p", "w", "a"));
  bool hit = true;
  auto recomputed = store.GetOrComputeView("p", "w", "a", compute_a, nullptr,
                                           &hit, entry_options);
  ASSERT_TRUE(recomputed.ok());
  EXPECT_FALSE(hit);  // a real miss: Π and the view build both re-ran
  EXPECT_EQ(builds.load(), 3);
  ASSERT_NE(recomputed->view, nullptr);
  EXPECT_NE(recomputed->view, first->view);
}

TEST(PreparedStoreViewTest, UpdateDataRebuildsViewFromPatchedPayload) {
  PreparedStore store;
  std::atomic<int> builds{0};
  PreparedStore::EntryOptions entry_options;
  entry_options.make_view = CountingViewFn(&builds);
  auto cold = store.GetOrComputeView(
      "p", "w", "old",
      [](CostMeter*) -> Result<std::string> { return std::string("pi-old"); },
      nullptr, nullptr, entry_options);
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(ViewString(*cold), "pi-old");

  Status patched = store.UpdateData(
      "p", "w", "old", "new",
      [](std::string* prepared, CostMeter*) -> Status {
        *prepared = "pi-new";
        return Status::OK();
      },
      nullptr, entry_options);
  ASSERT_TRUE(patched.ok());
  EXPECT_EQ(builds.load(), 2);  // the re-key built a fresh post-patch view

  bool hit = false;
  auto warm = store.GetOrComputeView(
      "p", "w", "new",
      [](CostMeter*) -> Result<std::string> {
        return Status::Internal("patched entry must hit");
      },
      nullptr, &hit, entry_options);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(hit);
  ASSERT_NE(warm->view, nullptr);
  // The stale pre-patch view is gone; the served view decodes Π(new data).
  EXPECT_NE(warm->view, cold->view);
  EXPECT_EQ(ViewString(*warm), "pi-new");
  EXPECT_EQ(builds.load(), 2);  // ...and it was memoized, not rebuilt
}

TEST(PreparedStoreViewTest, FailedViewBuildDegradesToStringPathOnce) {
  PreparedStore store;
  std::atomic<int> attempts{0};
  PreparedStore::EntryOptions entry_options;
  entry_options.make_view =
      [&attempts](const std::shared_ptr<const std::string>&, CostMeter*)
      -> Result<std::shared_ptr<const void>> {
    attempts.fetch_add(1);
    return Status::Internal("decoder broken");
  };
  auto cold = store.GetOrComputeView(
      "p", "w", "d",
      [](CostMeter*) -> Result<std::string> { return std::string("ok"); },
      nullptr, nullptr, entry_options);
  ASSERT_TRUE(cold.ok());  // a broken view decoder is not an answer error
  EXPECT_EQ(cold->view, nullptr);
  ASSERT_NE(cold->prepared, nullptr);
  EXPECT_EQ(*cold->prepared, "ok");
  EXPECT_EQ(store.stats().view_builds, 0);
  for (int i = 0; i < 3; ++i) {
    bool hit = false;
    auto warm = store.GetOrComputeView(
        "p", "w", "d",
        [](CostMeter*) -> Result<std::string> {
          return Status::Internal("must hit");
        },
        nullptr, &hit, entry_options);
    ASSERT_TRUE(warm.ok());
    EXPECT_TRUE(hit);
    EXPECT_EQ(warm->view, nullptr);  // still served, still string-path
  }
  // The failure is negative-cached on the entry: one attempt at miss
  // time, zero O(|Π(D)|) retries across the warm hits.
  EXPECT_EQ(attempts.load(), 1);
}

TEST(PreparedStoreViewTest, ResidentViewsCountAgainstTheByteBudget) {
  PreparedStore with_views;
  PreparedStore without_views;
  std::atomic<int> builds{0};
  PreparedStore::EntryOptions view_options;
  view_options.make_view = CountingViewFn(&builds);
  auto compute = [](CostMeter*) -> Result<std::string> {
    return std::string(1000, 'x');
  };
  ASSERT_TRUE(with_views
                  .GetOrComputeView("p", "w", "d", compute, nullptr, nullptr,
                                    view_options)
                  .ok());
  ASSERT_TRUE(without_views
                  .GetOrComputeView("p", "w", "d", compute, nullptr, nullptr,
                                    PreparedStore::EntryOptions{})
                  .ok());
  // The decoded view charges ≈ payload bytes on top of the payload+key
  // estimate, so byte-budgeted eviction sees the real residency.
  EXPECT_EQ(with_views.bytes_resident(),
            without_views.bytes_resident() + 1000);
}

TEST(PreparedStoreViewTest, ConcurrentLazyRebuildsAfterLoadStayConsistent) {
  const std::string dir = UniqueTempDir("view_race");
  std::atomic<int> builds{0};
  PreparedStore::EntryOptions entry_options;
  entry_options.make_view = CountingViewFn(&builds);
  auto compute = [](CostMeter*) -> Result<std::string> {
    return std::string("raced");
  };
  PreparedStore store;
  ASSERT_TRUE(store
                  .GetOrComputeView("p", "w", "d", compute, nullptr, nullptr,
                                    entry_options)
                  .ok());
  ASSERT_TRUE(store.Spill(dir).ok());

  // Loads wipe the memoized view; concurrent warm hitters race to rebuild
  // it while more Loads keep resetting the entry. Everything must stay
  // internally consistent (TSan-checked in CI).
  constexpr int kThreads = 4;
  constexpr int kIters = 25;
  std::atomic<bool> stop{false};
  std::thread loader([&] {
    for (int i = 0; i < kIters; ++i) {
      auto loaded = store.Load(dir);
      ASSERT_TRUE(loaded.ok());
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto pv = store.GetOrComputeView("p", "w", "d", compute, nullptr,
                                         nullptr, entry_options);
        ASSERT_TRUE(pv.ok());
        ASSERT_NE(pv->prepared, nullptr);
        EXPECT_EQ(*pv->prepared, "raced");
        if (pv->view != nullptr) {
          EXPECT_EQ(ViewString(*pv), "raced");
        }
      }
    });
  }
  loader.join();
  for (auto& t : readers) t.join();
  EXPECT_GE(builds.load(), 1);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Precomputed keys: warm batches must not rebuild or rehash O(|D|) keys.
// ---------------------------------------------------------------------------

TEST(PreparedStoreKeyTest, PrecomputedKeySkipsKeyBuildsOnWarmHits) {
  PreparedStore store;
  auto key = PreparedStore::InternKey("p", "w", "some-large-data-part");
  auto compute = [](CostMeter*) -> Result<std::string> {
    return std::string("pi");
  };
  ASSERT_TRUE(store
                  .GetOrComputeView(key, compute, nullptr, nullptr,
                                    PreparedStore::EntryOptions{})
                  .ok());
  store.ResetStats();

  for (int i = 0; i < 10; ++i) {
    bool hit = false;
    auto warm = store.GetOrComputeView(key, compute, nullptr, &hit,
                                       PreparedStore::EntryOptions{});
    ASSERT_TRUE(warm.ok());
    EXPECT_TRUE(hit);
  }
  auto stats = store.stats();
  EXPECT_EQ(stats.hits, 10);
  EXPECT_EQ(stats.key_builds, 0);  // zero O(|D|) copies/hashes while warm

  // The string-keyed flavor pays one key build per call, every call.
  bool hit = false;
  ASSERT_TRUE(store
                  .GetOrCompute("p", "w", "some-large-data-part", compute,
                                nullptr, &hit)
                  .ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(store.stats().key_builds, 1);
}

TEST(PreparedStoreKeyTest, IndependentlyInternedKeysStillMatchEntries) {
  PreparedStore store;
  auto compute = [](CostMeter*) -> Result<std::string> {
    return std::string("pi");
  };
  auto first = PreparedStore::InternKey("p", "w", "d");
  auto second = PreparedStore::InternKey("p", "w", "d");  // distinct bytes ptr
  ASSERT_TRUE(store
                  .GetOrComputeView(first, compute, nullptr, nullptr,
                                    PreparedStore::EntryOptions{})
                  .ok());
  bool hit = false;
  auto warm = store.GetOrComputeView(second, compute, nullptr, &hit,
                                     PreparedStore::EntryOptions{});
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(hit);  // deep-compare fallback still matches
}

TEST(PreparedStoreKeyTest, WordAtATimeDigestIsStableAndDiscriminating) {
  // Deterministic across calls.
  EXPECT_EQ(Fnv1a64("abcdefghij"), Fnv1a64("abcdefghij"));
  // Sensitive in every tail-length regime (0..8 trailing bytes after the
  // word loop) and to position swaps inside one word.
  std::vector<std::string> inputs;
  std::string base = "0123456789abcdef";  // two full words
  inputs.push_back("");
  for (size_t len = 1; len <= base.size(); ++len) {
    inputs.push_back(base.substr(0, len));
  }
  inputs.push_back("1023456789abcdef");  // swap inside the first word
  inputs.push_back("0123456798abcdef");  // swap inside the second word
  for (size_t i = 0; i < inputs.size(); ++i) {
    for (size_t j = i + 1; j < inputs.size(); ++j) {
      EXPECT_NE(Fnv1a64(inputs[i]), Fnv1a64(inputs[j]))
          << "collision between '" << inputs[i] << "' and '" << inputs[j]
          << "'";
    }
  }
}

TEST(PreparedStoreKeyTest, StreamedKeyDigestsMatchTheConcatenation) {
  // A key is hashed as head then D without joining them; the digests must
  // equal the one-shot hashes of the joined bytes (spill file names and
  // lineage records depend on it), for every split of the straddling word.
  Rng rng(77);
  auto random_bytes = [&rng](size_t n) {
    std::string bytes(n, '\0');
    for (char& c : bytes) c = static_cast<char>(rng.NextBelow(256));
    return bytes;
  };
  for (size_t head_len = 0; head_len <= 17; ++head_len) {
    for (size_t data_len = 0; data_len <= 17; ++data_len) {
      const std::string head = random_bytes(head_len);
      const std::string data = random_bytes(data_len);
      const std::string joined = head + data;
      SCOPED_TRACE("head " + std::to_string(head_len) + ", data " +
                   std::to_string(data_len));
      EXPECT_EQ(Fnv1a64(head, data), Fnv1a64(joined));
      EXPECT_EQ(AltKeyDigest(head, data), AltKeyDigest(joined, ""));
      EXPECT_EQ(AltKeyDigest(head, data), AltKeyDigest("", joined));
    }
  }
  std::vector<int64_t> list;
  for (int i = 0; i < (1 << 16); ++i) {
    list.push_back(static_cast<int64_t>(rng.NextBelow(1 << 20)));
  }
  const std::string member =
      core::MemberFactorization()
          .pi1(core::MakeMemberInstance(1 << 20, list, 0))
          .value();
  ASSERT_GT(member.size(), size_t{1} << 16);
  for (const char* witness : {"", "w", "sorted-column", "bptree-view"}) {
    const auto key = PreparedStore::InternKey("list-membership", witness,
                                              member);
    const std::string joined = key.head + member;
    EXPECT_EQ(key.head,
              std::string("list-membership\x1f") + witness + "\x1f");
    EXPECT_EQ(key.digest, Fnv1a64(joined)) << witness;
    EXPECT_EQ(AltKeyDigest(key.head, member), AltKeyDigest(joined, ""))
        << witness;
  }
}

TEST(PreparedStoreKeyTest, BorrowedKeysNeverOutliveTheirCall) {
  // String-keyed calls borrow the caller's bytes. The entry a miss
  // publishes must own a copy: the caller's string dies right after the
  // call, and its heap block is reused below (ASan flags any later read).
  PreparedStore store;
  int runs = 0;
  auto compute = [&runs](CostMeter*) -> Result<std::string> {
    ++runs;
    return std::string("pi-of-d");
  };
  auto make_data = [] { return std::string(4096, 'd') + "-tail"; };
  {
    const std::string temporary = make_data();
    bool hit = true;
    auto cold = store.GetOrCompute("p", "w", temporary, compute, nullptr,
                                   &hit);
    ASSERT_TRUE(cold.ok());
    EXPECT_FALSE(hit);
  }
  {
    std::string scribble(4096 + 5, 'x');  // likely the freed block
    EXPECT_FALSE(store.Contains("p", "w", scribble));
  }
  bool hit = false;
  auto warm = store.GetOrCompute("p", "w", make_data(), compute, nullptr,
                                 &hit);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(**warm, "pi-of-d");
  EXPECT_TRUE(store.Contains("p", "w", make_data()));

  // The spilled frame carries the joined key; Load splits it back apart
  // and an equal fresh string still hits without running Π.
  const std::string dir = UniqueTempDir("borrowed");
  ASSERT_TRUE(store.Spill(dir).ok());
  store.Clear();
  auto loaded = store.Load(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 1u);
  hit = false;
  auto reloaded = store.GetOrCompute("p", "w", make_data(), compute, nullptr,
                                     &hit);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(**reloaded, "pi-of-d");
  EXPECT_FALSE(store.Contains("p", "w", make_data() + "!"));
  EXPECT_EQ(runs, 1);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Lock-free warm hits: the snapshot read path and its proof counters.
// ---------------------------------------------------------------------------

// The PR 5 acceptance bar, analogous to PR 4's key_builds == 0: a warm
// multi-threaded run serves every hit from the published snapshot — the
// shard mutex is never acquired on the hit path (locked_hits == 0) and Π
// never re-runs (misses == 0).
TEST(PreparedStoreLockFreeTest, WarmServePipelineAcquiresNoShardMutex) {
  auto engine = MakeEngine();
  Rng rng(1801);
  constexpr int kParts = 5;
  constexpr int kQueries = 16;
  std::vector<ServeWorkItem> workload;
  for (int part = 0; part < kParts; ++part) {
    ServeWorkItem item;
    // The last part is above the parallel grain: its cold Π forks.
    const bool large = part == kParts - 1;
    const int64_t universe = large ? int64_t{1} << 16 : 256;
    auto handle = engine->Intern(
        "list-membership",
        core::MemberFactorization()
            .pi1(core::MakeMemberInstance(
                universe, RandomList(&rng, universe, large ? 1 << 15 : 100),
                0))
            .value());
    ASSERT_TRUE(handle.ok());
    item.handle =
        std::make_shared<const DataHandle>(std::move(handle).value());
    for (int i = 0; i < kQueries; ++i) {
      item.queries.push_back(std::to_string(rng.NextBelow(256)));
    }
    workload.push_back(std::move(item));
  }

  // Warm pass: pays the misses (and, under racing cold publishes, possibly
  // some locked hits). Everything after ResetStats must be snapshot-only.
  const uint64_t cold_jobs = parallel::jobs();
  const ServeReport warm =
      ServeWorkload(engine.get(), workload, /*threads=*/2, /*repeat=*/2);
  ASSERT_EQ(warm.errors, 0) << warm.first_error.ToString();
  if (std::thread::hardware_concurrency() > 1) {
    EXPECT_GT(parallel::jobs(), cold_jobs);  // the large part's Π forked
  }
  engine->store().ResetStats();
  const uint64_t warm_jobs = parallel::jobs();

  const ServeReport report = ServeWorkload(engine.get(), workload,
                                          /*threads=*/4, /*repeat=*/8,
                                          /*claim_batch=*/4);
  EXPECT_EQ(report.errors, 0) << report.first_error.ToString();
  EXPECT_EQ(report.pi_runs, 0);
  EXPECT_EQ(report.batches, kParts * 8);
  EXPECT_EQ(report.queries, kParts * 8 * kQueries);
  EXPECT_EQ(report.threads, 4);

  const auto stats = engine->store().stats();
  EXPECT_EQ(stats.hits, kParts * 8);
  EXPECT_EQ(stats.misses, 0);
  EXPECT_EQ(stats.key_builds, 0);    // handles: no O(|D|) key work either
  EXPECT_EQ(stats.locked_hits, 0);   // the lock-free-hit proof
  // Warm batches never reach the fork-join pool: no decode, no sort.
  EXPECT_EQ(parallel::jobs(), warm_jobs);
}

// Same proof at the store level, plus per-thread stats aggregation: N
// threads hammering one hot precomputed Key must sum to exactly N*M hits
// across the per-thread slots with zero locked hits.
TEST(PreparedStoreLockFreeTest, HotKeyHammerCountsExactlyAcrossThreadSlots) {
  PreparedStore store;
  const PreparedStore::Key key = PreparedStore::InternKey("p", "w", "hot");
  auto compute = [](CostMeter*) -> Result<std::string> {
    return std::string("payload");
  };
  ASSERT_TRUE(store
                  .GetOrComputeView(key, compute, nullptr, nullptr,
                                    PreparedStore::EntryOptions{})
                  .ok());
  store.ResetStats();

  constexpr int kThreads = 8;
  constexpr int kHitsPerThread = 2000;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kHitsPerThread; ++i) {
        bool hit = false;
        auto result = store.GetOrComputeView(
            key,
            [](CostMeter*) -> Result<std::string> {
              return Status::Internal("Π must not run on a warm hit");
            },
            nullptr, &hit, PreparedStore::EntryOptions{});
        if (!result.ok() || !hit || *result->prepared != "payload") {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const auto stats = store.stats();
  EXPECT_EQ(stats.hits, int64_t{kThreads} * kHitsPerThread);
  EXPECT_EQ(stats.locked_hits, 0);
  EXPECT_EQ(stats.misses, 0);
  EXPECT_EQ(stats.key_builds, 0);
}

// TSan stress: warm hitters race eviction (byte budget forces victims),
// UpdateData re-key chains, and Load snapshot swaps. Correctness bar: no
// data race (TSan job), every successful read is internally consistent
// (payload matches the version chain), and the byte budget holds at every
// quiescent point.
TEST(PreparedStoreLockFreeTest, HittersRaceEvictionRekeysAndLoads) {
  const std::string dir = UniqueTempDir("race_loads");
  PreparedStore::Options options;
  options.shards = 4;
  options.byte_budget = 4096;
  PreparedStore store(options);

  // A handful of stable keys the hitters hammer...
  constexpr int kKeys = 6;
  std::vector<PreparedStore::Key> keys;
  for (int i = 0; i < kKeys; ++i) {
    keys.push_back(
        PreparedStore::InternKey("p", "w", "data-" + std::to_string(i)));
  }
  // ~700 bytes per entry against a 4096-byte budget: the racing inserts
  // and loads keep eviction genuinely active throughout the stress run.
  auto payload_for = [](int i) {
    return "payload-" + std::to_string(i) + ":" + std::string(640, 'x');
  };
  auto compute_for = [&payload_for](int i) {
    return [payload = payload_for(i)](CostMeter*) -> Result<std::string> {
      return payload;
    };
  };
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(store
                    .GetOrComputeView(keys[static_cast<size_t>(i)],
                                      compute_for(i), nullptr, nullptr,
                                      PreparedStore::EntryOptions{})
                    .ok());
  }
  ASSERT_TRUE(store.Spill(dir).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};

  // ...while hitters verify payload integrity on every probe,
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(9000 + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_acquire)) {
        const int i = static_cast<int>(rng.NextBelow(kKeys));
        auto result = store.GetOrComputeView(
            keys[static_cast<size_t>(i)], compute_for(i), nullptr, nullptr,
            PreparedStore::EntryOptions{});
        if (!result.ok() || *result->prepared != payload_for(i)) {
          ++violations;  // any resident payload must be its key's version
        }
      }
    });
  }
  // ...an updater chains re-keys through a churn key (v0 -> v1 -> ...),
  workers.emplace_back([&] {
    int version = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::string old_data = "churn-v" + std::to_string(version);
      const std::string new_data = "churn-v" + std::to_string(version + 1);
      auto seeded = store.GetOrComputeView(
          PreparedStore::InternKey("p", "w", old_data),
          [&](CostMeter*) -> Result<std::string> {
            return "churn-payload-v" + std::to_string(version);
          },
          nullptr, nullptr, PreparedStore::EntryOptions{});
      if (!seeded.ok()) {
        ++violations;
        break;
      }
      auto status = store.UpdateData(
          "p", "w", old_data, new_data,
          [&](std::string* prepared, CostMeter*) {
            *prepared = "churn-payload-v" + std::to_string(version + 1);
            return Status::OK();
          });
      if (!status.ok() && status.code() != StatusCode::kNotFound &&
          status.code() != StatusCode::kUnavailable) {
        ++violations;
      }
      ++version;
    }
  });
  // ...and a loader keeps swapping snapshots back in from disk.
  workers.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto loaded = store.Load(dir);
      if (!loaded.ok()) ++violations;
      std::this_thread::yield();
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true, std::memory_order_release);
  for (auto& t : workers) t.join();

  EXPECT_EQ(violations.load(), 0);
  // Quiescent byte-budget invariant after the full publish/patch/Load mix.
  EXPECT_LE(store.bytes_resident(), options.byte_budget);
  for (int i = 0; i < kKeys; ++i) {
    auto result =
        store.GetOrComputeView(keys[static_cast<size_t>(i)], compute_for(i),
                               nullptr, nullptr, PreparedStore::EntryOptions{});
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result->prepared, payload_for(i));
  }
  fs::remove_all(dir);
}

// Options::shards == 0 auto-sizes from the core count: a power of two,
// at least 2x hardware_concurrency (and the legacy ctor inherits it).
TEST(PreparedStoreOptionsTest, ZeroShardsAutoSizesFromCoreCount) {
  PreparedStore store{PreparedStore::Options{}};
  const size_t shards = store.options().shards;
  const size_t cores =
      std::max<size_t>(std::thread::hardware_concurrency(), 1);
  EXPECT_GE(shards, 2 * cores);
  EXPECT_EQ(shards & (shards - 1), 0u) << shards << " is not a power of two";
  PreparedStore legacy(/*max_entries=*/8);
  EXPECT_EQ(legacy.options().shards, shards);
  EXPECT_EQ(legacy.options().max_entries, 8u);
}

// ---------------------------------------------------------------------------
// Tiered residency: hot (payload + view) -> warm (payload only, view
// demoted) -> cold (evicted, spilled when a directory is armed).
// ---------------------------------------------------------------------------

// The full ladder in one deterministic sequence: under byte pressure the
// sweep sheds decoded views first (cheapest-expected-loss view first, even
// when that view's entry is the *more* hit one), re-promotes them through
// the lazy rebuild on the next hit, and only evicts a whole entry once
// there are no view bytes left to shed — and then takes the never-hit
// entry, not the hot ones.
TEST(PreparedStoreTieringTest, DemotesViewsByExpectedLossBeforeEvicting) {
  PreparedStore::Options options;
  options.shards = 1;
  options.byte_budget = 900;
  ASSERT_TRUE(options.tiered);  // tiering is the default
  PreparedStore store(options);

  PreparedStore::EntryOptions size_only;
  size_only.size_of = [](const std::string& s) { return s.size(); };

  // "expensive": a view the caller declares very costly to rebuild.
  std::atomic<int> builds_expensive{0};
  PreparedStore::EntryOptions expensive_options = size_only;
  expensive_options.make_view = CountingViewFn(&builds_expensive);
  expensive_options.view_loss_ops = 10000;
  const std::string expensive_payload(200, 'e');
  auto compute_expensive = [&](CostMeter*) -> Result<std::string> {
    return expensive_payload;
  };

  // "cheap": same size, same recency, MORE hits — but a near-free rebuild.
  std::atomic<int> builds_cheap{0};
  PreparedStore::EntryOptions cheap_options = size_only;
  cheap_options.make_view = CountingViewFn(&builds_cheap);
  cheap_options.view_loss_ops = 10;
  const std::string cheap_payload(200, 'c');
  auto compute_cheap = [&](CostMeter*) -> Result<std::string> {
    return cheap_payload;
  };

  auto fail_compute = [](CostMeter*) -> Result<std::string> {
    return Status::Internal("Π must not run on a warm entry");
  };

  // Admit both hot: payload 200 + view 200 = 400 bytes each.
  auto cold_expensive = store.GetOrComputeView(
      "p", "w", "expensive", compute_expensive, nullptr, nullptr,
      expensive_options);
  ASSERT_TRUE(cold_expensive.ok());
  ASSERT_TRUE(store
                  .GetOrComputeView("p", "w", "cheap", compute_cheap, nullptr,
                                    nullptr, cheap_options)
                  .ok());
  EXPECT_EQ(store.bytes_resident(), 800u);

  // Hit both in the same epoch; "cheap" twice as hard.
  bool hit = false;
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(store
                    .GetOrComputeView("p", "w", "expensive", fail_compute,
                                      nullptr, &hit, expensive_options)
                    .ok());
    ASSERT_TRUE(hit);
  }
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(store
                    .GetOrComputeView("p", "w", "cheap", fail_compute, nullptr,
                                      &hit, cheap_options)
                    .ok());
    ASSERT_TRUE(hit);
  }

  // 150 more bytes overflow the 900-byte budget by 50. Tiered Phase A:
  // demote a view rather than evict anything — and the victim is the
  // *cheap-to-rebuild* view despite its entry being hit twice as often.
  PreparedStore::EntryOptions filler_options = size_only;
  auto compute_filler = [](CostMeter*) -> Result<std::string> {
    return std::string(150, 'f');
  };
  ASSERT_TRUE(store
                  .GetOrCompute("p", "w", "filler", compute_filler, nullptr,
                                nullptr, filler_options)
                  .ok());
  EXPECT_EQ(store.stats().view_demotions, 1);
  EXPECT_EQ(store.stats().evictions, 0);
  EXPECT_EQ(store.bytes_resident(), 750u);
  EXPECT_TRUE(store.Contains("p", "w", "expensive"));
  EXPECT_TRUE(store.Contains("p", "w", "cheap"));
  EXPECT_TRUE(store.Contains("p", "w", "filler"));

  // The expensive view was spared: still the memoized pointer, no rebuild.
  auto warm_expensive = store.GetOrComputeView(
      "p", "w", "expensive", fail_compute, nullptr, &hit, expensive_options);
  ASSERT_TRUE(warm_expensive.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(warm_expensive->view, cold_expensive->view);
  EXPECT_EQ(builds_expensive.load(), 1);

  // The cheap view re-promotes hot through the lazy rebuild — Π never
  // re-runs, the payload was resident the whole time.
  auto repromoted = store.GetOrComputeView("p", "w", "cheap", fail_compute,
                                           nullptr, &hit, cheap_options);
  ASSERT_TRUE(repromoted.ok());
  EXPECT_TRUE(hit);
  ASSERT_NE(repromoted->view, nullptr);
  EXPECT_EQ(ViewString(*repromoted), cheap_payload);
  EXPECT_EQ(builds_cheap.load(), 2);
  // The rebuild pushed the store back over budget; the sweep it triggers
  // demotes the cheap view again (still the cheapest loss) — and still
  // evicts nothing.
  EXPECT_EQ(store.stats().view_demotions, 2);
  EXPECT_EQ(store.stats().evictions, 0);
  EXPECT_EQ(store.bytes_resident(), 750u);

  // 400 more bytes: one view demotion (200) cannot cover the deficit, so
  // the sweep falls through to eviction — and takes the never-hit filler,
  // not the hot pair or the newcomer.
  PreparedStore::EntryOptions big_options = size_only;
  auto compute_big = [](CostMeter*) -> Result<std::string> {
    return std::string(400, 'g');
  };
  ASSERT_TRUE(store
                  .GetOrCompute("p", "w", "big", compute_big, nullptr, nullptr,
                                big_options)
                  .ok());
  EXPECT_EQ(store.stats().view_demotions, 3);
  EXPECT_EQ(store.stats().evictions, 1);
  EXPECT_FALSE(store.Contains("p", "w", "filler"));
  EXPECT_TRUE(store.Contains("p", "w", "expensive"));
  EXPECT_TRUE(store.Contains("p", "w", "cheap"));
  EXPECT_TRUE(store.Contains("p", "w", "big"));
  EXPECT_EQ(store.bytes_resident(), 800u);  // 200 + 200 + 400, all warm

  // Both demoted entries still answer correctly (and re-promote again).
  auto check_expensive = store.GetOrComputeView(
      "p", "w", "expensive", fail_compute, nullptr, &hit, expensive_options);
  ASSERT_TRUE(check_expensive.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(*check_expensive->prepared, expensive_payload);
  auto check_cheap = store.GetOrComputeView("p", "w", "cheap", fail_compute,
                                            nullptr, &hit, cheap_options);
  ASSERT_TRUE(check_cheap.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(*check_cheap->prepared, cheap_payload);
}

// Warm -> cold -> warm: with a spill directory armed, an evicted entry's
// payload is written out as a spill frame (cold demotion), and the next
// miss for it promotes the frame back instead of re-running Π.
TEST(PreparedStoreTieringTest, ColdDemotionSpillsVictimAndPromotesOnNextMiss) {
  const std::string dir = UniqueTempDir("cold_demotion");
  PreparedStore::Options options;
  options.shards = 1;
  options.byte_budget = 250;
  PreparedStore store(options);

  PreparedStore::EntryOptions entry_options;
  entry_options.size_of = [](const std::string& s) { return s.size(); };

  std::map<std::string, int> computes;
  auto make_compute = [&computes](const std::string& data) {
    return [&computes, data](CostMeter*) -> Result<std::string> {
      ++computes[data];
      std::string payload = "payload-" + data;
      payload.resize(100, '.');
      return payload;
    };
  };
  auto fail_compute = [](CostMeter*) -> Result<std::string> {
    return Status::Internal("Π must not run: the spill frame covers this");
  };

  ASSERT_TRUE(store
                  .GetOrCompute("p", "w", "a", make_compute("a"), nullptr,
                                nullptr, entry_options)
                  .ok());
  // Spill arms the directory: from here on, evictions write cold frames.
  ASSERT_TRUE(store.Spill(dir).ok());
  ASSERT_TRUE(store
                  .GetOrCompute("p", "w", "b", make_compute("b"), nullptr,
                                nullptr, entry_options)
                  .ok());
  bool hit = false;
  ASSERT_TRUE(store
                  .GetOrCompute("p", "w", "b", fail_compute, nullptr, &hit,
                                entry_options)
                  .ok());
  ASSERT_TRUE(hit);  // arms b's second chance: b survives the sweep
  ASSERT_TRUE(store
                  .GetOrCompute("p", "w", "c", make_compute("c"), nullptr,
                                nullptr, entry_options)
                  .ok());

  // 300 > 250: exactly one of the never-hit entries went cold.
  EXPECT_EQ(store.stats().evictions, 1);
  EXPECT_EQ(store.stats().cold_demotions, 1);
  EXPECT_TRUE(store.Contains("p", "w", "b"));
  const bool a_resident = store.Contains("p", "w", "a");
  const bool c_resident = store.Contains("p", "w", "c");
  ASSERT_NE(a_resident, c_resident);
  const std::string victim = a_resident ? "c" : "a";

  // The re-miss promotes the cold frame: Π does not run, the payload is
  // byte-identical, and the miss is still counted as a miss.
  hit = true;
  auto promoted = store.GetOrCompute("p", "w", victim, fail_compute, nullptr,
                                     &hit, entry_options);
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_FALSE(hit);
  std::string expected = "payload-" + victim;
  expected.resize(100, '.');
  EXPECT_EQ(**promoted, expected);
  EXPECT_EQ(store.stats().cold_promotions, 1);
  EXPECT_EQ(store.stats().misses, 4);
  EXPECT_EQ(computes[victim], 1);

  // The promotion re-overflowed the budget: another (older) entry went
  // cold in its place, and the freshly promoted entry survived.
  EXPECT_EQ(store.stats().evictions, 2);
  EXPECT_EQ(store.stats().cold_demotions, 2);
  EXPECT_TRUE(store.Contains("p", "w", victim));
  hit = false;
  auto warm = store.GetOrCompute("p", "w", victim, fail_compute, nullptr,
                                 &hit, entry_options);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(computes["a"] + computes["b"] + computes["c"], 3);
  fs::remove_all(dir);
}

// The tentpole's lock-freedom criterion, test-asserted: warm hitters
// hammer a fixed set of view-carrying entries while admissions force
// continuous demotion sweeps (hot -> warm) and churn evictions. Every hit
// must be served from the published snapshot — locked_hits stays exactly
// 0 with tiers enabled — and no hitter entry is ever evicted or answers
// wrong. (TSan-exercised in CI.)
TEST(PreparedStoreTieringTest, WarmHittersRaceDemotionSweepsWithoutLockedHits) {
  PreparedStore::Options options;
  options.shards = 4;
  options.byte_budget = 3400;  // 8 hot hitters (3200) + slack < one churn
  PreparedStore store(options);

  constexpr int kHitters = 8;
  constexpr int kChurn = 150;

  PreparedStore::EntryOptions hitter_options;
  hitter_options.size_of = [](const std::string& s) { return s.size(); };
  std::atomic<int> rebuilds{0};
  hitter_options.make_view = CountingViewFn(&rebuilds);
  // Declared Π re-run cost: under pressure the sweep must prefer evicting
  // loss-0 churn entries over any hammered hitter.
  hitter_options.evict_loss_ops = 1e6;

  std::vector<PreparedStore::Key> keys;
  std::vector<std::string> payloads;
  for (int i = 0; i < kHitters; ++i) {
    const std::string data = "hot-" + std::to_string(i);
    std::string payload = "prepared-" + data;
    payload.resize(200, '#');
    payloads.push_back(payload);
    keys.push_back(PreparedStore::InternKey("p", "w", data));
    ASSERT_TRUE(store
                    .GetOrComputeView(
                        keys.back(),
                        [payload](CostMeter*) -> Result<std::string> {
                          return payload;
                        },
                        nullptr, nullptr, hitter_options)
                    .ok());
  }

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> hitters;
  for (int t = 0; t < 4; ++t) {
    hitters.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      while (!done.load(std::memory_order_acquire)) {
        const size_t k = i++ % kHitters;
        bool hit = false;
        auto result = store.GetOrComputeView(
            keys[k],
            [](CostMeter*) -> Result<std::string> {
              return Status::Internal("Π must not run on a warm hitter");
            },
            nullptr, &hit, hitter_options);
        if (!result.ok() || !hit || *result->prepared != payloads[k] ||
            result->view == nullptr ||
            ViewString(*result) != payloads[k]) {
          ++failures;
          return;
        }
      }
    });
  }

  // Churn: every admission overflows the budget and forces a sweep that
  // demotes hitter views (Phase A) or evicts older churn entries. The
  // main thread re-touches every hitter between admissions so each sweep
  // provably sees them referenced — hitter survival must not depend on
  // the background threads winning a scheduling race.
  PreparedStore::EntryOptions churn_options;
  churn_options.size_of = [](const std::string& s) { return s.size(); };
  for (int i = 0; i < kChurn; ++i) {
    for (int k = 0; k < kHitters; ++k) {
      bool hit = false;
      auto touched = store.GetOrComputeView(
          keys[static_cast<size_t>(k)],
          [](CostMeter*) -> Result<std::string> {
            return Status::Internal("Π must not run on a warm hitter");
          },
          nullptr, &hit, hitter_options);
      ASSERT_TRUE(touched.ok());
      ASSERT_TRUE(hit);
    }
    const std::string data = "churn-" + std::to_string(i);
    ASSERT_TRUE(store
                    .GetOrCompute(
                        "p", "w", data,
                        [](CostMeter*) -> Result<std::string> {
                          return std::string(300, 'x');
                        },
                        nullptr, nullptr, churn_options)
                    .ok());
  }
  done.store(true, std::memory_order_release);
  for (auto& t : hitters) t.join();

  EXPECT_EQ(failures.load(), 0);
  const auto stats = store.stats();
  EXPECT_EQ(stats.locked_hits, 0);     // the warm path never took a mutex
  EXPECT_GT(stats.view_demotions, 0);  // sweeps really did demote views
  EXPECT_EQ(stats.misses, kHitters + kChurn);  // no hitter ever recomputed
  for (int i = 0; i < kHitters; ++i) {
    EXPECT_TRUE(store.Contains("p", "w", "hot-" + std::to_string(i)));
  }
}

}  // namespace
}  // namespace engine
}  // namespace pitract
