// D-sized copies on the admission, answer and spill paths. A counting
// global operator new records every allocation of at least half a data
// part (|D| = 1 MiB), so each test pins how many times a path copies D.
// The registered witness's Π returns a few bytes, so Π's own outputs never
// reach the threshold and every counted allocation is the engine's or the
// store's.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/prepared_store.h"

namespace {

constexpr size_t kDataBytes = size_t{1} << 20;
constexpr size_t kCountedBytes = kDataBytes / 2;

std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_counted{0};

}  // namespace

void* operator new(std::size_t size) {
  if (size >= kCountedBytes && g_counting.load(std::memory_order_relaxed)) {
    g_counted.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pitract {
namespace engine {
namespace {

namespace fs = std::filesystem;

/// Allocations of at least |D|/2 bytes made while `body` runs.
template <typename Body>
int64_t LargeAllocations(Body&& body) {
  g_counted.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  body();
  g_counting.store(false, std::memory_order_relaxed);
  return g_counted.load(std::memory_order_relaxed);
}

std::string DataPart(char fill) { return std::string(kDataBytes, fill); }

/// One Σ* problem whose Π output is tiny: what the counter sees is key
/// handling, not preprocessing.
std::unique_ptr<QueryEngine> MakeEngine() {
  auto engine = std::make_unique<QueryEngine>();
  ProblemEntry entry;
  entry.name = "copy-probe";
  entry.has_language = true;
  entry.witness.name = "tiny";
  entry.witness.preprocess = [](const std::string& data,
                                CostMeter*) -> Result<std::string> {
    return std::string(1, data.empty() ? '-' : data[0]);
  };
  entry.witness.answer = [](const std::string& prepared,
                            const std::string& query,
                            CostMeter*) -> Result<bool> {
    return !query.empty() && prepared[0] == query[0];
  };
  EXPECT_TRUE(engine->Register(std::move(entry)).ok());
  return engine;
}

const std::vector<std::string> kQueries = {"a", "b"};

TEST(KeyCopyTest, InternSharesTheHandleBuffer) {
  auto engine = MakeEngine();
  std::string data = DataPart('a');
  Result<DataHandle> handle = Status::Internal("unset");
  EXPECT_EQ(LargeAllocations([&] {
              handle = engine->Intern("copy-probe", std::move(data));
            }),
            0);
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(handle->key.data, handle->data);  // one buffer, two holders
}

TEST(KeyCopyTest, HandleBatchesCopyNothingColdOrWarm) {
  auto engine = MakeEngine();
  const DataHandle handle = engine->Intern("copy-probe", DataPart('a')).value();
  // The cold batch publishes an entry that shares the handle's buffer.
  EXPECT_EQ(LargeAllocations([&] {
              auto cold = engine->AnswerBatch(handle, kQueries);
              ASSERT_TRUE(cold.ok());
              EXPECT_EQ(cold->prepare_runs, 1);
            }),
            0);
  EXPECT_EQ(LargeAllocations([&] {
              auto warm = engine->AnswerBatch(handle, kQueries);
              ASSERT_TRUE(warm.ok());
              EXPECT_TRUE(warm->cache_hit);
              EXPECT_EQ(warm->answers, (std::vector<bool>{true, false}));
            }),
            0);
}

TEST(KeyCopyTest, StringKeyedMissCopiesOnceAndHitsCopyNothing) {
  auto engine = MakeEngine();
  const std::string data = DataPart('b');
  // Cold: the route borrows `data`; the published entry owns one copy.
  EXPECT_EQ(LargeAllocations([&] {
              auto cold = engine->AnswerBatch("copy-probe", data, kQueries);
              ASSERT_TRUE(cold.ok());
              EXPECT_EQ(cold->prepare_runs, 1);
            }),
            1);
  // Warm: the borrowed key probes the entry; nothing D-sized is built.
  EXPECT_EQ(LargeAllocations([&] {
              auto warm = engine->AnswerBatch("copy-probe", data, kQueries);
              ASSERT_TRUE(warm.ok());
              EXPECT_TRUE(warm->cache_hit);
              EXPECT_EQ(warm->answers, (std::vector<bool>{false, true}));
            }),
            0);
}

TEST(KeyCopyTest, ContainsAndUpdateDataBorrowTheirDataParts) {
  PreparedStore store;
  const std::string old_data = DataPart('c');
  std::string new_data = old_data;
  new_data.back() = 'd';
  auto compute = [](CostMeter*) -> Result<std::string> {
    return std::string("pi");
  };
  ASSERT_TRUE(store.GetOrCompute("p", "w", old_data, compute).ok());
  EXPECT_EQ(LargeAllocations([&] {
              EXPECT_TRUE(store.Contains("p", "w", old_data));
            }),
            0);
  // The re-keyed entry owns new_data: one copy, none for the old key.
  EXPECT_EQ(LargeAllocations([&] {
              Status patched = store.UpdateData(
                  "p", "w", old_data, new_data,
                  [](std::string* prepared, CostMeter*) {
                    *prepared += "+1";
                    return Status::OK();
                  });
              EXPECT_TRUE(patched.ok()) << patched.ToString();
            }),
            1);
  EXPECT_TRUE(store.Contains("p", "w", new_data));
}

TEST(KeyCopyTest, SpillAllocatesOneFrameBufferPerEntry) {
  auto engine = MakeEngine();
  constexpr int kEntries = 3;
  std::vector<DataHandle> handles;
  for (int i = 0; i < kEntries; ++i) {
    handles.push_back(
        engine->Intern("copy-probe", DataPart(static_cast<char>('e' + i)))
            .value());
    ASSERT_TRUE(engine->AnswerBatch(handles.back(), kQueries).ok());
  }
  const fs::path dir = fs::temp_directory_path() /
                       ("pitract_key_copy_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  EXPECT_EQ(LargeAllocations([&] {
              Status spilled = engine->store().Spill(dir.string());
              EXPECT_TRUE(spilled.ok()) << spilled.ToString();
            }),
            kEntries);
  EXPECT_EQ(engine->store().stats().spilled, kEntries);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace engine
}  // namespace pitract
