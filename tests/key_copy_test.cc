// D-sized copies on the admission, answer and spill paths. A counting
// global operator new records every allocation of at least half a data
// part (|D| = 1 MiB), so each test pins how many times a path copies D.
// The registered witness's Π returns a few bytes, so Π's own outputs never
// reach the threshold and every counted allocation is the engine's or the
// store's. The same operator new also records allocation sizes, which
// pins that a witness whose Π builds its view never has Π(D) printed.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/problems.h"
#include "engine/builtins.h"
#include "engine/engine.h"
#include "engine/prepared_store.h"
#include "graph/generators.h"

namespace {

constexpr size_t kDataBytes = size_t{1} << 20;
constexpr size_t kCountedBytes = kDataBytes / 2;

std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_counted{0};

// While g_record_from is non-zero, the size of every allocation of at
// least that many bytes is recorded (the first kMaxRecorded of them).
constexpr size_t kMaxRecorded = 256;
std::atomic<size_t> g_record_from{0};
std::atomic<size_t> g_recorded{0};
std::array<std::atomic<size_t>, kMaxRecorded> g_sizes;

}  // namespace

void* operator new(std::size_t size) {
  if (size >= kCountedBytes && g_counting.load(std::memory_order_relaxed)) {
    g_counted.fetch_add(1, std::memory_order_relaxed);
  }
  const size_t record_from = g_record_from.load(std::memory_order_relaxed);
  if (record_from != 0 && size >= record_from) {
    const size_t at = g_recorded.fetch_add(1, std::memory_order_relaxed);
    if (at < kMaxRecorded) g_sizes[at].store(size, std::memory_order_relaxed);
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

/// Sizes of the allocations of at least `from` bytes made while `body`
/// runs.
template <typename Body>
std::vector<size_t> AllocationsFrom(size_t from, Body&& body) {
  g_recorded.store(0, std::memory_order_relaxed);
  g_record_from.store(from, std::memory_order_relaxed);
  body();
  g_record_from.store(0, std::memory_order_relaxed);
  std::vector<size_t> sizes;
  const size_t n =
      std::min(g_recorded.load(std::memory_order_relaxed), kMaxRecorded);
  for (size_t i = 0; i < n; ++i) {
    sizes.push_back(g_sizes[i].load(std::memory_order_relaxed));
  }
  return sizes;
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

/// Registers copies of the builtin `names` on `engine` whose string-face
/// Π (`preprocess`) and payload decoder (`deserialize`) count their calls
/// in `*calls`; with `direct` false, Π's typed face is dropped, so the
/// store admits the printed payload and decodes it, as before Π built its
/// view.
void RegisterCounted(QueryEngine* engine,
                     const std::vector<const char*>& names, bool direct,
                     std::atomic<int>* calls) {
  for (const char* name : names) {
    ProblemEntry entry = *DefaultEngine().Find(name).value();
    entry.witness_profile = nullptr;
    for (WitnessAlternative& alt : entry.alternatives) alt.profile = nullptr;
    core::PiWitness& w = entry.witness;
    if (!direct) w.preprocess_view = nullptr;
    w.preprocess = [inner = w.preprocess, calls](const std::string& data,
                                                 CostMeter* meter) {
      calls->fetch_add(1);
      return inner(data, meter);
    };
    w.deserialize = [inner = w.deserialize, calls](
                        const std::shared_ptr<const std::string>& prepared,
                        CostMeter* meter) {
      calls->fetch_add(1);
      return inner(prepared, meter);
    };
    ASSERT_TRUE(engine->Register(std::move(entry)).ok());
  }
}

/// Every spill frame under `dir`, by file name.
std::vector<std::pair<std::string, std::string>> Frames(const fs::path& dir) {
  std::vector<std::pair<std::string, std::string>> frames;
  for (const auto& file : fs::directory_iterator(dir)) {
    std::ifstream in(file.path(), std::ios::binary);
    frames.emplace_back(file.path().filename().string(),
                        std::string(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>()));
  }
  std::sort(frames.begin(), frames.end());
  return frames;
}

TEST(KeyCopyTest, DirectViewAdmissionPrintsAndParsesNoPayload) {
  // Parts of the benchmark's shape: 2^16 member values drawn from
  // [0, 2^17), and a 2^16-node, 2^16-edge undirected graph.
  Rng rng(7);
  std::vector<int64_t> list;
  for (int i = 0; i < (1 << 16); ++i) {
    list.push_back(static_cast<int64_t>(rng.NextBelow(1 << 17)));
  }
  const graph::Graph g =
      graph::ErdosRenyi(1 << 16, 1 << 16, /*directed=*/false, &rng);
  const std::vector<const char*> names = {"list-membership", "connectivity"};
  const std::vector<std::string> data = {
      core::MemberFactorization()
          .pi1(core::MakeMemberInstance(1 << 17, list, 0))
          .value(),
      core::ConnFactorization().pi1(core::MakeConnInstance(g, 0, 0)).value()};
  const std::vector<std::vector<std::string>> queries = {{"5", "77"},
                                                         {"1#2", "3#4"}};

  std::atomic<int> direct_calls{0};
  QueryEngine direct;
  RegisterCounted(&direct, names, /*direct=*/true, &direct_calls);
  std::atomic<int> legacy_calls{0};
  QueryEngine legacy;
  RegisterCounted(&legacy, names, /*direct=*/false, &legacy_calls);

  for (size_t p = 0; p < names.size(); ++p) {
    SCOPED_TRACE(names[p]);
    const size_t pi_bytes = DefaultEngine()
                                .Find(names[p])
                                .value()
                                ->witness.preprocess(data[p], nullptr)
                                ->size();
    const DataHandle handle = direct.Intern(names[p], data[p]).value();
    // Every Σ* payload in the code is a string sized exactly, so printing
    // Π(D) allocates |Π| + 1 bytes. The other large buffers here are the
    // decoded integers, the sort scratch, the union-find and the column,
    // and the connectivity part's unescaped data field.
    const std::vector<size_t> sizes = AllocationsFrom(pi_bytes / 2, [&] {
      auto cold = direct.AnswerBatch(handle, queries[p]);
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();
      EXPECT_EQ(cold->prepare_runs, 1);
      auto warm = direct.AnswerBatch(handle, queries[p]);
      ASSERT_TRUE(warm.ok());
      EXPECT_TRUE(warm->cache_hit);
      EXPECT_EQ(warm->answers, cold->answers);
    });
    EXPECT_FALSE(sizes.empty());  // the recorder saw Π's typed buffers
    EXPECT_EQ(std::count(sizes.begin(), sizes.end(), pi_bytes + 1), 0);

    ASSERT_TRUE(legacy.AnswerBatch(names[p], data[p], queries[p]).ok());
  }
  EXPECT_EQ(direct_calls.load(), 0);  // no print, no parse
  EXPECT_EQ(legacy_calls.load(), 4);  // one of each per part
  EXPECT_EQ(direct.store().stats().payload_encodes, 0);
  EXPECT_EQ(direct.store().stats().view_builds, 2);

  // Spill encodes each view once into its frame, byte for byte the frame
  // of the entry admitted from the printed payload.
  const fs::path dir = fs::temp_directory_path() /
                       ("pitract_key_copy_direct_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  ASSERT_TRUE(direct.store().Spill((dir / "direct").string()).ok());
  ASSERT_TRUE(legacy.store().Spill((dir / "legacy").string()).ok());
  EXPECT_EQ(direct.store().stats().payload_encodes, 2);
  const auto frames = Frames(dir / "direct");
  EXPECT_EQ(frames.size(), 2u);
  EXPECT_TRUE(frames == Frames(dir / "legacy"));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace engine
}  // namespace pitract
