// The byte ledger charges a decoded view what the allocator handed out:
// for every builtin witness with a view, PiWitness::view_bytes must match
// the heap its deserialize retained (the mallinfo2 in-use delta of the
// build), within allocator slack.

#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "circuit/generators.h"
#include "common/codec.h"
#include "common/heap_bytes.h"
#include "common/rng.h"
#include "core/int_column.h"
#include "core/problems.h"
#include "engine/builtins.h"
#include "engine/engine.h"
#include "graph/generators.h"

namespace pitract {
namespace engine {
namespace {

/// Heap bytes in use across every arena, small and mmapped chunks.
size_t HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

/// True when mallinfo2 sees this process's allocations. A sanitizer build
/// replaces the allocator and glibc's statistics stay flat.
bool HeapStatisticsWork() {
  const size_t before = HeapInUse();
  std::string block(1 << 20, 'x');
  asm volatile("" : : "r"(block.data()) : "memory");
  return HeapInUse() - before >= block.size();
}

std::vector<int64_t> SignedList(Rng* rng, int n) {
  std::vector<int64_t> list;
  for (int i = 0; i < n; ++i) {
    list.push_back(i % 3 == 0 ? static_cast<int64_t>(rng->Next())
                              : rng->NextInRange(-1000, 1000));
  }
  list.push_back(std::numeric_limits<int64_t>::min());
  list.push_back(std::numeric_limits<int64_t>::max());
  return list;
}

/// One data part per builtin problem whose witnesses build a view, in two
/// sizes: below and above parallel::kGrain (so view builds run both the
/// serial and the pooled decode).
std::map<std::string, std::vector<std::string>> DataParts() {
  Rng rng(4242);
  std::map<std::string, std::vector<std::string>> parts;
  for (int n : {3000, 40000}) {
    const std::vector<int64_t> list = SignedList(&rng, n);
    const std::string member =
        core::MemberFactorization()
            .pi1(core::MakeMemberInstance(1 << 20, list, 0))
            .value();
    parts["list-membership"].push_back(member);
    // The star-graph reduction needs elements inside [0, U).
    std::vector<int64_t> naturals;
    for (int i = 0; i < n; ++i) {
      naturals.push_back(static_cast<int64_t>(rng.NextBelow(2 * n)));
    }
    parts["member-via-conn"].push_back(
        core::MemberFactorization()
            .pi1(core::MakeMemberInstance(2 * n, naturals, 0))
            .value());
    parts["predicate-selection"].push_back(
        core::SelectionFactorization()
            .pi1(core::MakeSelectionInstance(1 << 20, list, {0, 1}))
            .value());
    const auto nodes = static_cast<graph::NodeId>(n);
    auto undirected = graph::ErdosRenyi(nodes, n, /*directed=*/false, &rng);
    const std::string conn = core::ConnFactorization()
                                 .pi1(core::MakeConnInstance(undirected, 0, 0))
                                 .value();
    parts["connectivity"].push_back(conn);
    // Trivially factorized: the data part is the whole instance.
    parts["connectivity-via-bds"].push_back(
        core::MakeConnInstance(undirected, 0, 0));
    parts["breadth-depth-search"].push_back(
        core::BdsFactorization()
            .pi1(core::MakeBdsInstance(undirected, 0, 0))
            .value());
    // The closure is quadratic in n: keep it small.
    auto directed =
        graph::ErdosRenyi(nodes / 40, n / 20, /*directed=*/true, &rng);
    parts["graph-reachability"].push_back(
        core::ReachFactorization()
            .pi1(core::MakeReachInstance(directed, 0, 0))
            .value());
    circuit::CircuitGenOptions options;
    options.num_inputs = 16;
    options.num_gates = n / 4;
    auto instance = circuit::RandomCvpInstance(options, &rng);
    parts["cvp-refactorized"].push_back(
        core::GvpFactorization()
            .pi1(core::MakeGvpInstance(instance, 0))
            .value());
    const std::string circuit =
        core::CvpCircuitDataFactorization()
            .pi1(core::MakeCvpInstanceString(instance))
            .value();
    parts["cvp-nand-eval"].push_back(circuit);
    parts["cvp-via-nand"].push_back(circuit);
  }
  return parts;
}

TEST(ViewFootprintTest, EveryBuiltinViewReportsItsHeapBytes) {
  QueryEngine engine;
  ASSERT_TRUE(RegisterBuiltins(&engine).ok());
  const bool measured = HeapStatisticsWork();
  if (!measured) {
    std::printf("mallinfo2 does not see this allocator: checking the "
                "reported sizes without the heap delta\n");
  }
  const auto parts = DataParts();
  int views = 0;
  for (const std::string& name : engine.Names()) {
    const ProblemEntry* entry = engine.Find(name).value();
    if (!entry->has_language) continue;
    std::vector<const core::PiWitness*> candidates = {&entry->witness};
    for (const WitnessAlternative& alt : entry->alternatives) {
      candidates.push_back(&alt.witness);
    }
    for (const core::PiWitness* w : candidates) {
      if (!w->has_view()) continue;
      SCOPED_TRACE(name + " / " + w->name);
      ASSERT_TRUE(static_cast<bool>(w->view_bytes))
          << "a builtin view without a footprint hook";
      // The Lemma 2 composition pads each instance into its data part, so
      // it has no standalone data part to build; its hooks are the BDS
      // witness's, covered through breadth-depth-search.
      if (name == "member-via-bds") continue;
      auto data = parts.find(name);
      ASSERT_NE(data, parts.end()) << "no data part for this problem";
      for (const std::string& part : data->second) {
        auto payload = w->preprocess(part, nullptr);
        ASSERT_TRUE(payload.ok()) << payload.status().ToString();
        auto shared = std::make_shared<const std::string>(*payload);
        // The first build starts the fork-join pool's helpers (their
        // thread state is heap too); measure the second. The first view
        // stays alive, so the second cannot reuse its freed chunks from the
        // allocator's thread cache, which mallinfo2 already counts in use.
        auto warmup = w->deserialize(shared, nullptr);
        ASSERT_TRUE(warmup.ok());
        const size_t before = HeapInUse();
        auto view = w->deserialize(shared, nullptr);
        const size_t after = HeapInUse();
        ASSERT_TRUE(view.ok()) << view.status().ToString();
        const size_t reported = w->view_bytes(view->get());
        ++views;
        if (view->get() == static_cast<const void*>(shared.get())) {
          EXPECT_EQ(reported, 0u) << "an alias of the payload holds nothing";
        } else {
          EXPECT_GT(reported, 0u);
        }
        if (!measured) continue;
        const int64_t heap = static_cast<int64_t>(after - before);
        // Slack: glibc keeps a few freed transients in its thread caches,
        // and an mmapped chunk rounds up to the page.
        const int64_t slack = 4096 + heap / 64;
        EXPECT_LE(std::abs(static_cast<int64_t>(reported) - heap), slack)
            << "reported " << reported << " B, heap grew " << heap
            << " B for |Π(D)| = " << payload->size() << " B";
      }
    }
  }
  // list-membership ×2, member-via-conn, predicate-selection,
  // connectivity, connectivity-via-bds, breadth-depth-search,
  // graph-reachability ×2, cvp-refactorized, cvp-nand-eval, cvp-via-nand:
  // 12 witnesses, two parts each.
  EXPECT_EQ(views, 24);
}

TEST(ViewFootprintTest, EveryIntColumnWidthReportsItsHeapBytes) {
  // The int-list views hold their values at 2, 4 or 8 bytes, by the range
  // of the data: one member view per width, each charged the make_shared
  // block plus its one exact-size buffer.
  const core::PiWitness w = core::MemberWitness();
  const bool measured = HeapStatisticsWork();
  Rng rng(4343);
  constexpr size_t kValues = 40000;
  for (size_t width : {2, 4, 8}) {
    SCOPED_TRACE("width " + std::to_string(width));
    std::vector<int64_t> values;
    for (size_t i = 0; i < kValues; ++i) {
      values.push_back(width == 2   ? rng.NextInRange(-30000, 30000)
                       : width == 4 ? rng.NextInRange(-(1 << 30), 1 << 30)
                                    : static_cast<int64_t>(rng.Next()));
    }
    std::sort(values.begin(), values.end());
    auto payload =
        std::make_shared<const std::string>(codec::EncodeInts(values));
    auto warmup = w.deserialize(payload, nullptr);
    ASSERT_TRUE(warmup.ok());
    const size_t before = HeapInUse();
    auto view = w.deserialize(payload, nullptr);
    const size_t after = HeapInUse();
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_EQ(static_cast<const core::IntColumn*>(view->get())->width(),
              width);
    const size_t reported = w.view_bytes(view->get());
    EXPECT_EQ(reported, MakeSharedHeapBytes<core::IntColumn>() +
                            HeapChunkBytes(kValues * width));
    if (!measured) continue;
    const int64_t heap = static_cast<int64_t>(after - before);
    EXPECT_LE(std::abs(static_cast<int64_t>(reported) - heap),
              4096 + heap / 64)
        << "reported " << reported << " B, heap grew " << heap << " B";
  }
}

}  // namespace
}  // namespace engine
}  // namespace pitract
