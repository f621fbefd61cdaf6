// View-first store entries: an entry whose witness can encode its view
// back (PiWitness::encode_view) holds only the decoded view, and the Σ*
// payload is produced from it on demand. These tests pin what that costs
// and where: warm batches never encode, every Spill encodes each such
// entry once, the string answer path memoizes one shared copy, a hot→warm
// demotion carries the encoded payload into the warm clone, a re-promotion
// drops it again, a view smaller than its payload is never demoted, and
// the byte ledger charges each view its real heap bytes (an alias of the
// payload charges none).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "circuit/generators.h"
#include "common/codec.h"
#include "common/heap_bytes.h"
#include "common/rng.h"
#include "core/problems.h"
#include "engine/builtins.h"
#include "engine/engine.h"
#include "engine/prepared_store.h"

namespace pitract {
namespace engine {
namespace {

namespace fs = std::filesystem;

std::string UniqueTempDir(const char* tag) {
  static std::atomic<int> counter{0};
  fs::path dir = fs::temp_directory_path() /
                 (std::string("pitract_view_first_") + tag + "_" +
                  std::to_string(::getpid()) + "_" +
                  std::to_string(counter.fetch_add(1)));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Every spill frame under `dir`, by file name.
std::map<std::string, std::string> Frames(const std::string& dir) {
  std::map<std::string, std::string> frames;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    frames[entry.path().filename().string()] =
        std::string(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  return frames;
}

std::unique_ptr<QueryEngine> MakeEngine(
    const PreparedStore::Options& options = {}) {
  auto engine = std::make_unique<QueryEngine>(options);
  EXPECT_TRUE(RegisterBuiltins(engine.get()).ok());
  return engine;
}

struct MemberPart {
  std::vector<int64_t> sorted;
  std::string data;
};

MemberPart MakeMemberPart(Rng* rng, int n) {
  MemberPart part;
  for (int i = 0; i < n; ++i) {
    part.sorted.push_back(static_cast<int64_t>(rng->NextBelow(2 * n)));
  }
  part.data = core::MemberFactorization()
                  .pi1(core::MakeMemberInstance(4 * n, part.sorted, 0))
                  .value();
  std::sort(part.sorted.begin(), part.sorted.end());
  return part;
}

std::vector<std::string> MemberQueries(Rng* rng, int n, int count) {
  std::vector<std::string> queries;
  for (int i = 0; i < count; ++i) {
    queries.push_back(std::to_string(rng->NextBelow(2 * n)));
  }
  return queries;
}

std::vector<bool> Expected(const MemberPart& part,
                           const std::vector<std::string>& queries) {
  std::vector<bool> answers;
  for (const std::string& q : queries) {
    answers.push_back(std::binary_search(part.sorted.begin(),
                                         part.sorted.end(), std::stoll(q)));
  }
  return answers;
}

/// A view-first witness whose view outweighs its payload: the member
/// witness with its sorted column held as a std::vector<int64_t>, 8 bytes
/// a value (the builtin narrows it to 2 or 4 bytes here, which is smaller
/// than the payload's text and so is never demoted).
core::PiWitness WideMemberWitness() {
  using Column = std::vector<int64_t>;
  core::PiWitness w = core::MemberWitness();
  w.name = "wide-sorted-column";
  // Π prints the payload and the store decodes it into this wider view.
  w.preprocess_view = nullptr;
  w.deserialize = [](const std::shared_ptr<const std::string>& prepared,
                     CostMeter*) -> Result<core::PiViewPtr> {
    auto values = codec::DecodeInts(*prepared);
    if (!values.ok()) return values.status();
    return core::PiViewPtr(
        std::make_shared<const Column>(std::move(values).value()));
  };
  w.encode_view = [](const void* view, std::string* out) {
    codec::AppendInts(*static_cast<const Column*>(view), out);
    return Status::OK();
  };
  w.view_bytes = [](const void* view) {
    return MakeSharedHeapBytes<Column>() +
           VectorHeapBytes(*static_cast<const Column*>(view));
  };
  w.answer_view_batch = [](const void* view,
                           std::span<const core::DecodedQuery> queries,
                           std::span<uint8_t> answers, CostMeter*) {
    const Column& sorted = *static_cast<const Column*>(view);
    for (size_t i = 0; i < queries.size(); ++i) {
      answers[i] = std::binary_search(sorted.begin(), sorted.end(),
                                      queries[i].a);
    }
    return Status::OK();
  };
  return w;
}

constexpr const char* kWide = "wide-member";

/// An engine with the builtins plus `kWide`: list membership answered
/// through WideMemberWitness.
std::unique_ptr<QueryEngine> MakeWideEngine(
    const PreparedStore::Options& options = {}) {
  auto engine = MakeEngine(options);
  ProblemEntry entry;
  entry.name = kWide;
  entry.has_language = true;
  entry.problem = core::ListMembershipProblem();
  entry.factorization = core::MemberFactorization();
  entry.witness = WideMemberWitness();
  EXPECT_TRUE(engine->Register(std::move(entry)).ok());
  return engine;
}

/// The resident entry behind `handle`, probed through TryGetView (one
/// hit; it encodes nothing).
PreparedStore::PreparedView ViewOf(QueryEngine* engine,
                                   const DataHandle& handle) {
  PreparedStore::PreparedView view;
  EXPECT_TRUE(engine->store().TryGetView(handle.key, {}, nullptr, &view));
  return view;
}

TEST(ViewFirstEngineTest, WarmBatchesEncodeNothingAndChargeKeyPlusRealView) {
  auto engine = MakeEngine();
  Rng rng(31);
  const core::PiWitness member = core::MemberWitness();
  std::vector<MemberPart> parts;
  std::vector<DataHandle> handles;
  for (int i = 0; i < 3; ++i) {
    parts.push_back(MakeMemberPart(&rng, 6000 + 1000 * i));
    handles.push_back(
        engine->Intern("list-membership", parts.back().data).value());
  }
  const std::vector<std::string> queries = MemberQueries(&rng, 6000, 256);
  for (size_t i = 0; i < handles.size(); ++i) {
    auto cold = engine->AnswerBatch(handles[i], queries);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_EQ(cold->answers, Expected(parts[i], queries));
  }
  engine->store().ResetStats();
  for (int round = 0; round < 20; ++round) {
    for (size_t i = 0; i < handles.size(); ++i) {
      auto warm = engine->AnswerBatch(handles[i], queries);
      ASSERT_TRUE(warm.ok());
      EXPECT_EQ(warm->mode, BatchAnswerMode::kKernel);
      EXPECT_EQ(warm->answers, Expected(parts[i], queries));
    }
  }
  PreparedStore::Stats stats = engine->store().stats();
  EXPECT_EQ(stats.payload_encodes, 0);
  EXPECT_EQ(stats.locked_hits, 0);
  EXPECT_EQ(stats.key_builds, 0);

  // D once (in the key), the view once at its real heap bytes, no payload.
  size_t expected = 0;
  for (const DataHandle& handle : handles) {
    const PreparedStore::PreparedView view = ViewOf(engine.get(), handle);
    ASSERT_NE(view.view, nullptr);
    EXPECT_EQ(view.prepared, nullptr) << "the payload is held a second time";
    expected += handle.key.size() + member.view_bytes(view.view.get()) +
                PreparedStore::kEntryOverheadBytes;
  }
  EXPECT_EQ(engine->store().bytes_resident(), expected);

  // A Spill encodes each view-first entry exactly once (nothing memoized:
  // the next Spill encodes again), and the frames reload to the same
  // answers without Π.
  const std::string dir = UniqueTempDir("warm");
  ASSERT_TRUE(engine->store().Spill(dir).ok());
  EXPECT_EQ(engine->store().stats().payload_encodes, 3);
  const auto frames = Frames(dir);
  ASSERT_TRUE(engine->store().Spill(dir).ok());
  EXPECT_EQ(engine->store().stats().payload_encodes, 6);
  EXPECT_EQ(Frames(dir), frames);
  EXPECT_EQ(engine->store().bytes_resident(), expected);
  auto restarted = MakeEngine();
  ASSERT_EQ(restarted->store().Load(dir).value(), 3u);
  for (size_t i = 0; i < parts.size(); ++i) {
    auto batch = restarted->AnswerBatch("list-membership", parts[i].data,
                                        queries);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(batch->prepare_runs, 0);
    EXPECT_EQ(batch->answers, Expected(parts[i], queries));
  }
  fs::remove_all(dir);
}

TEST(ViewFirstEngineTest, StringAnswerPathMemoizesThePayloadOnce) {
  // The member witness without its query decoder: it still builds (and
  // encodes) the view, but batches answer through the string `answer`.
  auto engine = MakeEngine();
  ProblemEntry entry;
  entry.name = "member-string-answers";
  entry.has_language = true;
  entry.problem = core::ListMembershipProblem();
  entry.factorization = core::MemberFactorization();
  entry.witness = core::MemberWitness();
  entry.witness.decode_query = nullptr;
  ASSERT_TRUE(entry.witness.has_view());
  ASSERT_FALSE(entry.witness.has_batch_kernel());
  const core::PiWitness witness = entry.witness;
  ASSERT_TRUE(engine->Register(std::move(entry)).ok());

  Rng rng(32);
  const MemberPart part = MakeMemberPart(&rng, 5000);
  const std::vector<std::string> queries = MemberQueries(&rng, 5000, 16);
  const std::string payload = witness.preprocess(part.data, nullptr).value();
  DataHandle handle =
      engine->Intern("member-string-answers", part.data).value();
  for (int round = 0; round < 3; ++round) {
    auto batch = engine->AnswerBatch(handle, queries);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(batch->mode, BatchAnswerMode::kScalar);
    EXPECT_EQ(batch->answers, Expected(part, queries));
  }
  EXPECT_EQ(engine->store().stats().payload_encodes, 1);

  const PreparedStore::PreparedView view = ViewOf(engine.get(), handle);
  ASSERT_NE(view.prepared, nullptr);
  EXPECT_EQ(*view.prepared, payload);
  // The memoized copy is charged while the entry is resident.
  EXPECT_EQ(engine->store().bytes_resident(),
            handle.key.size() + witness.view_bytes(view.view.get()) +
                payload.size() + PreparedStore::kEntryOverheadBytes);

  // The public payload API serves the same memoized copy.
  bool hit = false;
  auto served = engine->store().GetOrCompute(
      "member-string-answers", witness.name, part.data,
      [](CostMeter*) -> Result<std::string> {
        return Status::Internal("Π must not run");
      },
      nullptr, &hit);
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(served->get(), view.prepared.get());
  EXPECT_EQ(engine->store().stats().payload_encodes, 1);
}

TEST(ViewFirstStoreTest, ViewsAliasingThePayloadAreEvictedNotDemoted) {
  // A GVP view is the payload itself. Demoting it frees nothing, so a
  // store over its budget must evict: crediting the alias |Π| bytes let
  // the sweep believe it had got under budget with nothing freed.
  Rng rng(33);
  std::vector<std::string> data;
  std::vector<std::vector<std::string>> queries;
  for (int i = 0; i < 6; ++i) {
    circuit::CircuitGenOptions options;
    options.num_inputs = 12;
    options.num_gates = 3000;
    auto instance = circuit::RandomCvpInstance(options, &rng);
    data.push_back(core::GvpFactorization()
                       .pi1(core::MakeGvpInstance(instance, 0))
                       .value());
    queries.push_back({"0", "7", std::to_string(options.num_gates - 1)});
  }
  // Π(D) is one byte per gate (inputs included); the entry charges
  // |Π| + overhead and its view nothing.
  const size_t charge =
      core::GvpWitness().preprocess(data[0], nullptr)->size() +
      PreparedStore::kEntryOverheadBytes;
  PreparedStore::Options options;
  options.byte_budget = charge * 7 / 2;  // room for three entries
  options.tiered = true;
  auto engine = MakeEngine(options);
  auto reference = MakeEngine();
  for (size_t i = 0; i < data.size(); ++i) {
    auto batch = engine->AnswerBatch("cvp-refactorized", data[i], queries[i]);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(batch->mode, BatchAnswerMode::kKernel);
    EXPECT_EQ(batch->answers,
              reference->AnswerBatch("cvp-refactorized", data[i], queries[i])
                  ->answers);
  }
  const PreparedStore::Stats stats = engine->store().stats();
  EXPECT_EQ(stats.view_demotions, 0);
  EXPECT_GT(stats.evictions, 0);
  EXPECT_EQ(engine->store().size(), 3u);
  EXPECT_EQ(engine->store().bytes_resident(), 3 * charge);
  EXPECT_LE(engine->store().bytes_resident(), options.byte_budget);
}

TEST(ViewFirstStoreTest, DemotionCarriesTheEncodedPayloadIntoTheWarmClone) {
  Rng rng(34);
  std::vector<MemberPart> parts;
  for (int i = 0; i < 4; ++i) parts.push_back(MakeMemberPart(&rng, 20000));
  const std::vector<std::string> queries = MemberQueries(&rng, 20000, 64);

  // Measure the hot entries in an unbounded store, and their frames.
  auto unbounded = MakeWideEngine();
  std::vector<DataHandle> handles;
  for (const MemberPart& part : parts) {
    handles.push_back(unbounded->Intern(kWide, part.data).value());
    ASSERT_TRUE(unbounded->AnswerBatch(handles.back(), queries).ok());
  }
  const size_t hot = unbounded->store().bytes_resident();
  size_t warm = 0;
  for (const DataHandle& handle : handles) {
    warm += handle.key.size() + PreparedStore::kEntryOverheadBytes +
            core::MemberWitness().preprocess(*handle.data, nullptr)->size();
  }
  ASSERT_LT(warm, hot) << "a member view outweighs its payload";
  const std::string before = UniqueTempDir("hot");
  ASSERT_TRUE(unbounded->store().Spill(before).ok());

  // Between all-warm and all-hot: demotions, and no eviction, fit it.
  PreparedStore::Options options;
  options.byte_budget = (warm + hot) / 2;
  options.tiered = true;
  auto engine = MakeWideEngine(options);
  for (size_t i = 0; i < parts.size(); ++i) {
    auto batch = engine->AnswerBatch(kWide, parts[i].data, queries);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(batch->answers, Expected(parts[i], queries));
  }
  PreparedStore::Stats stats = engine->store().stats();
  EXPECT_GT(stats.view_demotions, 0);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(stats.payload_encodes, stats.view_demotions);
  EXPECT_LE(engine->store().bytes_resident(), options.byte_budget);

  // The warm clones spill the same frames as the hot entries did.
  const std::string after = UniqueTempDir("warm");
  ASSERT_TRUE(engine->store().Spill(after).ok());
  EXPECT_EQ(Frames(after), Frames(before));
  // ...and answer the same, re-promoting through the lazy view rebuild.
  for (size_t i = 0; i < parts.size(); ++i) {
    auto batch = engine->AnswerBatch(kWide, parts[i].data, queries);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(batch->prepare_runs, 0);
    EXPECT_EQ(batch->answers, Expected(parts[i], queries));
  }
  EXPECT_LE(engine->store().bytes_resident(), options.byte_budget);
  fs::remove_all(before);
  fs::remove_all(after);
}

/// What each of `handles` charges under witness `w`: key + view + overhead
/// while hot (no payload held), key + |Π| + overhead while warm.
struct Charges {
  std::vector<size_t> hot;
  std::vector<size_t> warm;
};

Charges ChargesOf(const core::PiWitness& w,
                  const std::vector<DataHandle>& handles) {
  Charges charges;
  for (const DataHandle& handle : handles) {
    const std::string payload = w.preprocess(*handle.data, nullptr).value();
    auto view =
        w.deserialize(std::make_shared<const std::string>(payload), nullptr);
    const size_t fixed =
        handle.key.size() + PreparedStore::kEntryOverheadBytes;
    charges.hot.push_back(fixed + w.view_bytes(view->get()));
    charges.warm.push_back(fixed + payload.size());
  }
  return charges;
}

TEST(ViewFirstStoreTest, RePromotionHoldsOnlyTheView) {
  // A warm clone that is hit again goes back to hot as a view-first
  // entry: the view, no payload, and the ledger charges exactly that.
  Rng rng(36);
  const std::vector<MemberPart> parts = {MakeMemberPart(&rng, 20000),
                                         MakeMemberPart(&rng, 20000)};
  const std::vector<std::string> queries = MemberQueries(&rng, 20000, 64);
  auto sizing = MakeWideEngine();
  std::vector<DataHandle> handles;
  for (const MemberPart& part : parts) {
    handles.push_back(sizing->Intern(kWide, part.data).value());
  }
  const Charges charges = ChargesOf(WideMemberWitness(), handles);
  ASSERT_GT(charges.hot[0], charges.warm[0]) << "the view must outweigh |Π|";

  // One hot and one warm entry fit; two hot ones do not.
  PreparedStore::Options options;
  options.byte_budget = std::max(charges.hot[0] + charges.warm[1],
                                 charges.hot[1] + charges.warm[0]) +
                        64;
  ASSERT_LT(options.byte_budget, charges.hot[0] + charges.hot[1]);
  options.tiered = true;
  auto engine = MakeWideEngine(options);
  for (size_t i = 0; i < parts.size(); ++i) {
    handles[i] = engine->Intern(kWide, parts[i].data).value();
  }
  // Entry 0 is hit before entry 1 arrives, so its CLOCK bit spares it
  // and the admission sweep demotes entry 1.
  for (size_t i : {0, 0, 1}) {
    auto batch = engine->AnswerBatch(handles[i], queries);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(batch->answers, Expected(parts[i], queries));
  }
  ASSERT_EQ(engine->store().stats().view_demotions, 1);
  ASSERT_EQ(ViewOf(engine.get(), handles[1]).view, nullptr);

  // Hitting the warm clone re-promotes it, and entry 0 (no CLOCK bit now)
  // is demoted to make room. At view + key + overhead, the re-promoted
  // entry then fits beside the warm one; had it kept its payload as well,
  // the sweep would have had to demote it again.
  auto batch = engine->AnswerBatch(handles[1], queries);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->prepare_runs, 0);
  EXPECT_EQ(batch->answers, Expected(parts[1], queries));
  const PreparedStore::PreparedView promoted = ViewOf(engine.get(), handles[1]);
  ASSERT_NE(promoted.view, nullptr);
  EXPECT_EQ(promoted.prepared, nullptr) << "the payload is held a second time";
  EXPECT_EQ(ViewOf(engine.get(), handles[0]).view, nullptr);
  const PreparedStore::Stats stats = engine->store().stats();
  EXPECT_EQ(stats.view_demotions, 2);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(engine->store().bytes_resident(),
            charges.hot[1] + charges.warm[0]);
}

TEST(ViewFirstStoreTest, ALoadedEntryRePromotesHoldingOnlyTheView) {
  // Spill frames carry only the payload: the first warm hit after Load
  // builds the view and, for a view-first witness, drops the payload.
  Rng rng(37);
  std::vector<MemberPart> parts;
  for (int i = 0; i < 3; ++i) parts.push_back(MakeMemberPart(&rng, 8000));
  const std::vector<std::string> queries = MemberQueries(&rng, 8000, 64);
  auto first = MakeWideEngine();
  std::vector<DataHandle> handles;
  for (const MemberPart& part : parts) {
    handles.push_back(first->Intern(kWide, part.data).value());
    ASSERT_TRUE(first->AnswerBatch(handles.back(), queries).ok());
  }
  const std::string dir = UniqueTempDir("reload");
  ASSERT_TRUE(first->store().Spill(dir).ok());

  auto restarted = MakeWideEngine();
  ASSERT_EQ(restarted->store().Load(dir).value(), parts.size());
  const Charges charges = ChargesOf(WideMemberWitness(), handles);
  size_t expected = 0;
  for (size_t i = 0; i < parts.size(); ++i) {
    handles[i] = restarted->Intern(kWide, parts[i].data).value();
    auto batch = restarted->AnswerBatch(handles[i], queries);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(batch->prepare_runs, 0);
    EXPECT_EQ(batch->answers, Expected(parts[i], queries));
    const PreparedStore::PreparedView view =
        ViewOf(restarted.get(), handles[i]);
    ASSERT_NE(view.view, nullptr);
    EXPECT_EQ(view.prepared, nullptr) << "the payload is held a second time";
    expected += charges.hot[i];
  }
  EXPECT_EQ(restarted->store().bytes_resident(), expected);
  // The re-promoted entries still spill the same frames.
  const std::string again = UniqueTempDir("respill");
  ASSERT_TRUE(restarted->store().Spill(again).ok());
  EXPECT_EQ(Frames(again), Frames(dir));
  fs::remove_all(dir);
  fs::remove_all(again);
}

TEST(ViewFirstStoreTest, NarrowMemberViewsAreEvictedNotDemoted) {
  // The builtin member view stores 2- or 4-byte offsets, fewer bytes than
  // the payload's text, so demoting it would grow the entry: byte
  // pressure evicts instead, and nothing is encoded for a warm clone.
  Rng rng(38);
  std::vector<MemberPart> parts;
  for (int i = 0; i < 4; ++i) parts.push_back(MakeMemberPart(&rng, 20000));
  const std::vector<std::string> queries = MemberQueries(&rng, 20000, 64);
  auto sizing = MakeEngine();
  std::vector<DataHandle> handles;
  for (const MemberPart& part : parts) {
    handles.push_back(sizing->Intern("list-membership", part.data).value());
  }
  const Charges charges = ChargesOf(core::MemberWitness(), handles);
  for (size_t i = 0; i < parts.size(); ++i) {
    ASSERT_LT(charges.hot[i], charges.warm[i]) << "a narrow view is smaller";
  }

  PreparedStore::Options options;
  options.byte_budget = charges.hot[0] + charges.hot[1] + charges.hot[2];
  options.tiered = true;
  auto engine = MakeEngine(options);
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < parts.size(); ++i) {
      auto batch =
          engine->AnswerBatch("list-membership", parts[i].data, queries);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      EXPECT_EQ(batch->answers, Expected(parts[i], queries));
    }
  }
  const PreparedStore::Stats stats = engine->store().stats();
  EXPECT_EQ(stats.view_demotions, 0);
  EXPECT_GT(stats.evictions, 0);
  EXPECT_EQ(stats.payload_encodes, 0);
  EXPECT_LE(engine->store().bytes_resident(), options.byte_budget);
}

/// Store-level view-first options over a toy view: a copy of the payload
/// whose footprint the test chooses.
PreparedStore::EntryOptions ToyViewFirst(size_t view_bytes) {
  PreparedStore::EntryOptions options;
  options.make_view = [](const std::shared_ptr<const std::string>& prepared,
                         CostMeter*) -> Result<std::shared_ptr<const void>> {
    return std::shared_ptr<const void>(
        std::make_shared<const std::string>(*prepared));
  };
  options.encode_view = [](const void* view, std::string* out) {
    out->append(*static_cast<const std::string*>(view));
    return Status::OK();
  };
  options.view_bytes = [view_bytes](const void*) { return view_bytes; };
  return options;
}

TEST(ViewFirstStoreTest, DemotionIsSkippedWhenTheViewIsSmallerThanThePayload) {
  // Demoting such a view would *grow* the entry by |Π| − view bytes, so
  // the sweep evicts instead. Each entry charges its ≈ 10-byte key, the
  // overhead and a 100-byte view: four do not fit in 500 bytes.
  PreparedStore::Options options;
  options.byte_budget = 500;
  options.tiered = true;
  PreparedStore store(options);
  const PreparedStore::EntryOptions entry_options = ToyViewFirst(100);
  for (int i = 0; i < 4; ++i) {
    auto view = store.GetOrComputeView(
        "p", "w", "data-" + std::to_string(i),
        [](CostMeter*) -> Result<std::string> {
          return std::string(1000, 'x');
        },
        nullptr, nullptr, entry_options);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(view->prepared, nullptr);
  }
  const PreparedStore::Stats stats = store.stats();
  EXPECT_EQ(stats.view_demotions, 0);
  EXPECT_GT(stats.evictions, 0);
  EXPECT_EQ(stats.payload_encodes, 0);
  EXPECT_LE(store.bytes_resident(), options.byte_budget);
}

TEST(ViewFirstStoreTest, AnEncoderThatBreaksItsContractFailsLoudly) {
  PreparedStore store;
  PreparedStore::EntryOptions entry_options = ToyViewFirst(16);
  entry_options.encode_view = [](const void*, std::string* out) {
    out->append("short");
    return Status::OK();
  };
  ASSERT_TRUE(store
                  .GetOrComputeView(
                      "p", "w", "d",
                      [](CostMeter*) -> Result<std::string> {
                        return std::string("the-real-payload");
                      },
                      nullptr, nullptr, entry_options)
                  .ok());
  const std::string dir = UniqueTempDir("broken");
  EXPECT_FALSE(store.Spill(dir).ok());
  EXPECT_EQ(store.stats().respill_failures, 1);
  EXPECT_TRUE(Frames(dir).empty()) << "a wrong payload reached the disk";
  auto payload = store.GetOrCompute(
      "p", "w", "d",
      [](CostMeter*) -> Result<std::string> { return std::string("rerun"); });
  EXPECT_FALSE(payload.ok());
  fs::remove_all(dir);
}

TEST(ViewFirstConcurrencyTest, StringPathSpillPatchAndWarmReadersRace) {
  // Eight threads on one view-first member entry: two memoize its payload
  // through the string-keyed GetOrCompute, one spills over and over, one
  // re-keys it with UpdateData (the pre-delta version stays resident), and
  // four answer warm batches through its key.
  const core::PiWitness w = core::MemberWitness();
  PreparedStore::EntryOptions options;
  options.make_view = w.deserialize;
  options.encode_view = w.encode_view;
  options.view_bytes = w.view_bytes;
  PreparedStore::Options store_options;
  store_options.shards = 4;
  store_options.versions = 2;
  PreparedStore store(store_options);

  Rng rng(35);
  const MemberPart part = MakeMemberPart(&rng, 20000);
  const std::string problem = "list-membership";
  const std::string data_b = part.data + ",77777";
  const std::string payload_a = w.preprocess(part.data, nullptr).value();
  const std::string payload_b = w.preprocess(data_b, nullptr).value();
  const PreparedStore::Key key_a = PreparedStore::InternKey(
      problem, w.name, std::make_shared<const std::string>(part.data));
  const PreparedStore::Key key_b = PreparedStore::InternKey(
      problem, w.name, std::make_shared<const std::string>(data_b));
  ASSERT_TRUE(store
                  .GetOrComputeView(
                      key_a,
                      [&](CostMeter*) -> Result<std::string> {
                        return payload_a;
                      },
                      nullptr, nullptr, options)
                  .ok());
  store.ResetStats();

  const std::vector<std::string> queries = MemberQueries(&rng, 20000, 64);
  std::vector<core::DecodedQuery> decoded(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(w.decode_query(queries[i], &decoded[i], nullptr).ok());
  }
  std::vector<uint8_t> expected;
  for (bool answer : Expected(part, queries)) expected.push_back(answer);

  const std::string dir = UniqueTempDir("race");
  std::atomic<int> failures{0};
  std::atomic<int> pi_runs{0};
  const PreparedStore::ComputeFn must_not_run = [&](CostMeter*) {
    pi_runs.fetch_add(1);
    return Result<std::string>(Status::Internal("Π must not rerun"));
  };
  std::vector<std::vector<const std::string*>> memoized(2);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      if (t < 2) {
        for (int i = 0; i < 40; ++i) {
          auto payload = store.GetOrCompute(problem, w.name, part.data,
                                            must_not_run, nullptr, nullptr,
                                            options);
          if (!payload.ok() || **payload != payload_a) {
            failures.fetch_add(1);
            continue;
          }
          memoized[static_cast<size_t>(t)].push_back(payload->get());
        }
      } else if (t == 2) {
        for (int i = 0; i < 8; ++i) {
          if (!store.Spill(dir).ok()) failures.fetch_add(1);
        }
      } else if (t == 3) {
        Status patched = store.UpdateData(
            problem, w.name, part.data, data_b,
            [&](std::string* prepared, CostMeter*) {
              if (*prepared != payload_a) {
                return Status::Internal("patch saw other bytes");
              }
              *prepared = payload_b;
              return Status::OK();
            },
            nullptr, options);
        if (!patched.ok()) failures.fetch_add(1);
      } else {
        std::vector<uint8_t> answers(queries.size());
        for (int i = 0; i < 200; ++i) {
          auto view = store.GetOrComputeView(key_a, must_not_run, nullptr,
                                             nullptr, options);
          if (!view.ok() || view->view == nullptr ||
              !w.answer_view_batch(view->view.get(), decoded,
                                   std::span<uint8_t>(answers), nullptr)
                   .ok() ||
              answers != expected) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(pi_runs.load(), 0);
  // One memoized encode: every string-path caller got the same copy.
  ASSERT_FALSE(memoized[0].empty());
  for (const auto& pointers : memoized) {
    for (const std::string* p : pointers) EXPECT_EQ(p, memoized[0].front());
  }
  const PreparedStore::Stats stats = store.stats();
  EXPECT_EQ(stats.locked_hits, 0);
  EXPECT_EQ(stats.patches, 1);
  EXPECT_GE(stats.payload_encodes, 1);

  // Exact ledger: the pre-delta version holds its memoized payload, the
  // post-delta version only its view.
  PreparedStore::PreparedView a;
  PreparedStore::PreparedView b;
  ASSERT_TRUE(store.TryGetView(key_a, options, nullptr, &a));
  ASSERT_TRUE(store.TryGetView(key_b, options, nullptr, &b));
  ASSERT_NE(a.prepared, nullptr);
  EXPECT_EQ(a.prepared.get(), memoized[0].front());
  EXPECT_EQ(b.prepared, nullptr);
  EXPECT_EQ(store.bytes_resident(),
            key_a.size() + payload_a.size() + w.view_bytes(a.view.get()) +
                key_b.size() + w.view_bytes(b.view.get()) +
                2 * PreparedStore::kEntryOverheadBytes);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace engine
}  // namespace pitract
