// Byte-level spill corruption fuzzing: for every builtin witness family, a
// spilled frame is truncated at every offset class and bit-flipped at every
// offset class (every single byte for the list-membership frame), and the
// store must (a) never admit the damaged frame, (b) classify header damage
// as `load_skipped` and post-header damage as `load_corrupt`, and (c) keep
// serving *correct* answers afterwards by degrading to recompute-on-miss.
//
// The frame layout under test (prepared_store.cc, kSpillVersion = 3):
//   [magic u32][version u32][checksum u64][key frame][payload frame][size u64]
// with the checksum covering every byte after itself.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "circuit/generators.h"
#include "common/rng.h"
#include "common/serde.h"
#include "core/problems.h"
#include "engine/builtins.h"
#include "engine/engine.h"
#include "engine/prepared_store.h"
#include "graph/generators.h"
#include "incremental/incremental_tc.h"

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

std::unique_ptr<QueryEngine> MakeEngine() {
  auto engine = std::make_unique<QueryEngine>();
  auto status = RegisterBuiltins(engine.get());
  EXPECT_TRUE(status.ok()) << status.ToString();
  return engine;
}

/// One builtin witness with one data part, its probe batch, and the
/// reference answers a pristine engine produces.
struct WitnessCase {
  std::string problem;
  std::string data;
  std::vector<std::string> queries;
  std::vector<bool> expected;
  std::string frame;  // the well-formed spilled frame for this entry
};

std::vector<WitnessCase> BuildWitnessCases() {
  Rng rng(4242);
  std::vector<WitnessCase> cases;

  {
    std::vector<int64_t> list;
    for (int i = 0; i < 48; ++i) {
      list.push_back(static_cast<int64_t>(rng.NextBelow(128)));
    }
    WitnessCase member;
    member.problem = "list-membership";
    member.data = core::MemberFactorization()
                      .pi1(core::MakeMemberInstance(128, list, 0))
                      .value();
    for (int i = 0; i < 16; ++i) {
      member.queries.push_back(std::to_string(rng.NextBelow(128)));
    }
    cases.push_back(std::move(member));
  }

  auto undirected = graph::ErdosRenyi(32, 48, /*directed=*/false, &rng);
  auto directed = graph::ErdosRenyi(32, 64, /*directed=*/true, &rng);
  WitnessCase conn;
  conn.problem = "connectivity";
  conn.data =
      core::ConnFactorization().pi1(core::MakeConnInstance(undirected, 0, 0))
          .value();
  WitnessCase bds;
  bds.problem = "breadth-depth-search";
  bds.data =
      core::BdsFactorization().pi1(core::MakeBdsInstance(undirected, 0, 0))
          .value();
  WitnessCase reach;
  reach.problem = "graph-reachability";
  reach.data =
      core::ReachFactorization().pi1(core::MakeReachInstance(directed, 0, 0))
          .value();
  for (int i = 0; i < 16; ++i) {
    std::string q = std::to_string(rng.NextBelow(32)) + "#" +
                    std::to_string(rng.NextBelow(32));
    conn.queries.push_back(q);
    bds.queries.push_back(q);
    reach.queries.push_back(q);
  }
  cases.push_back(std::move(conn));
  cases.push_back(std::move(bds));
  cases.push_back(std::move(reach));

  {
    Rng crng(7);
    circuit::CircuitGenOptions copts;
    copts.num_inputs = 5;
    copts.num_gates = 16;
    auto instance = circuit::RandomCvpInstance(copts, &crng);
    WitnessCase gvp;
    gvp.problem = "cvp-refactorized";
    gvp.data = core::GvpFactorization()
                   .pi1(core::MakeGvpInstance(instance, 0))
                   .value();
    for (circuit::GateId g = 0; g < instance.circuit.num_gates(); ++g) {
      gvp.queries.push_back(std::to_string(g));
    }
    cases.push_back(std::move(gvp));
    // cvp-nand-eval is registered spillable=false (its Π keeps the circuit
    // verbatim), so it never writes a frame and has nothing to fuzz here.
  }

  // Reference answers + the well-formed frame, one spill per case so each
  // directory holds exactly that case's file.
  for (WitnessCase& c : cases) {
    auto engine = MakeEngine();
    auto batch = engine->AnswerBatch(c.problem, c.data, c.queries);
    EXPECT_TRUE(batch.ok()) << c.problem << ": " << batch.status().ToString();
    if (!batch.ok()) continue;
    c.expected = batch->answers;
    const std::string dir = UniqueTempDir("frame");
    EXPECT_TRUE(engine->store().Spill(dir).ok()) << c.problem;
    int files = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      ++files;
      std::ifstream in(entry.path(), std::ios::binary);
      c.frame.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    EXPECT_EQ(files, 1) << c.problem << " spilled " << files << " files";
    fs::remove_all(dir);
  }
  return cases;
}

/// Frame geometry: byte offsets of each damage class within `frame`.
/// [0,4) magic, [4,8) version, [8,16) checksum, [16,24) key length,
/// [24, 24+key_len) key bytes, then the payload frame and the trailing
/// size u64.
struct FrameOffsets {
  size_t magic = 0;
  size_t version = 4;
  size_t checksum = 8;
  size_t key_length = 16;
  size_t key_bytes = 24;
  size_t payload_length = 0;
  size_t payload_bytes = 0;
  size_t trailing_size = 0;
};

FrameOffsets OffsetsOf(const std::string& frame) {
  FrameOffsets offsets;
  uint64_t key_len = 0;
  for (int i = 0; i < 8; ++i) {
    key_len |= static_cast<uint64_t>(
                   static_cast<unsigned char>(frame[16 + i]))
               << (8 * i);
  }
  offsets.payload_length = 24 + key_len;
  offsets.payload_bytes = offsets.payload_length + 8;
  offsets.trailing_size = frame.size() - 8;
  return offsets;
}

void WriteFrame(const std::string& dir, const std::string& bytes) {
  // The store only considers its own extension (.pit) during a Load scan.
  std::ofstream out(fs::path(dir) / "spill_entry.pit",
                    std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// Loads `bytes` as the only frame in a fresh store and asserts it was
/// never admitted, with the damage classified as `expect_corrupt` says.
void ExpectRejected(const std::string& bytes, bool expect_corrupt,
                    const std::string& trace) {
  SCOPED_TRACE(trace);
  const std::string dir = UniqueTempDir("fuzz");
  WriteFrame(dir, bytes);
  PreparedStore store;
  auto loaded = store.Load(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 0u);  // never admitted
  EXPECT_EQ(store.size(), 0u);
  auto stats = store.stats();
  if (expect_corrupt) {
    EXPECT_EQ(stats.load_corrupt, 1);
    EXPECT_EQ(stats.load_skipped, 0);
  } else {
    EXPECT_EQ(stats.load_skipped, 1);
    EXPECT_EQ(stats.load_corrupt, 0);
  }
  fs::remove_all(dir);
}

TEST(SpillCorruptionTest, TruncationAtEveryOffsetClassIsRejected) {
  for (const WitnessCase& c : BuildWitnessCases()) {
    ASSERT_FALSE(c.frame.empty()) << c.problem;
    const FrameOffsets offsets = OffsetsOf(c.frame);
    // Every header length, every class boundary, and a sweep through the
    // body (stride keeps big payload frames bounded).
    std::vector<size_t> lengths;
    for (size_t len = 0; len < std::min<size_t>(c.frame.size(), 32); ++len) {
      lengths.push_back(len);
    }
    for (size_t len : {offsets.key_bytes, offsets.payload_length,
                       offsets.payload_bytes, offsets.trailing_size,
                       c.frame.size() - 1}) {
      if (len < c.frame.size()) lengths.push_back(len);
    }
    const size_t stride = std::max<size_t>(1, c.frame.size() / 64);
    for (size_t len = 32; len < c.frame.size(); len += stride) {
      lengths.push_back(len);
    }
    for (size_t len : lengths) {
      // A truncation inside magic+version reads as a foreign file:
      // skipped. Once both header words survive, the frame is *ours* and
      // torn — every further truncation is corruption.
      ExpectRejected(c.frame.substr(0, len), /*expect_corrupt=*/len >= 8,
                     c.problem + " truncated to " + std::to_string(len));
    }
  }
}

TEST(SpillCorruptionTest, BitFlipAtEveryOffsetClassIsRejected) {
  for (const WitnessCase& c : BuildWitnessCases()) {
    ASSERT_FALSE(c.frame.empty()) << c.problem;
    const FrameOffsets offsets = OffsetsOf(c.frame);
    std::vector<size_t> flip_offsets = {
        offsets.magic,          offsets.version,     offsets.checksum,
        offsets.checksum + 7,   offsets.key_length,  offsets.key_bytes,
        offsets.payload_length, offsets.payload_bytes,
        (offsets.payload_bytes + offsets.trailing_size) / 2,
        offsets.trailing_size,  c.frame.size() - 1};
    for (size_t offset : flip_offsets) {
      ASSERT_LT(offset, c.frame.size()) << c.problem;
      for (int bit : {0, 7}) {
        std::string flipped = c.frame;
        flipped[offset] = static_cast<char>(
            static_cast<unsigned char>(flipped[offset]) ^ (1u << bit));
        // Magic/version damage reads as a foreign file: skipped. Any flip
        // from the checksum on breaks the integrity check: corrupt.
        ExpectRejected(flipped, /*expect_corrupt=*/offset >= 8,
                       c.problem + " bit " + std::to_string(bit) +
                           " flipped at offset " + std::to_string(offset));
      }
    }
  }
}

TEST(SpillCorruptionTest, EveryByteFlipOfTheMemberFrameIsRejected) {
  const std::vector<WitnessCase> cases = BuildWitnessCases();
  const WitnessCase& member = cases.front();
  ASSERT_EQ(member.problem, "list-membership");
  ASSERT_FALSE(member.frame.empty());
  for (size_t offset = 0; offset < member.frame.size(); ++offset) {
    std::string flipped = member.frame;
    flipped[offset] = static_cast<char>(
        static_cast<unsigned char>(flipped[offset]) ^
        (1u << (offset % 8)));
    ExpectRejected(flipped, /*expect_corrupt=*/offset >= 8,
                   "member frame flipped at offset " + std::to_string(offset));
  }
}

TEST(SpillCorruptionTest, CorruptFramesDegradeToRecomputeWithCorrectAnswers) {
  for (const WitnessCase& c : BuildWitnessCases()) {
    ASSERT_FALSE(c.frame.empty()) << c.problem;
    const FrameOffsets offsets = OffsetsOf(c.frame);
    for (size_t offset :
         {offsets.magic, offsets.checksum, offsets.key_bytes,
          offsets.payload_bytes, offsets.trailing_size}) {
      SCOPED_TRACE(c.problem + " flipped at offset " +
                   std::to_string(offset));
      std::string flipped = c.frame;
      flipped[offset] = static_cast<char>(
          static_cast<unsigned char>(flipped[offset]) ^ 0x10);
      const std::string dir = UniqueTempDir("degrade");
      WriteFrame(dir, flipped);
      auto engine = MakeEngine();
      auto loaded = engine->store().Load(dir);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      EXPECT_EQ(*loaded, 0u);
      // The damaged frame is gone; the first query batch recomputes Π and
      // answers byte-for-byte what the pristine engine answered.
      auto batch = engine->AnswerBatch(c.problem, c.data, c.queries);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      EXPECT_EQ(batch->prepare_runs, 1);  // recompute-on-miss, not a load
      ASSERT_EQ(batch->answers.size(), c.expected.size());
      for (size_t i = 0; i < c.expected.size(); ++i) {
        EXPECT_EQ(batch->answers[i], c.expected[i]) << "query " << i;
      }
      fs::remove_all(dir);
    }
  }
}

/// `frame` with its key replaced by `key`, re-checksummed: a frame that
/// passes the frame layer and carries exactly the key under test.
std::string WithKey(const std::string& frame, const std::string& key) {
  const FrameOffsets offsets = OffsetsOf(frame);
  std::string body;
  serde::PutBytes(&body, key);
  body.append(frame, offsets.payload_length);  // payload frame + size u64
  std::string framed = frame.substr(0, offsets.checksum);
  serde::PutU64(&framed, serde::Checksum64(body));
  return framed + body;
}

TEST(SpillCorruptionTest, FrameKeyWithoutBothSeparatorsIsCorrupt) {
  // Load splits a frame's key `problem \x1f witness \x1f D` at its second
  // separator. A checksum-valid frame whose key has fewer than two was
  // never written by Spill: it is counted corrupt, never admitted.
  const std::vector<WitnessCase> cases = BuildWitnessCases();
  const WitnessCase& member = cases.front();
  ASSERT_EQ(member.problem, "list-membership");
  const FrameOffsets offsets = OffsetsOf(member.frame);
  const std::string key = member.frame.substr(
      offsets.key_bytes, offsets.payload_length - offsets.key_bytes);
  ASSERT_EQ(WithKey(member.frame, key), member.frame);
  const size_t first = key.find('\x1f');
  ASSERT_NE(first, std::string::npos);
  for (const std::string& bad :
       {std::string(), std::string("list-membership"),
        key.substr(0, first + 1), key.substr(0, first) + key.substr(first + 1),
        std::string("\x1f")}) {
    ExpectRejected(WithKey(member.frame, bad), /*expect_corrupt=*/true,
                   "key of " + std::to_string(bad.size()) + " bytes");
  }
  // Two separators and nothing else is a well-formed (if odd) key.
  const std::string dir = UniqueTempDir("bare_key");
  WriteFrame(dir, WithKey(member.frame, "\x1f\x1f"));
  PreparedStore store;
  auto loaded = store.Load(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 1u);
  EXPECT_EQ(store.stats().load_corrupt, 0);
  fs::remove_all(dir);
}

TEST(SpillCorruptionTest, ClosureRowBitPastNodeCountIsRejected) {
  // A frame re-checksummed after tampering (or one whose damage collides
  // with the checksum) passes the frame layer, so the closure image itself
  // must refuse a row bit naming a node >= n: InsertEdge walks the set
  // bits of a row without a bound check.
  for (const WitnessCase& c : BuildWitnessCases()) {
    if (c.problem != "graph-reachability") continue;
    ASSERT_FALSE(c.frame.empty());
    const FrameOffsets offsets = OffsetsOf(c.frame);
    const size_t payload_size = offsets.trailing_size - offsets.payload_bytes;
    ASSERT_TRUE(incremental::IncrementalTransitiveClosure::Deserialize(
                    std::string_view(c.frame).substr(offsets.payload_bytes,
                                                     payload_size))
                    .ok());
    // The image is [tag][n][m] then desc row 0: with n = 32 each row is
    // one word, and bit 32 of it (byte 4) is past the node count.
    std::string tampered = c.frame;
    const size_t row0 = offsets.payload_bytes + 24;
    tampered[row0 + 4] = static_cast<char>(
        static_cast<unsigned char>(tampered[row0 + 4]) | 0x01);
    std::string checksum;
    serde::PutU64(&checksum,
                  serde::Checksum64(std::string_view(tampered).substr(16)));
    tampered.replace(8, 8, checksum);

    auto image = incremental::IncrementalTransitiveClosure::Deserialize(
        std::string_view(tampered).substr(offsets.payload_bytes,
                                          payload_size));
    ASSERT_FALSE(image.ok());
    EXPECT_EQ(image.status().code(), StatusCode::kInvalidArgument);

    // The frame layer admits it, so it is the Δ-patch (Deserialize, then
    // InsertEdge) that meets the stray bit: the patch is refused and the
    // post-delta part recomputes on its first miss, answering what a
    // pristine engine answers.
    const std::string dir = UniqueTempDir("rowbit");
    WriteFrame(dir, tampered);
    auto engine = MakeEngine();
    auto loaded = engine->store().Load(dir);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(*loaded, 1u);
    DeltaBatch delta;
    DeltaOp op;
    op.kind = DeltaOp::Kind::kEdgeInsert;
    op.a = 0;
    op.b = 31;
    delta.ops.push_back(op);
    auto outcome = engine->ApplyDelta(c.problem, c.data, delta);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_FALSE(outcome->patched);
    auto pristine = MakeEngine();
    auto want = pristine->AnswerBatch(c.problem, outcome->new_data, c.queries);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    auto got = engine->AnswerBatch(c.problem, outcome->new_data, c.queries);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->prepare_runs, 1);
    EXPECT_EQ(got->answers, want->answers);
    fs::remove_all(dir);
  }
}

}  // namespace
}  // namespace engine
}  // namespace pitract
