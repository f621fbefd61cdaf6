// The fork-join pool (common/parallel.h) and the cold-path passes built on
// it: DecodeInts, EncodeInts and RadixSortInts must give exactly what
// their serial references give at every size around the grain, a
// malformed token must get the serial decoder's Status wherever it sits
// relative to the chunk cuts, and the pool itself must survive concurrent
// forks, nested Runs and throwing tasks.

#include "common/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <limits>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/codec.h"
#include "common/rng.h"

namespace pitract {
namespace {

using parallel::kGrain;

std::string ReferenceEncode(const std::vector<int64_t>& values) {
  std::string out;
  char digits[24];
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.append(digits, std::to_chars(digits, digits + sizeof(digits),
                                     values[i]).ptr);
  }
  return out;
}

std::vector<int64_t> ReferenceSort(std::vector<int64_t> values) {
  std::sort(values.begin(), values.end());
  return values;
}

enum class Shape { kSigned, kExtremes, kDuplicates, kSharedHighBytes };

std::vector<int64_t> Keys(Shape shape, size_t n, Rng* rng) {
  std::vector<int64_t> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    switch (shape) {
      case Shape::kSigned:
        keys.push_back(static_cast<int64_t>(rng->Next()));
        break;
      case Shape::kExtremes: {
        const int64_t pick = rng->NextInRange(0, 3);
        keys.push_back(pick == 0   ? std::numeric_limits<int64_t>::min()
                       : pick == 1 ? std::numeric_limits<int64_t>::max()
                                   : rng->NextInRange(-5, 5));
        break;
      }
      case Shape::kDuplicates:
        keys.push_back(rng->NextInRange(-3, 3));
        break;
      case Shape::kSharedHighBytes:
        keys.push_back(-(int64_t{0x5a5a} << 40) + rng->NextInRange(0, 4095));
        break;
    }
  }
  return keys;
}

const std::vector<size_t>& Sizes() {
  static const std::vector<size_t> sizes = {
      0, 1, kGrain - 1, kGrain, kGrain + 1, size_t{1} << 16, size_t{1} << 20};
  return sizes;
}

TEST(ParallelCodecTest, EncodeDecodeAndSortMatchSerialReferences) {
  Rng rng(140);
  for (Shape shape : {Shape::kSigned, Shape::kExtremes, Shape::kDuplicates,
                      Shape::kSharedHighBytes}) {
    for (size_t n : Sizes()) {
      SCOPED_TRACE("shape " + std::to_string(static_cast<int>(shape)) +
                   ", n = " + std::to_string(n));
      const std::vector<int64_t> keys = Keys(shape, n, &rng);
      const std::string text = codec::EncodeInts(keys);
      ASSERT_EQ(text, ReferenceEncode(keys));

      auto decoded = codec::DecodeInts(text);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      ASSERT_EQ(*decoded, keys);
      ASSERT_EQ(codec::EncodedIntsSize(keys), text.size());
      // The bounds folded into the chunked parse.
      codec::IntBounds bounds{1, -1};
      auto bounded = codec::DecodeInts(text, &bounds);
      ASSERT_TRUE(bounded.ok());
      ASSERT_EQ(*bounded, keys);
      if (keys.empty()) {
        EXPECT_EQ(bounds.min, 0);
        EXPECT_EQ(bounds.max, 0);
      } else {
        EXPECT_EQ(bounds.min, *std::min_element(keys.begin(), keys.end()));
        EXPECT_EQ(bounds.max, *std::max_element(keys.begin(), keys.end()));
      }
      std::vector<int64_t> serial;
      ASSERT_TRUE(codec::DecodeIntsInto(text, &serial).ok());
      ASSERT_EQ(serial, keys);

      std::vector<int64_t> sorted = keys;
      parallel::RadixSortInts(&sorted);
      ASSERT_EQ(sorted, ReferenceSort(keys));
    }
  }
}

TEST(ParallelCodecTest, DecodeMatchesAtByteSizesAroundTheGrain) {
  // The decoder splits text by bytes: hit kGrain - 1, kGrain and kGrain + 1
  // bytes exactly, ending on a one-digit token.
  for (size_t bytes : {kGrain - 1, kGrain, kGrain + 1, 4 * kGrain + 3}) {
    SCOPED_TRACE(bytes);
    std::string text;
    std::vector<int64_t> want;
    while (text.size() + 8 < bytes) {
      want.push_back(-1234567);
      text += "-1234567,";
    }
    while (text.size() + 2 < bytes) {
      want.push_back(5);
      text += "5,";
    }
    if (text.size() + 1 < bytes) {
      want.push_back(42);
      text += "42";
    } else {
      want.push_back(7);
      text += "7";
    }
    ASSERT_EQ(text.size(), bytes);
    auto decoded = codec::DecodeInts(text);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(*decoded, want);
  }
}

/// DecodeInts and the serial DecodeIntsInto agree on `text`: the same
/// values, or the same Status code and message.
void ExpectSameAsSerial(const std::string& text) {
  auto parallel = codec::DecodeInts(text);
  codec::IntBounds bounds;
  auto bounded = codec::DecodeInts(text, &bounds);
  std::vector<int64_t> serial_values;
  const Status serial = codec::DecodeIntsInto(text, &serial_values);
  ASSERT_EQ(parallel.ok(), serial.ok()) << serial.ToString();
  ASSERT_EQ(bounded.ok(), serial.ok());
  if (serial.ok()) {
    EXPECT_EQ(*parallel, serial_values);
    EXPECT_EQ(*bounded, serial_values);
  } else {
    EXPECT_EQ(parallel.status().code(), serial.code());
    EXPECT_EQ(parallel.status().message(), serial.message());
    EXPECT_EQ(bounded.status().message(), serial.message());
  }
}

TEST(ParallelCodecTest, MalformedTokenInEveryChunkAndAcrossEveryCut) {
  Rng rng(141);
  std::vector<int64_t> keys = Keys(Shape::kSigned, 4096, &rng);
  const std::string text = codec::EncodeInts(keys);
  ASSERT_GT(text.size(), 8 * kGrain);
  const size_t chunks = parallel::ChunksFor(text.size());
  // Every even split point (where a cut is searched from), a window of
  // bytes around it, and the middle of every chunk.
  std::set<size_t> positions = {0, text.size() - 1};
  for (size_t c = 0; c < chunks; ++c) {
    const size_t split = c * text.size() / chunks;
    positions.insert(split + text.size() / chunks / 2);
    for (size_t d = 0; d < 24; ++d) {
      if (split + d >= 12 && split + d - 12 < text.size()) {
        positions.insert(split + d - 12);
      }
    }
  }
  for (size_t pos : positions) {
    if (pos >= text.size()) continue;
    for (char bad : {'x', ',', '-', ' '}) {
      std::string corrupt = text;
      corrupt[pos] = bad;
      SCOPED_TRACE("byte " + std::to_string(pos) + " -> '" + bad + "'");
      ExpectSameAsSerial(corrupt);
    }
  }
  // Tokens that do not fit an int64, and empty tokens at both ends.
  ExpectSameAsSerial(text + ",99999999999999999999");
  ExpectSameAsSerial("99999999999999999999," + text);
  ExpectSameAsSerial(text + ",");
  ExpectSameAsSerial("," + text);
  ExpectSameAsSerial(text.substr(0, text.size() / 2) + ",," +
                     text.substr(text.size() / 2));
}

TEST(ParallelPoolTest, RunsEveryChunkExactlyOnce) {
  for (size_t chunks : {size_t{0}, size_t{1}, size_t{2}, size_t{7},
                        size_t{64}, size_t{1000}}) {
    std::vector<std::atomic<int>> hits(chunks);
    parallel::Run(chunks, [&](size_t c) { hits[c].fetch_add(1); });
    for (size_t c = 0; c < chunks; ++c) EXPECT_EQ(hits[c].load(), 1) << c;
  }
}

TEST(ParallelPoolTest, JobsCountsOnlyMultiChunkRuns) {
  const uint64_t before = parallel::jobs();
  parallel::Run(1, [](size_t) {});
  parallel::Run(0, [](size_t) {});
  EXPECT_EQ(parallel::jobs(), before);
  parallel::Run(3, [](size_t) {});
  EXPECT_EQ(parallel::jobs(), before + 1);
  EXPECT_EQ(parallel::ChunksFor(0), 1u);
  EXPECT_EQ(parallel::ChunksFor(kGrain - 1), 1u);
}

TEST(ParallelPoolTest, EightThreadsForkAtOnce) {
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &failures] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      for (int round = 0; round < 3; ++round) {
        const std::vector<int64_t> keys =
            Keys(static_cast<Shape>((t + round) % 4), size_t{1} << 15, &rng);
        const std::string text = codec::EncodeInts(keys);
        if (text != ReferenceEncode(keys)) ++failures[t];
        auto decoded = codec::DecodeInts(text);
        if (!decoded.ok() || *decoded != keys) ++failures[t];
        std::vector<int64_t> sorted = keys;
        parallel::RadixSortInts(&sorted);
        if (sorted != ReferenceSort(keys)) ++failures[t];
        std::atomic<int64_t> sum{0};
        parallel::Run(100, [&](size_t c) {
          sum.fetch_add(static_cast<int64_t>(c));
        });
        if (sum.load() != 4950) ++failures[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;
}

TEST(ParallelPoolTest, NestedRunGoesInline) {
  std::atomic<int> inner_total{0};
  std::atomic<int> off_thread{0};
  const uint64_t inlined_before = parallel::inlined();
  parallel::Run(4, [&](size_t) {
    const std::thread::id self = std::this_thread::get_id();
    parallel::Run(8, [&](size_t) {
      inner_total.fetch_add(1);
      if (std::this_thread::get_id() != self) off_thread.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_total.load(), 32);
  EXPECT_EQ(off_thread.load(), 0);
  EXPECT_GE(parallel::inlined(), inlined_before + 4);
}

TEST(ParallelPoolTest, ThrowingTaskRethrowsOnTheCaller) {
  EXPECT_THROW(parallel::Run(16,
                             [](size_t c) {
                               if (c == 11) throw std::runtime_error("chunk");
                             }),
               std::runtime_error);

  // A throw from a helper, not the caller: chunks hold long enough that
  // helpers claim some, and only chunks off the calling thread throw.
  if (std::thread::hardware_concurrency() < 2) {
    GTEST_SKIP() << "one core: no helper threads to throw from";
  }
  bool helper_threw = false;
  for (int attempt = 0; attempt < 20 && !helper_threw; ++attempt) {
    const std::thread::id caller = std::this_thread::get_id();
    try {
      parallel::Run(32, [caller](size_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        if (std::this_thread::get_id() != caller) {
          throw std::invalid_argument("from a helper");
        }
      });
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "from a helper");
      helper_threw = true;
    }
  }
  EXPECT_TRUE(helper_threw);

  // The pool still works after a failed job.
  std::atomic<int> ran{0};
  parallel::Run(64, [&](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 64);
}

}  // namespace
}  // namespace pitract
