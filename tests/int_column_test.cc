// core::IntColumn, the decoded view of the int-list witnesses (member,
// interval, connectivity, BDS): the width it picks at each range boundary,
// its values and byte-exact re-encoding, and — for every witness over
// columns of each width, negative bases included — kernel answers, error
// codes and charged work equal to the witness's string `answer`, with
// query keys at and just past the column's frame and at the int64 limits.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/cost_meter.h"
#include "common/heap_bytes.h"
#include "common/rng.h"
#include "core/int_column.h"
#include "core/problems.h"

namespace pitract {
namespace core {
namespace {

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

/// `base + offset` without signed overflow (the caller keeps it in range).
int64_t Add(int64_t base, uint64_t offset) {
  return static_cast<int64_t>(static_cast<uint64_t>(base) + offset);
}

/// One column shape: values spanning exactly [base, base + range].
struct Shape {
  int64_t base;
  uint64_t range;
  size_t width;  // the width the column must pick
};

std::vector<Shape> Shapes() {
  std::vector<Shape> shapes;
  const uint64_t kRanges[] = {0, 65535, 65536, (uint64_t{1} << 32) - 1,
                              uint64_t{1} << 32};
  for (uint64_t range : kRanges) {
    const size_t width = range <= UINT16_MAX ? 2 : range <= UINT32_MAX ? 4 : 8;
    for (int64_t base : {int64_t{0}, int64_t{-7}, int64_t{-1} << 40,
                         int64_t{123456789}, kMin,
                         Add(kMax, 0 - range)}) {
      shapes.push_back({base, range, width});
    }
  }
  // The whole int64 line: only raw values hold it.
  shapes.push_back({kMin, ~uint64_t{0}, 8});
  return shapes;
}

/// `n` values in [base, base + range], both ends included, in random order.
std::vector<int64_t> ValuesOf(const Shape& shape, size_t n, Rng* rng) {
  std::vector<int64_t> values = {shape.base, Add(shape.base, shape.range)};
  while (values.size() < n) {
    const uint64_t offset = shape.range == ~uint64_t{0}
                                ? rng->Next()
                                : rng->NextBelow(shape.range + 1);
    values.push_back(Add(shape.base, offset));
  }
  values.resize(n);
  rng->Shuffle(&values);
  return values;
}

std::string ShapeName(const Shape& shape, size_t n) {
  return "base " + std::to_string(shape.base) + " range " +
         std::to_string(shape.range) + " n " + std::to_string(n);
}

/// The column of `values`, given the bounds its builders know.
IntColumn MakeColumn(const std::vector<int64_t>& values) {
  if (values.empty()) return IntColumn(values, 0, 0);
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  return IntColumn(values, *lo, *hi);
}

TEST(IntColumnTest, EmptyColumn) {
  const std::vector<int64_t> none;
  const IntColumn column = MakeColumn(none);
  EXPECT_EQ(column.size(), 0u);
  EXPECT_EQ(column.width(), 2u);
  EXPECT_EQ(column.max_offset(), 0u);
  EXPECT_EQ(column.heap_bytes(), 0u);
  std::string text = "kept";
  column.AppendTo(&text);
  EXPECT_EQ(text, "kept");
  EXPECT_EQ(column.EncodedSize(), 0u);
}

TEST(IntColumnTest, SingleValueColumns) {
  for (int64_t v : {kMin, int64_t{-1}, int64_t{0}, int64_t{42}, kMax}) {
    const std::vector<int64_t> one = {v};
    const IntColumn column = MakeColumn(one);
    EXPECT_EQ(column.size(), 1u);
    EXPECT_EQ(column.width(), 2u);
    EXPECT_EQ(column.base(), v);
    EXPECT_EQ(column.max_offset(), 0u);
    EXPECT_EQ(column[0], v);
    std::string text;
    column.AppendTo(&text);
    EXPECT_EQ(text, codec::EncodeInts(one));
  }
}

TEST(IntColumnTest, WidthFollowsTheRange) {
  Rng rng(1801);
  // 40,000 values run the narrowing and printing passes on the pool.
  for (size_t n : {size_t{2}, size_t{37}, size_t{40000}}) {
    for (const Shape& shape : Shapes()) {
      SCOPED_TRACE(ShapeName(shape, n));
      const std::vector<int64_t> values = ValuesOf(shape, n, &rng);
      const IntColumn column = MakeColumn(values);
      ASSERT_EQ(column.size(), n);
      EXPECT_EQ(column.width(), shape.width);
      EXPECT_EQ(column.min(), shape.base);
      EXPECT_EQ(column.max_offset(), shape.range);
      EXPECT_EQ(column.base(), shape.width == 8 ? 0 : shape.base);
      EXPECT_EQ(column.heap_bytes(), HeapChunkBytes(n * shape.width));
      bool same = true;
      for (size_t i = 0; i < n; ++i) same &= column[i] == values[i];
      EXPECT_TRUE(same);
      std::string text = "x,";
      column.AppendTo(&text);
      EXPECT_EQ(text, "x," + codec::EncodeInts(values));
      EXPECT_EQ(column.EncodedSize(), text.size() - 2);
    }
  }
}

TEST(IntColumnTest, KeysMoveIntoTheFrameWithoutWrapping) {
  const std::vector<int64_t> values = {-70000, -5000, -70000 + 65535};
  const IntColumn column = MakeColumn(values);
  ASSERT_EQ(column.width(), 2u);
  uint16_t offset = 1;
  EXPECT_TRUE(column.Offset(-70000, &offset));
  EXPECT_EQ(offset, 0);
  EXPECT_TRUE(column.Offset(-70000 + 65535, &offset));
  EXPECT_EQ(offset, 65535);
  for (int64_t outside : {kMin, kMax, int64_t{-70001},
                          int64_t{-70000 + 65536}, int64_t{-70000 - 65536}}) {
    EXPECT_FALSE(column.Offset(outside, &offset)) << outside;
    EXPECT_EQ(offset, 0) << outside;
  }
  EXPECT_EQ(column.Clamp<uint16_t>(kMin), 0);
  EXPECT_EQ(column.Clamp<uint16_t>(kMax), 65535);
  EXPECT_EQ(column.Clamp<uint16_t>(-5000), 65000);
}

// ---------------------------------------------------------------------------
// Witness parity: deserialize → encode_view is the identity on the payload,
// and answer_view_batch matches `answer` query by query.
// ---------------------------------------------------------------------------

/// Keys at and just past the frame's ends and at the int64 limits, plus
/// every value and its neighbours.
std::vector<int64_t> ProbeKeys(const std::vector<int64_t>& values) {
  const int64_t lo = *std::min_element(values.begin(), values.end());
  const int64_t hi = *std::max_element(values.begin(), values.end());
  std::vector<int64_t> keys = {kMin, kMax, lo, hi};
  if (lo > kMin) keys.push_back(lo - 1);
  if (hi < kMax) keys.push_back(hi + 1);
  for (int64_t v : values) {
    keys.push_back(v);
    if (v > kMin) keys.push_back(v - 1);
    if (v < kMax) keys.push_back(v + 1);
  }
  return keys;
}

/// Runs `queries` through the witness's kernel over the view of `payload`
/// and through its string `answer`, and checks answers, status codes and
/// charged work agree. Also checks the view re-encodes to `payload`.
void ExpectParity(const PiWitness& w, const std::string& payload,
                  const std::vector<std::string>& queries,
                  size_t expected_width) {
  auto shared = std::make_shared<const std::string>(payload);
  auto view = w.deserialize(shared, nullptr);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(static_cast<const IntColumn*>(view->get())->width(),
            expected_width);
  std::string encoded;
  ASSERT_TRUE(w.encode_view(view->get(), &encoded).ok());
  EXPECT_EQ(encoded, payload);

  std::vector<DecodedQuery> decoded(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(w.decode_query(queries[i], &decoded[i], nullptr).ok())
        << queries[i];
  }
  std::vector<uint8_t> answers(queries.size(), 2);
  CostMeter kernel_meter;
  const Status status =
      w.answer_view_batch(view->get(), decoded, answers, &kernel_meter);
  CostMeter reference_meter;
  Status reference_status = Status::OK();
  std::vector<uint8_t> reference(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto answer = w.answer(payload, queries[i], &reference_meter);
    if (!answer.ok()) {
      reference_status = answer.status();
      break;
    }
    reference[i] = *answer;
  }
  ASSERT_EQ(status.code(), reference_status.code()) << status.ToString();
  if (!status.ok()) return;
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(answers[i], reference[i]) << w.name << " query " << queries[i];
  }
  EXPECT_EQ(kernel_meter.work(), reference_meter.work()) << w.name;
}

TEST(IntColumnWitnessTest, MemberAndIntervalMatchTheirReference) {
  const PiWitness member = MemberWitness();
  const PiWitness interval = IntervalWitness();
  Rng rng(1802);
  for (size_t n : {size_t{1}, size_t{2}, size_t{64}, size_t{20000}}) {
    for (const Shape& shape : Shapes()) {
      SCOPED_TRACE(ShapeName(shape, n));
      std::vector<int64_t> values = ValuesOf(shape, n, &rng);
      std::sort(values.begin(), values.end());
      const std::string payload = codec::EncodeInts(values);
      const size_t width = n == 1 ? 2 : shape.width;
      // `answer` decodes the whole payload per query: the large column
      // gets the frame's edge keys and a few values, the small ones all.
      std::vector<int64_t> keys = ProbeKeys(values);
      keys.resize(std::min(keys.size(), n > 1000 ? size_t{16} : size_t{600}));
      std::vector<std::string> member_queries;
      for (int64_t key : keys) member_queries.push_back(std::to_string(key));
      ExpectParity(member, payload, member_queries, width);

      std::vector<std::string> interval_queries;
      for (size_t i = 0; i + 1 < keys.size(); ++i) {
        interval_queries.push_back(
            codec::EncodeInts({keys[i], keys[i + 1]}));
        interval_queries.push_back(codec::EncodeInts({keys[i], keys[i]}));
      }
      for (int64_t key : {keys[2], keys[3]}) {
        interval_queries.push_back(codec::EncodeInts({kMin, key}));
        interval_queries.push_back(codec::EncodeInts({key, kMax}));
      }
      interval_queries.push_back(codec::EncodeInts({kMin, kMax}));
      interval_queries.push_back(codec::EncodeInts({kMax, kMin}));
      interval_queries.push_back(codec::EncodeInts({kMin, kMin}));
      interval_queries.push_back(codec::EncodeInts({kMax, kMax}));
      ExpectParity(interval, payload, interval_queries, width);
    }
  }
}

TEST(IntColumnWitnessTest, PairGathersMatchTheirReference) {
  // The connectivity labels and BDS ranks views gather two values by node
  // id and compare them; any int64 column is a valid view to gather from.
  const PiWitness conn = ConnWitness();
  const PiWitness bds = BdsWitness();
  Rng rng(1803);
  for (size_t n : {size_t{1}, size_t{2}, size_t{64}, size_t{20000}}) {
    for (const Shape& shape : Shapes()) {
      SCOPED_TRACE(ShapeName(shape, n));
      const std::vector<int64_t> values = ValuesOf(shape, n, &rng);
      const std::string payload = codec::EncodeInts(values);
      const size_t width = n == 1 ? 2 : shape.width;
      std::vector<std::string> queries;
      for (int i = 0, count = n > 1000 ? 16 : 300; i < count; ++i) {
        queries.push_back(std::to_string(rng.NextBelow(n)) + "#" +
                          std::to_string(rng.NextBelow(n)));
      }
      queries.push_back("0#" + std::to_string(n - 1));
      queries.push_back(std::to_string(n - 1) + "#0");
      ExpectParity(conn, payload, queries, width);
      ExpectParity(bds, payload, queries, width);
      // Out-of-range ids fail the whole batch, as they fail `answer`.
      for (const std::string& bad :
           {std::to_string(n) + "#0", std::string("0#-1"),
            "0#" + std::to_string(kMax)}) {
        std::vector<std::string> with_bad = {"0#0", bad};
        ExpectParity(conn, payload, with_bad, width);
        ExpectParity(bds, payload, with_bad, width);
      }
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace pitract
