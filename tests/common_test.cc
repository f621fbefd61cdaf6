#include <gtest/gtest.h>

#include <charconv>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "common/codec.h"
#include "common/cost_meter.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/serde.h"
#include "common/status.h"

namespace pitract {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing key 42");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing key 42");
  EXPECT_EQ(s.ToString(), "NotFound: missing key 42");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::Internal("x"), Status::Internal("x"));
  EXPECT_FALSE(Status::Internal("x") == Status::Internal("y"));
  EXPECT_FALSE(Status::Internal("x") == Status::InvalidArgument("x"));
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int code = 0; code <= static_cast<int>(StatusCode::kInternal); ++code) {
    EXPECT_NE(StatusCodeToString(static_cast<StatusCode>(code)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 7;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.value_or(-1), 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::OutOfRange("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  PITRACT_ASSIGN_OR_RETURN(int half, Half(x));
  return Half(half);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  auto ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  auto bad = Quarter(6);  // 6/2 = 3, odd
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// CostMeter
// ---------------------------------------------------------------------------

TEST(CostMeterTest, SerialAddsWorkAndDepth) {
  CostMeter m;
  m.AddSerial(5);
  m.AddSerial(3);
  EXPECT_EQ(m.work(), 8);
  EXPECT_EQ(m.depth(), 8);
}

TEST(CostMeterTest, ParallelAddsSpanOnly) {
  CostMeter m;
  m.AddParallel(/*total_work=*/100, /*span=*/4);
  EXPECT_EQ(m.work(), 100);
  EXPECT_EQ(m.depth(), 4);
}

TEST(CostMeterTest, SequentialCompositionAddsBoth) {
  Cost a{10, 2};
  Cost b{5, 3};
  Cost c = a + b;
  EXPECT_EQ(c.work, 15);
  EXPECT_EQ(c.depth, 5);
}

TEST(CostMeterTest, ResetClearsEverything) {
  CostMeter m;
  m.AddSerial(4);
  m.AddBytesRead(100);
  m.AddBytesWritten(50);
  m.Reset();
  EXPECT_EQ(m.work(), 0);
  EXPECT_EQ(m.depth(), 0);
  EXPECT_EQ(m.bytes_read(), 0);
  EXPECT_EQ(m.bytes_written(), 0);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicInSeed) {
  Rng a(42), b(42), c(43);
  bool all_equal = true;
  bool any_diff_from_c = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next();
    uint64_t vb = b.Next();
    uint64_t vc = c.Next();
    all_equal &= va == vb;
    any_diff_from_c |= va != vc;
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_from_c);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u) << "all 7 values should occur";
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ZipfIsSkewed) {
  Rng rng(13);
  int64_t low_ranks = 0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    if (rng.NextZipf(1000, 0.9) < 10) ++low_ranks;
  }
  // Under uniform sampling P(rank < 10) = 1%; zipf(0.9) concentrates far
  // more mass there.
  EXPECT_GT(low_ranks, kDraws / 20);
}

TEST(RngTest, PermutationIsAPermutation) {
  Rng rng(17);
  auto p = rng.Permutation(100);
  std::set<int64_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 99);
}

// ---------------------------------------------------------------------------
// codec
// ---------------------------------------------------------------------------

TEST(CodecTest, EscapeRoundTrip) {
  const std::string nasty = "a#b@c\\d##@@";
  auto back = codec::Unescape(codec::Escape(nasty));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, nasty);
}

TEST(CodecTest, EscapedStringHasNoBareDelimiters) {
  const std::string escaped = codec::Escape("x#y@z");
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] == '#' || escaped[i] == '@') {
      ASSERT_GT(i, 0u);
      EXPECT_EQ(escaped[i - 1], '\\');
    }
  }
}

TEST(CodecTest, FieldsRoundTrip) {
  std::vector<std::string> fields = {"plain", "with#hash", "with@at",
                                     "back\\slash", ""};
  auto back = codec::DecodeFields(codec::EncodeFields(fields));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, fields);
}

TEST(CodecTest, NestedFieldEncodingsRoundTrip) {
  std::string inner = codec::EncodeFields({"a", "b#c"});
  auto outer = codec::DecodeFields(codec::EncodeFields({inner, "tail"}));
  ASSERT_TRUE(outer.ok());
  ASSERT_EQ(outer->size(), 2u);
  EXPECT_EQ((*outer)[0], inner);
  auto inner_back = codec::DecodeFields((*outer)[0]);
  ASSERT_TRUE(inner_back.ok());
  EXPECT_EQ((*inner_back)[1], "b#c");
}

TEST(CodecTest, IntsRoundTrip) {
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  const std::vector<std::vector<int64_t>> cases = {
      {0, -1, 42, hi, -hi},
      {0},
      {-1},
      {lo},
      {hi},
      {lo, hi, lo + 1, hi - 1, 0, 1, -1},
  };
  for (const auto& values : cases) {
    auto back = codec::DecodeInts(codec::EncodeInts(values));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, values);
  }
}

TEST(CodecTest, EmptyIntsRoundTrip) {
  auto back = codec::DecodeInts(codec::EncodeInts({}));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(CodecTest, MalformedIntsRejected) {
  EXPECT_FALSE(codec::DecodeInts("1,two,3").ok());
  EXPECT_FALSE(codec::DecodeInts("1,,3").ok());
}

TEST(CodecTest, DanglingEscapeRejected) {
  EXPECT_FALSE(codec::Unescape("abc\\").ok());
  EXPECT_FALSE(codec::DecodeFields("abc\\").ok());
}

TEST(CodecTest, DecodeFieldsViewSlicesWithoutCopies) {
  const std::string encoded = codec::EncodeFields({"abc", "", "12,34"});
  auto views = codec::DecodeFieldsView(encoded);
  ASSERT_TRUE(views.has_value());
  ASSERT_EQ(views->size(), 3u);
  EXPECT_EQ((*views)[0], "abc");
  EXPECT_EQ((*views)[1], "");
  EXPECT_EQ((*views)[2], "12,34");
  // Views alias the input buffer: zero per-field copies.
  EXPECT_EQ((*views)[0].data(), encoded.data());
}

TEST(CodecTest, DecodeFieldsViewMatchesDecodeFieldsWhenEscapeFree) {
  for (const std::string encoded : {std::string("a#b#c"), std::string(""),
                                    std::string("#"), std::string("1,2#3")}) {
    auto views = codec::DecodeFieldsView(encoded);
    auto copies = codec::DecodeFields(encoded);
    ASSERT_TRUE(views.has_value()) << encoded;
    ASSERT_TRUE(copies.ok()) << encoded;
    ASSERT_EQ(views->size(), copies->size()) << encoded;
    for (size_t i = 0; i < views->size(); ++i) {
      EXPECT_EQ((*views)[i], (*copies)[i]) << encoded;
    }
  }
}

TEST(CodecTest, DecodeFieldsViewDeclinesEscapedInput) {
  // Any escape sequence means slices would need unescaping: the zero-copy
  // path declines and callers fall back to DecodeFields.
  EXPECT_FALSE(codec::DecodeFieldsView(codec::EncodeFields({"da#ta", "q"}))
                   .has_value());
  EXPECT_FALSE(codec::DecodeFieldsView("abc\\").has_value());
}

TEST(CodecTest, PadPairRoundTrip) {
  auto back = codec::UnpadPair(codec::PadPair("left@x", "right#y"));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->first, "left@x");
  EXPECT_EQ(back->second, "right#y");
}

TEST(CodecTest, PadPairWithEmptyParts) {
  auto back = codec::UnpadPair(codec::PadPair("", ""));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->first, "");
  EXPECT_EQ(back->second, "");
}

TEST(CodecTest, UnpadWithoutPadSymbolFails) {
  EXPECT_FALSE(codec::UnpadPair("no-symbol-here").ok());
}

// Property sweep: random strings survive Escape/Unescape and PadPair.
class CodecPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodecPropertyTest, RandomRoundTrips) {
  Rng rng(GetParam());
  const char alphabet[] = "ab#@\\,01";
  for (int trial = 0; trial < 50; ++trial) {
    std::string left, right;
    for (uint64_t i = rng.NextBelow(20); i > 0; --i) {
      left.push_back(alphabet[rng.NextBelow(sizeof(alphabet) - 1)]);
    }
    for (uint64_t i = rng.NextBelow(20); i > 0; --i) {
      right.push_back(alphabet[rng.NextBelow(sizeof(alphabet) - 1)]);
    }
    auto pair_back = codec::UnpadPair(codec::PadPair(left, right));
    ASSERT_TRUE(pair_back.ok());
    EXPECT_EQ(pair_back->first, left);
    EXPECT_EQ(pair_back->second, right);
    auto fields_back = codec::DecodeFields(codec::EncodeFields({left, right}));
    ASSERT_TRUE(fields_back.ok());
    EXPECT_EQ((*fields_back)[0], left);
    EXPECT_EQ((*fields_back)[1], right);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// Reference decoders: the token-slicing and byte-at-a-time forms the
// single-pass codec replaced. The codec must agree with them on every
// input, down to the Status code and message.
Status ReferenceDecodeInts(std::string_view encoded,
                           std::vector<int64_t>* out) {
  out->clear();
  if (encoded.empty()) return Status::OK();
  size_t pos = 0;
  while (pos <= encoded.size()) {
    size_t comma = encoded.find(',', pos);
    std::string_view token = encoded.substr(
        pos, comma == std::string_view::npos ? std::string_view::npos
                                             : comma - pos);
    int64_t value = 0;
    auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || ptr != token.data() + token.size()) {
      out->clear();
      return Status::InvalidArgument("malformed integer token: '" +
                                     std::string(token) + "'");
    }
    out->push_back(value);
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  return Status::OK();
}

Result<std::vector<std::string>> ReferenceDecodeFields(
    std::string_view encoded) {
  std::vector<std::string> fields;
  std::string current;
  for (size_t i = 0; i < encoded.size(); ++i) {
    char c = encoded[i];
    if (c == '\\') {
      if (i + 1 >= encoded.size()) {
        return Status::InvalidArgument("dangling escape in field encoding");
      }
      current.push_back(encoded[++i]);
    } else if (c == '#') {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

std::string ReferenceEncodeInts(const std::vector<int64_t>& values) {
  std::string out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += std::to_string(values[i]);
  }
  return out;
}

/// Decodes `encoded` both ways and checks the outcomes match exactly.
void ExpectIntsAgree(std::string_view encoded) {
  SCOPED_TRACE("input '" + std::string(encoded) + "'");
  std::vector<int64_t> want;
  const Status want_status = ReferenceDecodeInts(encoded, &want);
  auto got = codec::DecodeInts(encoded);
  EXPECT_EQ(got.status(), want_status);
  if (got.ok()) {
    EXPECT_EQ(*got, want);
  }
  std::vector<int64_t> reused = {7, 8, 9};
  EXPECT_EQ(codec::DecodeIntsInto(encoded, &reused), want_status);
  EXPECT_EQ(reused, want);  // cleared on failure, like the reference
}

TEST(CodecIntsTest, EncodeIntsPrintsLikeToString) {
  // Every power-of-ten boundary, both signs, and the extremes.
  std::vector<int64_t> values = {std::numeric_limits<int64_t>::min(),
                                 std::numeric_limits<int64_t>::max()};
  for (int64_t p = 1; p <= std::numeric_limits<int64_t>::max() / 10; p *= 10) {
    for (int64_t v : {p - 1, p, p + 1, 10 * p - 1}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  EXPECT_EQ(codec::EncodeInts(values), ReferenceEncodeInts(values));
  EXPECT_EQ(codec::EncodeInts({values[0]}), "-9223372036854775808");
  EXPECT_EQ(codec::EncodeInts({values[1]}), "9223372036854775807");
}

TEST(CodecIntsTest, MalformedTokensMatchTheReferenceStatus) {
  for (const char* encoded :
       {"1,two,3", "1,,3", "1,", ",", ",1", ",,", "-", "+1", " 1", "1 ",
        "12a,3", "0x10", "1.5", "--1", "1-", "9223372036854775807",
        "9223372036854775808", "-9223372036854775808",
        "-9223372036854775809", "99999999999999999999,1", "1,2,3,"}) {
    ExpectIntsAgree(encoded);
  }
  EXPECT_EQ(codec::DecodeInts("1,").status(),
            Status::InvalidArgument("malformed integer token: ''"));
  EXPECT_EQ(codec::DecodeInts("4,12a,3").status(),
            Status::InvalidArgument("malformed integer token: '12a'"));
}

class CodecIntsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodecIntsPropertyTest, RandomListsRoundTripWithExactCapacity) {
  Rng rng(GetParam());
  std::vector<int64_t> reused;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<int64_t> values(rng.NextBelow(300));
    for (int64_t& v : values) {
      // Random magnitude so every digit count shows up.
      const int shift = static_cast<int>(rng.NextBelow(64));
      v = static_cast<int64_t>(rng.Next() >> shift);
      if (rng.NextBool()) v = -v;
    }
    const std::string encoded = codec::EncodeInts(values);
    EXPECT_EQ(encoded, ReferenceEncodeInts(values));
    if (encoded.size() > 15) {
      EXPECT_EQ(encoded.capacity(), encoded.size());
    }
    auto back = codec::DecodeInts(encoded);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, values);
    EXPECT_EQ(back->capacity(), back->size());
    ASSERT_TRUE(codec::DecodeIntsInto(encoded, &reused).ok());
    EXPECT_EQ(reused, values);
  }
}

TEST_P(CodecIntsPropertyTest, RandomTextDecodesLikeTheReference) {
  Rng rng(GetParam());
  const char alphabet[] = "0123456789,,-+ x";
  for (int trial = 0; trial < 400; ++trial) {
    std::string encoded;
    for (uint64_t i = rng.NextBelow(24); i > 0; --i) {
      encoded.push_back(alphabet[rng.NextBelow(sizeof(alphabet) - 1)]);
    }
    ExpectIntsAgree(encoded);
  }
}

TEST_P(CodecIntsPropertyTest, DecodeFieldsMatchesReferenceEitherWay) {
  Rng rng(GetParam());
  const char alphabet[] = "ab#@\\,01";
  for (int trial = 0; trial < 400; ++trial) {
    // Raw text, dangling escapes included.
    std::string raw;
    for (uint64_t i = rng.NextBelow(24); i > 0; --i) {
      raw.push_back(alphabet[rng.NextBelow(sizeof(alphabet) - 1)]);
    }
    auto want = ReferenceDecodeFields(raw);
    auto got = codec::DecodeFields(raw);
    EXPECT_EQ(got.status(), want.status()) << raw;
    if (got.ok() && want.ok()) {
      EXPECT_EQ(*got, *want) << raw;
    }

    // The same field list, encoded with escapes (delimiters in the fields)
    // and without (delimiters stripped), decodes to what was encoded.
    std::vector<std::string> fields(1 + rng.NextBelow(4));
    for (std::string& field : fields) {
      for (uint64_t i = rng.NextBelow(12); i > 0; --i) {
        field.push_back(alphabet[rng.NextBelow(sizeof(alphabet) - 1)]);
      }
    }
    std::vector<std::string> plain = fields;
    for (std::string& field : plain) {
      std::erase_if(field, [](char c) { return c == '#' || c == '\\'; });
    }
    for (const auto& list : {fields, plain}) {
      auto back = codec::DecodeFields(codec::EncodeFields(list));
      ASSERT_TRUE(back.ok());
      EXPECT_EQ(*back, list);
      for (const std::string& field : *back) {
        if (field.size() > 15) {
          EXPECT_EQ(field.capacity(), field.size());
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecIntsPropertyTest,
                         ::testing::Values(11, 12, 13, 14));

// ---------------------------------------------------------------------------
// serde: length-prefixed binary framing (PreparedStore spill files)
// ---------------------------------------------------------------------------

TEST(SerdeTest, IntegersRoundTripLittleEndian) {
  std::string buffer;
  serde::PutU32(&buffer, 0x31544950u);
  serde::PutU64(&buffer, 0xdeadbeefcafef00dull);
  serde::PutU32(&buffer, 0);
  EXPECT_EQ(buffer.size(), 16u);
  EXPECT_EQ(buffer[0], 'P');  // little-endian: low byte first

  serde::Reader reader(buffer);
  auto a = reader.ReadU32();
  auto b = reader.ReadU64();
  auto c = reader.ReadU32();
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(*a, 0x31544950u);
  EXPECT_EQ(*b, 0xdeadbeefcafef00dull);
  EXPECT_EQ(*c, 0u);
  EXPECT_TRUE(reader.exhausted());
}

TEST(SerdeTest, BytesRoundTripIncludingEmbeddedDelimiters) {
  // serde is the container layer: payloads may contain every byte the
  // Σ*-codec treats as special ('#', '@', '\\', NUL) without escaping.
  const std::string payload("a#b@c\\d\0e", 9);
  std::string buffer;
  serde::PutBytes(&buffer, payload);
  serde::PutBytes(&buffer, "");
  serde::Reader reader(buffer);
  auto first = reader.ReadBytes();
  auto second = reader.ReadBytes();
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(*first, payload);
  EXPECT_EQ(second->size(), 0u);
  EXPECT_TRUE(reader.exhausted());
}

TEST(SerdeTest, TruncatedFramesFailWithoutConsuming) {
  std::string buffer;
  serde::PutU64(&buffer, 1000);  // length prefix promising 1000 bytes
  buffer += "only-a-few";
  serde::Reader reader(buffer);
  auto bytes = reader.ReadBytes();
  EXPECT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.status().code(), StatusCode::kOutOfRange);
  // The failed read left the cursor where it was.
  auto length = reader.ReadU64();
  ASSERT_TRUE(length.ok());
  EXPECT_EQ(*length, 1000u);

  serde::Reader empty("");
  EXPECT_FALSE(empty.ReadU32().ok());
  EXPECT_FALSE(empty.ReadU64().ok());
  EXPECT_FALSE(empty.ReadBytes().ok());
}

// Randomized serde property suite: arbitrary frame sequences must
// round-trip exactly, and *every* truncation or length-prefix corruption
// of a well-formed buffer must fail cleanly — no over-read past the
// buffer, no partially-consumed cursor, no garbage value.

namespace {

/// One randomly drawn frame of a serde buffer.
struct Frame {
  enum class Kind { kU32, kU64, kBytes } kind;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  std::string bytes;
};

std::vector<Frame> RandomFrames(Rng* rng) {
  std::vector<Frame> frames;
  const int count = static_cast<int>(rng->NextBelow(9));
  for (int i = 0; i < count; ++i) {
    Frame frame;
    switch (rng->NextBelow(3)) {
      case 0:
        frame.kind = Frame::Kind::kU32;
        frame.u32 = static_cast<uint32_t>(rng->Next());
        break;
      case 1:
        frame.kind = Frame::Kind::kU64;
        frame.u64 = rng->Next();
        break;
      default: {
        frame.kind = Frame::Kind::kBytes;
        const size_t len = rng->NextBelow(48);
        frame.bytes.reserve(len);
        for (size_t b = 0; b < len; ++b) {
          frame.bytes.push_back(static_cast<char>(rng->NextBelow(256)));
        }
        break;
      }
    }
    frames.push_back(std::move(frame));
  }
  return frames;
}

std::string EncodeFrames(const std::vector<Frame>& frames) {
  std::string buffer;
  for (const Frame& frame : frames) {
    switch (frame.kind) {
      case Frame::Kind::kU32:
        serde::PutU32(&buffer, frame.u32);
        break;
      case Frame::Kind::kU64:
        serde::PutU64(&buffer, frame.u64);
        break;
      case Frame::Kind::kBytes:
        serde::PutBytes(&buffer, frame.bytes);
        break;
    }
  }
  return buffer;
}

/// Decodes `buffer` against the frame schema. Returns how many frames
/// decoded before the first failure (all of them on a healthy buffer);
/// EXPECTs that successes match the originals and that the first failure
/// stops the schema walk cleanly (failed reads must not consume).
size_t DecodeAndCheckPrefix(const std::vector<Frame>& frames,
                            std::string_view buffer) {
  serde::Reader reader(buffer);
  for (size_t i = 0; i < frames.size(); ++i) {
    const Frame& frame = frames[i];
    const size_t before = reader.remaining();
    switch (frame.kind) {
      case Frame::Kind::kU32: {
        auto value = reader.ReadU32();
        if (!value.ok()) {
          EXPECT_EQ(reader.remaining(), before) << "failed read consumed";
          return i;
        }
        EXPECT_EQ(*value, frame.u32);
        break;
      }
      case Frame::Kind::kU64: {
        auto value = reader.ReadU64();
        if (!value.ok()) {
          EXPECT_EQ(reader.remaining(), before) << "failed read consumed";
          return i;
        }
        EXPECT_EQ(*value, frame.u64);
        break;
      }
      case Frame::Kind::kBytes: {
        auto value = reader.ReadBytes();
        if (!value.ok()) {
          EXPECT_EQ(reader.remaining(), before) << "failed read consumed";
          return i;
        }
        EXPECT_EQ(*value, frame.bytes);
        break;
      }
    }
  }
  return frames.size();
}

}  // namespace

class SerdePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerdePropertyTest, ArbitraryFrameSequencesRoundTrip) {
  Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    const std::vector<Frame> frames = RandomFrames(&rng);
    const std::string buffer = EncodeFrames(frames);
    EXPECT_EQ(DecodeAndCheckPrefix(frames, buffer), frames.size());
    serde::Reader reader(buffer);
    // Independent full-drain walk: after the schema, nothing remains.
    for (const Frame& frame : frames) {
      switch (frame.kind) {
        case Frame::Kind::kU32: ASSERT_TRUE(reader.ReadU32().ok()); break;
        case Frame::Kind::kU64: ASSERT_TRUE(reader.ReadU64().ok()); break;
        case Frame::Kind::kBytes: ASSERT_TRUE(reader.ReadBytes().ok()); break;
      }
    }
    EXPECT_TRUE(reader.exhausted());
  }
}

TEST_P(SerdePropertyTest, EverySingleByteTruncationFailsCleanly) {
  Rng rng(GetParam() + 1000);
  for (int round = 0; round < 20; ++round) {
    std::vector<Frame> frames = RandomFrames(&rng);
    if (frames.empty()) continue;
    const std::string buffer = EncodeFrames(frames);
    for (size_t cut = 0; cut < buffer.size(); ++cut) {
      // A truncated buffer decodes some (possibly empty) prefix of the
      // frames, then fails without consuming — never yields a frame that
      // was not fully present, never walks past the end.
      const std::string_view truncated(buffer.data(), cut);
      const size_t decoded = DecodeAndCheckPrefix(frames, truncated);
      EXPECT_LT(decoded, frames.size())
          << "decoded all frames from a truncated buffer (cut=" << cut << ")";
    }
  }
}

TEST_P(SerdePropertyTest, CorruptedLengthPrefixNeverOverReads) {
  Rng rng(GetParam() + 2000);
  for (int round = 0; round < 50; ++round) {
    const size_t payload_len = rng.NextBelow(64);
    std::string payload;
    for (size_t i = 0; i < payload_len; ++i) {
      payload.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    std::string buffer;
    serde::PutBytes(&buffer, payload);
    // Corrupt the u64 length prefix to a value that over-promises —
    // anything strictly larger than the real payload, up to "absurd".
    const uint64_t bogus =
        payload_len + 1 + rng.NextBelow(uint64_t{1} << 62);
    std::string corrupt = buffer;
    for (size_t i = 0; i < 8; ++i) {
      corrupt[i] = static_cast<char>((bogus >> (8 * i)) & 0xff);
    }
    serde::Reader reader(corrupt);
    auto bytes = reader.ReadBytes();
    EXPECT_FALSE(bytes.ok());
    EXPECT_EQ(bytes.status().code(), StatusCode::kOutOfRange);
    // Failing cleanly means the cursor did not move: the (bogus) length
    // is still readable as a plain integer.
    auto length = reader.ReadU64();
    ASSERT_TRUE(length.ok());
    EXPECT_EQ(*length, bogus);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerdePropertyTest,
                         ::testing::Values(11, 12, 13, 14, 15));

// ---------------------------------------------------------------------------
// CostMeter under concurrent charging (the serving layer shares meters)
// ---------------------------------------------------------------------------

TEST(CostMeterTest, ConcurrentChargesDoNotTear) {
  CostMeter meter;
  constexpr int kThreads = 8;
  constexpr int kChargesPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&meter] {
      for (int i = 0; i < kChargesPerThread; ++i) {
        meter.AddSerial(1);
        meter.AddParallel(2, 1);
        meter.AddBytesRead(3);
        meter.AddBytesWritten(4);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(meter.work(), kThreads * kChargesPerThread * 3);   // 1 + 2
  EXPECT_EQ(meter.depth(), kThreads * kChargesPerThread * 2);  // 1 + 1
  EXPECT_EQ(meter.bytes_read(), kThreads * kChargesPerThread * 3);
  EXPECT_EQ(meter.bytes_written(), kThreads * kChargesPerThread * 4);
}

}  // namespace
}  // namespace pitract
