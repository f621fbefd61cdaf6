#include "common/codec.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <charconv>
#include <cstring>
#include <limits>

#include "common/parallel.h"

namespace pitract {
namespace codec {

namespace {

/// Characters std::to_string(v) prints for `v`.
size_t DecimalLength(int64_t v) {
  static constexpr std::array<uint64_t, 20> kPow10 = [] {
    std::array<uint64_t, 20> pow10{};
    pow10[0] = 1;
    for (size_t i = 1; i < pow10.size(); ++i) pow10[i] = pow10[i - 1] * 10;
    return pow10;
  }();
  const uint64_t magnitude =
      v < 0 ? 0 - static_cast<uint64_t>(v) : static_cast<uint64_t>(v);
  // `| 1` keeps the digit count (no power of ten above 1 is odd) and makes
  // 0 print as one digit. floor(bits * log10(2)) is the count or one less.
  const uint64_t x = magnitude | 1;
  const int guess = (64 - std::countl_zero(x)) * 1233 >> 12;
  return static_cast<size_t>(guess + (x >= kPow10[guess] ? 1 : 0) +
                             (v < 0 ? 1 : 0));
}

/// Parses the ','-separated tokens of [p, end) into out[0..]; false on a
/// malformed token. An empty range is one (malformed) empty token. With
/// `bounds`, folds each parsed value into it as it lands.
bool ParseInts(const char* p, const char* end, int64_t* out,
               IntBounds* bounds) {
  while (true) {
    const auto [ptr, ec] = std::from_chars(p, end, *out);
    if (ec != std::errc() || (ptr != end && *ptr != ',')) return false;
    if (bounds != nullptr) {
      bounds->min = std::min(bounds->min, *out);
      bounds->max = std::max(bounds->max, *out);
    }
    ++out;
    if (ptr == end) return true;
    p = ptr + 1;
  }
}

/// The arity check of DecodeFieldsExactly and DecodeFieldViewsExactly.
Status CheckArity(size_t got, size_t n, std::string_view what) {
  if (got == n) return Status::OK();
  return Status::InvalidArgument(std::string(what) + " expects " +
                                 std::to_string(n) + " fields, got " +
                                 std::to_string(got));
}

}  // namespace

std::string Escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    if (c == '\\' || c == '#' || c == '@') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

Result<std::string> Unescape(std::string_view escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (size_t i = 0; i < escaped.size(); ++i) {
    char c = escaped[i];
    if (c == '\\') {
      if (i + 1 >= escaped.size()) {
        return Status::InvalidArgument("dangling escape at end of input");
      }
      out.push_back(escaped[++i]);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string EncodeFields(const std::vector<std::string>& fields) {
  std::string out;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out.push_back('#');
    out += Escape(fields[i]);
  }
  return out;
}

Result<std::vector<std::string>> DecodeFields(std::string_view encoded) {
  // One walk over the delimiters only: memchr finds the next '#' and the
  // next '\\' (each re-searched only once passed), so every field is a
  // list of spans between escapes, copied whole into an exact-size string.
  const char* const begin = encoded.data();
  const char* const end = begin + encoded.size();
  auto next = [end](const char* from, char c) {
    const void* hit =
        from < end ? std::memchr(from, c, static_cast<size_t>(end - from))
                   : nullptr;
    return hit != nullptr ? static_cast<const char*>(hit) : end;
  };
  // spans[field_end[f - 1] .. field_end[f]) are field f's pieces.
  std::vector<std::string_view> spans;
  std::vector<size_t> field_end;
  const char* hash = next(begin, '#');
  const char* escape = next(begin, '\\');
  const char* span = begin;
  while (true) {
    if (escape < hash) {
      if (escape + 1 == end) {
        return Status::InvalidArgument("dangling escape in field encoding");
      }
      // The escaped byte starts the next span; a '#' there is literal.
      spans.emplace_back(span, escape - span);
      span = escape + 1;
      if (hash == span) hash = next(span + 1, '#');
      escape = next(span + 1, '\\');
      continue;
    }
    spans.emplace_back(span, hash - span);
    field_end.push_back(spans.size());
    if (hash == end) break;
    span = hash + 1;
    hash = next(span, '#');
  }
  std::vector<std::string> fields(field_end.size());
  size_t first = 0;
  for (size_t f = 0; f < field_end.size(); ++f) {
    size_t size = 0;
    for (size_t i = first; i < field_end[f]; ++i) size += spans[i].size();
    fields[f].reserve(size);
    for (size_t i = first; i < field_end[f]; ++i) fields[f] += spans[i];
    first = field_end[f];
  }
  return fields;
}

std::optional<std::vector<std::string_view>> DecodeFieldsView(
    std::string_view encoded) {
  if (encoded.find('\\') != std::string_view::npos) return std::nullopt;
  std::vector<std::string_view> fields;
  size_t pos = 0;
  while (true) {
    size_t hash = encoded.find('#', pos);
    if (hash == std::string_view::npos) {
      fields.push_back(encoded.substr(pos));
      return fields;
    }
    fields.push_back(encoded.substr(pos, hash - pos));
    pos = hash + 1;
  }
}

namespace {

/// EncodeInts' two passes over the values base + v[0, n): chunk c holds
/// values [begin(c), begin(c + 1)), each printed with the ',' before it
/// (none before the first). Its text is sized exactly, a prefix sum places
/// it, `place(total)` hands back where the whole text goes, and to_chars
/// writes straight into place. The sum wraps in uint64_t, so a raw int64
/// column prints with base 0 and an offset column as base + offset.
template <typename T>
int64_t ValueAt(int64_t base, const T* v, size_t i) {
  return static_cast<int64_t>(static_cast<uint64_t>(base) +
                              static_cast<uint64_t>(v[i]));
}

/// The sizing pass: where each of `chunks` even chunks of the values
/// starts in the printed text, and (last) the text's size.
template <typename T>
std::vector<size_t> TextOffsets(int64_t base, const T* v, size_t n,
                                size_t chunks) {
  auto begin = [n, chunks](size_t c) { return c * n / chunks; };
  std::vector<size_t> offset(chunks + 1, 0);
  parallel::Run(chunks, [&](size_t c) {
    size_t size = 0;
    for (size_t i = begin(c), end = begin(c + 1); i < end; ++i) {
      size += DecimalLength(ValueAt(base, v, i)) + (i > 0 ? 1 : 0);
    }
    offset[c + 1] = size;
  });
  for (size_t c = 0; c < chunks; ++c) offset[c + 1] += offset[c];
  return offset;
}

template <typename T, typename Place>
void PrintInts(int64_t base, const T* v, size_t n, Place place) {
  auto value = [base, v](size_t i) { return ValueAt(base, v, i); };
  const size_t chunks = parallel::ChunksFor(n);
  auto begin = [n, chunks](size_t c) { return c * n / chunks; };
  const std::vector<size_t> offset = TextOffsets(base, v, n, chunks);
  char* const text = place(offset[chunks]);
  parallel::Run(chunks, [&](size_t c) {
    char* p = text + offset[c];
    char* const end = text + offset[c + 1];
    for (size_t i = begin(c), last = begin(c + 1); i < last; ++i) {
      if (i > 0) *p++ = ',';
      p = std::to_chars(p, end, value(i)).ptr;
    }
  });
}

/// The size of the text PrintInts prints.
template <typename T>
size_t TextSize(int64_t base, std::span<const T> v) {
  return TextOffsets(base, v.data(), v.size(), parallel::ChunksFor(v.size()))
      .back();
}

/// PrintInts appending to `*out`.
template <typename T>
void AppendPrinted(int64_t base, std::span<const T> v, std::string* out) {
  PrintInts(base, v.data(), v.size(), [out](size_t size) {
    const size_t at = out->size();
    out->resize(at + size);
    return out->data() + at;
  });
}

}  // namespace

std::string EncodeInts(const std::vector<int64_t>& values) {
  std::string out;
  PrintInts(0, values.data(), values.size(), [&out](size_t size) {
    out = std::string(size, '\0');  // exact capacity
    return out.data();
  });
  return out;
}

void AppendInts(std::span<const int64_t> values, std::string* out) {
  AppendPrinted(0, values, out);
}

void AppendInts(int64_t base, std::span<const uint16_t> offsets,
                std::string* out) {
  AppendPrinted(base, offsets, out);
}

void AppendInts(int64_t base, std::span<const uint32_t> offsets,
                std::string* out) {
  AppendPrinted(base, offsets, out);
}

size_t EncodedIntsSize(std::span<const int64_t> values) {
  return TextSize(0, values);
}

size_t EncodedIntsSize(int64_t base, std::span<const uint16_t> offsets) {
  return TextSize(base, offsets);
}

size_t EncodedIntsSize(int64_t base, std::span<const uint32_t> offsets) {
  return TextSize(base, offsets);
}

Result<std::vector<int64_t>> DecodeInts(std::string_view encoded,
                                        IntBounds* bounds) {
  if (bounds != nullptr) *bounds = IntBounds{};
  if (encoded.empty()) return std::vector<int64_t>{};
  // Cut the text just past a ',' near each of `chunks` even splits, so
  // chunk c is [start[c], start[c + 1]) and all but the last end in ','.
  const char* const data = encoded.data();
  const size_t size = encoded.size();
  const size_t chunks = parallel::ChunksFor(size);
  std::vector<size_t> start = {0};
  for (size_t c = 1; c < chunks; ++c) {
    const size_t from = std::max(c * size / chunks, start.back());
    const void* comma = std::memchr(data + from, ',', size - from);
    if (comma == nullptr) break;
    start.push_back(static_cast<size_t>(static_cast<const char*>(comma) -
                                        data) +
                    1);
  }
  start.push_back(size);
  const size_t cuts = start.size() - 1;
  // Tokens per chunk (its commas, plus the final token in the last one),
  // a prefix sum, then every chunk decodes straight into its slots.
  std::vector<size_t> first(cuts + 1, 0);
  parallel::Run(cuts, [&](size_t c) {
    first[c + 1] = static_cast<size_t>(std::count(
                       data + start[c], data + start[c + 1], ',')) +
                   (c + 1 == cuts ? 1 : 0);
  });
  for (size_t c = 0; c < cuts; ++c) first[c + 1] += first[c];
  std::vector<int64_t> values(first[cuts]);
  // Each chunk folds its own bounds while parsing; they merge below.
  std::vector<IntBounds> chunk_bounds(
      bounds != nullptr ? cuts : 0,
      IntBounds{std::numeric_limits<int64_t>::max(),
                std::numeric_limits<int64_t>::min()});
  std::atomic<bool> malformed{false};
  parallel::Run(cuts, [&](size_t c) {
    const char* end = data + start[c + 1] - (c + 1 == cuts ? 0 : 1);
    if (!ParseInts(data + start[c], end, values.data() + first[c],
                   bounds != nullptr ? &chunk_bounds[c] : nullptr)) {
      malformed.store(true, std::memory_order_relaxed);
    }
  });
  if (malformed.load(std::memory_order_relaxed)) {
    // The serial decoder names the first malformed token.
    std::vector<int64_t> unused;
    return DecodeIntsInto(encoded, &unused);
  }
  if (bounds != nullptr) {
    *bounds = chunk_bounds[0];
    for (const IntBounds& chunk : chunk_bounds) {
      bounds->min = std::min(bounds->min, chunk.min);
      bounds->max = std::max(bounds->max, chunk.max);
    }
  }
  return values;
}

Status DecodeIntsInto(std::string_view encoded, std::vector<int64_t>* out) {
  out->clear();
  if (encoded.empty()) return Status::OK();
  // from_chars runs straight over the buffer and stops at the ',' that
  // ends each token; no token is sliced out unless it is malformed.
  const char* p = encoded.data();
  const char* const end = p + encoded.size();
  while (true) {
    int64_t value = 0;
    const auto [ptr, ec] = std::from_chars(p, end, value);
    if (ec != std::errc() || (ptr != end && *ptr != ',')) {
      out->clear();
      const void* comma = std::memchr(p, ',', static_cast<size_t>(end - p));
      const char* token_end =
          comma != nullptr ? static_cast<const char*>(comma) : end;
      return Status::InvalidArgument("malformed integer token: '" +
                                     std::string(p, token_end) + "'");
    }
    out->push_back(value);
    if (ptr == end) return Status::OK();
    p = ptr + 1;
  }
}

std::string PadPair(std::string_view first, std::string_view second) {
  std::string out = Escape(first);
  out.push_back('@');
  out += Escape(second);
  return out;
}

Result<std::pair<std::string, std::string>> UnpadPair(
    std::string_view padded) {
  // Find the single unescaped '@'.
  size_t at = std::string_view::npos;
  for (size_t i = 0; i < padded.size(); ++i) {
    if (padded[i] == '\\') {
      ++i;  // Skip the escaped character.
    } else if (padded[i] == '@') {
      at = i;
      break;
    }
  }
  if (at == std::string_view::npos) {
    return Status::InvalidArgument("no padding symbol '@' found");
  }
  auto first = Unescape(padded.substr(0, at));
  if (!first.ok()) return first.status();
  auto second = Unescape(padded.substr(at + 1));
  if (!second.ok()) return second.status();
  return std::make_pair(std::move(first).value(), std::move(second).value());
}

Result<std::vector<std::string>> DecodeFieldsExactly(std::string_view encoded,
                                                     size_t n,
                                                     std::string_view what) {
  auto fields = DecodeFields(encoded);
  if (!fields.ok()) return fields.status();
  PITRACT_RETURN_IF_ERROR(CheckArity(fields->size(), n, what));
  return fields;
}

Result<std::vector<std::string_view>> DecodeFieldViewsExactly(
    std::string_view encoded, size_t n, std::string_view what,
    std::vector<std::string>* storage) {
  std::vector<std::string_view> views;
  if (auto slices = DecodeFieldsView(encoded)) {
    views = std::move(*slices);
  } else {
    auto fields = DecodeFields(encoded);
    if (!fields.ok()) return fields.status();
    *storage = std::move(fields).value();
    views.assign(storage->begin(), storage->end());
  }
  PITRACT_RETURN_IF_ERROR(CheckArity(views.size(), n, what));
  return views;
}

Result<int64_t> DecodeSingleInt(std::string_view field) {
  std::vector<int64_t> ints;
  PITRACT_RETURN_IF_ERROR(DecodeIntsInto(field, &ints));
  if (ints.size() != 1) {
    return Status::InvalidArgument("expected one integer, got " +
                                   std::to_string(ints.size()));
  }
  return ints[0];
}

}  // namespace codec
}  // namespace pitract
