#ifndef PITRACT_COMMON_CODEC_H_
#define PITRACT_COMMON_CODEC_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace pitract {

/// Σ*-string codec.
///
/// Section 3 of the paper encodes databases D and queries Q as strings over a
/// finite alphabet Σ "with necessary delimiters". The core factorization and
/// reduction machinery (src/core) is defined over such strings, so this codec
/// provides the delimiting/escaping conventions used throughout:
///
///  * '#' separates fields (the paper's own delimiter in `D#Q`),
///  * '@' is the Lemma 2 padding symbol ("a special symbol that is not used
///    anywhere else") — guaranteed unused because payload occurrences are
///    escaped,
///  * '\\' escapes itself and both delimiters.
namespace codec {

/// Escapes '\\', '#' and '@' in `raw` so the result is delimiter-free.
std::string Escape(std::string_view raw);

/// Inverse of Escape. Fails on dangling escapes.
Result<std::string> Unescape(std::string_view escaped);

/// Joins fields with '#', escaping each. Round-trips via DecodeFields.
std::string EncodeFields(const std::vector<std::string>& fields);

/// Splits a '#'-joined encoding back into unescaped fields.
Result<std::vector<std::string>> DecodeFields(std::string_view encoded);

/// Zero-copy fast path of DecodeFields for the common escape-free case:
/// splits on '#' into string_view slices of `encoded` with no per-field
/// copies. Returns std::nullopt whenever `encoded` contains an escape
/// character (callers fall back to the copying DecodeFields). The views
/// alias `encoded` and are valid only while its storage lives.
std::optional<std::vector<std::string_view>> DecodeFieldsView(
    std::string_view encoded);

/// Compact textual encoding of an int64 sequence ("3,1,4,..."). Above
/// parallel::kGrain values the sizing and printing passes run in chunks on
/// the fork-join pool; the bytes are the same either way.
std::string EncodeInts(const std::vector<int64_t>& values);
/// EncodeInts appended to `*out` in place: the text lands straight in the
/// caller's buffer (a spill frame, a Δ-patch copy) with no temporary.
void AppendInts(std::span<const int64_t> values, std::string* out);
/// AppendInts of the values base + offsets[i] (a frame-of-reference
/// column, core::IntColumn), printed without materializing them as int64s.
void AppendInts(int64_t base, std::span<const uint16_t> offsets,
                std::string* out);
void AppendInts(int64_t base, std::span<const uint32_t> offsets,
                std::string* out);

/// The bytes AppendInts appends for the same values, counted without
/// printing them.
size_t EncodedIntsSize(std::span<const int64_t> values);
size_t EncodedIntsSize(int64_t base, std::span<const uint16_t> offsets);
size_t EncodedIntsSize(int64_t base, std::span<const uint32_t> offsets);

/// The smallest and largest value of an int list ({0, 0} when empty).
struct IntBounds {
  int64_t min = 0;
  int64_t max = 0;
};

/// Inverse of EncodeInts. Fails on malformed numerals. Above
/// parallel::kGrain bytes the text is cut at commas and the chunks are
/// counted and decoded on the fork-join pool; a malformed token gets the
/// same Status as from DecodeIntsInto. With `bounds`, also sets the
/// values' bounds, folded into the parse.
Result<std::vector<int64_t>> DecodeInts(std::string_view encoded,
                                        IntBounds* bounds = nullptr);

/// DecodeFieldsView-style span decoder for the hot int-list payloads:
/// parses `encoded` straight into `*out` (cleared first, capacity kept), so
/// repeated decodes reuse one buffer and no Result<vector> temporary is
/// materialized. On failure `*out` is left cleared. Always serial and
/// never touches the pool: use it on answer paths that decode per query.
Status DecodeIntsInto(std::string_view encoded, std::vector<int64_t>* out);

/// DecodeFields + an arity check, the instance-decoding preamble shared by
/// every Σ*-level problem and hook ("`what` expects n fields, got m").
Result<std::vector<std::string>> DecodeFieldsExactly(std::string_view encoded,
                                                     size_t n,
                                                     std::string_view what);

/// DecodeFieldsExactly without copies where it can, for the Π hooks
/// whose data fields are large enough that copying them shows: the
/// DecodeFieldsView slices of `encoded` when it has no escape, otherwise
/// views of the unescaped fields, which are kept in `*storage`. The views
/// are valid while both `encoded` and `*storage` live.
Result<std::vector<std::string_view>> DecodeFieldViewsExactly(
    std::string_view encoded, size_t n, std::string_view what,
    std::vector<std::string>* storage);

/// Decodes a field that must hold exactly one int64.
Result<int64_t> DecodeSingleInt(std::string_view field);

/// Lemma 2 padding: σ(x) = π₁(x) @ π₂(x). Escapes both parts, joins on '@'.
std::string PadPair(std::string_view first, std::string_view second);

/// Splits a PadPair encoding on its single unescaped '@'.
Result<std::pair<std::string, std::string>> UnpadPair(std::string_view padded);

}  // namespace codec
}  // namespace pitract

#endif  // PITRACT_COMMON_CODEC_H_
