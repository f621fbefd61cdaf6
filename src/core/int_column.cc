#include "core/int_column.h"

#include <type_traits>

#include "common/codec.h"
#include "common/heap_bytes.h"
#include "common/parallel.h"

namespace pitract {
namespace core {

IntColumn::IntColumn(std::span<const int64_t> values, int64_t min,
                     int64_t max)
    : size_(values.size()) {
  const size_t n = values.size();
  if (n == 0) return;
  min_ = min;
  max_ = max;
  const uint64_t range = max_offset();
  width_ = range <= UINT16_MAX ? 2 : range <= UINT32_MAX ? 4 : 8;

  const size_t chunks = parallel::ChunksFor(n);
  auto begin = [n, chunks](size_t c) { return c * n / chunks; };
  const int64_t* const v = values.data();
  data_.reset(::operator new(n * width_));
  auto narrow = [&](auto* out) {
    parallel::Run(chunks, [&](size_t c) {
      for (size_t i = begin(c), end = begin(c + 1); i < end; ++i) {
        out[i] = Frame<std::remove_cvref_t<decltype(*out)>>(v[i]);
      }
    });
  };
  switch (width_) {
    case 2:
      narrow(static_cast<uint16_t*>(data_.get()));
      break;
    case 4:
      narrow(static_cast<uint32_t*>(data_.get()));
      break;
    default:
      narrow(static_cast<int64_t*>(data_.get()));
  }
}

size_t IntColumn::heap_bytes() const { return HeapChunkBytes(size_ * width_); }

void IntColumn::AppendTo(std::string* out) const {
  Visit([this, out](const auto* data) {
    using T = std::remove_cvref_t<decltype(*data)>;
    if constexpr (std::is_same_v<T, int64_t>) {
      codec::AppendInts(std::span<const int64_t>(data, size_), out);
    } else {
      codec::AppendInts(BaseOf<T>(), std::span<const T>(data, size_), out);
    }
  });
}

size_t IntColumn::EncodedSize() const {
  return Visit([this](const auto* data) {
    using T = std::remove_cvref_t<decltype(*data)>;
    if constexpr (std::is_same_v<T, int64_t>) {
      return codec::EncodedIntsSize(std::span<const int64_t>(data, size_));
    } else {
      return codec::EncodedIntsSize(BaseOf<T>(),
                                    std::span<const T>(data, size_));
    }
  });
}

}  // namespace core
}  // namespace pitract
