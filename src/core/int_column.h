#ifndef PITRACT_CORE_INT_COLUMN_H_
#define PITRACT_CORE_INT_COLUMN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <type_traits>

namespace pitract {
namespace core {

/// The decoded view of an int-list Π(D) (the member and interval sorted
/// column, connectivity labels, BDS ranks), held at the fewest bytes its
/// range needs.
///
/// When max − min fits in 16 or 32 bits the column keeps a frame of
/// reference, base = min, and stores each value as the unsigned offset
/// value − base in 2 or 4 bytes. Otherwise it stores the raw int64 values
/// (width 8, base 0). The width follows from the data alone.
///
/// Subtracting the base keeps equality and order, so kernels compare and
/// search offsets directly. Visit hands them the offsets at their stored
/// type (uint16_t, uint32_t or int64_t) once per batch; Offset and Clamp
/// move an int64 query key into that frame with wrap-free unsigned
/// arithmetic.
class IntColumn {
 public:
  /// An empty column (width 2, no buffer).
  IntColumn() = default;
  /// The column of `values`, in order, whose smallest and largest are
  /// `min` and `max` (ignored when empty). Callers know them without a
  /// pass of their own: a sorted list's ends, labels 0…k−1, a parse that
  /// folded them in. The narrowing copy runs on the fork-join pool above
  /// parallel::kGrain values.
  IntColumn(std::span<const int64_t> values, int64_t min, int64_t max);

  size_t size() const { return size_; }
  /// Bytes per stored value: 2, 4 or 8.
  size_t width() const { return width_; }
  /// The frame's base: the minimum at width 2 or 4, 0 at width 8.
  int64_t base() const { return width_ == 8 ? 0 : min_; }
  /// max − min, the largest offset a narrow column stores (0 when empty).
  uint64_t max_offset() const {
    return static_cast<uint64_t>(max_) - static_cast<uint64_t>(min_);
  }
  /// The i-th value.
  int64_t operator[](size_t i) const;
  /// The one heap buffer the column owns: n · width bytes, as allocated.
  size_t heap_bytes() const;

  /// Calls f(const T* data) with the stored offsets, T being uint16_t,
  /// uint32_t or int64_t for widths 2, 4 and 8.
  template <typename F>
  decltype(auto) Visit(F&& f) const {
    switch (width_) {
      case 2:
        return f(static_cast<const uint16_t*>(data_.get()));
      case 4:
        return f(static_cast<const uint32_t*>(data_.get()));
      default:
        return f(static_cast<const int64_t*>(data_.get()));
    }
  }

  /// `key` in the frame of stored type T: sets `*offset` and returns true
  /// when min <= key <= max (only then can a value equal it); otherwise
  /// sets `*offset` to 0 and returns false.
  template <typename T>
  bool Offset(int64_t key, T* offset) const {
    const bool in = key >= min_ && key <= max_;
    *offset = in ? Frame<T>(key) : T{0};
    return in;
  }
  /// `key` clamped into [min, max], in the frame of stored type T.
  template <typename T>
  T Clamp(int64_t key) const {
    return Frame<T>(std::clamp(key, min_, max_));
  }
  /// The smallest and largest values (0 when empty).
  int64_t min() const { return min_; }
  int64_t max() const { return max_; }

  /// Appends codec::EncodeInts of the values to `*out`, printed straight
  /// from the offsets: byte-identical to the payload the column was
  /// decoded from.
  void AppendTo(std::string* out) const;
  /// The bytes AppendTo appends, counted without printing.
  size_t EncodedSize() const;

 private:
  struct FreeBuffer {
    void operator()(void* p) const { ::operator delete(p); }
  };

  /// The base of the frame whose offsets are stored as T.
  template <typename T>
  int64_t BaseOf() const {
    return std::is_same_v<T, int64_t> ? 0 : min_;
  }
  /// A value inside [min, max] as its stored offset.
  template <typename T>
  T Frame(int64_t value) const {
    return static_cast<T>(static_cast<uint64_t>(value) -
                          static_cast<uint64_t>(BaseOf<T>()));
  }
  /// A stored offset as its value.
  template <typename T>
  int64_t Value(T offset) const {
    return static_cast<int64_t>(static_cast<uint64_t>(BaseOf<T>()) +
                                static_cast<uint64_t>(offset));
  }

  std::unique_ptr<void, FreeBuffer> data_;
  size_t size_ = 0;
  size_t width_ = 2;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

inline int64_t IntColumn::operator[](size_t i) const {
  return Visit([this, i](const auto* data) { return Value(data[i]); });
}

}  // namespace core
}  // namespace pitract

#endif  // PITRACT_CORE_INT_COLUMN_H_
