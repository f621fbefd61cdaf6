#ifndef PITRACT_COMMON_HEAP_BYTES_H_
#define PITRACT_COMMON_HEAP_BYTES_H_

#include <cstddef>
#include <vector>

namespace pitract {

/// Heap bytes one allocation of `requested` bytes occupies: the request
/// plus the allocator's 8-byte chunk header, rounded up to 16 bytes, at
/// least 32 (glibc's chunk sizes on 64-bit hosts); 0 for no allocation.
/// Footprint hooks (PiWitness::view_bytes) sum this over a structure's
/// allocations, so a byte ledger charges what the allocator hands out
/// rather than what the structure asked for.
constexpr size_t HeapChunkBytes(size_t requested) {
  if (requested == 0) return 0;
  const size_t chunk = (requested + 8 + 15) & ~size_t{15};
  return chunk < 32 ? 32 : chunk;
}

/// The one allocation std::make_shared<T> makes: T behind its control
/// block header (a vtable pointer and two 32-bit counts).
template <typename T>
constexpr size_t MakeSharedHeapBytes() {
  return HeapChunkBytes(16 + sizeof(T));
}

/// A vector's buffer: its capacity, not its size.
template <typename T>
size_t VectorHeapBytes(const std::vector<T>& values) {
  return HeapChunkBytes(values.capacity() * sizeof(T));
}

}  // namespace pitract

#endif  // PITRACT_COMMON_HEAP_BYTES_H_
