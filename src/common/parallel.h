#ifndef PITRACT_COMMON_PARALLEL_H_
#define PITRACT_COMMON_PARALLEL_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace pitract {

/// One process-wide fork-join pool for the O(|D|) passes of the one-time
/// Π(D) and of the view build (int decode, radix sort, int encode).
///
/// The pool starts hardware_concurrency − 1 helper threads the first time a
/// job forks. The calling thread takes part: it and the helpers claim
/// chunks through one atomic counter, and Run returns once every chunk has
/// finished. Run executes the chunks inline, in order, on the caller when
///  * there is only one chunk (ChunksFor gives one below kGrain items),
///  * the pool is already running another job, so two concurrent callers
///    (say two Π on two preparers) never oversubscribe the cores, or
///  * it is called from inside a task of a running job.
/// Idle helpers spin for about 20 µs, then sleep until the next job, and
/// allocate nothing. An exception thrown by any chunk is rethrown on the
/// caller after every chunk has finished (or been skipped). There is no
/// option and no environment variable: the pool's size is the machine's.
namespace parallel {

/// Inputs of fewer items than this run as one inline chunk.
inline constexpr size_t kGrain = size_t{1} << 13;

/// Chunks to split `items` into: 1 below kGrain (or on a one-core
/// machine), else one per kGrain items up to four per core.
size_t ChunksFor(size_t items);

/// Type-erased core of Run.
void RunChunks(size_t chunks, void (*task)(void*, size_t), void* context);

/// Runs task(c) for every chunk c in [0, chunks), possibly on several
/// threads at once, and returns when all have finished.
template <typename Task>
void Run(size_t chunks, Task&& task) {
  using T = std::remove_reference_t<Task>;
  RunChunks(
      chunks,
      [](void* context, size_t chunk) { (*static_cast<T*>(context))(chunk); },
      const_cast<void*>(static_cast<const void*>(&task)));
}

/// Run calls given more than one chunk, whether they forked or ran inline.
/// Relaxed: a counter for tests that check a path never reaches the pool.
uint64_t jobs();

/// The part of jobs() that ran inline: the pool was busy, the call was
/// nested in a task, or the machine has one core.
uint64_t inlined();

/// Sorts `column` ascending, with the same result as std::sort. Above the
/// grain: a parallel min/max, one parallel MSD pass on the top 5 bits that
/// vary, then a serial LSD radix sort inside each of the 32 buckets,
/// buckets spread over the pool. Below it: the serial LSD sort alone.
void RadixSortInts(std::vector<int64_t>* column);

}  // namespace parallel
}  // namespace pitract

#endif  // PITRACT_COMMON_PARALLEL_H_
