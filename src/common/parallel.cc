#include "common/parallel.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

namespace pitract {
namespace parallel {

namespace {

/// How long an idle helper spins before it sleeps. Long enough to catch
/// the next pass of the same Π, short enough that a stray small job does
/// not keep three cores busy.
constexpr auto kSpin = std::chrono::microseconds(20);

std::atomic<uint64_t> g_jobs{0};
std::atomic<uint64_t> g_inlined{0};

/// True while this thread runs a chunk of a job: nested Runs go inline.
thread_local bool tls_in_task = false;

size_t Cores() {
  static const size_t cores =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  return cores;
}

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spins briefly, then yields, until `ready()` holds.
template <typename Ready>
void WaitUntil(Ready ready) {
  for (int i = 0; !ready(); ++i) {
    if (i < 1024) {
      CpuRelax();
    } else {
      std::this_thread::yield();
    }
  }
}

/// One forked Run: lives on the caller's stack until every participant
/// has left it.
struct Job {
  void (*task)(void*, size_t) = nullptr;
  void* context = nullptr;
  size_t chunks = 0;
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  std::atomic<bool> failed{false};
  /// Written once, by the participant that flipped `failed`, before its
  /// release increment of `done`; read by the caller after all are done.
  std::exception_ptr error;
};

/// Claims and runs chunks of `job` until none is left. After a chunk
/// throws, the remaining chunks are claimed but skipped.
void Work(Job* job) {
  tls_in_task = true;
  for (size_t c = job->next.fetch_add(1, std::memory_order_relaxed);
       c < job->chunks;
       c = job->next.fetch_add(1, std::memory_order_relaxed)) {
    if (!job->failed.load(std::memory_order_relaxed)) {
      try {
        job->task(job->context, c);
      } catch (...) {
        if (!job->failed.exchange(true, std::memory_order_relaxed)) {
          job->error = std::current_exception();
        }
      }
    }
    job->done.fetch_add(1, std::memory_order_release);
  }
  tls_in_task = false;
}

class Pool {
 public:
  explicit Pool(size_t helpers) {
    threads_.reserve(helpers);
    for (size_t i = 0; i < helpers; ++i) {
      threads_.emplace_back([this] { HelperLoop(); });
    }
  }

  ~Pool() {
    stop_.store(true, std::memory_order_relaxed);
    Publish();
    for (std::thread& t : threads_) t.join();
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Runs `job` on the caller and the helpers; false (nothing run) when
  /// another job holds the pool.
  bool TryRun(Job* job) {
    if (busy_.exchange(true, std::memory_order_acquire)) return false;
    job_.store(job);
    Publish();
    Work(job);
    WaitUntil([job] {
      return job->done.load(std::memory_order_acquire) == job->chunks;
    });
    // A helper joins a job only after raising `active_`, and only if it
    // still finds the job published (both sequentially consistent), so
    // once `active_` drains no helper can touch `job` again.
    job_.store(nullptr);
    WaitUntil([this] { return active_.load() == 0; });
    busy_.store(false, std::memory_order_release);
    return true;
  }

 private:
  void HelperLoop() {
    // Generation 0 is the one the pool was built in: a helper that starts
    // late still sees every later Publish, the destructor's included.
    uint32_t seen = 0;
    while (true) {
      const auto deadline = std::chrono::steady_clock::now() + kSpin;
      uint32_t now = generation_.load(std::memory_order_acquire);
      for (int i = 1; now == seen; ++i) {
        CpuRelax();
        if (i % 64 == 0 && std::chrono::steady_clock::now() > deadline) {
          std::unique_lock<std::mutex> lock(mu_);
          sleepers_.fetch_add(1);
          wake_.wait(lock, [&] { return generation_.load() != seen; });
          sleepers_.fetch_sub(1);
        }
        now = generation_.load(std::memory_order_acquire);
      }
      if (stop_.load(std::memory_order_relaxed)) return;
      seen = now;
      active_.fetch_add(1);
      if (Job* job = job_.load()) Work(job);
      active_.fetch_sub(1);
    }
  }

  /// Starts a new generation and wakes the sleeping helpers. A helper
  /// raises `sleepers_` before it checks the generation under `mu_`, and
  /// the bump comes before the `sleepers_` read here (both sequentially
  /// consistent), so either it sees the new generation or it is woken.
  void Publish() {
    generation_.fetch_add(1);
    if (sleepers_.load() > 0) {
      { std::lock_guard<std::mutex> lock(mu_); }
      wake_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable wake_;
  std::atomic<int> sleepers_{0};
  std::atomic<bool> busy_{false};
  std::atomic<Job*> job_{nullptr};
  std::atomic<int> active_{0};
  std::atomic<uint32_t> generation_{0};
  std::atomic<bool> stop_{false};
  /// Last: the helpers use every member above.
  std::vector<std::thread> threads_;
};

Pool& Instance() {
  static Pool pool(Cores() - 1);
  return pool;
}

void RunInline(size_t chunks, void (*task)(void*, size_t), void* context) {
  for (size_t c = 0; c < chunks; ++c) task(context, c);
}

// --- radix sort -------------------------------------------------------------

/// Width of the parallel sort's MSD digit. 32 buckets spread the LSD
/// passes over the cores, and are few enough that every chunk's scatter
/// writes long runs: wider digits (the 8-bit one included) measured
/// slower at 2^14 to 2^20 keys on a 4-core host.
constexpr int kMsdBits = 5;
constexpr size_t kBuckets = size_t{1} << kMsdBits;

/// Keys compared with their sign bit flipped: unsigned order is signed order.
inline uint64_t Ordered(int64_t key) {
  return static_cast<uint64_t>(key) ^ (uint64_t{1} << 63);
}

/// LSD radix sort of keys[0, n). The bits that vary (one OR pass) are cut
/// into the fewest equal digits of at most 8 to 11 bits (wider for larger
/// n, so a histogram never dwarfs the keys), and digits no key varies in
/// are skipped outright: 2^16 values below 2^17 take one counting pass and
/// two 9-bit scatter passes, which ping-pong between `keys` and `other`.
/// Returns the buffer that holds the sorted keys.
int64_t* LsdRadixSort(int64_t* keys, int64_t* other, size_t n) {
  constexpr int kMaxWidth = 11;
  const auto first = static_cast<uint64_t>(keys[0]);
  uint64_t varying = 0;
  for (size_t i = 0; i < n; ++i) {
    varying |= static_cast<uint64_t>(keys[i]) ^ first;
  }
  if (varying == 0) return keys;
  const int bits = 64 - std::countl_zero(varying);
  const int widest =
      std::clamp(static_cast<int>(std::bit_width(n)), 8, kMaxWidth);
  const int passes = (bits + widest - 1) / widest;
  const int width = (bits + passes - 1) / passes;
  const uint64_t mask = (uint64_t{1} << width) - 1;
  std::array<int, 8> shifts{};
  int digits = 0;
  for (int shift = 0; shift < bits; shift += width) {
    if (((varying >> shift) & mask) != 0) shifts[digits++] = shift;
  }
  std::array<std::array<size_t, size_t{1} << kMaxWidth>, 8> counts;
  for (int d = 0; d < digits; ++d) {
    std::fill_n(counts[d].begin(), mask + 1, 0);
  }
  for (size_t i = 0; i < n; ++i) {
    const uint64_t u = Ordered(keys[i]);
    for (int d = 0; d < digits; ++d) ++counts[d][(u >> shifts[d]) & mask];
  }
  int64_t* src = keys;
  int64_t* dst = other;
  for (int d = 0; d < digits; ++d) {
    // The histogram row becomes the row of next write positions.
    size_t* next = counts[d].data();
    size_t offset = 0;
    for (size_t b = 0; b <= mask; ++b) {
      const size_t count = next[b];
      next[b] = offset;
      offset += count;
    }
    for (size_t i = 0; i < n; ++i) {
      dst[next[(Ordered(src[i]) >> shifts[d]) & mask]++] = src[i];
    }
    std::swap(src, dst);
  }
  return src;
}

}  // namespace

size_t ChunksFor(size_t items) {
  if (Cores() == 1) return 1;
  return std::clamp<size_t>(items / kGrain, 1, 4 * Cores());
}

void RunChunks(size_t chunks, void (*task)(void*, size_t), void* context) {
  if (chunks <= 1) {
    RunInline(chunks, task, context);
    return;
  }
  g_jobs.fetch_add(1, std::memory_order_relaxed);
  Job job;
  job.task = task;
  job.context = context;
  job.chunks = chunks;
  if (tls_in_task || Cores() == 1 || !Instance().TryRun(&job)) {
    g_inlined.fetch_add(1, std::memory_order_relaxed);
    RunInline(chunks, task, context);
    return;
  }
  if (job.error) std::rethrow_exception(job.error);
}

uint64_t jobs() { return g_jobs.load(std::memory_order_relaxed); }

uint64_t inlined() { return g_inlined.load(std::memory_order_relaxed); }

void RadixSortInts(std::vector<int64_t>* column) {
  const size_t n = column->size();
  if (n < 2) return;
  int64_t* const keys = column->data();
  const auto scratch = std::make_unique_for_overwrite<int64_t[]>(n);
  const size_t chunks = ChunksFor(n);
  if (chunks == 1) {
    const int64_t* sorted = LsdRadixSort(keys, scratch.get(), n);
    if (sorted != keys) std::copy(sorted, sorted + n, keys);
    return;
  }
  // Chunk c is keys[begin(c), begin(c + 1)); each task copies its bounds
  // and counters into locals so the loops keep them in registers.
  auto begin = [n, chunks](size_t c) { return c * n / chunks; };

  // Every key shares the bits above the highest one where min and max
  // differ, so the kMsdBits from there down order the keys into buckets.
  std::vector<std::pair<uint64_t, uint64_t>> bounds(chunks);
  Run(chunks, [&](size_t c) {
    uint64_t lo = ~uint64_t{0};
    uint64_t hi = 0;
    for (size_t i = begin(c), end = begin(c + 1); i < end; ++i) {
      lo = std::min(lo, Ordered(keys[i]));
      hi = std::max(hi, Ordered(keys[i]));
    }
    bounds[c] = {lo, hi};
  });
  uint64_t lo = ~uint64_t{0};
  uint64_t hi = 0;
  for (const auto& [chunk_lo, chunk_hi] : bounds) {
    lo = std::min(lo, chunk_lo);
    hi = std::max(hi, chunk_hi);
  }
  if (lo == hi) return;
  const int top = 63 - std::countl_zero(lo ^ hi);
  const int shift = std::max(top + 1 - kMsdBits, 0);
  auto bucket = [shift](int64_t key) {
    return (Ordered(key) >> shift) & (kBuckets - 1);
  };

  // MSD pass: per-chunk histograms, bucket-major offsets (so the scatter
  // is stable), then every chunk scatters into its slots of `scratch`.
  std::vector<std::array<size_t, kBuckets>> slot(chunks);
  Run(chunks, [&](size_t c) {
    std::array<size_t, kBuckets> count{};
    for (size_t i = begin(c), end = begin(c + 1); i < end; ++i) {
      ++count[bucket(keys[i])];
    }
    slot[c] = count;
  });
  std::array<size_t, kBuckets + 1> bucket_begin{};
  size_t offset = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    bucket_begin[b] = offset;
    for (size_t c = 0; c < chunks; ++c) {
      const size_t count = slot[c][b];
      slot[c][b] = offset;
      offset += count;
    }
  }
  bucket_begin[kBuckets] = n;
  int64_t* const spread = scratch.get();
  Run(chunks, [&](size_t c) {
    std::array<size_t, kBuckets> next = slot[c];
    for (size_t i = begin(c), end = begin(c + 1); i < end; ++i) {
      spread[next[bucket(keys[i])]++] = keys[i];
    }
  });

  // Buckets are independent: each is LSD-sorted on its own bits and lands
  // back in `column`.
  Run(kBuckets, [&](size_t b) {
    const size_t first = bucket_begin[b];
    const size_t size = bucket_begin[b + 1] - first;
    if (size == 0) return;
    const int64_t* sorted = LsdRadixSort(spread + first, keys + first, size);
    if (sorted != keys + first) std::copy(sorted, sorted + size, keys + first);
  });
}

}  // namespace parallel
}  // namespace pitract
