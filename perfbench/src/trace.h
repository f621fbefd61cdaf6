#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady clock).
int64_t NowNs();

/// Every span the benchmark records: public calls into the engine, the
/// store and the pipeline, the bench-side wrappers of the witness hooks,
/// and the three steps of a replayed warm batch.
enum class SpanKind : uint8_t {
  kIntern,
  kAnswerBatch,
  kTryGetView,
  kSubmit,
  kCompletion,  // Submit call to completion callback, per request
  kApplyDelta,
  kSpill,
  kLoad,
  kPi,          // witness preprocess
  kViewBuild,   // witness deserialize
  kPatch,       // entry prepared_patch
  kToData,      // entry apply_delta_to_data
  kDecode,      // replay: decode_query over one batch
  kKernel,      // replay: answer_view_batch over one batch
  kCount,
};
const char* SpanName(SpanKind kind);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0: a root span
  uint64_t request = 0;  // shared by the spans of one request; 0: none
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  SpanKind kind = SpanKind::kCount;
  int8_t problem = -1;  // index into the workloads' problem table
};

/// In-memory span recorder. Each thread appends to its own log (no shared
/// writes on the recording path); parents come from a per-thread stack of
/// open scopes. Logs are capped per thread and counted when full. Collect
/// after the recording threads have stopped.
class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span around one call on the current thread. A null tracer makes
  /// the scope a no-op, so call sites stay unconditional.
  class Scope {
   public:
    Scope(Tracer* tracer, SpanKind kind, int problem = -1,
          uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    Span span_;
  };

  /// Records a span that was not opened as a scope on this thread (a
  /// Submit-to-completion interval closed on a worker).
  void Record(SpanKind kind, int64_t start_ns, int64_t end_ns,
              uint64_t request);

  std::vector<Span> Collect() const;
  int64_t dropped() const;
  /// Writes every span as one JSON object per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct ThreadLog;
  ThreadLog* Local();
  void Append(ThreadLog* log, const Span& span);

  const uint64_t generation_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;  // guarded by mu_
};

/// Self time of every span (parallel to `spans`): its duration minus the
/// part of its interval that its direct children cover.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
