#ifndef PITRACT_ENGINE_PIPELINE_H_
#define PITRACT_ENGINE_PIPELINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/cost_meter.h"
#include "common/status.h"
#include "engine/engine.h"
#include "engine/serve.h"

namespace pitract {
namespace engine {

/// Knobs for a ServePipeline, the completion-based serving core.
struct PipelineOptions {
  /// Answer workers. 0 = auto: one per hardware thread (>= 1).
  int threads = 0;
  /// Preparer threads running Π for cold misses, sized separately from the
  /// answer workers. 0 = auto: as many as the resolved worker count, so a
  /// pure cold storm keeps the Π parallelism the blocking driver had.
  int preparers = 0;
  /// Work items a worker claims per pull from the bulk-workload cursor
  /// (one fetch_add covers `claim_batch` items), so N workers hammering a
  /// warm store contend on the cursor line 1/claim_batch as often.
  /// Clamped to >= 1.
  int claim_batch = 8;
  /// Bound on queued work: in Submit mode, admitted-but-incomplete items
  /// past it are shed at admission; in workload mode, cold items past it
  /// are shed at park time. Shed items complete with Status::Unavailable
  /// and count in ServeReport::shed, not in `errors`. 0 = unbounded.
  size_t queue_depth = 0;
  /// Per-client admitted-but-incomplete bound for Submit mode (the
  /// `client` argument names the client). 0 = unbounded.
  size_t per_client_depth = 0;
  /// Default per-item deadline for Submit, relative to admission; items
  /// dequeued after their deadline complete with Status::DeadlineExceeded
  /// without burning answer work. 0 = none.
  int64_t default_deadline_ns = 0;
  /// Cold re-probes an item gets through the park/prepare/requeue loop
  /// before degrading to the blocking answer path. An entry evicted
  /// between publish and requeue would otherwise ping-pong forever; the
  /// blocking fallback terminates via the store's in-flight shared_future.
  int max_requeues = 2;
  /// Π-failure policy. A failed Prepare is retried on the preparer (same
  /// thread, nothing else blocked — the parked items are already off the
  /// answer workers) up to `pi_retries` more times, sleeping
  /// `pi_retry_backoff_ns << attempt` between attempts, before the
  /// failure is terminal. Transient faults (an allocator hiccup, a
  /// fault-injection schedule) heal invisibly; 0 disables retry.
  int pi_retries = 2;
  /// First retry backoff; doubles per attempt. Clamped to >= 0.
  int64_t pi_retry_backoff_ns = 200'000;  // 0.2 ms
  /// Per-digest quarantine (negative cache) after a *terminal* Π failure:
  /// for this long, items parking on the poisoned digest complete
  /// immediately with Status::Internal (ServeReport::quarantined) instead
  /// of each re-running a Π that just failed its whole retry budget — a
  /// poisoned hot key degrades to fast failures, not a retry storm. The
  /// next park after the TTL expires probes Π again (one schedule's
  /// recovery path). 0 disables quarantine.
  int64_t quarantine_ttl_ns = 2'000'000'000;  // 2 s
};

/// How one submitted work item ended: handed to its completion callback.
struct ItemOutcome {
  /// OK, DeadlineExceeded (deadline passed before dequeue), Unavailable
  /// (shed after admission — park-time shedding in workload mode), or the
  /// answer/Π error.
  Status status;
  /// Completion minus admission on the steady clock.
  int64_t latency_ns = 0;
  /// Answers produced (0 unless status is OK).
  int64_t queries = 0;
};

/// The completion-based serving core: answer workers never block on a cold
/// miss.
///
/// A worker probes each work item against the store's published snapshot
/// (`QueryEngine::TryAnswerWarm`). Warm items are answered on the kernel
/// path immediately. Cold items are *parked* in a per-key pending queue
/// and their Π build is submitted to the dedicated preparer pool; the
/// worker keeps draining warm traffic. When a preparer publishes the
/// entry, every item parked under that key re-enters the ready queue and
/// is answered warm — so one expensive Π never heads-of-line-blocks cheap
/// answers (the property tests/pipeline_test.cc pins with a blocking
/// witness).
///
/// Two submission faces share the machinery:
///  * `SubmitWorkload` — the bulk/batch face: claims
///    (workload.size() x repeat) items through an atomic cursor, one
///    fetch_add per `claim_batch` items. A warm steady-state run touches
///    no queue mutex at all — byte-for-byte the PR 5 claiming discipline.
///  * `Submit` — the open-loop/server face: admits one item with a
///    completion callback, per-item deadline, and client tag, under
///    bounded global/per-client queues (load shedding at admission).
///
/// Thread-safe: Submit from any number of producer threads concurrently
/// with the workers. Call Drain() before reading report(); the destructor
/// drains and joins.
class ServePipeline {
 public:
  using Completion = std::function<void(const ItemOutcome&)>;

  ServePipeline(QueryEngine* engine, const PipelineOptions& options);
  ~ServePipeline();
  ServePipeline(const ServePipeline&) = delete;
  ServePipeline& operator=(const ServePipeline&) = delete;

  /// Admits one work item. Non-blocking: when the global queue (or
  /// `client`'s queue) is at depth the item is *shed* — the call returns
  /// Status::Unavailable, `done` is never invoked, and nothing is queued.
  /// On admission, `done` (optional) fires exactly once, on a worker or
  /// preparer thread, with the item's outcome. `deadline_ns` is an
  /// absolute steady-clock reading (see DeadlineAfterNanos); 0 uses
  /// options.default_deadline_ns relative to now.
  Status Submit(ServeWorkItem item, Completion done = nullptr, int client = 0,
                int64_t deadline_ns = 0);

  /// Admits `workload` x `repeat` items through the atomic-cursor bulk
  /// path (no per-item queueing). `deadline_ns` is relative to this call;
  /// 0 = none. The workload span must stay alive until Drain() returns.
  /// Call at most once per pipeline.
  void SubmitWorkload(std::span<const ServeWorkItem> workload, int repeat,
                      int64_t deadline_ns = 0);

  /// Blocks until every admitted item has completed.
  void Drain();

  /// Aggregated counters (per-thread tallies merged on read). Meaningful
  /// after Drain(); wall-clock rates are left to the caller, which owns
  /// the clock around its submission pattern.
  ServeReport report();

 private:
  /// One in-flight work item. Heap-allocated only off the warm path: a
  /// bulk-workload item that answers warm never materializes a Unit.
  struct Unit {
    const ServeWorkItem* work = nullptr;  // = &owned for Submit items
    ServeWorkItem owned;
    Completion done;  // null for bulk-workload items
    int client = 0;
    bool from_submit = false;
    int requeues = 0;
    int64_t submit_ns = 0;
    int64_t deadline_ns = 0;  // absolute; 0 = none
    /// The handle this unit answers through — the item's own, or the
    /// QueryEngine::Route its first probe built for a string item (aliasing
    /// the item's bytes). Empty until that probe; a preparer runs Π from
    /// it when the part is cold.
    DataHandle route;
  };
  using UnitPtr = std::unique_ptr<Unit>;

  /// Per-worker tallies: private until the merge in report().
  struct alignas(64) WorkerTally {
    int64_t batches = 0;
    int64_t queries = 0;
    int64_t pi_runs = 0;
    int64_t cache_hits = 0;
    int64_t kernel_batches = 0;
    int64_t answer_bytes_read = 0;
    int64_t errors = 0;
    int64_t deadline_expired = 0;
    int64_t shed = 0;
    int64_t quarantined = 0;  // fail-fast completions at park time
    Status first_error;
    CostMeter prepare_meter;
    CostMeter answer_meter;
  };
  struct alignas(64) PreparerTally {
    int64_t pi_runs = 0;
    int64_t busy_ns = 0;
    int64_t errors = 0;
    int64_t pi_retries = 0;   // retry attempts after a failed Prepare
    int64_t pi_failures = 0;  // terminal failures (retry budget spent)
    Status first_error;
    CostMeter prepare_meter;
  };

  void WorkerLoop(size_t worker_index);
  void PreparerLoop(size_t preparer_index);
  /// Answers one bulk-workload index. Returns true iff the item completed
  /// here (warm answer, error, expired deadline, or shed) — the caller
  /// counts a whole claimed span with one FinishCompleted call, keeping
  /// the warm loop free of per-item shared writes. False: parked.
  bool ProcessIndex(int64_t index, WorkerTally* tally);
  /// Same for a queued Unit (submitted or requeued after a prepare).
  bool ProcessUnit(UnitPtr unit, WorkerTally* tally);
  /// Parks `unit` under its key and (for the first unit on the key)
  /// enqueues the Π build. Returns true iff the unit completed instead
  /// (workload-mode shed when the pending queue is at depth).
  bool ParkUnit(UnitPtr unit, WorkerTally* tally);
  /// Submit-side bookkeeping + completion callback. Does NOT count toward
  /// completed_ — callers FinishCompleted in spans.
  void CompleteUnit(UnitPtr unit, const Status& status, int64_t queries);
  void FinishCompleted(int64_t n);
  void RecordAnswered(WorkerTally* tally, const BatchResult& result);

  QueryEngine* const engine_;
  PipelineOptions opts_;  // resolved (threads/preparers/claim_batch > 0)

  // Bulk workload (SubmitWorkload): claimed via the atomic cursor.
  std::span<const ServeWorkItem> workload_;
  int64_t workload_deadline_ns_ = 0;
  std::atomic<int64_t> workload_total_{0};
  std::atomic<int64_t> cursor_{0};

  // Queued work. mu_ guards ready_, pending_, the admission ledgers, and
  // stop_workers_; the warm bulk path never takes it (it checks
  // ready_size_ instead).
  std::mutex mu_;
  std::condition_variable ready_cv_;
  std::condition_variable drain_cv_;
  std::deque<UnitPtr> ready_;
  std::atomic<size_t> ready_size_{0};
  std::unordered_map<uint64_t, std::vector<UnitPtr>> pending_;  // by digest
  /// Π-failure negative cache: digest -> absolute monotonic expiry of its
  /// quarantine (entries erased lazily at the next park-time probe).
  /// Guarded by mu_ — checked only at park time, never on the warm path.
  std::unordered_map<uint64_t, int64_t> quarantine_;
  size_t parked_ = 0;   // units across pending_
  size_t backlog_ = 0;  // Submit items admitted, not yet completed
  std::unordered_map<int, size_t> client_backlog_;
  int64_t queue_depth_max_ = 0;
  int64_t admission_shed_ = 0;
  bool stop_workers_ = false;

  // Progress accounting: Drain waits for completed_ == admitted_.
  std::atomic<int64_t> admitted_{0};
  std::atomic<int64_t> completed_{0};

  // Preparer pool.
  std::mutex prep_mu_;
  std::condition_variable prep_cv_;
  std::deque<DataHandle> prep_jobs_;  // Π build requests, one per key
  bool stop_preparers_ = false;

  std::vector<WorkerTally> worker_tallies_;
  std::vector<PreparerTally> preparer_tallies_;
  std::vector<std::thread> workers_;
  std::vector<std::thread> preparers_;
};

}  // namespace engine
}  // namespace pitract

#endif  // PITRACT_ENGINE_PIPELINE_H_
