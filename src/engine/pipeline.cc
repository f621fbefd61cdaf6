#include "engine/pipeline.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/failpoint.h"
#include "common/timer.h"

namespace pitract {
namespace engine {

namespace {

/// "digest=<16 hex>" for Π-failure statuses: the pipeline's completions
/// are the wire-facing error surface, so they name the poisoned entry.
std::string DigestTag(uint64_t digest) {
  static const char kHex[] = "0123456789abcdef";
  std::string tag = "digest=";
  for (int i = 15; i >= 0; --i) {
    tag.push_back(kHex[(digest >> (4 * i)) & 0xf]);
  }
  return tag;
}

}  // namespace

ServePipeline::ServePipeline(QueryEngine* engine,
                             const PipelineOptions& options)
    : engine_(engine), opts_(options) {
  if (opts_.threads <= 0) {
    opts_.threads =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  if (opts_.preparers <= 0) opts_.preparers = opts_.threads;
  opts_.claim_batch = std::max(opts_.claim_batch, 1);
  opts_.max_requeues = std::max(opts_.max_requeues, 0);
  opts_.pi_retries = std::max(opts_.pi_retries, 0);
  opts_.pi_retry_backoff_ns = std::max<int64_t>(opts_.pi_retry_backoff_ns, 0);
  opts_.quarantine_ttl_ns = std::max<int64_t>(opts_.quarantine_ttl_ns, 0);

  // vector(n) default-constructs in place — the tallies hold CostMeters,
  // which are neither copyable nor movable.
  worker_tallies_ =
      std::vector<WorkerTally>(static_cast<size_t>(opts_.threads));
  preparer_tallies_ =
      std::vector<PreparerTally>(static_cast<size_t>(opts_.preparers));
  workers_.reserve(static_cast<size_t>(opts_.threads));
  preparers_.reserve(static_cast<size_t>(opts_.preparers));
  for (int t = 0; t < opts_.threads; ++t) {
    workers_.emplace_back(&ServePipeline::WorkerLoop, this,
                          static_cast<size_t>(t));
  }
  for (int p = 0; p < opts_.preparers; ++p) {
    preparers_.emplace_back(&ServePipeline::PreparerLoop, this,
                            static_cast<size_t>(p));
  }
}

ServePipeline::~ServePipeline() {
  Drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_workers_ = true;
  }
  ready_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(prep_mu_);
    stop_preparers_ = true;
  }
  prep_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  for (std::thread& t : preparers_) t.join();
}

Status ServePipeline::Submit(ServeWorkItem item, Completion done, int client,
                             int64_t deadline_ns) {
  const int64_t now = MonotonicNowNanos();
  auto unit = std::make_unique<Unit>();
  unit->owned = std::move(item);
  unit->work = &unit->owned;
  unit->done = std::move(done);
  unit->client = client;
  unit->from_submit = true;
  unit->submit_ns = now;
  unit->deadline_ns =
      deadline_ns != 0
          ? deadline_ns
          : (opts_.default_deadline_ns > 0 ? now + opts_.default_deadline_ns
                                           : 0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Load shedding at admission: a full queue answers *now* with
    // Unavailable instead of queueing work it cannot serve in time.
    if (opts_.queue_depth != 0 && backlog_ >= opts_.queue_depth) {
      ++admission_shed_;
      return Status::Unavailable("serving queue at depth " +
                                 std::to_string(opts_.queue_depth));
    }
    if (opts_.per_client_depth != 0) {
      size_t& per_client = client_backlog_[client];
      if (per_client >= opts_.per_client_depth) {
        ++admission_shed_;
        return Status::Unavailable(
            "client " + std::to_string(client) + " queue at depth " +
            std::to_string(opts_.per_client_depth));
      }
      ++per_client;
    }
    ++backlog_;
    admitted_.fetch_add(1, std::memory_order_acq_rel);
    ready_.push_back(std::move(unit));
    ready_size_.store(ready_.size(), std::memory_order_release);
    queue_depth_max_ = std::max(
        queue_depth_max_, static_cast<int64_t>(parked_ + ready_.size()));
  }
  ready_cv_.notify_one();
  return Status::OK();
}

void ServePipeline::SubmitWorkload(std::span<const ServeWorkItem> workload,
                                   int repeat, int64_t deadline_ns) {
  repeat = std::max(repeat, 1);
  const int64_t total =
      static_cast<int64_t>(workload.size()) * static_cast<int64_t>(repeat);
  if (total == 0) return;
  admitted_.fetch_add(total, std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> lock(mu_);
    workload_ = workload;
    workload_deadline_ns_ = DeadlineAfterNanos(deadline_ns);
    // The release store that makes workload_/deadline_ visible to workers
    // observing the new total without taking mu_.
    workload_total_.store(total, std::memory_order_release);
  }
  ready_cv_.notify_all();
}

void ServePipeline::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [&] {
    return completed_.load(std::memory_order_acquire) ==
           admitted_.load(std::memory_order_acquire);
  });
}

void ServePipeline::FinishCompleted(int64_t n) {
  if (n == 0) return;
  const int64_t done =
      completed_.fetch_add(n, std::memory_order_acq_rel) + n;
  if (done == admitted_.load(std::memory_order_acquire)) {
    // Empty critical section: pairs with Drain's predicate wait so the
    // notify can't slip between its check and its sleep.
    std::lock_guard<std::mutex> lock(mu_);
    drain_cv_.notify_all();
  }
}

void ServePipeline::RecordAnswered(WorkerTally* tally,
                                   const BatchResult& result) {
  ++tally->batches;
  tally->queries += static_cast<int64_t>(result.answers.size());
  tally->pi_runs += result.prepare_runs;
  if (result.cache_hit) ++tally->cache_hits;
  if (result.mode == BatchAnswerMode::kKernel) ++tally->kernel_batches;
  tally->answer_bytes_read += result.answer_bytes_read;
  tally->prepare_meter.AddSequential(result.prepare_cost);
  tally->answer_meter.AddSequential(result.answer_cost);
}

void ServePipeline::CompleteUnit(UnitPtr unit, const Status& status,
                                 int64_t queries) {
  if (unit->from_submit) {
    std::lock_guard<std::mutex> lock(mu_);
    --backlog_;
    if (opts_.per_client_depth != 0) {
      auto it = client_backlog_.find(unit->client);
      if (it != client_backlog_.end() && it->second > 0) --it->second;
    }
  }
  if (unit->done) {
    ItemOutcome outcome;
    outcome.status = status;
    outcome.queries = queries;
    outcome.latency_ns = MonotonicNowNanos() - unit->submit_ns;
    unit->done(outcome);
  }
}

bool ServePipeline::ParkUnit(UnitPtr unit, WorkerTally* tally) {
  const uint64_t digest = unit->route.key.digest;
  DataHandle job;
  bool enqueue_job = false;
  bool quarantined = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Π-failure quarantine: a digest whose build just spent its whole
    // retry budget fails new arrivals *fast* instead of re-running a Π
    // that is known-poisoned. The entry is erased lazily once its TTL
    // passes, so the next parker after expiry probes Π again.
    auto quarantine = quarantine_.find(digest);
    if (quarantine != quarantine_.end()) {
      if (MonotonicNowNanos() < quarantine->second) {
        quarantined = true;
      } else {
        quarantine_.erase(quarantine);
      }
    }
    if (!quarantined) {
      // Workload-mode shedding happens here (there is no admission step):
      // a cold backlog at depth answers Unavailable instead of parking.
      // Submit items were bounded at admission and always park.
      if (!unit->from_submit && opts_.queue_depth != 0 &&
          parked_ >= opts_.queue_depth) {
        ++tally->shed;
        return true;
      }
      std::vector<UnitPtr>& list = pending_[digest];
      // The first unit on an empty list owns submitting the Π build; a
      // parker landing after a preparer drained the list submits a fresh
      // (possibly redundant) job, so a publish can never strand a unit —
      // the redundant prepare is an instant store hit and requeues it.
      enqueue_job = list.empty();
      if (enqueue_job) job = unit->route;
      list.push_back(std::move(unit));
      ++parked_;
      queue_depth_max_ = std::max(
          queue_depth_max_, static_cast<int64_t>(parked_ + ready_.size()));
    }
  }
  if (quarantined) {
    // Outside mu_: CompleteUnit takes it for Submit-side bookkeeping.
    ++tally->quarantined;
    const Status status = Status::Internal(
        "Π quarantined after terminal failure (" + DigestTag(digest) + ")");
    if (tally->errors++ == 0) tally->first_error = status;
    CompleteUnit(std::move(unit), status, 0);
    return true;
  }
  if (enqueue_job) {
    {
      std::lock_guard<std::mutex> lock(prep_mu_);
      prep_jobs_.push_back(std::move(job));
    }
    prep_cv_.notify_one();
  }
  return false;
}

bool ServePipeline::ProcessUnit(UnitPtr unit, WorkerTally* tally) {
  const ServeWorkItem& item = *unit->work;
  if (unit->deadline_ns != 0 &&
      DeadlineExpired(unit->deadline_ns, MonotonicNowNanos())) {
    ++tally->deadline_expired;
    CompleteUnit(std::move(unit),
                 Status::DeadlineExceeded("deadline passed before dequeue"),
                 0);
    return true;
  }
  if (unit->route.data == nullptr) {
    // First probe of a submitted item: route it once; a requeue after a
    // prepare probes through the same key.
    if (item.handle != nullptr) {
      unit->route = *item.handle;
    } else {
      auto route = engine_->Route(item.problem, item.data);
      if (!route.ok()) {
        if (tally->errors++ == 0) tally->first_error = route.status();
        CompleteUnit(std::move(unit), route.status(), 0);
        return true;
      }
      unit->route = std::move(route).value();
    }
  }
  BatchResult result;
  Result<bool> warm = engine_->TryAnswerWarm(unit->route, item.queries,
                                             &result);
  // Cold with the requeue budget spent (the entry keeps getting evicted
  // between publish and probe): degrade to the blocking path, which
  // terminates via the store's in-flight rendezvous.
  if (warm.ok() && !*warm && unit->requeues >= opts_.max_requeues) {
    auto answered = engine_->AnswerBatch(unit->route, item.queries);
    if (answered.ok()) {
      result = std::move(answered).value();
      warm = true;
    } else {
      warm = answered.status();
    }
  }
  if (!warm.ok()) {
    if (tally->errors++ == 0) tally->first_error = warm.status();
    CompleteUnit(std::move(unit), warm.status(), 0);
    return true;
  }
  if (*warm) {
    RecordAnswered(tally, result);
    const int64_t queries = static_cast<int64_t>(result.answers.size());
    CompleteUnit(std::move(unit), Status::OK(), queries);
    return true;
  }
  ++unit->requeues;
  return ParkUnit(std::move(unit), tally);
}

bool ServePipeline::ProcessIndex(int64_t index, WorkerTally* tally) {
  const ServeWorkItem& item =
      workload_[static_cast<size_t>(index) % workload_.size()];
  const int64_t deadline = workload_deadline_ns_;
  if (deadline != 0 && DeadlineExpired(deadline, MonotonicNowNanos())) {
    ++tally->deadline_expired;
    return true;
  }
  // Warm fast path: no Unit allocation, no queue, no shared write beyond
  // the store's own hit accounting — the whole item lives on this stack.
  // A string item routes here (its one key build); the route aliases the
  // item's bytes, which outlive the pipeline run.
  DataHandle route;
  if (item.handle == nullptr) {
    auto routed = engine_->Route(item.problem, item.data);
    if (!routed.ok()) {
      if (tally->errors++ == 0) tally->first_error = routed.status();
      return true;
    }
    route = std::move(routed).value();
  }
  const DataHandle& handle = item.handle != nullptr ? *item.handle : route;
  BatchResult result;
  auto warm = engine_->TryAnswerWarm(handle, item.queries, &result);
  if (!warm.ok()) {
    if (tally->errors++ == 0) tally->first_error = warm.status();
    return true;
  }
  if (*warm) {
    RecordAnswered(tally, result);
    return true;
  }
  // Cold: materialize a Unit and park it; this worker moves on to the
  // next claimed item instead of blocking on Π.
  auto unit = std::make_unique<Unit>();
  unit->work = &item;
  unit->deadline_ns = deadline;
  unit->requeues = 1;
  unit->route = item.handle != nullptr ? *item.handle : std::move(route);
  return ParkUnit(std::move(unit), tally);
}

void ServePipeline::WorkerLoop(size_t worker_index) {
  WorkerTally& tally = worker_tallies_[worker_index];
  std::vector<UnitPtr> local;
  const int64_t claim = opts_.claim_batch;
  for (;;) {
    // (1) Queued units first — requeued-after-prepare and submitted items
    // are older than anything still unclaimed in the bulk workload. The
    // atomic emptiness check keeps this branch off the warm bulk path.
    if (ready_size_.load(std::memory_order_acquire) > 0) {
      local.clear();
      {
        std::lock_guard<std::mutex> lock(mu_);
        while (!ready_.empty() &&
               static_cast<int64_t>(local.size()) < claim) {
          local.push_back(std::move(ready_.front()));
          ready_.pop_front();
        }
        ready_size_.store(ready_.size(), std::memory_order_release);
      }
      if (!local.empty()) {
        int64_t completed_here = 0;
        for (UnitPtr& unit : local) {
          if (ProcessUnit(std::move(unit), &tally)) ++completed_here;
        }
        FinishCompleted(completed_here);
        continue;
      }
    }
    // (2) Bulk workload: the PR 5 batched-cursor claim — one fetch_add
    // per `claim` items is the loop's only shared write in warm steady
    // state (completions are counted once per claimed span).
    const int64_t total = workload_total_.load(std::memory_order_acquire);
    if (cursor_.load(std::memory_order_relaxed) < total) {
      const int64_t begin =
          cursor_.fetch_add(claim, std::memory_order_relaxed);
      if (begin < total) {
        const int64_t end = std::min(begin + claim, total);
        int64_t completed_here = 0;
        for (int64_t index = begin; index < end; ++index) {
          if (ProcessIndex(index, &tally)) ++completed_here;
        }
        FinishCompleted(completed_here);
        continue;
      }
    }
    // (3) Idle: wait for requeues, submissions, fresh workload, or stop.
    std::unique_lock<std::mutex> lock(mu_);
    ready_cv_.wait(lock, [&] {
      return stop_workers_ || !ready_.empty() ||
             cursor_.load(std::memory_order_relaxed) <
                 workload_total_.load(std::memory_order_relaxed);
    });
    if (stop_workers_ && ready_.empty()) return;
  }
}

void ServePipeline::PreparerLoop(size_t preparer_index) {
  PreparerTally& tally = preparer_tallies_[preparer_index];
  for (;;) {
    DataHandle job;
    {
      std::unique_lock<std::mutex> lock(prep_mu_);
      prep_cv_.wait(lock,
                    [&] { return stop_preparers_ || !prep_jobs_.empty(); });
      if (prep_jobs_.empty()) return;  // stop requested, queue drained
      job = std::move(prep_jobs_.front());
      prep_jobs_.pop_front();
    }
    // Π runs here — on a preparer, holding no pipeline lock — while the
    // answer workers keep draining warm traffic. busy_ns is the
    // head-of-line wall time this pool absorbed. A failed Prepare is
    // retried on this thread (parked items are already off the answer
    // workers, so nothing else waits on the backoff sleeps) up to
    // opts_.pi_retries more times before the failure is terminal.
    const int64_t t0 = MonotonicNowNanos();
    Status prepared;
    int attempts = 0;
    for (;;) {
      bool ran_pi = false;
      prepared = engine_->Prepare(job.problem, job.data, job.key,
                                  &tally.prepare_meter, &ran_pi);
      if (ran_pi) ++tally.pi_runs;
      // Preparer-completion failure edge: Π (and the store publish)
      // succeeded but the preparer dies before waking its parked units.
      // The retry re-probes, hits the already-published entry warm, and
      // completes the handoff — chaos_test drives this site.
      if (prepared.ok() && PITRACT_FAILPOINT("pipeline.preparer_publish")) {
        prepared = Status::Internal(
            "failpoint pipeline.preparer_publish fired (" +
            DigestTag(job.key.digest) + ")");
      }
      ++attempts;
      if (prepared.ok() || attempts > opts_.pi_retries) break;
      ++tally.pi_retries;
      const int64_t backoff = opts_.pi_retry_backoff_ns
                              << std::min(attempts - 1, 20);
      if (backoff > 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(backoff));
      }
    }
    tally.busy_ns += MonotonicNowNanos() - t0;
    if (!prepared.ok()) {
      ++tally.pi_failures;
      prepared = Status(prepared.code(),
                        "Π failed terminally after " +
                            std::to_string(attempts) + " attempt(s): " +
                            std::string(prepared.message()));
    }
    // Publish-then-wake: every unit parked under this key re-enters the
    // ready queue (a unit parking concurrently misses this drain, but it
    // submits its own job — see ParkUnit — so nothing is stranded).
    std::vector<UnitPtr> woken;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Terminal failure poisons the digest *in the same critical section
      // that drains its parked units*: a parker racing this drain either
      // lands in `woken` (completed with the Π error below) or parks
      // after the insert and fails fast — no window re-runs the dead Π.
      if (!prepared.ok() && opts_.quarantine_ttl_ns > 0) {
        quarantine_[job.key.digest] =
            MonotonicNowNanos() + opts_.quarantine_ttl_ns;
      }
      auto it = pending_.find(job.key.digest);
      if (it != pending_.end()) {
        woken = std::move(it->second);
        pending_.erase(it);
        parked_ -= woken.size();
        if (prepared.ok()) {
          for (UnitPtr& unit : woken) ready_.push_back(std::move(unit));
          ready_size_.store(ready_.size(), std::memory_order_release);
        }
      }
    }
    if (woken.empty()) continue;
    if (prepared.ok()) {
      ready_cv_.notify_all();
      continue;
    }
    // Π failed: every parked unit completes with the Π error — the same
    // per-batch failures the blocking driver would have reported.
    int64_t completed_here = 0;
    for (UnitPtr& unit : woken) {
      if (tally.errors++ == 0) tally.first_error = prepared;
      CompleteUnit(std::move(unit), prepared, 0);
      ++completed_here;
    }
    FinishCompleted(completed_here);
  }
}

ServeReport ServePipeline::report() {
  ServeReport report;
  report.threads = opts_.threads;
  report.preparers = opts_.preparers;
  CostMeter prepare_total;
  CostMeter answer_total;
  for (const WorkerTally& tally : worker_tallies_) {
    report.batches += tally.batches;
    report.queries += tally.queries;
    report.pi_runs += tally.pi_runs;
    report.cache_hits += tally.cache_hits;
    report.kernel_batches += tally.kernel_batches;
    report.answer_bytes_read += tally.answer_bytes_read;
    report.deadline_expired += tally.deadline_expired;
    report.shed += tally.shed;
    report.quarantined += tally.quarantined;
    if (tally.errors > 0 && report.errors == 0) {
      report.first_error = tally.first_error;
    }
    report.errors += tally.errors;
    prepare_total.MergeFrom(tally.prepare_meter);
    answer_total.MergeFrom(tally.answer_meter);
  }
  for (const PreparerTally& tally : preparer_tallies_) {
    report.pi_runs += tally.pi_runs;
    report.preparer_busy_ns += tally.busy_ns;
    report.pi_retries += tally.pi_retries;
    report.pi_failures += tally.pi_failures;
    if (tally.errors > 0 && report.errors == 0) {
      report.first_error = tally.first_error;
    }
    report.errors += tally.errors;
    prepare_total.MergeFrom(tally.prepare_meter);
  }
  report.prepare_cost = prepare_total.cost();
  report.answer_cost = answer_total.cost();
  {
    std::lock_guard<std::mutex> lock(mu_);
    report.queue_depth_max = queue_depth_max_;
    report.shed += admission_shed_;
  }
  return report;
}

}  // namespace engine
}  // namespace pitract
