#ifndef PITRACT_ENGINE_SERVE_H_
#define PITRACT_ENGINE_SERVE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/cost_meter.h"
#include "common/status.h"
#include "engine/engine.h"

namespace pitract {
namespace engine {

/// One unit of serving work: a batch of queries against one data part of
/// one registered problem, answered through the Σ*-witness path.
struct ServeWorkItem {
  std::string problem;
  std::string data;
  std::vector<std::string> queries;
  /// Pre-admitted form (see QueryEngine::Intern): when set, workers answer
  /// through `*handle` — zero O(|D|) key work per batch — and
  /// `problem`/`data` above are ignored.
  std::shared_ptr<const DataHandle> handle;
};

/// Aggregate of one ServePipeline run (ServePipeline::report). Wall-clock
/// rates are left to the caller, which owns the clock around its
/// submission pattern.
struct ServeReport {
  int64_t batches = 0;     // successfully answered work items
  int64_t queries = 0;     // queries answered across those batches
  int64_t pi_runs = 0;     // how many batches actually executed Π
  int64_t cache_hits = 0;  // batches served from the PreparedStore
  /// Batches answered by one `answer_view_batch` kernel call (vs the
  /// per-query loop) — warm kernel-enabled entries should show
  /// kernel_batches == batches.
  int64_t kernel_batches = 0;
  /// Bytes charged by the answer step across all batches (probe traffic).
  int64_t answer_bytes_read = 0;
  int64_t errors = 0;
  Status first_error;  // OK when errors == 0
  /// Summed Π cost across workers and preparers (charged only on actual
  /// Π runs plus the per-batch probe op).
  Cost prepare_cost;
  /// Summed per-query answering cost across workers.
  Cost answer_cost;
  int threads = 0;  // resolved worker count (after the 0 = auto default)
  // --- completion-pipeline visibility (PR 5-style per-thread slots,
  // merged after the join) --------------------------------------------------
  /// Work items completed with Status::DeadlineExceeded at dequeue.
  int64_t deadline_expired = 0;
  /// Work items shed because an admission/pending queue was at depth
  /// (completed with Status::Unavailable). Not counted in `errors`.
  int64_t shed = 0;
  /// High-water mark of items queued (parked cold + submitted-not-started).
  int64_t queue_depth_max = 0;
  /// Wall nanoseconds preparer threads spent inside Prepare (Π + store
  /// admission) — the head-of-line blocking the pipeline keeps off the
  /// answer workers.
  int64_t preparer_busy_ns = 0;
  int preparers = 0;  // resolved preparer count
  // --- Π-failure policy visibility (see PipelineOptions::pi_retries /
  // quarantine_ttl_ns) -------------------------------------------------------
  /// Π builds that exhausted the retry budget and failed terminally —
  /// each fails its parked items and (with quarantine on) poisons the
  /// digest for quarantine_ttl_ns.
  int64_t pi_failures = 0;
  /// Individual Π retry attempts made by the preparer pool (a build that
  /// succeeds on attempt 3 contributes 2 here and 0 to pi_failures).
  int64_t pi_retries = 0;
  /// Work items failed *fast* with Status::Internal because their digest
  /// was quarantined — the retry storm the negative cache absorbed. Also
  /// counted in `errors`.
  int64_t quarantined = 0;

  /// One observability blob: every counter above as a flat JSON object
  /// (costs flattened to `prepare_work`/`prepare_depth`/...), so benches
  /// and operators embed the full report instead of hand-formatting a
  /// subset in each emitter. Pairs with PreparedStore::Stats::ToJson().
  std::string ToJson() const;
};

}  // namespace engine
}  // namespace pitract

#endif  // PITRACT_ENGINE_SERVE_H_
