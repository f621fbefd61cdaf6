#ifndef PITRACT_ENGINE_ENGINE_H_
#define PITRACT_ENGINE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/cost_meter.h"
#include "common/result.h"
#include "core/language.h"
#include "core/query_class.h"
#include "core/reduction.h"
#include "engine/cost_model.h"
#include "engine/delta.h"
#include "engine/prepared_store.h"

namespace pitract {
namespace engine {

/// One *alternative* Π-tractability witness for a registered problem: the
/// same language, prepared differently (reach: closure bitmap vs edge-scan;
/// member: sorted column vs B+-tree view). Each alternative carries its own
/// static cost descriptor, patch hook, size estimator, and measured
/// profile; the engine's CostModel picks among the primary witness and the
/// alternatives per data part at admission/cold-miss time. Store keys embed
/// the witness name, so two alternatives of the same part are distinct
/// entries and a key always identifies which hooks built its payload.
struct WitnessAlternative {
  core::PiWitness witness;
  CostDescriptor descriptor;
  /// Π-patch hook for payloads built by *this* witness (unset: this
  /// alternative degrades to recompute-on-miss after a delta).
  PreparedPatchFn prepared_patch;
  /// Size estimate override; unset: payload+key bytes.
  PreparedStore::SizeFn prepared_size_of;
  /// Measured totals (filled in by Register when left null).
  std::shared_ptr<CostProfile> profile;
};

/// One registered problem: the Σ*-level artifacts of Definition 1
/// (reference semantics, factorization Υ, Π-tractability witness) plus,
/// when the deployed in-memory form exists, its typed-case factory. Both
/// execution paths answer through the engine under this one name.
struct ProblemEntry {
  std::string name;
  std::string paper_anchor;

  /// Σ*-string path (absent for measurement-only typed classes).
  bool has_language = false;
  core::DecisionProblem problem;
  core::Factorization factorization;
  core::PiWitness witness;

  /// Typed path (absent for Σ*-only entries such as reduced problems).
  std::function<std::unique_ptr<core::QueryClassCase>()> make_case;

  /// Size estimate (bytes) for this entry's prepared Π(D) payloads, used
  /// by the store's byte-budgeted eviction. Unset: payload+key bytes.
  PreparedStore::SizeFn prepared_size_of;

  /// When false, this entry's Π(D) structures are never spilled to disk;
  /// after a restart they degrade gracefully to recompute-on-miss.
  bool spillable = true;

  /// Incremental maintenance (Section 1's D ⊕ ΔD): computes the post-delta
  /// data part. Unset: the entry does not accept ApplyDelta at all.
  DataDeltaFn apply_delta_to_data;
  /// Patches a prepared Π(D) payload to Π(D ⊕ ΔD) at O(|ΔD|)-charged cost.
  /// Unset (or failing): ApplyDelta degrades to recompute-on-miss for the
  /// post-delta data part.
  PreparedPatchFn prepared_patch;

  /// Static cost prior for the primary witness (candidate index 0 in the
  /// CostModel's enumeration). Defaults model an O(|D|)-build / O(1)-answer
  /// witness, the common shape of the builtins.
  CostDescriptor witness_descriptor;
  /// Measured totals for the primary witness (filled in by Register when
  /// left null).
  std::shared_ptr<CostProfile> witness_profile;
  /// Additional candidate Π's. Empty (the default): selection is a no-op
  /// and the entry behaves exactly as a single-witness registration.
  std::vector<WitnessAlternative> alternatives;
};

/// A pre-admitted data part for the Σ*-witness path. `QueryEngine::Intern`
/// resolves the registry entry and pays the O(|D|) content hash exactly
/// once; the store key shares `data`, so the handle, its key and the
/// store entry for Π(D) hold one copy of D. Every subsequent
/// `AnswerBatch(handle, ...)` reuses the digest and key, so a warm batch
/// does zero |D|-sized work end to end (the store re-validates by
/// shared-pointer equality).
/// Handles are immutable values: copy/share them freely across threads.
/// A handle addresses the data part it was interned for — after an
/// ApplyDelta, intern the post-delta data part for a new handle.
/// `QueryEngine::Route` builds the same handle for a single call, aliasing
/// the caller's bytes instead of owning a copy.
struct DataHandle {
  std::string problem;
  /// The data part, shared so Π can still run on a (rare) cold miss
  /// without the handle's owner keeping a separate copy alive.
  std::shared_ptr<const std::string> data;
  PreparedStore::Key key;
  /// Content fingerprint of the *data part alone* (witness-independent,
  /// unlike `key`'s digest): the CostModel's per-part traffic/choice index.
  /// Computed once at Intern; 0 on hand-rolled handles disables tracking.
  uint64_t part_fingerprint = 0;
};

/// What Prepare did for this batch.
struct PrepareOutcome {
  bool ran_pi = false;     // Π actually executed
  bool cache_hit = false;  // the prepared structure was served from a cache
};

/// How the answering half of a batch executed.
enum class BatchAnswerMode {
  /// Per-query loop: each query answered through `answer_view` (queries
  /// that are not numeric) or the string `answer` hook (no view resident).
  kScalar,
  /// Queries decoded once per batch, then one `answer_view_batch` call
  /// answered the whole span.
  kKernel,
};

/// Aggregate of one prepare-once/answer-many batch.
struct BatchResult {
  std::vector<bool> answers;
  /// Cost charged by Π this batch — zero(ish) when served from cache.
  Cost prepare_cost;
  /// Summed answering cost over the whole batch.
  Cost answer_cost;
  /// Bytes charged by the answer step (conceptual probe traffic) — the
  /// bytes/query numerator of the bandwidth-floor benchmarks.
  int64_t answer_bytes_read = 0;
  int64_t prepare_runs = 0;  // 0 or 1: how many times Π executed
  bool cache_hit = false;
  /// Which answer path actually ran (tests/benches assert on this).
  BatchAnswerMode mode = BatchAnswerMode::kScalar;
};

/// The single prepare-once/answer-many contract that both execution paths
/// (the Σ*-string witness path and the typed deployed-case path) implement.
/// `RunBatch` is the one driver loop: Prepare exactly once, then answer
/// the batch — through `TryAnswerAll`'s amortized whole-batch path when
/// the implementation has one, else the per-query `AnswerOne` loop.
class BatchPath {
 public:
  virtual ~BatchPath() = default;
  /// Ensures the prepared structure exists, reusing a cached one when
  /// possible; charges Π's cost to `meter` only when Π actually ran.
  virtual Result<PrepareOutcome> Prepare(CostMeter* meter) = 0;
  /// Answers the qi-th query of the batch (the NC step).
  virtual Result<bool> AnswerOne(int qi, CostMeter* meter) = 0;
  /// Whole-batch fast path: answers every query in one call, filling
  /// `answers` and setting `mode`, returning true. Returning false (the
  /// default) means "no batch implementation here" and the driver falls
  /// back to the AnswerOne loop. Must be all-or-nothing: on error the
  /// whole batch fails, matching the per-query loop's first-error-wins.
  virtual Result<bool> TryAnswerAll(std::vector<bool>* answers,
                                    BatchAnswerMode* mode, CostMeter* meter) {
    (void)answers;
    (void)mode;
    (void)meter;
    return false;
  }
  virtual int num_queries() const = 0;
};

/// Drives a BatchPath through prepare-once/answer-many with per-batch
/// CostMeter aggregation.
Result<BatchResult> RunBatch(BatchPath* path);

/// The prepare-once/answer-many engine: a registry of problems, a sharded
/// PreparedStore for Σ*-level Π(D) structures, a small cache of typed
/// cases, and the batch answering API both paths share.
///
/// Concurrency contract: registration is expected at startup, answering
/// from any number of threads afterwards. `AnswerBatch`, `Answer`,
/// `AnswerInstance` and `AnswerTypedBatch` are thread-safe; the registry
/// is guarded by a reader/writer lock, the PreparedStore synchronizes
/// internally (RCU-style published snapshots make the warm hit path
/// lock-free; writers use lock-striped shards plus in-flight Π
/// deduplication), and the typed-case cache is guarded by its own mutex
/// with instances held through shared_ptr so eviction never invalidates a
/// running batch. A warm `AnswerBatch(handle, ...)` acquires no store
/// mutex (`PreparedStore::Stats::locked_hits` counts the exceptions), but
/// it does write shared cache lines: `PreparedStore::Touch` bumps the
/// entry's `hit_count` on every hit, `NoteAnswered` adds to the witness's
/// `CostProfile` (one profile for every data part of that witness) on
/// every batch, and under `CostModel::Policy::kAdaptive` `NoteTraffic`
/// takes the cost model's mutex. Hot handles shared by many threads
/// therefore contend on those lines.
class QueryEngine {
 public:
  /// `store_capacity` bounds the PreparedStore (entry count) and
  /// `typed_capacity` the typed-case cache; 0 means unbounded for both.
  /// The store's shard count is auto-sized from the core count (see
  /// `PreparedStore::Options::shards`).
  explicit QueryEngine(size_t store_capacity = 0, size_t typed_capacity = 8);
  /// Full control over the serving-layer store (shard count, entry cap,
  /// byte budget).
  explicit QueryEngine(const PreparedStore::Options& store_options,
                       size_t typed_capacity = 8);

  // --- registry ------------------------------------------------------------

  Status Register(ProblemEntry entry);

  /// Registers `name` as a problem Π-tractable *by reduction* (Theorem 5):
  /// the target's witness is looked up in this registry and transported
  /// backwards across `r` per Lemma 3 — never re-plumbed by hand. Fails if
  /// the target is unknown or its registered factorization does not match
  /// the reduction's target factorization.
  Status RegisterViaReduction(std::string name, std::string paper_anchor,
                              core::DecisionProblem source,
                              const core::NcFactorReduction& r,
                              std::string_view target);

  /// Same for an F-reduction (Lemma 8's ΠT⁰Q-compatibility half). An
  /// FReduction carries no factorizations, so the source's Υ is explicit.
  Status RegisterViaFReduction(std::string name, std::string paper_anchor,
                               core::DecisionProblem source,
                               core::Factorization source_factorization,
                               const core::FReduction& r,
                               std::string_view target);

  Result<const ProblemEntry*> Find(std::string_view name) const;
  /// Registered names in registration-stable (sorted) order.
  std::vector<std::string> Names() const;

  // --- Σ*-string path ------------------------------------------------------

  /// Answers a batch of queries against one data part: Π(data) is fetched
  /// from (or inserted into) the PreparedStore, then every query runs the
  /// witness's NC answer step. Thread-safe; concurrent batches over the
  /// same data part run Π once (in-flight deduplication). A thin wrapper:
  /// builds this call's `Route` and answers through the handle overload.
  Result<BatchResult> AnswerBatch(std::string_view problem,
                                  const std::string& data,
                                  std::span<const std::string> queries);

  /// Digest-handle admission: computes the content digest and the store
  /// key for `data` once; the key shares the handle's buffer rather than
  /// copying it. Use with the `AnswerBatch(handle, ...)` overload (or a
  /// `ServeWorkItem::handle`) to strip the per-batch O(|D|) hash and
  /// compare from the warm path.
  Result<DataHandle> Intern(std::string_view problem, std::string data) const;

  /// One-call admission, the route every string-keyed call takes: a handle
  /// whose `data` *aliases* the caller's bytes (nothing is copied, so they
  /// must outlive the route) and whose key embeds the witness selected for
  /// this part and borrows the same bytes. Pays the one O(|D|) digest
  /// pass, counted in
  /// Stats::key_builds; fingerprints the part only when witness selection
  /// needs it (alternatives registered and a non-primary-only policy).
  Result<DataHandle> Route(std::string_view problem, const std::string& data);

  /// AnswerBatch against an admitted data part: a warm batch performs no
  /// O(|D|) key build, hash, or compare (Stats::key_builds stays
  /// untouched).
  Result<BatchResult> AnswerBatch(const DataHandle& handle,
                                  std::span<const std::string> queries);

  // --- completion-pipeline faces (see engine/pipeline.h) -------------------

  /// Warm-only AnswerBatch: answers iff Π(data) is already resident in the
  /// published store snapshot, returning true and filling `result` with
  /// the same BatchResult the blocking overload would produce (cache_hit
  /// == true, prepare_runs == 0). Returns false on a cold part — without
  /// running Π, blocking on an in-flight Π, or touching a shard mutex —
  /// so a serving worker can park the batch and keep draining warm
  /// traffic. Errors (unknown problem, a query that fails to parse) are
  /// real errors, not "cold". String-keyed callers probe through their
  /// `Route`, whose key the preparer then reuses on a cold part.
  Result<bool> TryAnswerWarm(const DataHandle& handle,
                             std::span<const std::string> queries,
                             BatchResult* result);

  /// The preparer half of the completion pipeline: ensures Π(data) is
  /// resident under `key`, running Π (with in-flight dedup) on a miss.
  /// `ran_pi` reports whether this call executed Π; `meter` is charged Π's
  /// cost exactly when it did. `data` is shared, not copied — pass the
  /// handle's payload or an aliasing pointer to caller-owned bytes.
  Status Prepare(std::string_view problem,
                 const std::shared_ptr<const std::string>& data,
                 const PreparedStore::Key& key, CostMeter* meter = nullptr,
                 bool* ran_pi = nullptr);

  /// Single-query convenience; still routed through the PreparedStore, so a
  /// warm store answers without re-running Π. Prepare+answer costs are
  /// charged to `meter`.
  Result<bool> Answer(std::string_view problem, const std::string& data,
                      const std::string& query, CostMeter* meter = nullptr);

  /// Splits a whole instance x with the registered factorization and
  /// answers ⟨π₁(x), π₂(x)⟩ — the Definition 1 round trip.
  Result<bool> AnswerInstance(std::string_view problem, const std::string& x,
                              CostMeter* meter = nullptr);

  /// Applies ΔD to one data part of `problem`: computes D ⊕ ΔD through the
  /// entry's `apply_delta_to_data` hook and, when a `prepared_patch` hook
  /// is registered and Π(D) is resident, Δ-patches the PreparedStore entry
  /// in place (re-keying it to the post-delta digest) instead of paying a
  /// full Π recompute. Thread-safe against concurrent AnswerBatch /
  /// ServePipeline traffic: a Π in flight on the old data part is waited
  /// out once and the patch retried against what it publishes
  /// (`Stats::update_retries`) — an entry is never re-keyed out from
  /// under waiters on the shared_future — and readers that already
  /// hold the pre-delta structure keep a consistent snapshot. When
  /// patching is not possible the call still succeeds with
  /// `DeltaOutcome::patched == false` and the post-delta data part simply
  /// recomputes on its first miss.
  Result<DeltaOutcome> ApplyDelta(std::string_view problem,
                                  const std::string& data,
                                  const DeltaBatch& delta,
                                  CostMeter* meter = nullptr);

  // --- typed path ----------------------------------------------------------

  /// Runs the registered typed case for (problem, n, seed) through the same
  /// prepare-once/answer-many loop. Cases are cached per (problem, n, seed),
  /// so repeated batches against the same generated data reuse the prepared
  /// structure (prepare_runs == 0, cache_hit == true). Thread-safe; two
  /// threads racing on a cold key may each generate an instance, but only
  /// one lands in the cache.
  Result<BatchResult> AnswerTypedBatch(std::string_view problem, int64_t n,
                                       uint64_t seed);

  /// Fresh (unprepared) typed case instance for callers that drive the
  /// QueryClassCase interface directly (classifier sweeps, baselines).
  Result<std::unique_ptr<core::QueryClassCase>> MakeCase(
      std::string_view problem) const;

  PreparedStore& store() { return store_; }
  const PreparedStore& store() const { return store_; }

  /// The witness-selection solver. Policy::kPrimaryOnly (the default)
  /// pins every entry to its registered primary witness — identical
  /// behavior to the pre-adaptive engine. Switch to kAdaptive (or force an
  /// index) before serving to let registered alternatives compete.
  CostModel& cost_model() { return cost_model_; }
  const CostModel& cost_model() const { return cost_model_; }

  /// Witness-independent content fingerprint of a data part (the
  /// CostModel's per-part index); exposed for tests and benches.
  static uint64_t PartFingerprint(std::string_view data);

 private:
  /// Typed-case cache key, kept as its three components: lookups compare
  /// two integers before touching the (short) problem name — no per-batch
  /// key-string building.
  struct TypedSlot {
    std::string problem;
    int64_t n = 0;
    uint64_t seed = 0;
    std::shared_ptr<core::QueryClassCase> instance;

    bool Matches(std::string_view p, int64_t nn, uint64_t s) const {
      return n == nn && seed == s && problem == p;
    }
  };

  /// The hooks/cost bundle of one selected witness candidate (index 0 =
  /// the entry's primary witness, i ≥ 1 = alternatives[i-1]). Pointers
  /// alias registry-owned state, which is never erased.
  struct SelectedWitness {
    const core::PiWitness* witness = nullptr;
    const CostDescriptor* descriptor = nullptr;
    CostProfile* profile = nullptr;
    const PreparedPatchFn* patch = nullptr;
    const PreparedStore::SizeFn* size_of = nullptr;
    int index = 0;
  };

  /// Find, restricted to entries with a Σ*-level witness.
  Result<const ProblemEntry*> FindLanguage(std::string_view name) const;
  static SelectedWitness CandidateAt(const ProblemEntry& entry, int index);
  /// Reads the witness name out of a store key's head and returns the
  /// matching candidate — the only correct way to pick answer hooks for a
  /// key-addressed payload (trusting anything else risks decoding a view
  /// with the wrong type). Unknown names fall back to the primary.
  static SelectedWitness ResolveWitnessFromKey(const ProblemEntry& entry,
                                               const PreparedStore::Key& key);
  /// Runs the CostModel over the entry's candidates for this part (choice
  /// cache first) and returns the winner. `data` sizes the linear models
  /// and lets the solver probe per-candidate residency; fingerprint 0
  /// skips the sticky-choice cache.
  SelectedWitness SelectWitness(const ProblemEntry& entry,
                                const std::string* data,
                                uint64_t part_fingerprint) const;
  /// Traffic bookkeeping after an answered batch: feeds the measured
  /// profile and, under kAdaptive, re-runs selection when a part's traffic
  /// crosses a doubling boundary.
  void NoteAnswered(const ProblemEntry& entry, const SelectedWitness& selected,
                    uint64_t part_fingerprint, int64_t queries,
                    int64_t answer_ops);

  mutable std::shared_mutex registry_mutex_;
  std::map<std::string, ProblemEntry, std::less<>> entries_;
  PreparedStore store_;
  mutable CostModel cost_model_;
  const size_t typed_capacity_;
  std::mutex typed_mutex_;
  std::list<TypedSlot> typed_cache_;  // front = most recently used
  /// Bumped on every typed-cache insert (guarded by typed_mutex_): a cold
  /// path that generated off-lock only re-scans for a racing duplicate
  /// when the generation moved since its miss.
  uint64_t typed_generation_ = 0;
};

/// The process-wide engine with every built-in problem registered (see
/// engine/builtins.h).
QueryEngine& DefaultEngine();

}  // namespace engine
}  // namespace pitract

#endif  // PITRACT_ENGINE_ENGINE_H_
