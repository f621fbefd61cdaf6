#ifndef PITRACT_ENGINE_PREPARED_STORE_H_
#define PITRACT_ENGINE_PREPARED_STORE_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/cost_meter.h"
#include "common/result.h"

namespace pitract {
namespace engine {

/// 64-bit FNV-1a-style digest used for content addressing. Processes the
/// input 8 bytes per iteration (word-at-a-time fold with an extra shift
/// mix, byte-at-a-time only for the tail), so hashing a data part costs
/// |D|/8 multiplies instead of |D|. Digests are only ever compared against
/// digests produced by this same function (in memory or recomputed from a
/// spill file's stored key), so the deviation from canonical FNV-1a is
/// unobservable; a collision still degrades to a miss via the full-key
/// guard, never to a wrong structure.
uint64_t Fnv1a64(std::string_view bytes);
/// Fnv1a64 of the concatenation `head + data`, streamed over the two parts
/// without building it (the word that straddles the boundary is folded
/// exactly as the one-shot pass folds it): a store key's digest.
uint64_t Fnv1a64(std::string_view head, std::string_view data);
/// Second, independent 64-bit hash of `head + data` (different offset
/// basis and fold), streamed the same way. It guards the first
/// lineage-resolution hop: a stale probe mis-resolves only if a foreign
/// key collides in *both* hashes.
uint64_t AltKeyDigest(std::string_view head, std::string_view data);

/// Content-addressed cache of preprocessed structures: a digest of
/// (problem, witness, data part) maps to Π(D), so repeated queries against
/// the same data never re-run Π — Definition 1's one-time/amortized
/// asymmetry, enforced by construction rather than by caller discipline.
///
/// The store is a concurrent serving structure whose *warm hit path is
/// lock-free*:
///
///  * **RCU-style snapshot reads.** Each shard publishes its entry table
///    as an immutable snapshot behind an atomic shared-pointer cell
///    (`SnapshotCell`, functionally `std::atomic<std::shared_ptr>` — see
///    its comment for why it is hand-rolled). A warm hit loads the
///    snapshot, probes it, and returns — it acquires
///    no mutex and splices no shared LRU list (`Stats::locked_hits` counts
///    the rare hits that *did* need the shard mutex: races with a
///    concurrent publish, Load, or re-key). Writers — miss publish,
///    eviction, `UpdateData` re-key, `Load`, `Clear` — copy the table
///    under the shard mutex, mutate the copy, and publish it atomically.
///  * **Lock striping.** Entries live in N shards selected by digest
///    (`Options::shards`, 0 = auto-size from the core count); a Π run for
///    one data part never blocks lookups landing in other shards.
///  * **In-flight Π deduplication.** Concurrent misses on the same data
///    part rendezvous on one std::shared_future: exactly one caller runs Π
///    (outside the shard lock), the rest block until it publishes, so Π
///    provably executes once per distinct data part even under a miss
///    storm.
///  * **Byte-budgeted approximate-LRU eviction.** Every entry carries a
///    size estimate (caller-supplied `SizeFn` hook, defaulting to
///    payload+key bytes); once resident bytes exceed `Options::byte_budget`
///    (or entries exceed `Options::max_entries`), victims are evicted until
///    the store is back under budget. Recency is tracked by a relaxed
///    per-entry atomic epoch stamp, not a shared list: hits in the same
///    epoch (the span between two writer events) tie arbitrarily, but an
///    entry untouched since an older epoch is always evicted before one
///    touched since. Exact-LRU order is *not* guaranteed; the byte-budget
///    invariant is.
///  * **MVCC version lineage.** UpdateData publishes the post-delta Π(D)
///    under its new digest *without* dropping the pre-delta entry: the last
///    `Options::versions` versions of a lineage stay resident (superseded
///    but digest-addressable), so a reader holding a pre-delta Key keeps
///    answering its pinned snapshot while deltas stream in. Once a version
///    is trimmed out of the window, the old→successor digest chain lets
///    TryGetView transparently resolve a stale probe to the first resident
///    successor instead of going cold.
///  * **Persistence.** Spill serializes every spillable entry to one
///    serde-framed file per entry under a spill directory; Load rehydrates
///    a (possibly restarted) store from such a directory. Entries inserted
///    as non-spillable are skipped by Spill and simply recompute on their
///    first post-restart miss.
///
/// Entries keep their full key (head plus a reference to D) alongside the
/// digest, so a digest collision degrades to a cache miss, never to a
/// wrong structure.
class PreparedStore {
  struct Entry;  // one resident Π(D); defined below

 public:
  struct Options {
    /// Number of lock stripes. 0 = auto: the next power of two >=
    /// 2 x std::thread::hardware_concurrency(), so a fully loaded machine
    /// rarely maps two hot data parts onto one stripe. Clamped to >= 1.
    size_t shards = 0;
    /// 0 = unbounded; otherwise approximate-LRU entries are evicted past
    /// the cap.
    size_t max_entries = 0;
    /// 0 = unbounded; otherwise approximate-LRU entries are evicted once
    /// the summed size estimates exceed this many bytes.
    size_t byte_budget = 0;
    /// MVCC window: how many versions of one data lineage stay resident
    /// after UpdateData re-keys (the current version plus versions-1
    /// superseded predecessors). Readers holding a pre-delta Key keep
    /// answering their pinned Π(D) while it is in the window; past it, a
    /// TryGetView probe resolves through the lineage chain to the first
    /// resident successor instead of going cold (Stats::lineage_resolves).
    /// Superseded versions count bytes individually, evict normally, and
    /// are skipped by Spill. Clamped to >= 1; 1 = pre-MVCC behavior (the
    /// old version is dropped at publish, lineage records still resolve).
    size_t versions = 2;
    /// Tiered residency. When set, budget pressure moves entries down a
    /// three-tier ladder instead of straight to eviction:
    ///   hot  — decoded view resident (the fast answer path), plus the
    ///          payload unless the entry was admitted view-first (see
    ///          EntryOptions::encode_view);
    ///   warm — payload only: the view is *demoted* (dropped) first, the
    ///          entry keeps serving via the string path and re-promotes to
    ///          hot through the existing lazy view rebuild on its next hit.
    ///          A view-first entry's warm clone carries the payload encoded
    ///          from its view; that demotion frees view bytes − |Π| and is
    ///          skipped when that is not positive;
    ///   cold — evicted from memory, but (when a spill directory is
    ///          active) the payload is written as a v3 spill frame on the
    ///          way out, so the next miss *promotes* it back by reading
    ///          one file instead of re-running Π.
    /// Victim order is cheapest-expected-loss first, not just oldest: the
    /// decayed hit count weights each entry's caller-supplied rebuild
    /// cost (EntryOptions::view_loss_ops / evict_loss_ops) per byte
    /// freed. Entries that were never hit score zero, so the CLOCK +
    /// recency-stamp order is preserved exactly for them. The warm hit
    /// path is untouched: demotion publishes a view-less *clone* of the
    /// entry through the normal snapshot-swap protocol, never a lock on
    /// the read side.
    bool tiered = true;
  };

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    /// Calls that blocked on another caller's in-flight Π instead of
    /// running their own (each also counts as a hit: Π did not run).
    int64_t inflight_waits = 0;
    int64_t spilled = 0;
    int64_t loaded = 0;
    /// UpdateData calls that Δ-patched a resident Π(D) in place.
    int64_t patches = 0;
    /// UpdateData calls that could not patch (no resident entry, an
    /// in-flight Π still on the old key after the retry, or a failed patch
    /// fn) and left the new data part to recompute-on-miss.
    int64_t patch_fallbacks = 0;
    /// O(|D|) key digest passes on the counted admission paths. The
    /// string-keyed GetOrCompute overloads and BuildKeyCounted pay one per
    /// call and UpdateData two; the precomputed-Key overloads pay zero —
    /// the counter a warm digest-handle batch must leave untouched.
    int64_t key_builds = 0;
    /// Decoded Π-views built, by the ViewFn or by Π itself (see Built):
    /// once per entry under the in-flight-dedup discipline; again after a
    /// Load or a Δ-patch re-key.
    int64_t view_builds = 0;
    /// Hits that could not be served from the published snapshot and fell
    /// back to a probe under the shard mutex (a race with a concurrent
    /// publish/Load/re-key). A warm steady-state run must leave this at 0
    /// — the proof that the hit path is lock-free.
    int64_t locked_hits = 0;
    /// UpdateData calls that found a Π in flight on the pre-delta key,
    /// blocked on its shared_future, and retried (instead of immediately
    /// degrading to recompute-on-miss).
    int64_t update_retries = 0;
    /// TryGetView probes whose digest was no longer resident (trimmed out
    /// of the MVCC window) but resolved through the lineage chain to a
    /// resident successor version and were served warm — each also counts
    /// as a hit. The stale-handle race fix's visible signature: readers
    /// survive a re-key with zero spurious Π rebuilds.
    int64_t lineage_resolves = 0;
    /// Spill-file writes that failed — per-entry errors in a Spill pass
    /// (the pass continues; see Spill) and failed best-effort rewrites
    /// after a Δ-patch. Each leaves a missing/stale file that Load already
    /// degrades to recompute-on-miss; a climbing counter is the operator's
    /// dying-disk signal, where these failures used to be invisible.
    int64_t respill_failures = 0;
    /// Load-pass files skipped for *non-corruption* reasons: foreign magic,
    /// an older/newer spill format version, or an unreadable file. Expected
    /// after a format bump; not a data-integrity signal.
    int64_t load_skipped = 0;
    /// Load-pass files rejected as corrupt: checksum mismatch (bit rot in
    /// the key/payload/size regions) or a structurally torn frame behind a
    /// valid magic+version header. Every rejection degrades to
    /// recompute-on-miss — a non-zero counter means the spill medium
    /// damaged bytes that would otherwise have been *served*.
    int64_t load_corrupt = 0;
    /// Hot→warm demotions: decoded views dropped under byte pressure while
    /// the payload stayed resident (the entry re-promotes via the lazy
    /// view rebuild on its next hit). Each saves an eviction.
    int64_t view_demotions = 0;
    /// Warm→cold demotions: evicted entries whose payload was written to
    /// the active spill directory on the way out, so the next miss can
    /// promote it back with one file read instead of a Π run.
    int64_t cold_demotions = 0;
    /// Cold→warm promotions: misses served by reading the digest's spill
    /// frame instead of running Π (the miss is still counted; Π was not).
    int64_t cold_promotions = 0;
    /// Σ* payloads encoded from a view-first entry's view (see
    /// EntryOptions::encode_view): memoized ones (string answer path,
    /// GetOrCompute) and transient ones (Spill, cold demotion, UpdateData's
    /// patch copy, a warm clone). Warm batches leave it at 0.
    int64_t payload_encodes = 0;

    /// One JSON object with every counter, e.g.
    /// {"hits":12,"misses":3,...} — the single observability blob benches
    /// and operators embed instead of hand-formatting counters.
    std::string ToJson() const;
  };

  /// Legacy convenience: an entry-capped store with auto sharding.
  explicit PreparedStore(size_t max_entries = 0)
      : PreparedStore(Options{/*shards=*/0, max_entries, /*byte_budget=*/0}) {}
  explicit PreparedStore(const Options& options);

  using ComputeFn = std::function<Result<std::string>(CostMeter*)>;
  /// What a miss's Π produced: its Σ* payload, or — from a witness whose
  /// Π builds its view directly (PiWitness::preprocess_view) — that view
  /// and the exact size of the payload it encodes to. A view is admitted
  /// view-first with no payload ever made and no ViewFn run, so it needs
  /// EntryOptions::encode_view, and the entry is sized by the default
  /// estimate (EntryOptions::size_of must be unset).
  struct Built {
    std::string payload;
    std::shared_ptr<const void> view;
    size_t payload_bytes = 0;  // |Π(D)|; read only with `view`
  };
  using BuildFn = std::function<Result<Built>(CostMeter*)>;
  /// Size-estimate hook for byte-budgeted eviction: maps a prepared Π(D)
  /// payload to its resident byte estimate.
  using SizeFn = std::function<size_t(const std::string&)>;
  /// Decoded-view hook: Σ*-payload -> typed in-memory structure (a
  /// PiWitness::deserialize, type-erased). The payload arrives as the
  /// entry's shared_ptr so a hook may return an aliasing view copy-free.
  /// A failing build is not an error: the entry is marked and serves the
  /// string path (the failure is not retried on later hits).
  using ViewFn = std::function<Result<std::shared_ptr<const void>>(
      const std::shared_ptr<const std::string>& prepared, CostMeter*)>;
  /// Inverse of a ViewFn (a PiWitness::encode_view, type-erased): appends
  /// the exact payload the view was built from to `out`.
  using EncodeFn = std::function<Status(const void* view, std::string* out)>;
  /// Heap footprint of a view a ViewFn built (PiWitness::view_bytes).
  using ViewBytesFn = std::function<size_t(const void* view)>;

  /// Fixed per-entry overhead the default size estimate adds on top of
  /// key+payload bytes (map node, shared_ptr control block, bookkeeping).
  /// Custom SizeFn hooks that want to stay comparable can add it too.
  static constexpr size_t kEntryOverheadBytes = 64;

  /// Per-call knobs supplied by the registry entry that owns the key.
  struct EntryOptions {
    SizeFn size_of;            // unset: payload + key + kEntryOverheadBytes
    bool spillable = true;     // false: Spill skips, recompute after restart
    ViewFn make_view;          // unset: no decoded view is memoized
    /// Set with make_view: the entry is admitted *view-first*. Once its
    /// view is built the payload is dropped, and every path that needs it
    /// (the string answer path, Spill, cold demotion, UpdateData, a warm
    /// clone) encodes it from the view. The encoder is kept on the entry,
    /// so later probes need not pass it. Unset: the payload stays resident.
    EncodeFn encode_view;
    /// Charges a built view its real heap bytes; unset: |Π(D)| as a proxy.
    ViewBytesFn view_bytes;
    /// Expected cost (abstract CostMeter ops) of rebuilding the decoded
    /// view if it is demoted — what a hot→warm move risks. The tiered
    /// sweep weighs hit-decayed loss per byte freed; 0 (the default)
    /// means "no opinion", which preserves pure CLOCK+recency order.
    double view_loss_ops = 0;
    /// Expected cost of re-running Π if the entry is evicted — what a
    /// warm→cold move risks. Same scoring and same 0 default.
    double evict_loss_ops = 0;
  };

  /// A content-addressed store key: the short head `problem \x1f witness
  /// \x1f`, the data part D it addresses, and the digest of head + D.
  /// The key *references* D instead of copying it. `data` either shares
  /// ownership of D (QueryEngine::Intern hands in the handle's own
  /// buffer, so handle and entry hold one copy) or is a non-owning alias
  /// of bytes the caller keeps alive for the call (a *borrowed* key: the
  /// string-keyed overloads and QueryEngine::Route). The store never
  /// keeps a borrowed key past the call: publishing an entry from one
  /// copies D once into storage the entry owns. A warm hit through the
  /// key an entry was admitted with re-validates by pointer equality —
  /// zero O(|D|) copies, hashes or compares per batch.
  struct Key {
    std::string head;
    std::shared_ptr<const std::string> data;
    uint64_t digest = 0;
    /// |head| + |D|: the bytes of the concatenated key a spill frame holds.
    size_t size() const { return head.size() + data->size(); }
    /// True iff `data` aliases bytes it does not own (a null-control-block
    /// aliasing shared_ptr).
    bool borrowed() const { return data != nullptr && data.use_count() == 0; }
  };
  /// Builds a Key over `data`, sharing it as given (owning or borrowed):
  /// the one place the O(|D|) digest pass is paid.
  static Key InternKey(std::string_view problem, std::string_view witness,
                       std::shared_ptr<const std::string> data);
  /// Convenience for keys over bytes nobody shares: copies `data` once
  /// into storage the key owns.
  static Key InternKey(std::string_view problem, std::string_view witness,
                       std::string_view data);
  /// InternKey plus the Stats::key_builds charge — for callers (e.g.
  /// QueryEngine::Route) that materialize a key outside
  /// the string-keyed GetOrComputeView but must stay visible to the
  /// admission-cost counters.
  Key BuildKeyCounted(std::string_view problem, std::string_view witness,
                      std::shared_ptr<const std::string> data) const;
  Key BuildKeyCounted(std::string_view problem, std::string_view witness,
                      std::string_view data) const;

  /// One warm answer-path snapshot: the raw Σ* payload and/or (when the
  /// entry carries a ViewFn and the build succeeded) its memoized decoded
  /// view. `view` aliases the entry until eviction; holders keep it alive.
  struct PreparedView {
    /// Null for a view-first entry that has not memoized its payload: ask
    /// Payload() for it.
    std::shared_ptr<const std::string> prepared;
    std::shared_ptr<const void> view;  // null: answer via the string path
    /// The entry a null `prepared` is encoded from (set only then).
    std::shared_ptr<Entry> source;
  };

  /// The Σ* payload behind `view`: `view.prepared` when set, else encoded
  /// from the view-first entry's view and memoized on the entry, exactly
  /// once however many callers race (later calls share that copy, which
  /// the byte ledger charges while the entry is resident).
  Result<std::shared_ptr<const std::string>> Payload(const PreparedView& view);

  /// Returns the cached Π(D) for (problem, witness, data), or runs
  /// `compute` on a miss and stores the result (a view-first entry
  /// memoizes its payload, see Payload()). `meter` is charged the full
  /// preprocessing cost on a miss and a single probe op on a hit or an
  /// in-flight wait; `hit` (optional) reports whether Π ran in this call.
  Result<std::shared_ptr<const std::string>> GetOrCompute(
      std::string_view problem, std::string_view witness,
      const std::string& data, const ComputeFn& compute,
      CostMeter* meter = nullptr, bool* hit = nullptr);
  Result<std::shared_ptr<const std::string>> GetOrCompute(
      std::string_view problem, std::string_view witness,
      const std::string& data, const ComputeFn& compute, CostMeter* meter,
      bool* hit, const EntryOptions& entry_options);

  /// GetOrCompute plus the decoded Π-view layer. The view is built at most
  /// once per entry under the in-flight-dedup discipline (the miss winner
  /// builds it before publishing, so a whole miss storm shares one build),
  /// rebuilt lazily on the first hit after a Load (spill files carry only
  /// the payload), rebuilt from the patched payload on an UpdateData
  /// re-key, and dropped with the entry on eviction. String-keyed flavor
  /// pays the O(|D|) digest pass of a key that borrows `data` (counted in
  /// Stats::key_builds; a miss copies D once to own it)...
  Result<PreparedView> GetOrComputeView(std::string_view problem,
                                        std::string_view witness,
                                        const std::string& data,
                                        const ComputeFn& compute,
                                        CostMeter* meter, bool* hit,
                                        const EntryOptions& entry_options);
  /// ...while the precomputed-Key flavor pays none: warm batches through a
  /// Key are O(1) in |D| end to end, and a warm hit is *lock-free* — one
  /// snapshot load, one table probe, one relaxed recency stamp.
  Result<PreparedView> GetOrComputeView(const Key& key,
                                        const ComputeFn& compute,
                                        CostMeter* meter, bool* hit,
                                        const EntryOptions& entry_options);
  /// GetOrComputeView whose miss runs `build`, which may hand over the
  /// view itself (see Built). Counted like any view build
  /// (Stats::view_builds), charged |Π(D)| as payload_bytes.
  Result<PreparedView> GetOrBuildView(const Key& key, const BuildFn& build,
                                      CostMeter* meter, bool* hit,
                                      const EntryOptions& entry_options);

  /// Warm-only probe for the completion pipeline: serves the entry iff it
  /// is resident in the published snapshot, and *never* runs Π, blocks on
  /// an in-flight Π, or falls back to the shard mutex. Returns true (and
  /// fills `out`, counting one hit) on a snapshot hit; when the digest is
  /// not resident but was re-keyed away by UpdateData, the probe resolves
  /// through the lineage chain and serves the first resident successor
  /// version (Stats::lineage_resolves) — the answers are then against the
  /// newer data, which is exactly what a delta-streaming reader wants
  /// instead of a spurious Π rebuild of a retired version. False on
  /// anything else — the caller owns the miss (typically by parking the
  /// work and handing the key to a preparer thread). A false return counts
  /// nothing: the miss is charged by whichever GetOrComputeView eventually
  /// runs Π. (GetOrComputeView itself stays strictly content-addressed: a
  /// probe with the data in hand recomputes its exact pinned version.)
  bool TryGetView(const Key& key, const EntryOptions& entry_options,
                  CostMeter* meter, PreparedView* out);

  /// True iff an entry for (problem, witness, data) is resident. Lock-free
  /// (probes the published snapshot).
  bool Contains(std::string_view problem, std::string_view witness,
                const std::string& data) const;

  /// Patches Π(old_data) in place so the entry serves (problem, witness,
  /// new_data): the incremental-maintenance path (Section 1's D ⊕ ΔD).
  /// Both data parts are borrowed for the call; the post-delta entry copies
  /// `new_data` once to own its key.
  /// `patch` receives a private copy of the resident payload — concurrent
  /// readers keep their consistent pre-delta snapshot through their
  /// shared_ptr — and must leave it equal to Π(new_data). On success the
  /// post-delta entry is published under the new digest within the owning
  /// shards' stripes, the pre-delta version is retained as a superseded
  /// predecessor (until it falls out of the `Options::versions` window —
  /// see the MVCC bullet above), recency/byte accounting is fixed through
  /// `entry_options.size_of`, and (when a spill directory is active) the
  /// entry is respilled.
  ///
  /// Fallback contract: returns NotFound when no entry for old_data is
  /// resident, and the patch's own status when it fails. A Π for old_data
  /// in flight at call time is waited out once (the call blocks on the
  /// miss storm's shared_future, then retries — Stats::update_retries);
  /// only a *second* in-flight Π observed after that retry returns
  /// Unavailable (the entry must never be re-keyed out from under waiters
  /// on the shared_future). In every non-OK case the store is untouched
  /// and the caller degrades to recompute-on-miss.
  using PatchFn = std::function<Status(std::string* prepared, CostMeter*)>;
  Status UpdateData(std::string_view problem, std::string_view witness,
                    const std::string& old_data, const std::string& new_data,
                    const PatchFn& patch, CostMeter* meter = nullptr);
  Status UpdateData(std::string_view problem, std::string_view witness,
                    const std::string& old_data, const std::string& new_data,
                    const PatchFn& patch, CostMeter* meter,
                    const EntryOptions& entry_options);

  /// Serializes every resident spillable entry to `dir` (created if
  /// missing), one checksummed serde-framed file per entry, so a restarted
  /// engine can rehydrate its warm cache with Load. Per-entry write
  /// failures do not abort the pass: the remaining entries still spill
  /// (each failure counts in Stats::respill_failures and leaves any older
  /// file for its digest in place), and the first failure's status — site
  /// and digest named in the message — is returned after the pass so
  /// callers still observe that the directory is degraded.
  Status Spill(const std::string& dir) const;

  /// Loads every well-formed spill file under `dir` into the store and
  /// returns how many entries were rehydrated. Files that are not ours
  /// (foreign magic, older format version, unreadable) are skipped
  /// (Stats::load_skipped); files with a valid header but a torn frame or
  /// a payload-checksum mismatch are rejected as corrupt
  /// (Stats::load_corrupt). Both degrade to recompute-on-miss — Load
  /// never admits bytes the checksum cannot vouch for. Eviction runs
  /// afterwards so the budget holds even for an over-budget spill set.
  Result<size_t> Load(const std::string& dir);

  Stats stats() const;
  size_t size() const;
  /// Summed size estimates of resident entries: each entry's key and
  /// overhead, its payload while held, and its view's real heap bytes
  /// (EntryOptions::view_bytes; |Π(D)| for views without that hook). A
  /// hot view-first entry charges key + view + kEntryOverheadBytes.
  size_t bytes_resident() const;
  /// The resolved options (shards = 0 has been replaced by the auto pick).
  const Options& options() const { return options_; }
  size_t max_entries() const { return options_.max_entries; }

  /// Drops every entry; counters are kept (use ResetStats to zero them).
  void Clear();
  void ResetStats();

 private:
  /// One resident Π(D). Entries are heap-allocated and shared between the
  /// authoritative shard state and every published snapshot that still
  /// references them; all fields a reader may observe after publication
  /// are either immutable (key, size_bytes, payload_bytes, spillable) or
  /// write-once behind an atomic marker (prepared, view) or atomic
  /// (recency stamp). `key.digest` is the digest the entry is
  /// resident under. An UpdateData re-key never mutates an
  /// Entry's payload — it publishes a *new* Entry, so readers holding the
  /// old shared_ptr keep a consistent pre-delta structure.
  struct Entry {
    /// Full (problem, witness, data) key — the digest-collision guard.
    /// Always owning. It shares D with the Key it was admitted through
    /// when that key owned D, so warm re-validation short-circuits on
    /// pointer equality. Hit-path repairs (RebuildViewLazily) find the
    /// entry's own shard through `key.digest`, even when it was served
    /// through a lineage resolution of a different probe digest.
    Key key;
    /// The Σ* payload. Set before publication, except for a view-first
    /// entry: it drops the payload at admission, and Payload() may memoize
    /// one later — written once, under payload_mutex and the shard mutex,
    /// then released through `prepared_ready`. Read it only through
    /// HeldPayload().
    std::shared_ptr<const std::string> prepared;
    /// Non-null (== prepared.get()) once `prepared` may be read without a
    /// lock. Null only on a view-first entry that holds no payload.
    std::atomic<const std::string*> prepared_ready{nullptr};
    /// Memoized decoded view of the payload. Write-once: set either before
    /// the entry is published (miss winner, Δ-patch) or exactly once
    /// under the shard mutex (lazy post-Load rebuild); `view_ready` below
    /// is the release/acquire marker that makes the field immutable —
    /// and therefore lock-free-readable — from a reader's perspective.
    std::shared_ptr<const void> view;
    /// Non-null (== view.get()) once `view` may be read without the shard
    /// mutex. Null: not built — no ViewFn, build failed, or freshly
    /// Loaded (the negative-cache flag below distinguishes).
    std::atomic<const void*> view_ready{nullptr};
    /// Approximate recency: the epoch (see tick_) of this entry's last
    /// touch. Hits stamp it with a relaxed store only when the value
    /// actually changes, so a hot entry's line stays in shared state
    /// between writer events instead of ping-ponging.
    std::atomic<uint64_t> last_used{0};
    /// CLOCK second-chance bit: set by hits (alongside the recency stamp),
    /// cleared by the eviction scan. An entry whose bit is set when the
    /// scan visits it is spared once — under zipf traffic a single sweep
    /// stops evicting just-touched entries whose epoch stamp happens to
    /// tie with genuinely cold ones. Never set on insert: an entry must
    /// earn its second chance with a hit.
    std::atomic<bool> referenced{false};
    /// Lifetime hit count (relaxed, entry-local line — no shared
    /// contention). The tiered sweep decays it by epoch age to estimate
    /// how much re-answer cost a demotion would actually forfeit.
    std::atomic<int64_t> hit_count{0};
    /// The entry's estimate *with its payload held* (SizeFn, or key +
    /// payload + kEntryOverheadBytes): what a spill frame records and a
    /// Loaded entry charges. Charge() subtracts the payload while a
    /// view-first entry does not hold one.
    size_t size_bytes = 0;
    /// Bytes charged for `view` against the eviction budget: its real heap
    /// bytes (EntryOptions::view_bytes; 0 for a view aliasing the payload)
    /// or |Π(D)| without that hook. Kept separate from size_bytes so spill
    /// files and view-less reloads stay payload-accurate.
    std::atomic<size_t> view_size_bytes{0};
    /// Negative cache: the ViewFn failed on this payload, so warm hits
    /// skip the O(|Π(D)|) rebuild attempt instead of failing it per hit.
    std::atomic<bool> view_build_failed{false};
    bool spillable = true;
    /// Demotion-loss hints copied from EntryOptions at admission (plain:
    /// set before publication, immutable after).
    double view_loss_ops = 0;
    double evict_loss_ops = 0;
    // Cold fields: below the ones the warm path reads and Touch() writes,
    // so they do not spread those over more cache lines.
    /// |Π(D)|, held or not: sizes the spill frame and the payload's charge.
    size_t payload_bytes = 0;
    /// Set iff the entry was admitted view-first (EntryOptions::
    /// encode_view): produces the payload from `view`.
    EncodeFn encode_view;
    /// Serializes Payload()'s memoization, so racing callers encode once.
    std::mutex payload_mutex;
    // --- MVCC lineage ------------------------------------------------------
    /// Version ordinal within its lineage (0 for a fresh Π, +1 per
    /// UpdateData re-key) and the back-link the resolver verifies.
    uint64_t version = 0;
    uint64_t predecessor_digest = 0;
    bool has_predecessor = false;
    /// Set (with successor_digest) under the re-key critical section when
    /// a newer version is published. A superseded version keeps serving
    /// digest-addressed probes — its payload is still exactly Π(its data)
    /// — but leaves Contains, Spill, and the current-version contract to
    /// its successor.
    std::atomic<bool> superseded{false};
    std::atomic<uint64_t> successor_digest{0};
  };
  using EntryPtr = std::shared_ptr<Entry>;
  /// An immutable published table: digest -> shared entry. Readers probe
  /// it lock-free; writers copy-on-write a successor under the shard
  /// mutex and publish it atomically.
  using Table = std::unordered_map<uint64_t, EntryPtr>;

  /// One published table plus its reference count, on one allocation.
  /// refs starts at 1 — the publication cell's own reference.
  struct TableBox {
    explicit TableBox(Table t) : table(std::move(t)) {}
    const Table table;
    /// mutable: references are taken/dropped through const TableBox*.
    mutable std::atomic<int64_t> refs{1};
  };

  /// Reader guard: keeps a TableBox alive for the duration of one probe.
  class TableRef {
   public:
    TableRef() = default;
    explicit TableRef(const TableBox* box) : box_(box) {}
    TableRef(TableRef&& other) noexcept : box_(other.box_) {
      other.box_ = nullptr;
    }
    TableRef& operator=(TableRef&& other) noexcept {
      if (this != &other) {
        Release(box_);
        box_ = other.box_;
        other.box_ = nullptr;
      }
      return *this;
    }
    TableRef(const TableRef&) = delete;
    TableRef& operator=(const TableRef&) = delete;
    ~TableRef() { Release(box_); }
    const Table* operator->() const { return &box_->table; }
    const Table& operator*() const { return box_->table; }
    static void Release(const TableBox* box) {
      if (box != nullptr &&
          box->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        delete box;
      }
    }

   private:
    const TableBox* box_ = nullptr;
  };

  /// The shard's publication slot: functionally a
  /// `std::atomic<std::shared_ptr<const Table>>` (the RCU-style cell the
  /// lock-free hit path reads), hand-rolled as a lock-bit-over-pointer
  /// protocol because libstdc++'s `_Sp_atomic` unlocks its reader side
  /// with a *relaxed* RMW — which ThreadSanitizer reports (correctly, per
  /// the letter of the memory model) as a race against the next writer's
  /// plain pointer swap. Here every lock is an acquire CAS and every
  /// unlock a release store, so the protocol is TSan-clean with no
  /// suppressions. A reader holds the bit for three straight-line
  /// instructions (read pointer, bump refcount, store back) — the same
  /// window std::atomic<shared_ptr> pays, and no mutex is ever involved.
  class SnapshotCell {
   public:
    SnapshotCell() = default;
    ~SnapshotCell();
    SnapshotCell(const SnapshotCell&) = delete;
    SnapshotCell& operator=(const SnapshotCell&) = delete;
    /// Installs the initial (empty) table; called once, pre-sharing.
    void Init(Table table);
    /// Lock-free read of the current snapshot.
    TableRef Acquire() const;
    /// Publishes `table`, dropping the cell's reference to the previous
    /// snapshot. Publishers serialize via the shard mutex; the lock bit
    /// only guards against concurrently-Acquiring readers.
    void Publish(Table table);

   private:
    static const TableBox* Box(uintptr_t raw) {
      return reinterpret_cast<const TableBox*>(raw & ~kLockBit);
    }
    /// Spins the lock bit on; returns the (unlocked) raw word.
    uintptr_t Lock(std::memory_order order) const;
    static constexpr uintptr_t kLockBit = 1;
    mutable std::atomic<uintptr_t> val_{0};
  };

  /// One rendezvous point per in-flight Π run. The winner fills `result`
  /// and then releases `ready`; promise/future ordering makes the write
  /// visible to every waiter.
  struct KeyDigestHash {
    size_t operator()(const Key& key) const {
      return static_cast<size_t>(key.digest);
    }
  };
  struct SameKeyEq {
    bool operator()(const Key& a, const Key& b) const {
      return a.digest == b.digest && SameKey(a, b);
    }
  };

  struct Inflight {
    std::promise<void> done;
    std::shared_future<void> ready;
    Result<PreparedView> result = Status::Internal("Π still in flight");
  };

  struct Shard {
    /// Writer lock: serializes snapshot replacement and the inflight map.
    /// The warm hit path never takes it.
    mutable std::mutex mutex;
    /// The published entry table. Invariant: outside a writer's critical
    /// section this is the authoritative state — every mutation publishes
    /// its successor table before releasing `mutex`.
    SnapshotCell snapshot;
    /// In-flight Π runs by key. A borrowed key is safe here: the winner
    /// erases its slot before its call returns.
    std::unordered_map<Key, std::shared_ptr<Inflight>, KeyDigestHash, SameKeyEq>
        inflight;
  };

  /// Per-thread stats slots: each thread hashes to one cache-line-sized
  /// slot, so hit counting under N readers stops ping-ponging one shared
  /// line. `stats()` aggregates across slots.
  struct alignas(64) StatSlot {
    std::atomic<int64_t> hits{0};
    std::atomic<int64_t> misses{0};
    std::atomic<int64_t> evictions{0};
    std::atomic<int64_t> inflight_waits{0};
    std::atomic<int64_t> spilled{0};
    std::atomic<int64_t> loaded{0};
    std::atomic<int64_t> patches{0};
    std::atomic<int64_t> patch_fallbacks{0};
    std::atomic<int64_t> key_builds{0};
    std::atomic<int64_t> view_builds{0};
    std::atomic<int64_t> locked_hits{0};
    std::atomic<int64_t> update_retries{0};
    std::atomic<int64_t> lineage_resolves{0};
    std::atomic<int64_t> respill_failures{0};
    std::atomic<int64_t> load_skipped{0};
    std::atomic<int64_t> load_corrupt{0};
    std::atomic<int64_t> view_demotions{0};
    std::atomic<int64_t> cold_demotions{0};
    std::atomic<int64_t> cold_promotions{0};
    std::atomic<int64_t> payload_encodes{0};
  };
  static constexpr size_t kStatSlots = 16;  // power of two

  /// A key that borrows `data` for the duration of one store call.
  static Key BorrowKey(std::string_view problem, std::string_view witness,
                       const std::string& data) {
    return InternKey(problem, witness,
                     std::shared_ptr<const std::string>(
                         std::shared_ptr<const void>(), &data));
  }
  /// `key` itself when it owns D, else a copy that owns D: the one
  /// D-sized copy a borrowed key costs, paid only when an entry keeps it.
  static Key OwnedKey(const Key& key);
  /// Collision-guard check: pointer equality first (the warm handle path),
  /// byte equality as the fallback for keys built independently.
  static bool SameKey(const Key& a, const Key& b) {
    return (a.data == b.data || *a.data == *b.data) && a.head == b.head;
  }
  Shard& ShardFor(uint64_t digest) {
    return shards_[digest % shards_.size()];
  }
  const Shard& ShardFor(uint64_t digest) const {
    return shards_[digest % shards_.size()];
  }
  /// The stats slot for the calling thread.
  StatSlot& LocalStats() const;
  /// Stamps `entry` with the current recency epoch (relaxed, write-once
  /// per epoch — the lock-free hit path's only potential shared write)
  /// and grants its CLOCK second chance. Both stores are conditional, so
  /// a hot entry's line stays in shared state between eviction passes.
  void Touch(Entry& entry) const {
    const uint64_t now = tick_.load(std::memory_order_relaxed) + 1;
    if (entry.last_used.load(std::memory_order_relaxed) != now) {
      entry.last_used.store(now, std::memory_order_relaxed);
    }
    if (!entry.referenced.load(std::memory_order_relaxed)) {
      entry.referenced.store(true, std::memory_order_relaxed);
    }
    // Entry-local popularity for the tiered sweep's loss estimate. The
    // line is already dirtied by the stamps above on epoch change; between
    // epochs this is the only write, still confined to this entry's line.
    entry.hit_count.fetch_add(1, std::memory_order_relaxed);
  }
  /// Copies the shard's current table for a copy-on-write mutation.
  /// Requires shard.mutex held.
  static Table CopyTable(const Shard& shard) {
    return *shard.snapshot.Acquire();
  }
  /// Publishes `table` as the shard's snapshot. Requires shard.mutex held.
  static void PublishTable(Shard* shard, Table table) {
    shard->snapshot.Publish(std::move(table));
  }
  size_t DefaultSizeBytes(const Entry& entry) const;
  /// The entry's payload when it holds one, else null (a view-first entry
  /// before Payload() memoized one). Lock-free.
  static std::shared_ptr<const std::string> HeldPayload(const Entry& entry) {
    return entry.prepared_ready.load(std::memory_order_acquire) != nullptr
               ? entry.prepared
               : nullptr;
  }
  /// Bytes of size_bytes the payload accounts for, charged only while
  /// held.
  static size_t PayloadCharge(const Entry& entry) {
    return std::min(entry.payload_bytes, entry.size_bytes);
  }
  /// What `entry` charges against the budget right now: size_bytes, less
  /// the payload while it is not held, plus the view. Stable under the
  /// entry's shard mutex, where every ledger update is made.
  static size_t Charge(const Entry& entry) {
    const bool held =
        entry.prepared_ready.load(std::memory_order_relaxed) != nullptr;
    return entry.size_bytes - (held ? 0 : PayloadCharge(entry)) +
           entry.view_size_bytes.load(std::memory_order_relaxed);
  }
  /// Bytes a hot→warm demotion frees: the view, less the payload a
  /// view-first entry must encode into its warm clone. May be <= 0.
  static int64_t DemotionFrees(const Entry& entry) {
    return static_cast<int64_t>(Charge(entry)) -
           static_cast<int64_t>(entry.size_bytes);
  }
  /// The PreparedView a hit on `entry` serves (`view` only once
  /// view_ready was observed non-null). Takes the caller's reference, so a
  /// view-first hit that must carry its entry costs no extra refcount
  /// write on the entry.
  static PreparedView ServeOf(EntryPtr entry,
                              std::shared_ptr<const void> view);
  /// Fills a fresh, unpublished entry from Π's (or a patch's) output:
  /// payload, options, size estimate, and the view (built by the ViewFn,
  /// or handed over by Π); a view-first entry then drops its payload.
  /// Shared by the miss winner and the Δ-patch.
  void FillEntry(const EntryOptions& entry_options, Built built, Entry* entry,
                 CostMeter* meter);
  /// Appends the entry's payload to `out`: a copy of the held bytes, or
  /// the view encoded in place (one Stats::payload_encodes) for a
  /// view-first entry. An encoder that produces other than payload_bytes
  /// bytes is an error.
  Status AppendPayload(const Entry& entry, std::string* out) const;
  /// Lays out the entry's v3 spill frame and writes it under `dir`.
  Status WriteFrame(const std::string& dir, const Entry& entry) const;
  /// Runs `make_view` (if any) over `prepared`, translating failures and
  /// unwinds into a null view (string-path fallback, never an error).
  std::shared_ptr<const void> BuildView(
      const EntryOptions& entry_options,
      const std::shared_ptr<const std::string>& prepared, CostMeter* meter);
  /// Fills entry.view / view_build_failed / view_size_bytes from one
  /// BuildView run (miss publish and Δ-patch re-key share this; the entry
  /// is private to the caller, so plain relaxed stores suffice).
  void AttachView(const EntryOptions& entry_options, Entry* entry,
                  CostMeter* meter);
  /// The bytes `view` charges: entry_options.view_bytes, or `proxy`.
  static size_t ViewCharge(const EntryOptions& entry_options,
                           const std::shared_ptr<const void>& view,
                           size_t proxy);
  /// Serves one snapshot/table hit: recency stamp, stats, meter, and the
  /// lazy view repair when the entry was Loaded without one. Addresses the
  /// entry by its own digest (not the probe key's), so lineage-resolved
  /// hits repair the shard the entry actually lives in.
  Result<PreparedView> ServeHit(EntryPtr entry,
                                const EntryOptions& entry_options,
                                CostMeter* meter, bool* hit, bool locked);
  /// Hit-path view repair (a Loaded entry or a warm clone has no view):
  /// decodes outside every lock, then publishes iff the entry is still
  /// resident and nobody else won the publish race. A view-first witness
  /// (EntryOptions::encode_view) re-promotes to a hot clone that holds
  /// only the view, as admission does, and the payload's charge goes with
  /// the payload; any other entry gets its view set in place.
  Result<PreparedView> RebuildViewLazily(const EntryPtr& entry,
                                         const EntryOptions& entry_options,
                                         CostMeter* meter);
  /// Follows the lineage chain from a no-longer-resident probe digest to
  /// the first resident successor version, or null. The first link is
  /// guarded by a secondary digest of the probe key (a Fnv1a64 collision
  /// must also collide the alternate hash to mis-resolve); each resident
  /// candidate is verified through its predecessor back-link.
  EntryPtr ResolveLineage(const Key& key) const;
  /// Evicts approximately-LRU entries until both budgets hold: scans the
  /// published snapshots for the globally oldest recency stamp (no locks),
  /// then removes the victim under its shard's mutex. With
  /// Options::tiered, byte pressure first demotes hot entries to warm
  /// (view drop via DemoteViews) and eviction writes spillable victims
  /// out as cold spill frames (warm→cold) before removing them.
  void EvictUntilWithinBudget();
  bool OverBudget() const;
  /// Hot→warm: publishes a view-less clone of `entry` (same key, payload,
  /// MVCC metadata, recency and hit state) iff it is still the resident
  /// entry for `digest`. A view-first entry's clone carries the payload
  /// encoded from the view. Returns the bytes freed (0 = lost the race, or
  /// nothing to free). Readers holding the old entry keep its view alive;
  /// the clone re-promotes through the lazy view rebuild on its next hit.
  int64_t DemoteView(uint64_t digest, const EntryPtr& entry);
  /// A fresh, unpublished entry with `entry`'s key, sizes, options, MVCC
  /// metadata, recency and hit state, and neither payload nor view: the
  /// start of a demotion's warm clone or a re-promotion's hot one.
  static EntryPtr CloneWithoutPayloadOrView(const Entry& entry);
  /// Cold-tier probe on the miss-winner path: reads the digest's v3 spill
  /// frame from the active spill directory, validates magic/version/
  /// checksum and the stored key, and returns the payload. Any failure —
  /// no directory, no file, corrupt frame, key mismatch — degrades to
  /// running Π (returns false, counts nothing).
  bool TryLoadColdPayload(const Key& key, std::string* payload) const;
  /// The tiered sweep's expected-loss estimate: `loss_ops` (the cost the
  /// demotion risks re-paying) weighted by the entry's hit count decayed
  /// by epoch age, per byte freed. Never-hit entries score 0, preserving
  /// the CLOCK + recency order exactly for them.
  static double DecayedLoss(int64_t hits, uint64_t stamp, uint64_t now,
                            double loss_ops, int64_t bytes_freed);
  /// Best-effort spill-directory maintenance after a successful patch:
  /// rewrites the patched entry's file under its new digest and drops the
  /// old digest's file, so Load never resurrects the pre-delta Π(D).
  void RespillPatched(uint64_t old_digest, const EntryPtr& fresh) const;

  /// One supersession edge of the version DAG (it is a chain per lineage):
  /// probe digest -> the digest UpdateData re-keyed it to, plus the
  /// alternate key hash that guards the first resolution hop.
  struct LineageRecord {
    uint64_t successor = 0;
    uint64_t alt_digest = 0;
    uint64_t seq = 0;  // insertion order, for the bounded-size sweep
  };
  /// Records ResolveLineage walks after a version is trimmed out of the
  /// MVCC window. Bounded: once it doubles past kMaxLineageRecords, the
  /// oldest half is swept (a dropped record degrades a stale probe to a
  /// cold miss — correct, just slower).
  static constexpr size_t kMaxLineageRecords = 4096;
  static constexpr int kMaxLineageHops = 16;

  const Options options_;
  std::vector<Shard> shards_;
  mutable std::mutex lineage_mutex_;
  std::unordered_map<uint64_t, LineageRecord> lineage_;
  uint64_t lineage_seq_ = 0;
  /// Last directory handed to Spill/Load, so UpdateData can respill the
  /// one patched entry without a full Spill pass. Empty = no persistence.
  mutable std::mutex spill_dir_mutex_;
  mutable std::string spill_dir_;
  /// Serializes EvictUntilWithinBudget so concurrent publishers cannot
  /// each take a victim and over-evict below budget.
  std::mutex evict_mutex_;
  /// Recency epoch: bumped by writer events only (publish, Load, re-key,
  /// eviction pass). The lock-free hit path *reads* it and stamps
  /// `last_used = tick_ + 1`, so touched entries outrank everything
  /// untouched since the previous writer event without hits contending on
  /// a shared fetch_add.
  std::atomic<uint64_t> tick_{0};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> bytes_{0};
  mutable std::array<StatSlot, kStatSlots> stat_slots_;
};

}  // namespace engine
}  // namespace pitract

#endif  // PITRACT_ENGINE_PREPARED_STORE_H_
