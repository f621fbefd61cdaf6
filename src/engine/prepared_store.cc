#include "engine/prepared_store.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/serde.h"

namespace pitract {
namespace engine {

namespace {

namespace fs = std::filesystem;

constexpr uint32_t kSpillMagic = 0x31544950;  // "PIT1"
// v2: spill file names derive from the word-folded Fnv1a64. Files written
// by the byte-at-a-time v1 hash would Load fine (digests are recomputed
// from the stored key) but live under names the new hash can never point
// at, so RespillPatched's remove-the-pre-delta-file guarantee would miss
// them; bumping the version makes v1 files degrade to recompute-on-miss.
// v3: a serde::Checksum64 of the framed body follows the version word.
// v2 frames had no integrity cover beyond serde's structural lengths, so
// a flipped bit inside the key/payload/size regions still parsed and was
// *served*; v3 rejects any bit-level damage (Stats::load_corrupt) and v2
// files degrade to recompute-on-miss like every older format.
constexpr uint32_t kSpillVersion = 3;
constexpr char kSpillExtension[] = ".pit";

/// "digest=<16 hex>" — the entry-naming context every degradation-path
/// status message carries, so chaos diagnostics and wire-protocol error
/// responses can name the failing entry instead of a bare code.
std::string DigestTag(uint64_t digest) {
  static const char kHex[] = "0123456789abcdef";
  std::string tag = "digest=";
  for (int i = 15; i >= 0; --i) {
    tag.push_back(kHex[(digest >> (4 * i)) & 0xf]);
  }
  return tag;
}

std::string DigestFileName(uint64_t digest) {
  static const char kHex[] = "0123456789abcdef";
  std::string name(16, '0');
  for (int i = 15; i >= 0; --i) {
    name[static_cast<size_t>(i)] = kHex[digest & 0xf];
    digest >>= 4;
  }
  return name + kSpillExtension;
}

constexpr size_t kFrameChecksumAt = 8;
constexpr size_t kFrameBodyAt = 16;

/// Patches the checksum into a laid-out spill frame and writes it under its
/// digest file name. Shared by the full Spill pass, the warm→cold
/// demotion and the single-entry respill after a Δ-patch.
Status WriteSpillFile(const std::string& dir, uint64_t digest,
                      std::string framed) {
  std::string checksum;
  serde::PutU64(&checksum, serde::Checksum64(
                               std::string_view(framed).substr(kFrameBodyAt)));
  framed.replace(kFrameChecksumAt, checksum.size(), checksum);
  const fs::path path = fs::path(dir) / DigestFileName(digest);
  // Write-then-rename: a concurrent Load never observes a half-written
  // frame under the published name — it either sees the old complete file
  // or the new complete file (rename is atomic within a directory).
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out || PITRACT_FAILPOINT("spill.write")) {
      std::error_code cleanup;
      fs::remove(tmp, cleanup);  // a fired site must not strand the tmp
      return Status::Internal("spill.write: cannot open spill file " +
                              tmp.string() + " (" + DigestTag(digest) + ")");
    }
    out.write(framed.data(), static_cast<std::streamsize>(framed.size()));
    // Close explicitly and re-check: a buffered write can fail only at
    // flush time (e.g. ENOSPC), and returning OK on a truncated file
    // would silently lose the warm cache.
    out.close();
    if (!out || PITRACT_FAILPOINT("spill.short_write")) {
      std::error_code ec;
      fs::remove(tmp, ec);
      return Status::Internal("spill.write: short write to spill file " +
                              tmp.string() + " (" + DigestTag(digest) + ")");
    }
  }
  // Fault-injection edge evaluated *before* the real rename: a fired site
  // must leave the filesystem exactly like a failed rename would — tmp
  // cleaned up, nothing published under the final name.
  if (PITRACT_FAILPOINT("spill.rename")) {
    std::error_code cleanup;
    fs::remove(tmp, cleanup);
    return Status::Internal("spill.rename: cannot publish spill file " +
                            path.string() + " (" + DigestTag(digest) +
                            "): failpoint fired");
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    std::error_code cleanup;
    fs::remove(tmp, cleanup);
    return Status::Internal("spill.rename: cannot publish spill file " +
                            path.string() + " (" + DigestTag(digest) +
                            "): " + ec.message());
  }
  return Status::OK();
}

/// The word-at-a-time fold both key hashes share, streamed over `a` then
/// `b` exactly as over their concatenation: 8 input bytes per multiply
/// with one shift-xor so all 8 lanes diffuse, byte-at-a-time only for the
/// tail. The word that straddles the a|b boundary is assembled from both.
template <uint64_t kBasis, uint64_t kPrime, int kShift>
uint64_t WordFold(std::string_view a, std::string_view b) {
  uint64_t hash = kBasis;
  auto fold = [&hash](const char* p) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    hash ^= word;
    hash *= kPrime;
    hash ^= hash >> kShift;
  };
  size_t i = 0;
  for (; i + 8 <= a.size(); i += 8) fold(a.data() + i);
  char carry[8];
  const size_t carried = a.size() - i;
  if (carried > 0) std::memcpy(carry, a.data() + i, carried);
  const size_t filled = std::min(8 - carried, b.size());
  if (filled > 0) std::memcpy(carry + carried, b.data(), filled);
  std::string_view tail(carry, carried + filled);
  if (tail.size() == 8) {
    fold(carry);
    size_t j = filled;
    for (; j + 8 <= b.size(); j += 8) fold(b.data() + j);
    tail = b.substr(j);
  }
  for (const char c : tail) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kPrime;
  }
  return hash;
}

/// Options::shards == 0 means "size for the machine": the next power of
/// two >= 2x the core count, so a fully loaded host rarely maps two hot
/// data parts onto the same stripe.
size_t ResolveShards(size_t requested) {
  if (requested != 0) return requested;
  const size_t cores =
      std::max<size_t>(std::thread::hardware_concurrency(), 1);
  size_t shards = 1;
  while (shards < 2 * cores) shards <<= 1;
  return shards;
}

}  // namespace

uint64_t Fnv1a64(std::string_view bytes) { return Fnv1a64(bytes, {}); }

uint64_t Fnv1a64(std::string_view head, std::string_view data) {
  // FNV's offset basis and prime over the word fold: ~8x fewer multiplies
  // than the canonical byte loop on the hashes of |D|-sized keys.
  return WordFold<0xcbf29ce484222325ull, 0x100000001b3ull, 29>(head, data);
}

uint64_t AltKeyDigest(std::string_view head, std::string_view data) {
  const uint64_t hash =
      WordFold<0x9e3779b97f4a7c15ull, 0xff51afd7ed558ccdull, 33>(head, data);
  return hash ^ (hash >> 29);
}

PreparedStore::SnapshotCell::~SnapshotCell() {
  TableRef::Release(Box(val_.load(std::memory_order_relaxed)));
}

void PreparedStore::SnapshotCell::Init(Table table) {
  val_.store(reinterpret_cast<uintptr_t>(new TableBox(std::move(table))),
             std::memory_order_relaxed);
}

uintptr_t PreparedStore::SnapshotCell::Lock(std::memory_order order) const {
  uintptr_t current = val_.load(std::memory_order_relaxed);
  for (;;) {
    if (current & kLockBit) {
      // Another reader/writer is inside its three-instruction window.
      std::this_thread::yield();
      current = val_.load(std::memory_order_relaxed);
      continue;
    }
    if (val_.compare_exchange_weak(current, current | kLockBit, order,
                                   std::memory_order_relaxed)) {
      return current;
    }
  }
}

PreparedStore::TableRef PreparedStore::SnapshotCell::Acquire() const {
  const uintptr_t raw = Lock(std::memory_order_acquire);
  const TableBox* box = Box(raw);
  box->refs.fetch_add(1, std::memory_order_relaxed);
  val_.store(raw, std::memory_order_release);  // unlock
  return TableRef(box);
}

void PreparedStore::SnapshotCell::Publish(Table table) {
  auto* fresh = new TableBox(std::move(table));
  const uintptr_t old = Lock(std::memory_order_acquire);
  // Unlock and swap in one release store: the new snapshot is live the
  // instant the bit clears.
  val_.store(reinterpret_cast<uintptr_t>(fresh), std::memory_order_release);
  TableRef::Release(Box(old));
}

PreparedStore::PreparedStore(const Options& options)
    : options_(Options{ResolveShards(options.shards), options.max_entries,
                       options.byte_budget,
                       std::max<size_t>(options.versions, 1),
                       options.tiered}),
      shards_(options_.shards) {
  // Snapshots start as published empty tables, so the lock-free hit path
  // never has to special-case a null pointer.
  for (Shard& shard : shards_) {
    shard.snapshot.Init(Table{});
  }
}

PreparedStore::StatSlot& PreparedStore::LocalStats() const {
  static std::atomic<size_t> next_slot{0};
  // The slot index is per-thread across all stores: what matters is that
  // two concurrently-running threads land on different cache lines, not
  // which line a given thread gets.
  thread_local const size_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed) % kStatSlots;
  return stat_slots_[slot];
}

size_t PreparedStore::DefaultSizeBytes(const Entry& entry) const {
  // The entry pins D through its key, so it still charges |head| + |D|.
  return entry.key.size() + entry.payload_bytes + kEntryOverheadBytes;
}

PreparedStore::PreparedView PreparedStore::ServeOf(
    EntryPtr entry, std::shared_ptr<const void> view) {
  PreparedView out;
  out.prepared = HeldPayload(*entry);
  out.view = std::move(view);
  if (out.prepared == nullptr) out.source = std::move(entry);
  return out;
}

void PreparedStore::FillEntry(const EntryOptions& entry_options, Built built,
                              Entry* entry, CostMeter* meter) {
  // The entry is private to the caller (not yet published): plain writes
  // and relaxed markers suffice, the snapshot publish releases them.
  entry->spillable = entry_options.spillable;
  entry->view_loss_ops = entry_options.view_loss_ops;
  entry->evict_loss_ops = entry_options.evict_loss_ops;
  if (built.view != nullptr) {
    // Π built the view: admitted view-first, no payload ever held.
    entry->payload_bytes = built.payload_bytes;
    entry->size_bytes = DefaultSizeBytes(*entry);
    entry->view = std::move(built.view);
    entry->view_size_bytes.store(
        ViewCharge(entry_options, entry->view, entry->payload_bytes),
        std::memory_order_relaxed);
    entry->view_ready.store(entry->view.get(), std::memory_order_relaxed);
    entry->encode_view = entry_options.encode_view;
    LocalStats().view_builds.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  entry->prepared =
      std::make_shared<const std::string>(std::move(built.payload));
  entry->payload_bytes = entry->prepared->size();
  entry->size_bytes = entry_options.size_of
                          ? entry_options.size_of(*entry->prepared)
                          : DefaultSizeBytes(*entry);
  AttachView(entry_options, entry, meter);
  if (entry->view != nullptr && entry_options.encode_view) {
    // View-first: the query step reads only the view, so the payload is
    // not kept twice; whoever needs it encodes it from the view.
    entry->encode_view = entry_options.encode_view;
    entry->prepared.reset();
  } else {
    entry->prepared_ready.store(entry->prepared.get(),
                                std::memory_order_relaxed);
  }
}

Status PreparedStore::AppendPayload(const Entry& entry,
                                    std::string* out) const {
  if (auto held = HeldPayload(entry)) {
    out->append(*held);
    return Status::OK();
  }
  // A view-first entry's view is set before publication and never
  // replaced, so it is read here without a lock.
  const size_t before = out->size();
  Status encoded = entry.encode_view(entry.view.get(), out);
  if (!encoded.ok()) {
    out->resize(before);
    return Status(encoded.code(), "payload encode failed (" +
                                      DigestTag(entry.key.digest) +
                                      "): " + encoded.message());
  }
  LocalStats().payload_encodes.fetch_add(1, std::memory_order_relaxed);
  if (out->size() - before != entry.payload_bytes) {
    out->resize(before);
    return Status::Internal("payload encode produced the wrong size (" +
                            DigestTag(entry.key.digest) + ")");
  }
  return Status::OK();
}

Result<std::shared_ptr<const std::string>> PreparedStore::Payload(
    const PreparedView& view) {
  if (view.prepared != nullptr) return view.prepared;
  if (view.source == nullptr) {
    return Status::FailedPrecondition("PreparedView carries no payload");
  }
  const EntryPtr& entry = view.source;
  bool accounted = false;
  std::shared_ptr<const std::string> payload;
  {
    std::lock_guard<std::mutex> once(entry->payload_mutex);
    if (auto held = HeldPayload(*entry)) return held;  // a racer memoized
    std::string encoded;
    encoded.reserve(entry->payload_bytes);
    PITRACT_RETURN_IF_ERROR(AppendPayload(*entry, &encoded));
    payload = std::make_shared<const std::string>(std::move(encoded));
    Shard& shard = ShardFor(entry->key.digest);
    std::lock_guard<std::mutex> lock(shard.mutex);
    TableRef table = shard.snapshot.Acquire();
    auto it = table->find(entry->key.digest);
    // Write-once publication, like `view`: the marker's release store
    // orders the field write before every lock-free read. The ledger is
    // charged in the same critical section, and only while the entry is
    // resident (a removed entry was already uncharged without it).
    entry->prepared = payload;
    entry->prepared_ready.store(payload.get(), std::memory_order_release);
    if (it != table->end() && it->second == entry) {
      bytes_.fetch_add(static_cast<int64_t>(PayloadCharge(*entry)),
                       std::memory_order_relaxed);
      accounted = true;
    }
  }
  if (accounted) EvictUntilWithinBudget();
  return payload;
}

Status PreparedStore::WriteFrame(const std::string& dir,
                                 const Entry& entry) const {
  // v3 frame: [magic u32][version u32][checksum u64][body], where body is
  // PutBytes(head + D) + PutBytes(payload) + PutU64(size_bytes) and the
  // checksum covers exactly the body bytes. The header is validated
  // structurally on Load; everything the store would *serve* is under the
  // checksum, so bit rot can only ever degrade to recompute-on-miss. The
  // frame is the one place the key is concatenated, and a view-first
  // entry's payload is encoded straight into it: one buffer, sized
  // exactly, from which the file is written.
  const Key& key = entry.key;
  std::string framed;
  framed.reserve(kFrameBodyAt + 8 + key.size() + 8 + entry.payload_bytes + 8);
  serde::PutU32(&framed, kSpillMagic);
  serde::PutU32(&framed, kSpillVersion);
  serde::PutU64(&framed, 0);  // checksum, filled in once the body is laid
  serde::PutU64(&framed, static_cast<uint64_t>(key.size()));
  framed.append(key.head);
  framed.append(*key.data);
  serde::PutU64(&framed, static_cast<uint64_t>(entry.payload_bytes));
  PITRACT_RETURN_IF_ERROR(AppendPayload(entry, &framed));
  serde::PutU64(&framed, static_cast<uint64_t>(entry.size_bytes));
  return WriteSpillFile(dir, key.digest, std::move(framed));
}

PreparedStore::Key PreparedStore::InternKey(
    std::string_view problem, std::string_view witness,
    std::shared_ptr<const std::string> data) {
  // '\x1f' (unit separator) cannot collide with the codec alphabet, and
  // QueryEngine::Register keeps it out of problem and witness names, so
  // the head is unambiguous and head + D is injective.
  Key key;
  key.head.reserve(problem.size() + witness.size() + 2);
  key.head.append(problem);
  key.head.push_back('\x1f');
  key.head.append(witness);
  key.head.push_back('\x1f');
  key.data = std::move(data);
  key.digest = Fnv1a64(key.head, *key.data);
  return key;
}

PreparedStore::Key PreparedStore::InternKey(std::string_view problem,
                                            std::string_view witness,
                                            std::string_view data) {
  return InternKey(problem, witness, std::make_shared<const std::string>(data));
}

PreparedStore::Key PreparedStore::OwnedKey(const Key& key) {
  if (!key.borrowed()) return key;
  Key owned = key;
  owned.data = std::make_shared<const std::string>(*key.data);
  return owned;
}

Result<std::shared_ptr<const std::string>> PreparedStore::GetOrCompute(
    std::string_view problem, std::string_view witness,
    const std::string& data, const ComputeFn& compute, CostMeter* meter,
    bool* hit) {
  return GetOrCompute(problem, witness, data, compute, meter, hit,
                      EntryOptions{});
}

Result<std::shared_ptr<const std::string>> PreparedStore::GetOrCompute(
    std::string_view problem, std::string_view witness,
    const std::string& data, const ComputeFn& compute, CostMeter* meter,
    bool* hit, const EntryOptions& entry_options) {
  auto view = GetOrComputeView(problem, witness, data, compute, meter, hit,
                               entry_options);
  if (!view.ok()) return view.status();
  return Payload(*view);
}

Result<PreparedStore::PreparedView> PreparedStore::GetOrComputeView(
    std::string_view problem, std::string_view witness,
    const std::string& data, const ComputeFn& compute, CostMeter* meter,
    bool* hit, const EntryOptions& entry_options) {
  // The string-keyed admission path pays the O(|D|) hash here, once per
  // call — exactly what Intern-ed keys amortize away. The key borrows
  // `data`; only a miss that publishes copies it.
  LocalStats().key_builds.fetch_add(1, std::memory_order_relaxed);
  return GetOrComputeView(BorrowKey(problem, witness, data), compute, meter,
                          hit, entry_options);
}

std::shared_ptr<const void> PreparedStore::BuildView(
    const EntryOptions& entry_options,
    const std::shared_ptr<const std::string>& prepared, CostMeter* meter) {
  if (!entry_options.make_view) return nullptr;
  // Fault-injection edge for view deserialization: a fired site behaves
  // exactly like a PiWitness::deserialize that rejected the payload — the
  // entry serves the string path (and negative-caches the failure).
  if (PITRACT_FAILPOINT("store.view_build")) return nullptr;
  Result<std::shared_ptr<const void>> view =
      Status::Internal("view build did not run");
  try {
    view = entry_options.make_view(prepared, meter);
  } catch (...) {
    return nullptr;  // degrade to the string answer path
  }
  if (!view.ok() || *view == nullptr) return nullptr;
  LocalStats().view_builds.fetch_add(1, std::memory_order_relaxed);
  return *view;
}

size_t PreparedStore::ViewCharge(const EntryOptions& entry_options,
                                 const std::shared_ptr<const void>& view,
                                 size_t proxy) {
  if (view == nullptr) return 0;
  return entry_options.view_bytes ? entry_options.view_bytes(view.get())
                                  : proxy;
}

void PreparedStore::AttachView(const EntryOptions& entry_options,
                               Entry* entry, CostMeter* meter) {
  if (!entry_options.make_view) return;
  // The entry is private to the caller here (not yet published), so plain
  // field writes plus relaxed marker stores suffice — the snapshot
  // publication's release ordering makes everything visible to readers.
  entry->view = BuildView(entry_options, entry->prepared, meter);
  entry->view_build_failed.store(entry->view == nullptr,
                                 std::memory_order_relaxed);
  entry->view_size_bytes.store(
      ViewCharge(entry_options, entry->view, entry->payload_bytes),
      std::memory_order_relaxed);
  entry->view_ready.store(entry->view.get(), std::memory_order_relaxed);
}

Result<PreparedStore::PreparedView> PreparedStore::RebuildViewLazily(
    const EntryPtr& entry, const EntryOptions& entry_options,
    CostMeter* meter) {
  // Decode outside every lock — the build is O(|Π(D)|) and must not stall
  // the stripe. Two racing hitters may both decode; exactly one publishes
  // (the miss-storm path never races: the in-flight winner builds before
  // publishing the entry). The entry is addressed by its *own* digest —
  // a lineage-resolved hit's probe key lives in a different shard. Only
  // entries that hold their payload come here: a view-first entry's view
  // is ready from admission on.
  const std::shared_ptr<const std::string> prepared = HeldPayload(*entry);
  std::shared_ptr<const void> built =
      prepared != nullptr ? BuildView(entry_options, prepared, meter)
                          : nullptr;
  std::shared_ptr<const void> serve = built;
  EntryPtr served = entry;
  bool accounted = false;
  {
    Shard& shard = ShardFor(entry->key.digest);
    std::lock_guard<std::mutex> lock(shard.mutex);
    TableRef table = shard.snapshot.Acquire();
    auto it = table->find(entry->key.digest);
    if (it != table->end() && it->second == entry) {
      if (entry->view_ready.load(std::memory_order_relaxed) != nullptr) {
        serve = entry->view;  // somebody else won the publish race
      } else if (built == nullptr) {
        // Negative-cache the failure: later hits serve the string path
        // directly instead of re-running the failing decode per hit.
        entry->view_build_failed.store(true, std::memory_order_relaxed);
        return ServeOf(entry, nullptr);
      } else if (entry_options.encode_view) {
        // View-first witness: publish a hot clone holding only the view,
        // exactly what admission keeps, and uncharge the payload. Readers
        // of the old entry keep its payload alive; racing hits that decoded
        // too find the clone resident and serve without publishing.
        const size_t charge =
            ViewCharge(entry_options, built, entry->payload_bytes);
        EntryPtr hot = CloneWithoutPayloadOrView(*entry);
        hot->encode_view = entry_options.encode_view;
        hot->view = built;
        hot->view_size_bytes.store(charge, std::memory_order_relaxed);
        hot->view_ready.store(built.get(), std::memory_order_relaxed);
        Table fresh = *table;
        fresh[entry->key.digest] = hot;
        bytes_.fetch_add(static_cast<int64_t>(charge) -
                             static_cast<int64_t>(PayloadCharge(*entry)),
                         std::memory_order_relaxed);
        PublishTable(&shard, std::move(fresh));
        served = std::move(hot);
        accounted = true;
      } else {
        // Write-once publication: the plain field store below is the only
        // post-publication write `view` ever sees, and it happens-before
        // every lock-free read via the release marker store.
        const size_t charge =
            ViewCharge(entry_options, built, entry->payload_bytes);
        entry->view = built;
        entry->view_size_bytes.store(charge, std::memory_order_relaxed);
        entry->view_ready.store(built.get(), std::memory_order_release);
        bytes_.fetch_add(static_cast<int64_t>(charge),
                         std::memory_order_relaxed);
        accounted = true;
      }
    }
    // Entry not resident any more: it moved on (evicted, re-keyed) while
    // we decoded. The (prepared, built) snapshot pair is still internally
    // consistent, so serve it without publishing.
  }
  if (accounted) EvictUntilWithinBudget();
  return ServeOf(std::move(served), std::move(serve));
}

Result<PreparedStore::PreparedView> PreparedStore::ServeHit(
    EntryPtr entry, const EntryOptions& entry_options,
    CostMeter* meter, bool* hit, bool locked) {
  Touch(*entry);
  StatSlot& stats = LocalStats();
  stats.hits.fetch_add(1, std::memory_order_relaxed);
  if (locked) stats.locked_hits.fetch_add(1, std::memory_order_relaxed);
  if (meter != nullptr) meter->AddSerial(1);  // the snapshot probe
  if (hit != nullptr) *hit = true;
  // The acquire marker load makes the write-once `view` field immutable
  // from this reader's perspective: once non-null, reading (copying) the
  // shared_ptr without any lock is race-free.
  if (entry->view_ready.load(std::memory_order_acquire) != nullptr) {
    std::shared_ptr<const void> view = entry->view;
    return ServeOf(std::move(entry), std::move(view));
  }
  if (entry_options.make_view &&
      !entry->view_build_failed.load(std::memory_order_relaxed)) {
    // Loaded entry: spill files carry only the payload, so the first warm
    // hit repairs the decoded view (outside every lock).
    return RebuildViewLazily(entry, entry_options, meter);
  }
  return ServeOf(std::move(entry), nullptr);
}

PreparedStore::Key PreparedStore::BuildKeyCounted(
    std::string_view problem, std::string_view witness,
    std::shared_ptr<const std::string> data) const {
  LocalStats().key_builds.fetch_add(1, std::memory_order_relaxed);
  return InternKey(problem, witness, std::move(data));
}

PreparedStore::Key PreparedStore::BuildKeyCounted(std::string_view problem,
                                                  std::string_view witness,
                                                  std::string_view data) const {
  LocalStats().key_builds.fetch_add(1, std::memory_order_relaxed);
  return InternKey(problem, witness, data);
}

bool PreparedStore::TryGetView(const Key& key,
                               const EntryOptions& entry_options,
                               CostMeter* meter, PreparedView* out) {
  Shard& shard = ShardFor(key.digest);
  EntryPtr entry;
  {
    TableRef table = shard.snapshot.Acquire();
    auto it = table->find(key.digest);
    if (it != table->end() && SameKey(it->second->key, key)) {
      entry = it->second;
    }
  }
  if (entry == nullptr) {
    // Not resident under the probe digest. If the version was re-keyed
    // away by UpdateData and trimmed out of the MVCC window, serve the
    // first resident successor instead of going cold — a delta-streaming
    // reader wants the newer version, not a spurious Π rebuild of a
    // retired one.
    entry = ResolveLineage(key);
    if (entry == nullptr) return false;
    LocalStats().lineage_resolves.fetch_add(1, std::memory_order_relaxed);
  }
  // ServeHit may still lock a stripe once per entry lifetime (the lazy
  // post-Load view repair), but the steady-state warm probe is the same
  // lock-free snapshot hit GetOrComputeView serves.
  auto served = ServeHit(std::move(entry), entry_options, meter, nullptr,
                         /*locked=*/false);
  if (!served.ok()) return false;
  *out = std::move(served).value();
  return true;
}

PreparedStore::EntryPtr PreparedStore::ResolveLineage(const Key& key) const {
  uint64_t prev = key.digest;
  uint64_t next = 0;
  {
    std::lock_guard<std::mutex> lock(lineage_mutex_);
    auto it = lineage_.find(key.digest);
    if (it == lineage_.end() ||
        it->second.alt_digest != AltKeyDigest(key.head, *key.data)) {
      return nullptr;
    }
    next = it->second.successor;
  }
  for (int hop = 0; hop < kMaxLineageHops; ++hop) {
    EntryPtr candidate;
    {
      const Shard& shard = ShardFor(next);
      TableRef table = shard.snapshot.Acquire();
      auto it = table->find(next);
      if (it != table->end()) candidate = it->second;
    }
    if (candidate != nullptr && candidate->has_predecessor &&
        candidate->predecessor_digest == prev) {
      // The back-link ties the resident entry to the chain we walked: a
      // foreign entry that merely collides on `next` fails this check.
      return candidate;
    }
    // Not resident (trimmed or evicted): follow the record chain further.
    std::lock_guard<std::mutex> lock(lineage_mutex_);
    auto it = lineage_.find(next);
    if (it == lineage_.end()) return nullptr;
    prev = next;
    next = it->second.successor;
  }
  return nullptr;
}

Result<PreparedStore::PreparedView> PreparedStore::GetOrComputeView(
    const Key& key, const ComputeFn& compute, CostMeter* meter, bool* hit,
    const EntryOptions& entry_options) {
  return GetOrBuildView(
      key,
      [&compute](CostMeter* m) -> Result<Built> {
        PITRACT_ASSIGN_OR_RETURN(std::string payload, compute(m));
        return Built{std::move(payload)};
      },
      meter, hit, entry_options);
}

Result<PreparedStore::PreparedView> PreparedStore::GetOrBuildView(
    const Key& key, const BuildFn& build, CostMeter* meter, bool* hit,
    const EntryOptions& entry_options) {
  const uint64_t digest = key.digest;
  Shard& shard = ShardFor(digest);

  // Warm hit path: probe the published snapshot. No mutex, no shared LRU
  // splice, no shared stats line — one atomic snapshot acquire, one table
  // probe, one conditional relaxed recency stamp.
  {
    TableRef table = shard.snapshot.Acquire();
    auto it = table->find(digest);
    if (it != table->end() && SameKey(it->second->key, key)) {
      return ServeHit(it->second, entry_options, meter, hit,
                      /*locked=*/false);
    }
  }

  // Snapshot miss: fall back to the locked slow path. Re-probe under the
  // mutex first — a writer may have published the entry between our
  // snapshot load and here (such hits are counted in Stats::locked_hits;
  // a warm steady-state run must produce none).
  std::shared_ptr<Inflight> flight;
  bool winner = false;
  EntryPtr resident;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    TableRef table = shard.snapshot.Acquire();
    auto it = table->find(digest);
    if (it != table->end() && SameKey(it->second->key, key)) {
      resident = it->second;
    } else {
      auto in = shard.inflight.find(key);
      if (in != shard.inflight.end()) {
        flight = in->second;
      } else {
        winner = true;
        flight = std::make_shared<Inflight>();
        flight->ready = flight->done.get_future().share();
        shard.inflight.emplace(key, flight);
        LocalStats().misses.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  if (resident != nullptr) {
    return ServeHit(std::move(resident), entry_options, meter, hit,
                    /*locked=*/true);
  }

  if (!winner) {
    // Another caller's Π for this exact key is in flight: block on its
    // shared_future instead of running a duplicate Π.
    LocalStats().inflight_waits.fetch_add(1, std::memory_order_relaxed);
    flight->ready.wait();
    if (flight->result.ok()) {
      LocalStats().hits.fetch_add(1, std::memory_order_relaxed);
      if (meter != nullptr) meter->AddSerial(1);  // the rendezvous probe
      if (hit != nullptr) *hit = true;
      return flight->result;
    }
    if (hit != nullptr) *hit = false;
    return flight->result.status();
  }

  // We own the in-flight slot: run Π outside every lock, then publish.
  // A ComputeFn that throws (e.g. bad_alloc mid-preprocess) must not leak
  // the slot — waiters would block forever — so unwinds become a Status
  // and take the same failure path as a Status-returning Π.
  if (hit != nullptr) *hit = false;
  Result<Built> prepared = Status::Internal("Π did not run");
  // Cold-tier promotion: a previously demoted (or spilled) entry's v3
  // frame under this digest holds exactly Π(this data part) — reading one
  // file beats re-running Π. Any validation failure degrades silently to
  // the compute below.
  bool promoted = false;
  if (options_.tiered) {
    std::string cold_payload;
    if (TryLoadColdPayload(key, &cold_payload)) {
      if (meter != nullptr) {
        meter->AddBytesRead(static_cast<int64_t>(cold_payload.size()));
      }
      prepared = Built{std::move(cold_payload)};
      promoted = true;
      LocalStats().cold_promotions.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Fault-injection edge for the Π build itself (the miss-storm winner
  // path every Prepare and blocking AnswerBatch funnels into): a fired
  // site is indistinguishable from a Π that failed mid-preprocess.
  if (promoted) {
  } else if (PITRACT_FAILPOINT("store.pi_build")) {
    prepared = Status::Internal("failpoint store.pi_build fired");
  } else {
    try {
      prepared = build(meter);
    } catch (const std::exception& e) {
      prepared = Status::Internal(std::string("Π threw: ") + e.what());
    } catch (...) {
      prepared = Status::Internal("Π threw a non-exception");
    }
    if (prepared.ok() && prepared->view != nullptr &&
        (!entry_options.encode_view || entry_options.size_of)) {
      prepared = Status::InvalidArgument(
          "a view built by Π needs an encoder and the default size estimate");
    }
  }
  if (!prepared.ok()) {
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.inflight.erase(key);
    }
    // Name the failing entry: the winner's status fans out to every
    // waiter on the shared_future and up through pipeline completions,
    // where a bare "Π exploded" is undebuggable.
    const Status failed(prepared.status().code(),
                        "Π build failed (" + DigestTag(digest) +
                            "): " + prepared.status().message());
    flight->result = failed;
    flight->done.set_value();
    return failed;
  }

  EntryPtr entry = std::make_shared<Entry>();
  // The entry outlives this call, so a borrowed key is copied here — the
  // one D-sized copy a string-keyed miss pays. A shared key costs nothing.
  entry->key = OwnedKey(key);
  // The miss winner builds the decoded view before publishing, so the
  // whole miss storm — winner and every waiter on the shared_future —
  // shares exactly one build.
  FillEntry(entry_options, std::move(prepared).value(), entry.get(), meter);
  PreparedView result = ServeOf(entry, entry->view);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    entry->last_used.store(tick_.fetch_add(1, std::memory_order_relaxed) + 1,
                           std::memory_order_relaxed);
    Table table = CopyTable(shard);
    auto it = table.find(digest);
    if (it != table.end()) {
      // Digest collision (or a concurrent Load): replace, stay correct.
      bytes_.fetch_sub(static_cast<int64_t>(Charge(*it->second)),
                       std::memory_order_relaxed);
      count_.fetch_sub(1, std::memory_order_relaxed);
      it->second = entry;
    } else {
      table.emplace(digest, entry);
    }
    bytes_.fetch_add(static_cast<int64_t>(Charge(*entry)),
                     std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    PublishTable(&shard, std::move(table));
    shard.inflight.erase(key);
  }
  flight->result = result;
  flight->done.set_value();
  EvictUntilWithinBudget();
  return result;
}

Status PreparedStore::UpdateData(std::string_view problem,
                                 std::string_view witness,
                                 const std::string& old_data,
                                 const std::string& new_data,
                                 const PatchFn& patch, CostMeter* meter) {
  return UpdateData(problem, witness, old_data, new_data, patch, meter,
                    EntryOptions{});
}

Status PreparedStore::UpdateData(std::string_view problem,
                                 std::string_view witness,
                                 const std::string& old_data,
                                 const std::string& new_data,
                                 const PatchFn& patch, CostMeter* meter,
                                 const EntryOptions& entry_options) {
  // Two O(|D|) digest passes (old + new): deltas are rare next to answers,
  // so the update path stays string-keyed. Both keys borrow the caller's
  // bytes; only the published post-delta entry copies new_data to own it.
  LocalStats().key_builds.fetch_add(2, std::memory_order_relaxed);
  const Key old_key = BorrowKey(problem, witness, old_data);
  const Key new_key = BorrowKey(problem, witness, new_data);
  const uint64_t old_digest = old_key.digest;
  const uint64_t new_digest = new_key.digest;
  const size_t old_index = static_cast<size_t>(old_digest) % shards_.size();
  const size_t new_index = static_cast<size_t>(new_digest) % shards_.size();

  // Phase 1: snapshot the resident entry under the old stripe. A Π for
  // old_data in flight right now is about to publish exactly the payload
  // we want to patch, so instead of immediately degrading to
  // recompute-on-miss we block on the storm's shared_future once and
  // retry; only a second storm observed after that retry gives up.
  EntryPtr old_entry;
  for (int attempt = 0;; ++attempt) {
    std::shared_ptr<Inflight> flight;
    {
      Shard& old_shard = shards_[old_index];
      std::lock_guard<std::mutex> lock(old_shard.mutex);
      auto in = old_shard.inflight.find(old_key);
      if (in != old_shard.inflight.end()) {
        if (attempt > 0) {
          // A *new* miss storm started while we waited out the first.
          // Patching would re-key the about-to-be-published entry out
          // from under the waiters on the shared_future, so the delta
          // degrades to recompute-on-miss instead.
          LocalStats().patch_fallbacks.fetch_add(1,
                                                 std::memory_order_relaxed);
          return Status::Unavailable(
              "store.patch: Π(old data) still in flight after retry; not "
              "re-keying (" +
              DigestTag(old_digest) + ")");
        }
        flight = in->second;
      } else {
        TableRef table = old_shard.snapshot.Acquire();
        auto it = table->find(old_digest);
        if (it == table->end() || !SameKey(it->second->key, old_key)) {
          LocalStats().patch_fallbacks.fetch_add(1,
                                                 std::memory_order_relaxed);
          return Status::NotFound(
              "store.patch: no resident Π for the pre-delta data part (" +
              DigestTag(old_digest) + ")");
        }
        if (it->second->superseded.load(std::memory_order_acquire)) {
          // A concurrent delta already advanced this version: version
          // retention keeps the entry resident for stale readers, but it
          // must not fork the lineage into two successors.
          LocalStats().patch_fallbacks.fetch_add(1,
                                                 std::memory_order_relaxed);
          return Status::Unavailable(
              "store.patch: pre-delta version already superseded; not "
              "forking the chain (" +
              DigestTag(old_digest) + ")");
        }
        old_entry = it->second;
      }
    }
    if (flight == nullptr) break;
    LocalStats().update_retries.fetch_add(1, std::memory_order_relaxed);
    flight->ready.wait();  // no locks held: the winner can publish freely
  }

  // Phase 2: copy-on-write patch outside every lock. Readers holding the
  // old entry keep a consistent pre-delta snapshot throughout. The private
  // copy is the held payload's bytes, or a view-first entry's view
  // encoded straight into it.
  if (meter != nullptr) meter->AddSerial(1);  // the digest probe
  std::string patched;
  patched.reserve(old_entry->payload_bytes);
  Status status = AppendPayload(*old_entry, &patched);
  if (status.ok()) {
    // Fault-injection edge for the Δ-patch hook: a fired site behaves
    // like a PreparedPatchFn that errored mid-batch — the resident entry
    // is untouched and the post-delta data recomputes on its first miss.
    status = PITRACT_FAILPOINT("store.patch")
                 ? Status::Internal("failpoint store.patch fired")
                 : patch(&patched, meter);
  }
  if (!status.ok()) {
    LocalStats().patch_fallbacks.fetch_add(1, std::memory_order_relaxed);
    // Entry untouched; new data recomputes on miss. Name the lineage hop
    // the failed hook was asked to make.
    return Status(status.code(), "store.patch: Δ-patch hook failed (" +
                                     DigestTag(old_digest) + " -> " +
                                     DigestTag(new_digest) +
                                     "): " + status.message());
  }
  EntryPtr fresh = std::make_shared<Entry>();
  fresh->key = OwnedKey(new_key);
  // The pre-patch decoded view must never survive a re-key: rebuild it
  // from the patched payload here (still outside every lock); a failed
  // build leaves a null view and the entry serves the string path.
  FillEntry(entry_options, Built{std::move(patched)}, fresh.get(), meter);

  // Phase 3: revalidate and publish atomically under both stripes; index
  // order keeps the two-lock acquisition acyclic (every other path holds
  // at most one shard lock at a time).
  {
    std::unique_lock<std::mutex> first_lock(
        shards_[std::min(old_index, new_index)].mutex);
    std::unique_lock<std::mutex> second_lock;
    if (old_index != new_index) {
      second_lock = std::unique_lock<std::mutex>(
          shards_[std::max(old_index, new_index)].mutex);
    }
    Shard& old_shard = shards_[old_index];
    Shard& new_shard = shards_[new_index];

    TableRef old_table = old_shard.snapshot.Acquire();
    auto it = old_table->find(old_digest);
    if (old_shard.inflight.find(old_key) != old_shard.inflight.end() ||
        it == old_table->end() || it->second != old_entry ||
        old_entry->superseded.load(std::memory_order_acquire)) {
      // The slot moved while the patch ran unlocked (evicted, replaced by
      // a fresh Π or Load, re-keyed by a concurrent delta, or a new miss
      // storm started). The patched copy matches a payload that is no
      // longer current, so publishing it could tear a newer structure —
      // degrade to recompute-on-miss instead.
      LocalStats().patch_fallbacks.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable(
          "store.patch: Π(old data) changed while patching; not re-keying (" +
          DigestTag(old_digest) + ")");
    }
    fresh->last_used.store(tick_.fetch_add(1, std::memory_order_relaxed) + 1,
                           std::memory_order_relaxed);
    fresh->version = old_entry->version + 1;
    fresh->predecessor_digest = old_digest;
    fresh->has_predecessor = true;

    // Publish the patched version k+1 under the post-delta digest
    // (replacing a digest collision or a concurrently loaded duplicate).
    // With versions >= 2 the pre-delta entry is *retained* — marked
    // superseded so answer paths skip it, but still digest-addressable so
    // a reader pinned on version k keeps getting version-k answers instead
    // of a spurious Π rebuild; UpdateData trims the chain below.
    auto retire = [this](const EntryPtr& entry) {
      bytes_.fetch_sub(static_cast<int64_t>(Charge(*entry)),
                       std::memory_order_relaxed);
      count_.fetch_sub(1, std::memory_order_relaxed);
    };
    auto admit = [this](const EntryPtr& entry) {
      bytes_.fetch_add(static_cast<int64_t>(Charge(*entry)),
                       std::memory_order_relaxed);
      count_.fetch_add(1, std::memory_order_relaxed);
    };
    const bool rekeyed = old_digest != new_digest;
    const bool retain_old = rekeyed && options_.versions >= 2;
    if (rekeyed) {
      // Successor forwarding first, supersede marker second (release): a
      // reader that observes `superseded` is guaranteed to see where the
      // lineage went.
      old_entry->successor_digest.store(new_digest, std::memory_order_relaxed);
      old_entry->superseded.store(true, std::memory_order_release);
    }
    if (!retain_old) retire(old_entry);
    if (old_index == new_index) {
      Table table = *old_table;
      if (!retain_old) table.erase(old_digest);
      auto dest = table.find(new_digest);
      if (dest != table.end()) {
        retire(dest->second);
        dest->second = fresh;
      } else {
        table.emplace(new_digest, fresh);
      }
      admit(fresh);
      PublishTable(&old_shard, std::move(table));
    } else {
      if (!retain_old) {
        Table old_copy = *old_table;
        old_copy.erase(old_digest);
        PublishTable(&old_shard, std::move(old_copy));
      }
      Table new_copy = CopyTable(new_shard);
      auto dest = new_copy.find(new_digest);
      if (dest != new_copy.end()) {
        retire(dest->second);
        dest->second = fresh;
      } else {
        new_copy.emplace(new_digest, fresh);
      }
      admit(fresh);
      PublishTable(&new_shard, std::move(new_copy));
    }
    LocalStats().patches.fetch_add(1, std::memory_order_relaxed);
  }

  if (old_digest != new_digest) {
    // Record the forwarding hop old → new for ResolveLineage. The record
    // stores a second, independent digest of the old key bytes so a stale
    // probe mis-resolves only on a double hash collision. Bounded map: a
    // sweep drops the oldest half once 2x the cap accumulates.
    std::lock_guard<std::mutex> lock(lineage_mutex_);
    if (lineage_.size() >= 2 * kMaxLineageRecords) {
      const uint64_t horizon = lineage_seq_ - kMaxLineageRecords;
      for (auto it = lineage_.begin(); it != lineage_.end();) {
        it = it->second.seq < horizon ? lineage_.erase(it) : std::next(it);
      }
    }
    lineage_[old_digest] =
        LineageRecord{new_digest, AltKeyDigest(old_key.head, *old_key.data),
                      lineage_seq_++};
  }

  if (options_.versions >= 2 && old_digest != new_digest) {
    // Trim the version window: walk the predecessor back-links from the
    // just-superseded entry (depth 1; the fresh head is depth 0) and drop
    // every resident version at depth >= versions. Steady state removes
    // exactly one entry per delta; the hop cap bounds a corrupted walk.
    EntryPtr cur = old_entry;
    size_t depth = 1;
    for (int hops = 0; hops < kMaxLineageHops && cur->has_predecessor;
         ++hops) {
      const uint64_t pred_digest = cur->predecessor_digest;
      Shard& shard = ShardFor(pred_digest);
      EntryPtr pred;
      {
        TableRef table = shard.snapshot.Acquire();
        auto found = table->find(pred_digest);
        if (found != table->end()) pred = found->second;
      }
      if (pred == nullptr ||
          !pred->superseded.load(std::memory_order_acquire) ||
          pred->successor_digest.load(std::memory_order_relaxed) !=
              cur->key.digest) {
        break;  // chain end: already trimmed, evicted, or a digest reuse
      }
      if (depth + 1 >= options_.versions) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        Table table = CopyTable(shard);
        auto found = table.find(pred_digest);
        if (found != table.end() && found->second == pred) {
          table.erase(found);
          bytes_.fetch_sub(static_cast<int64_t>(Charge(*pred)),
                           std::memory_order_relaxed);
          count_.fetch_sub(1, std::memory_order_relaxed);
          LocalStats().evictions.fetch_add(1, std::memory_order_relaxed);
          PublishTable(&shard, std::move(table));
        }
      }
      cur = pred;
      ++depth;
    }
  }

  RespillPatched(old_digest, fresh);
  EvictUntilWithinBudget();
  return Status::OK();
}

void PreparedStore::RespillPatched(uint64_t old_digest,
                                   const EntryPtr& fresh) const {
  const uint64_t new_digest = fresh->key.digest;
  // spill_dir_mutex_ is held across the whole rewrite so chained patches
  // (v1→v2, v2→v3) cannot interleave their file writes/removes: without
  // this, a lagging v2 write could land after v3's remove of it and a
  // restart would resurrect the pre-delta Π.
  std::lock_guard<std::mutex> lock(spill_dir_mutex_);
  if (spill_dir_.empty()) return;
  // Best-effort: a failed rewrite leaves a missing or corrupt file, both
  // of which Load already degrades to recompute-on-miss.
  if (fresh->spillable) {
    // The resident entry for the key, if it is still this version: the
    // patched entry itself or its warm clone (same payload, same version).
    EntryPtr current;
    {
      const Shard& shard = ShardFor(new_digest);
      TableRef table = shard.snapshot.Acquire();
      auto it = table->find(new_digest);
      if (it != table->end() && SameKey(it->second->key, fresh->key) &&
          it->second->version == fresh->version) {
        current = it->second;
      }
    }
    // Only the payload that is still resident gets a file; if a later
    // patch or eviction already moved the entry on, its own respill (or
    // the next full Spill) owns the directory's view of it.
    if (current != nullptr) {
      Status written = WriteFrame(spill_dir_, *current);
      if (written.ok()) {
        LocalStats().spilled.fetch_add(1, std::memory_order_relaxed);
      } else {
        // The rewrite stays best-effort (Load degrades a missing/stale
        // file to recompute-on-miss) but is no longer *silent*: a dying
        // disk shows up in stats() instead of only after a restart.
        LocalStats().respill_failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  if (old_digest != new_digest) {
    std::error_code ec;
    fs::remove(fs::path(spill_dir_) / DigestFileName(old_digest), ec);
  }
}

bool PreparedStore::Contains(std::string_view problem, std::string_view witness,
                             const std::string& data) const {
  const Key key = BorrowKey(problem, witness, data);
  const Shard& shard = ShardFor(key.digest);
  TableRef table = shard.snapshot.Acquire();
  auto it = table->find(key.digest);
  // Superseded versions stay digest-addressable for pinned readers but do
  // not count as "the store knows this data part" — a fresh admission for
  // the key must go through the normal miss path.
  return it != table->end() && SameKey(it->second->key, key) &&
         !it->second->superseded.load(std::memory_order_relaxed);
}

bool PreparedStore::OverBudget() const {
  const auto count = count_.load(std::memory_order_relaxed);
  const auto bytes = bytes_.load(std::memory_order_relaxed);
  if (options_.max_entries != 0 &&
      count > static_cast<int64_t>(options_.max_entries)) {
    return true;
  }
  return options_.byte_budget != 0 &&
         bytes > static_cast<int64_t>(options_.byte_budget);
}

double PreparedStore::DecayedLoss(int64_t hits, uint64_t stamp, uint64_t now,
                                  double loss_ops, int64_t bytes_freed) {
  if (hits <= 0 || loss_ops <= 0) return 0.0;
  // Halve the hit count once per epoch since the last touch: an entry
  // hammered long ago risks far less re-pay cost than one hammered now.
  const uint64_t age = now > stamp ? now - stamp : 0;
  const int64_t decayed = age >= 62 ? 0 : hits >> age;
  if (decayed <= 0) return 0.0;
  return static_cast<double>(decayed) * loss_ops /
         static_cast<double>(std::max<int64_t>(bytes_freed, 1));
}

int64_t PreparedStore::DemoteView(uint64_t digest, const EntryPtr& entry) {
  // The demoted state is a *clone* without the view, published through
  // the normal snapshot swap — the resident Entry is never mutated, so
  // concurrent lock-free readers of the old entry keep a consistent
  // (payload, view) pair and the warm hit path stays lock-free. An
  // UpdateData or lazy rebuild racing this publish revalidates by entry
  // pointer and degrades safely (patch fallback / serve-without-publish).
  // No view bytes (lazily dropped already, never built, or an alias of
  // the payload), or a view smaller than the payload a view-first entry
  // would have to hold instead: nothing to gain.
  if (DemotionFrees(*entry) <= 0) return 0;
  std::shared_ptr<const std::string> payload = HeldPayload(*entry);
  if (payload == nullptr) {
    // The warm clone answers through the string path, so it needs the
    // payload: encode it from the view, outside every lock.
    std::string encoded;
    encoded.reserve(entry->payload_bytes);
    if (!AppendPayload(*entry, &encoded).ok()) return 0;
    payload = std::make_shared<const std::string>(std::move(encoded));
  }
  Shard& shard = ShardFor(digest);
  std::lock_guard<std::mutex> lock(shard.mutex);
  TableRef table = shard.snapshot.Acquire();
  auto it = table->find(digest);
  if (it == table->end() || it->second != entry) return 0;
  // Re-read under the lock: a memoized payload since the check above
  // makes the whole view free.
  const int64_t freed = DemotionFrees(*entry);
  if (freed <= 0) return 0;
  // view / view_ready stay null and view_build_failed false: the next hit
  // re-promotes hot through the existing lazy rebuild path.
  EntryPtr warm = CloneWithoutPayloadOrView(*entry);
  warm->prepared = std::move(payload);
  warm->prepared_ready.store(warm->prepared.get(), std::memory_order_relaxed);
  Table fresh = *table;
  fresh[digest] = warm;
  bytes_.fetch_sub(freed, std::memory_order_relaxed);
  PublishTable(&shard, std::move(fresh));
  LocalStats().view_demotions.fetch_add(1, std::memory_order_relaxed);
  return freed;
}

PreparedStore::EntryPtr PreparedStore::CloneWithoutPayloadOrView(
    const Entry& entry) {
  EntryPtr clone = std::make_shared<Entry>();
  clone->key = entry.key;
  clone->payload_bytes = entry.payload_bytes;
  clone->last_used.store(entry.last_used.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  clone->hit_count.store(entry.hit_count.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  clone->size_bytes = entry.size_bytes;
  clone->spillable = entry.spillable;
  clone->view_loss_ops = entry.view_loss_ops;
  clone->evict_loss_ops = entry.evict_loss_ops;
  clone->encode_view = entry.encode_view;
  clone->version = entry.version;
  clone->predecessor_digest = entry.predecessor_digest;
  clone->has_predecessor = entry.has_predecessor;
  clone->successor_digest.store(
      entry.successor_digest.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  clone->superseded.store(entry.superseded.load(std::memory_order_acquire),
                          std::memory_order_relaxed);
  return clone;
}

void PreparedStore::EvictUntilWithinBudget() {
  // One evictor at a time: two publishers both observing OverBudget()
  // would otherwise each take a victim and over-evict below budget. The
  // eviction lock is never taken while holding a shard lock, so ordering
  // is acyclic (spill_dir_mutex_ nests inside evict_mutex_; no path takes
  // evict_mutex_ while holding it).
  std::lock_guard<std::mutex> evict_lock(evict_mutex_);
  if (!OverBudget()) return;
  // New recency epoch: entries touched after this pass stamp a value that
  // outranks every pre-pass stamp, so the next pass sees them as recent.
  tick_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t now = tick_.load(std::memory_order_relaxed);
  while (OverBudget()) {
    // Victim selection: one lock-free scan of the published snapshots
    // collects every candidate with its recency stamp, CLOCK bit, hit
    // count and byte charges; one sort then yields the whole demotion/
    // eviction *batch* for this pass (enough to clear the deficit), so a
    // store pushed far over budget (e.g. an over-budget Load) pays one
    // scan and at most one table copy per shard — not one per victim.
    // The stamp is an epoch, so entries touched in the same epoch tie
    // arbitrarily; an entry untouched since an older epoch goes first,
    // refined (among equals) by cheapest expected loss.
    struct Candidate {
      uint64_t stamp;
      bool second_chance;  // CLOCK bit was set at scan time (now cleared)
      bool superseded;     // retained old version: preferred victim
      size_t shard;
      uint64_t digest;
      EntryPtr entry;
      int64_t charge;      // bytes eviction frees (Charge)
      int64_t view_bytes;  // bytes a hot→warm demotion frees (may be <= 0)
      double evict_loss;   // decayed expected cost of going cold
      double view_loss;    // decayed expected cost of dropping the view
    };
    std::vector<Candidate> candidates;
    for (size_t si = 0; si < shards_.size(); ++si) {
      TableRef table = shards_[si].snapshot.Acquire();
      for (const auto& [digest, entry] : *table) {
        // CLOCK second chance: consume the referenced bit. An entry hit
        // since the previous sweep sorts behind every unreferenced entry
        // this pass (it is only taken when the unreferenced set cannot
        // clear the deficit — the byte-budget invariant always wins).
        const bool spare =
            entry->referenced.exchange(false, std::memory_order_relaxed);
        const uint64_t stamp =
            entry->last_used.load(std::memory_order_relaxed);
        const int64_t hits =
            entry->hit_count.load(std::memory_order_relaxed);
        const int64_t view_bytes = DemotionFrees(*entry);
        const int64_t charge = static_cast<int64_t>(Charge(*entry));
        candidates.push_back(
            {stamp, spare,
             entry->superseded.load(std::memory_order_relaxed), si, digest,
             entry, charge, view_bytes,
             DecayedLoss(hits, stamp, now, entry->evict_loss_ops, charge),
             DecayedLoss(hits, stamp, now, entry->view_loss_ops,
                         view_bytes)});
      }
    }
    if (candidates.empty()) return;  // store drained concurrently
    int64_t bytes_over =
        options_.byte_budget == 0
            ? 0
            : bytes_.load(std::memory_order_relaxed) -
                  static_cast<int64_t>(options_.byte_budget);
    int64_t entries_over =
        options_.max_entries == 0
            ? 0
            : count_.load(std::memory_order_relaxed) -
                  static_cast<int64_t>(options_.max_entries);

    // Phase A (tiered, byte pressure only): demote hot→warm before
    // evicting anything. Dropping a decoded view keeps the payload
    // answering via the string path — strictly cheaper to undo (one lazy
    // rebuild) than an eviction (a Π re-run), so views are always the
    // first bytes to go. Victim order: cold views first (no CLOCK bit),
    // then cheapest expected loss, then oldest.
    if (options_.tiered && bytes_over > 0 && entries_over <= 0) {
      std::vector<size_t> holders;
      for (size_t i = 0; i < candidates.size(); ++i) {
        if (candidates[i].view_bytes > 0) holders.push_back(i);
      }
      if (!holders.empty()) {
        std::sort(holders.begin(), holders.end(),
                  [&candidates](size_t ia, size_t ib) {
                    const Candidate& a = candidates[ia];
                    const Candidate& b = candidates[ib];
                    if (a.second_chance != b.second_chance) {
                      return !a.second_chance;
                    }
                    if (a.view_loss != b.view_loss) {
                      return a.view_loss < b.view_loss;
                    }
                    return a.stamp < b.stamp;
                  });
        int64_t freed = 0;
        for (size_t idx : holders) {
          if (freed >= bytes_over) break;
          freed += DemoteView(candidates[idx].digest, candidates[idx].entry);
        }
        if (freed > 0) continue;  // re-check the budget, rescan if needed
      }
      // No view bytes left to shed: fall through to eviction.
    }

    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.second_chance != b.second_chance) {
                  return !a.second_chance;  // unreferenced entries go first
                }
                if (a.superseded != b.superseded) {
                  // Retained old versions exist only for pinned readers:
                  // under pressure they go before any current version.
                  return a.superseded;
                }
                if (a.evict_loss != b.evict_loss) {
                  // Cheapest expected loss first: among equally (un)recent
                  // entries, evict the one whose re-build we are least
                  // likely to pay for. Never-hit entries all score 0, so
                  // pure recency order is preserved exactly for them.
                  return a.evict_loss < b.evict_loss;
                }
                return a.stamp < b.stamp;
              });
    // Take the oldest prefix that clears both deficits (recomputed from
    // the live counters, which concurrent publishers may have moved).
    size_t take = 0;
    while (take < candidates.size() && (bytes_over > 0 || entries_over > 0)) {
      bytes_over -= candidates[take].charge;
      --entries_over;
      ++take;
    }
    if (take == 0) return;
    // Evict the batch grouped by shard: one copy-on-write + publish per
    // touched shard. A candidate whose slot moved on since the scan
    // (replaced, re-keyed, already evicted) is skipped; the outer loop
    // re-checks the budget and rescans if the skips left us over.
    std::vector<EntryPtr> cold;
    for (size_t si = 0; si < shards_.size(); ++si) {
      bool touched = false;
      Shard& shard = shards_[si];
      std::unique_lock<std::mutex> lock(shard.mutex, std::defer_lock);
      Table table;
      for (size_t ci = 0; ci < take; ++ci) {
        const Candidate& victim = candidates[ci];
        if (victim.shard != si) continue;
        if (!touched) {
          lock.lock();
          table = CopyTable(shard);
          touched = true;
        }
        auto it = table.find(victim.digest);
        if (it == table.end() || it->second != victim.entry) continue;
        table.erase(it);
        // Re-read the charge under the lock: a lazy view rebuild since
        // the scan may have grown it (the scan-time value was only the
        // prefix-size estimate).
        bytes_.fetch_sub(static_cast<int64_t>(Charge(*victim.entry)),
                         std::memory_order_relaxed);
        count_.fetch_sub(1, std::memory_order_relaxed);
        LocalStats().evictions.fetch_add(1, std::memory_order_relaxed);
        if (options_.tiered && victim.entry->spillable &&
            !victim.superseded) {
          // Warm→cold: remember the payload so it can be written out as a
          // spill frame after the shard locks drop. Until the write lands
          // the entry simply recomputes on miss — the old frame from an
          // earlier Spill pass (same content-addressed payload) may even
          // still cover it.
          cold.push_back(victim.entry);
        }
      }
      if (touched) PublishTable(&shard, std::move(table));
    }
    if (!cold.empty()) {
      // Outside every shard lock; spill_dir_mutex_ serializes against
      // Spill's stale-file sweep and RespillPatched's rewrite/remove.
      std::lock_guard<std::mutex> dir_lock(spill_dir_mutex_);
      if (!spill_dir_.empty()) {
        for (const EntryPtr& demoted : cold) {
          Status wrote = WriteFrame(spill_dir_, *demoted);
          if (wrote.ok()) {
            LocalStats().cold_demotions.fetch_add(1,
                                                  std::memory_order_relaxed);
          } else {
            // Degrade-to-recompute, loudly: the miss will run Π and the
            // dying disk shows up in stats().
            LocalStats().respill_failures.fetch_add(
                1, std::memory_order_relaxed);
          }
        }
      }
    }
  }
}

bool PreparedStore::TryLoadColdPayload(const Key& key,
                                       std::string* payload) const {
  std::string dir;
  {
    std::lock_guard<std::mutex> lock(spill_dir_mutex_);
    if (spill_dir_.empty()) return false;
    dir = spill_dir_;
  }
  // The read runs unlocked: a concurrent RespillPatched/Spill may remove
  // or replace the file mid-read, but tmp+rename publication means we see
  // either a complete old frame or a complete new one — and every
  // validation failure just degrades to running Π.
  std::ifstream in(fs::path(dir) / DigestFileName(key.digest),
                   std::ios::binary);
  if (!in || PITRACT_FAILPOINT("spill.read")) return false;
  std::string framed((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  serde::Reader reader(framed);
  auto magic = reader.ReadU32();
  auto version = magic.ok() ? reader.ReadU32() : magic;
  if (!version.ok() || *magic != kSpillMagic || *version != kSpillVersion) {
    return false;
  }
  auto checksum = reader.ReadU64();
  if (!checksum.ok() ||
      *checksum != serde::Checksum64(
                       std::string_view(framed).substr(reader.consumed()))) {
    return false;
  }
  auto stored_key = reader.ReadBytes();
  auto prepared = stored_key.ok() ? reader.ReadBytes() : stored_key;
  auto size_bytes = reader.ReadU64();
  if (!stored_key.ok() || !prepared.ok() || !size_bytes.ok() ||
      !reader.exhausted()) {
    return false;
  }
  // The full-key guard: a digest collision (file named like our digest
  // but holding a foreign key) degrades to a plain Π run, never to a
  // wrong structure. Compared piecewise: the probe key is never joined.
  const std::string_view stored(*stored_key);
  if (stored.size() != key.size() ||
      stored.substr(0, key.head.size()) != key.head ||
      stored.substr(key.head.size()) != *key.data) {
    return false;
  }
  *payload = std::move(prepared).value();
  return true;
}

Status PreparedStore::Spill(const std::string& dir) const {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create spill directory '" + dir +
                            "': " + ec.message());
  }
  // Hold the directory lock across the writes, the stale-file sweep, and
  // the spill_dir_ switch: a RespillPatched racing this pass could
  // otherwise write a post-delta file that the sweep below (built from an
  // older residency snapshot) would immediately delete.
  std::lock_guard<std::mutex> dir_lock(spill_dir_mutex_);
  // Snapshots share each entry (key, payload or view): the frame writer's
  // buffer is the pass's only D-sized allocation per entry.
  std::vector<EntryPtr> snapshots;
  for (const Shard& shard : shards_) {
    // The published table is immutable: iterating it needs no lock.
    TableRef table = shard.snapshot.Acquire();
    for (const auto& [digest, entry] : *table) {
      // Superseded versions never spill: a restart should rehydrate the
      // current head of each lineage, not a retired predecessor.
      if (!entry->spillable ||
          entry->superseded.load(std::memory_order_relaxed)) {
        continue;
      }
      snapshots.push_back(entry);
    }
  }
  std::vector<std::string> written;
  written.reserve(snapshots.size());
  Status first_failure;
  int64_t spilled = 0;
  int64_t failures = 0;
  for (const EntryPtr& snapshot : snapshots) {
    Status wrote = WriteFrame(dir, *snapshot);
    if (!wrote.ok()) {
      // One bad write must not lose the rest of the warm set: keep
      // spilling, count the failure, and report the first error after the
      // pass. The failed digest still lands in `written` so the sweep
      // below keeps any *older* file for it — spill files are
      // content-addressed, so an earlier file under the same digest holds
      // the same payload and is strictly better than nothing.
      ++failures;
      if (first_failure.ok()) first_failure = wrote;
    } else {
      ++spilled;
    }
    written.push_back(DigestFileName(snapshot->key.digest));
  }
  // Drop stale spill files from earlier spills (entries since evicted or
  // replaced), so the directory always mirrors exactly this snapshot and
  // Load never resurrects dead entries.
  std::sort(written.begin(), written.end());
  for (const auto& dirent : fs::directory_iterator(dir, ec)) {
    if (ec) break;
    if (!dirent.is_regular_file() ||
        dirent.path().extension() != kSpillExtension) {
      continue;
    }
    const std::string name = dirent.path().filename().string();
    if (!std::binary_search(written.begin(), written.end(), name)) {
      fs::remove(dirent.path(), ec);
    }
  }
  LocalStats().spilled.fetch_add(spilled, std::memory_order_relaxed);
  LocalStats().respill_failures.fetch_add(failures, std::memory_order_relaxed);
  // Remember the active spill directory so Δ-patches keep it current.
  spill_dir_ = dir;
  return first_failure;
}

Result<size_t> PreparedStore::Load(const std::string& dir) {
  // The directory lock spans the whole scan-and-admit pass: a concurrent
  // RespillPatched (which rewrites the post-delta file and removes the
  // pre-delta one under the same lock) can run entirely before or entirely
  // after this Load, never interleaved with it — so Load cannot read a
  // file whose entry was re-keyed mid-scan and resurrect the stale
  // payload. Released before the eviction pass below (the evictor takes
  // shard locks of its own and must stay outside this ordering).
  std::unique_lock<std::mutex> dir_lock(spill_dir_mutex_);
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    return Status::NotFound("cannot read spill directory '" + dir +
                            "': " + ec.message());
  }
  size_t loaded = 0;
  for (const auto& dirent : it) {
    if (!dirent.is_regular_file() ||
        dirent.path().extension() != kSpillExtension) {
      continue;
    }
    // Fault-injection edge for spill-read I/O: a fired site behaves like
    // a file the filesystem refused to open.
    std::ifstream in(dirent.path(), std::ios::binary);
    if (!in || PITRACT_FAILPOINT("spill.read")) {
      LocalStats().load_skipped.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    std::string framed((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
    serde::Reader reader(framed);
    auto magic = reader.ReadU32();
    auto version = magic.ok() ? reader.ReadU32() : magic;
    if (!version.ok() || *magic != kSpillMagic || *version != kSpillVersion) {
      // Not ours: a foreign file, or an older/newer frame format. Not a
      // data-integrity signal — expected after a version bump.
      LocalStats().load_skipped.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Ours by magic+version: from here every rejection is *corruption*
    // (torn frame or bit rot) and degrades to recompute-on-miss.
    auto checksum = reader.ReadU64();
    if (!checksum.ok() ||
        *checksum != serde::Checksum64(
                         std::string_view(framed).substr(reader.consumed()))) {
      LocalStats().load_corrupt.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    auto key = reader.ReadBytes();
    auto prepared = key.ok() ? reader.ReadBytes() : key;
    auto size_bytes = reader.ReadU64();
    if (!key.ok() || !prepared.ok() || !size_bytes.ok() ||
        !reader.exhausted()) {
      // Structurally torn behind a valid checksum header — only reachable
      // when the checksum itself was forged or a decode failpoint fired,
      // but the degradation contract is identical.
      LocalStats().load_corrupt.fetch_add(1, std::memory_order_relaxed);
      continue;
    }

    // The frame carries the joined key `problem \x1f witness \x1f D`;
    // names hold no separator, so the head ends at the second one. A key
    // without two separators was never written by Spill.
    const size_t first = key->find('\x1f');
    const size_t second = first == std::string::npos
                              ? std::string::npos
                              : key->find('\x1f', first + 1);
    if (second == std::string::npos) {
      LocalStats().load_corrupt.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    EntryPtr entry = std::make_shared<Entry>();
    entry->key.head = key->substr(0, second + 1);
    std::string data = std::move(key).value();
    data.erase(0, second + 1);  // in place: D is not copied again
    entry->key.data = std::make_shared<const std::string>(std::move(data));
    entry->key.digest = Fnv1a64(entry->key.head, *entry->key.data);
    entry->prepared =
        std::make_shared<const std::string>(std::move(prepared).value());
    entry->prepared_ready.store(entry->prepared.get(),
                                std::memory_order_relaxed);
    entry->payload_bytes = entry->prepared->size();
    // Spill files carry only the payload: the decoded view is rebuilt
    // lazily on this entry's first warm hit.
    entry->size_bytes = static_cast<size_t>(*size_bytes);
    entry->spillable = true;
    const uint64_t digest = entry->key.digest;
    Shard& shard = ShardFor(digest);
    bool admitted = false;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      entry->last_used.store(
          tick_.fetch_add(1, std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
      Table table = CopyTable(shard);
      auto existing = table.find(digest);
      if (existing != table.end() &&
          SameKey(existing->second->key, entry->key)) {
        // The resident entry for this exact key wins: it carries the live
        // MVCC lineage metadata and possibly a rebuilt view, while the
        // file is at best an equal payload from an earlier spill. Loading
        // over it could splice a stale payload into a live version chain.
      } else {
        if (existing != table.end()) {
          bytes_.fetch_sub(static_cast<int64_t>(Charge(*existing->second)),
                           std::memory_order_relaxed);
          count_.fetch_sub(1, std::memory_order_relaxed);
          existing->second = entry;
        } else {
          table.emplace(digest, entry);
        }
        // Freshly loaded entries carry no view yet (view_size_bytes == 0).
        bytes_.fetch_add(static_cast<int64_t>(entry->size_bytes),
                         std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        PublishTable(&shard, std::move(table));
        admitted = true;
      }
    }
    if (admitted) ++loaded;
  }
  LocalStats().loaded.fetch_add(static_cast<int64_t>(loaded),
                                std::memory_order_relaxed);
  spill_dir_ = dir;
  dir_lock.unlock();
  EvictUntilWithinBudget();
  return loaded;
}

PreparedStore::Stats PreparedStore::stats() const {
  Stats stats;
  for (const StatSlot& slot : stat_slots_) {
    stats.hits += slot.hits.load(std::memory_order_relaxed);
    stats.misses += slot.misses.load(std::memory_order_relaxed);
    stats.evictions += slot.evictions.load(std::memory_order_relaxed);
    stats.inflight_waits +=
        slot.inflight_waits.load(std::memory_order_relaxed);
    stats.spilled += slot.spilled.load(std::memory_order_relaxed);
    stats.loaded += slot.loaded.load(std::memory_order_relaxed);
    stats.patches += slot.patches.load(std::memory_order_relaxed);
    stats.patch_fallbacks +=
        slot.patch_fallbacks.load(std::memory_order_relaxed);
    stats.key_builds += slot.key_builds.load(std::memory_order_relaxed);
    stats.view_builds += slot.view_builds.load(std::memory_order_relaxed);
    stats.locked_hits += slot.locked_hits.load(std::memory_order_relaxed);
    stats.update_retries +=
        slot.update_retries.load(std::memory_order_relaxed);
    stats.lineage_resolves +=
        slot.lineage_resolves.load(std::memory_order_relaxed);
    stats.respill_failures +=
        slot.respill_failures.load(std::memory_order_relaxed);
    stats.load_skipped += slot.load_skipped.load(std::memory_order_relaxed);
    stats.load_corrupt += slot.load_corrupt.load(std::memory_order_relaxed);
    stats.view_demotions +=
        slot.view_demotions.load(std::memory_order_relaxed);
    stats.cold_demotions +=
        slot.cold_demotions.load(std::memory_order_relaxed);
    stats.cold_promotions +=
        slot.cold_promotions.load(std::memory_order_relaxed);
    stats.payload_encodes +=
        slot.payload_encodes.load(std::memory_order_relaxed);
  }
  return stats;
}

std::string PreparedStore::Stats::ToJson() const {
  std::string json = "{";
  bool first = true;
  auto field = [&json, &first](const char* name, int64_t value) {
    if (!first) json.push_back(',');
    first = false;
    json.push_back('"');
    json.append(name);
    json.append("\":");
    json.append(std::to_string(value));
  };
  field("hits", hits);
  field("misses", misses);
  field("evictions", evictions);
  field("inflight_waits", inflight_waits);
  field("spilled", spilled);
  field("loaded", loaded);
  field("patches", patches);
  field("patch_fallbacks", patch_fallbacks);
  field("key_builds", key_builds);
  field("view_builds", view_builds);
  field("locked_hits", locked_hits);
  field("update_retries", update_retries);
  field("lineage_resolves", lineage_resolves);
  field("respill_failures", respill_failures);
  field("load_skipped", load_skipped);
  field("load_corrupt", load_corrupt);
  field("view_demotions", view_demotions);
  field("cold_demotions", cold_demotions);
  field("cold_promotions", cold_promotions);
  field("payload_encodes", payload_encodes);
  json.push_back('}');
  return json;
}

size_t PreparedStore::size() const {
  const auto count = count_.load(std::memory_order_relaxed);
  return count > 0 ? static_cast<size_t>(count) : 0;
}

size_t PreparedStore::bytes_resident() const {
  const auto bytes = bytes_.load(std::memory_order_relaxed);
  return bytes > 0 ? static_cast<size_t>(bytes) : 0;
}

void PreparedStore::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    TableRef table = shard.snapshot.Acquire();
    for (const auto& [digest, entry] : *table) {
      bytes_.fetch_sub(static_cast<int64_t>(Charge(*entry)),
                       std::memory_order_relaxed);
      count_.fetch_sub(1, std::memory_order_relaxed);
    }
    PublishTable(&shard, Table{});
  }
  std::lock_guard<std::mutex> lock(lineage_mutex_);
  lineage_.clear();
  lineage_seq_ = 0;
}

void PreparedStore::ResetStats() {
  for (StatSlot& slot : stat_slots_) {
    slot.hits.store(0, std::memory_order_relaxed);
    slot.misses.store(0, std::memory_order_relaxed);
    slot.evictions.store(0, std::memory_order_relaxed);
    slot.inflight_waits.store(0, std::memory_order_relaxed);
    slot.spilled.store(0, std::memory_order_relaxed);
    slot.loaded.store(0, std::memory_order_relaxed);
    slot.patches.store(0, std::memory_order_relaxed);
    slot.patch_fallbacks.store(0, std::memory_order_relaxed);
    slot.key_builds.store(0, std::memory_order_relaxed);
    slot.view_builds.store(0, std::memory_order_relaxed);
    slot.locked_hits.store(0, std::memory_order_relaxed);
    slot.update_retries.store(0, std::memory_order_relaxed);
    slot.lineage_resolves.store(0, std::memory_order_relaxed);
    slot.respill_failures.store(0, std::memory_order_relaxed);
    slot.load_skipped.store(0, std::memory_order_relaxed);
    slot.load_corrupt.store(0, std::memory_order_relaxed);
    slot.view_demotions.store(0, std::memory_order_relaxed);
    slot.cold_demotions.store(0, std::memory_order_relaxed);
    slot.cold_promotions.store(0, std::memory_order_relaxed);
    slot.payload_encodes.store(0, std::memory_order_relaxed);
  }
}

}  // namespace engine
}  // namespace pitract
