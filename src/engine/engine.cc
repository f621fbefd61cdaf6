#include "engine/engine.h"

#include <algorithm>
#include <utility>

namespace pitract {
namespace engine {

Result<BatchResult> RunBatch(BatchPath* path) {
  BatchResult result;
  CostMeter prepare_meter;
  auto outcome = path->Prepare(&prepare_meter);
  if (!outcome.ok()) return outcome.status();
  result.prepare_runs = outcome->ran_pi ? 1 : 0;
  result.cache_hit = outcome->cache_hit;
  result.prepare_cost = prepare_meter.cost();

  const int n = path->num_queries();
  result.answers.reserve(static_cast<size_t>(n));
  CostMeter answer_meter;
  auto handled =
      path->TryAnswerAll(&result.answers, &result.mode, &answer_meter);
  if (!handled.ok()) return handled.status();
  if (!*handled) {
    for (int qi = 0; qi < n; ++qi) {
      auto answer = path->AnswerOne(qi, &answer_meter);
      if (!answer.ok()) return answer.status();
      result.answers.push_back(*answer);
    }
    result.mode = BatchAnswerMode::kScalar;
  }
  result.answer_cost = answer_meter.cost();
  result.answer_bytes_read = answer_meter.bytes_read();
  return result;
}

namespace {

/// The store-entry knobs one witness candidate supplies for its Π(D)
/// payloads: the decoded-view hooks when the witness carries a view (with
/// an encoder, its entries are held view-first), plus the tiering layer's
/// expected-loss estimates sized from the candidate's cost descriptor
/// (view loss ≈ the decode the store would re-pay, evict loss ≈ the Π
/// rebuild).
PreparedStore::EntryOptions MakeEntryOptions(
    const core::PiWitness& witness, const PreparedStore::SizeFn* size_of,
    bool spillable, const CostDescriptor* descriptor, size_t data_bytes) {
  PreparedStore::EntryOptions options;
  if (size_of != nullptr && *size_of) options.size_of = *size_of;
  options.spillable = spillable;
  if (witness.has_view()) {
    options.make_view = witness.deserialize;
    options.encode_view = witness.encode_view;
    options.view_bytes = witness.view_bytes;
  }
  if (descriptor != nullptr) {
    options.evict_loss_ops = descriptor->BuildOps(data_bytes);
    options.view_loss_ops = descriptor->Bytes(data_bytes);
  }
  return options;
}

/// The miss-path Π over `data`, run against a local meter so the measured
/// build lands in the witness's CostProfile (MergeFrom is an exact
/// sequential fold: the caller's meter sees identical charges). A witness
/// whose Π builds its view hands the store that view, admitted view-first
/// with no Σ* payload printed or parsed; any other hands it the payload.
PreparedStore::BuildFn MakeBuildFn(
    const core::PiWitness& witness, CostProfile* profile,
    const PreparedStore::EntryOptions& entry_options,
    const std::string& data) {
  const bool direct = witness.builds_view() && !entry_options.size_of;
  return [&witness, profile, direct,
          &data](CostMeter* m) -> Result<PreparedStore::Built> {
    CostMeter local;
    PreparedStore::Built built;
    Status status;
    if (direct) {
      auto view = witness.preprocess_view(data, &local);
      status = view.status();
      if (view.ok()) {
        built.view = std::move(view).value();
        built.payload_bytes = witness.encoded_size(built.view.get());
      }
    } else {
      auto payload = witness.preprocess(data, &local);
      status = payload.status();
      if (payload.ok()) {
        built.payload = std::move(payload).value();
        built.payload_bytes = built.payload.size();
      }
    }
    if (m != nullptr) m->MergeFrom(local);
    if (!status.ok()) return status;
    if (profile != nullptr) {
      profile->RecordBuild(data.size(), built.payload_bytes, local.work());
    }
    return built;
  };
}

/// Σ*-string path: Π through the PreparedStore, answers via the *selected*
/// witness (primary or a registered alternative) — through the memoized
/// decoded view when that witness provides one, else via the string
/// `answer` hook. The caller resolves which witness a handle uses and
/// hands in its hooks, entry options, and measured-cost profile.
class WitnessBatchPath : public BatchPath {
 public:
  /// Blocking flavor: Prepare fetches (or runs) Π under the handle's key,
  /// so it does zero O(|D|) key work.
  WitnessBatchPath(const core::PiWitness& witness, CostProfile* profile,
                   PreparedStore::EntryOptions entry_options,
                   PreparedStore* store, const DataHandle& handle,
                   std::span<const std::string> queries)
      : witness_(witness),
        profile_(profile),
        entry_options_(std::move(entry_options)),
        store_(store),
        handle_(&handle),
        queries_(queries) {}
  /// Warm-probe flavor (TryAnswerWarm): the caller already fetched the
  /// entry's PreparedView from the published snapshot, so Prepare charges
  /// the probe op and serves it — no second store lookup, no second hit
  /// counted.
  WitnessBatchPath(const core::PiWitness& witness, PreparedStore* store,
                   PreparedStore::PreparedView prefetched,
                   std::span<const std::string> queries)
      : witness_(witness),
        store_(store),
        queries_(queries),
        served_(std::move(prefetched)),
        have_prefetched_(true) {}

  Result<PrepareOutcome> Prepare(CostMeter* meter) override {
    if (have_prefetched_) {
      // Parity with a served snapshot hit: ServeHit already counted the
      // store-side hit when the caller probed; the batch still charges
      // the one probe op so warm prepare_cost matches the blocking path.
      if (meter != nullptr) meter->AddSerial(1);
      return PrepareOutcome{/*ran_pi=*/false, /*cache_hit=*/true};
    }
    bool hit = false;
    PITRACT_ASSIGN_OR_RETURN(
        served_,
        store_->GetOrBuildView(
            handle_->key,
            MakeBuildFn(witness_, profile_, entry_options_, *handle_->data),
            meter, &hit, entry_options_));
    return PrepareOutcome{/*ran_pi=*/!hit, /*cache_hit=*/hit};
  }

  Result<bool> AnswerOne(int qi, CostMeter* meter) override {
    const std::string& query = queries_[static_cast<size_t>(qi)];
    if (served_.view != nullptr && witness_.answer_view) {
      return witness_.answer_view(served_.view.get(), query, meter);
    }
    if (served_.prepared == nullptr) {
      // A view-first entry: the string path memoizes its payload once.
      PITRACT_ASSIGN_OR_RETURN(served_.prepared, store_->Payload(served_));
    }
    return witness_.answer(*served_.prepared, query, meter);
  }

  /// Amortized batch path: every query of the batch is decoded exactly
  /// once up front (one reusable int64 scratch buffer, no per-query
  /// re-parsing), then one kernel call answers the whole span.
  Result<bool> TryAnswerAll(std::vector<bool>* answers, BatchAnswerMode* mode,
                            CostMeter* meter) override {
    const core::PiWitness& w = witness_;
    if (served_.view == nullptr || !w.has_batch_kernel()) return false;

    const size_t n = queries_.size();
    decoded_.resize(n);
    int_scratch_.clear();
    for (size_t i = 0; i < n; ++i) {
      // First decode error fails the batch, matching the per-query loop's
      // first-error-wins contract (`answer` would have failed on the same
      // query's parse).
      PITRACT_RETURN_IF_ERROR(
          w.decode_query(queries_[i], &decoded_[i], &int_scratch_));
    }
    raw_answers_.resize(n);
    PITRACT_RETURN_IF_ERROR(w.answer_view_batch(
        served_.view.get(), decoded_, std::span<uint8_t>(raw_answers_),
        meter));
    answers->assign(raw_answers_.begin(), raw_answers_.end());
    *mode = BatchAnswerMode::kKernel;
    return true;
  }

  int num_queries() const override {
    return static_cast<int>(queries_.size());
  }

 private:
  const core::PiWitness& witness_;
  CostProfile* profile_ = nullptr;
  PreparedStore::EntryOptions entry_options_;
  PreparedStore* store_ = nullptr;
  const DataHandle* handle_ = nullptr;
  std::span<const std::string> queries_;
  PreparedStore::PreparedView served_;
  bool have_prefetched_ = false;
  // Per-batch scratch (decoded queries, int64 decode buffer, kernel 0/1
  // output) — sized once per batch, reused across its queries.
  std::vector<core::DecodedQuery> decoded_;
  std::vector<int64_t> int_scratch_;
  std::vector<uint8_t> raw_answers_;
};

/// Typed path: the deployed in-memory case behind the same interface.
class TypedCaseBatchPath : public BatchPath {
 public:
  TypedCaseBatchPath(core::QueryClassCase* instance, bool already_prepared)
      : instance_(instance), already_prepared_(already_prepared) {}

  Result<PrepareOutcome> Prepare(CostMeter* meter) override {
    if (already_prepared_) {
      if (meter != nullptr) meter->AddSerial(1);  // the cache probe
      return PrepareOutcome{/*ran_pi=*/false, /*cache_hit=*/true};
    }
    PITRACT_RETURN_IF_ERROR(instance_->Preprocess(meter));
    return PrepareOutcome{/*ran_pi=*/true, /*cache_hit=*/false};
  }

  Result<bool> AnswerOne(int qi, CostMeter* meter) override {
    return instance_->AnswerPrepared(qi, meter);
  }

  int num_queries() const override { return instance_->num_queries(); }

 private:
  core::QueryClassCase* instance_;
  bool already_prepared_;
};

}  // namespace

QueryEngine::QueryEngine(size_t store_capacity, size_t typed_capacity)
    : store_(store_capacity), typed_capacity_(typed_capacity) {}

QueryEngine::QueryEngine(const PreparedStore::Options& store_options,
                         size_t typed_capacity)
    : store_(store_options), typed_capacity_(typed_capacity) {}

uint64_t QueryEngine::PartFingerprint(std::string_view data) {
  return Fnv1a64(data);
}

QueryEngine::SelectedWitness QueryEngine::CandidateAt(
    const ProblemEntry& entry, int index) {
  SelectedWitness s;
  if (index <= 0 || entry.alternatives.empty()) {
    s.witness = &entry.witness;
    s.descriptor = &entry.witness_descriptor;
    s.profile = entry.witness_profile.get();
    s.patch = &entry.prepared_patch;
    s.size_of = &entry.prepared_size_of;
    s.index = 0;
    return s;
  }
  const int alt =
      std::min<int>(index, static_cast<int>(entry.alternatives.size())) - 1;
  const WitnessAlternative& a = entry.alternatives[static_cast<size_t>(alt)];
  s.witness = &a.witness;
  s.descriptor = &a.descriptor;
  s.profile = a.profile.get();
  s.patch = &a.prepared_patch;
  s.size_of = &a.prepared_size_of;
  s.index = alt + 1;
  return s;
}

QueryEngine::SelectedWitness QueryEngine::ResolveWitnessFromKey(
    const ProblemEntry& entry, const PreparedStore::Key& key) {
  if (!entry.alternatives.empty()) {
    // A key's head is `problem \x1f witness \x1f`; the name between the
    // separators says which candidate's hooks built (and can decode) the
    // payload this key addresses.
    const std::string_view head(key.head);
    const size_t first = head.find('\x1f');
    if (first != std::string_view::npos) {
      const size_t second = head.find('\x1f', first + 1);
      if (second != std::string_view::npos) {
        const std::string_view name =
            head.substr(first + 1, second - first - 1);
        if (name != entry.witness.name) {
          for (size_t i = 0; i < entry.alternatives.size(); ++i) {
            if (entry.alternatives[i].witness.name == name) {
              return CandidateAt(entry, static_cast<int>(i) + 1);
            }
          }
        }
      }
    }
  }
  return CandidateAt(entry, 0);
}

QueryEngine::SelectedWitness QueryEngine::SelectWitness(
    const ProblemEntry& entry, const std::string* data,
    uint64_t part_fingerprint) const {
  const CostModel::Policy policy = cost_model_.policy();
  if (entry.alternatives.empty() ||
      policy == CostModel::Policy::kPrimaryOnly) {
    return CandidateAt(entry, 0);
  }
  if (policy == CostModel::Policy::kAdaptive && part_fingerprint != 0) {
    const int cached = cost_model_.ChoiceFor(part_fingerprint);
    if (cached >= 0) return CandidateAt(entry, cached);
  }
  const size_t data_bytes = data != nullptr ? data->size() : 0;
  std::vector<CostModel::Candidate> candidates;
  candidates.reserve(entry.alternatives.size() + 1);
  for (int i = 0; i <= static_cast<int>(entry.alternatives.size()); ++i) {
    const SelectedWitness s = CandidateAt(entry, i);
    CostModel::Candidate c;
    c.name = s.witness->name;
    c.descriptor = s.descriptor;
    c.profile = s.profile;
    c.resident = data != nullptr &&
                 store_.Contains(entry.name, s.witness->name, *data);
    candidates.push_back(c);
  }
  double pressure = 0.0;
  if (store_.options().byte_budget > 0) {
    pressure = std::min(
        1.0, static_cast<double>(store_.bytes_resident()) /
                 static_cast<double>(store_.options().byte_budget));
  }
  const int choice =
      cost_model_.Select(candidates, data_bytes, part_fingerprint, pressure);
  if (policy == CostModel::Policy::kAdaptive && part_fingerprint != 0) {
    cost_model_.SetChoice(part_fingerprint, choice);
  }
  return CandidateAt(entry, choice);
}

void QueryEngine::NoteAnswered(const ProblemEntry& entry,
                               const SelectedWitness& selected,
                               uint64_t part_fingerprint, int64_t queries,
                               int64_t answer_ops) {
  if (selected.profile != nullptr && queries > 0) {
    selected.profile->RecordAnswer(queries, answer_ops);
  }
  if (entry.alternatives.empty() || part_fingerprint == 0) return;
  if (cost_model_.policy() != CostModel::Policy::kAdaptive) return;
  if (cost_model_.NoteTraffic(part_fingerprint, queries)) {
    // Doubling boundary crossed: invalidate the sticky choice so the next
    // admission re-scores with the fresh traffic count (a small part that
    // turned hot graduates to the fast-answer Π at its next cold miss).
    cost_model_.SetChoice(part_fingerprint, -1);
  }
}

Status QueryEngine::Register(ProblemEntry entry) {
  if (entry.name.empty()) {
    return Status::InvalidArgument("problem entry needs a name");
  }
  if (!entry.has_language && !entry.make_case) {
    return Status::InvalidArgument("entry '" + entry.name +
                                   "' registers neither a language nor a "
                                   "typed case");
  }
  if (!entry.has_language && !entry.alternatives.empty()) {
    return Status::InvalidArgument("entry '" + entry.name +
                                   "' registers witness alternatives without "
                                   "a Σ*-level witness");
  }
  for (const WitnessAlternative& alt : entry.alternatives) {
    if (alt.witness.name.empty() || alt.witness.name == entry.witness.name) {
      return Status::InvalidArgument(
          "entry '" + entry.name +
          "' has a witness alternative without a distinct name");
    }
  }
  // Store keys are `problem \x1f witness \x1f D`: a separator inside a
  // name would let two (problem, witness) pairs share key bytes and be
  // served each other's Π(D).
  auto has_separator = [](const std::string& name) {
    return name.find('\x1f') != std::string::npos;
  };
  bool separator = has_separator(entry.name) ||
                   has_separator(entry.witness.name);
  for (const WitnessAlternative& alt : entry.alternatives) {
    separator = separator || has_separator(alt.witness.name);
  }
  if (separator) {
    return Status::InvalidArgument(
        "entry '" + entry.name +
        "': problem and witness names must not contain the key separator "
        "\\x1f");
  }
  // Every candidate gets a measured-cost profile so selection can learn
  // from real builds/answers without registration boilerplate.
  if (entry.has_language && entry.witness_profile == nullptr) {
    entry.witness_profile = std::make_shared<CostProfile>();
  }
  for (WitnessAlternative& alt : entry.alternatives) {
    if (alt.profile == nullptr) alt.profile = std::make_shared<CostProfile>();
  }
  std::unique_lock<std::shared_mutex> lock(registry_mutex_);
  auto [it, inserted] = entries_.emplace(entry.name, std::move(entry));
  if (!inserted) {
    return Status::AlreadyExists("problem '" + it->first +
                                 "' already registered");
  }
  return Status::OK();
}

Status QueryEngine::RegisterViaReduction(std::string name,
                                         std::string paper_anchor,
                                         core::DecisionProblem source,
                                         const core::NcFactorReduction& r,
                                         std::string_view target) {
  auto target_entry = Find(target);
  if (!target_entry.ok()) return target_entry.status();
  if (!(*target_entry)->has_language) {
    return Status::FailedPrecondition("reduction target '" +
                                      std::string(target) +
                                      "' has no Σ*-level witness");
  }
  if ((*target_entry)->factorization.name != r.target_factorization.name) {
    return Status::InvalidArgument(
        "reduction '" + r.name + "' targets factorization " +
        r.target_factorization.name + " but '" + std::string(target) +
        "' is registered under " + (*target_entry)->factorization.name);
  }
  ProblemEntry entry;
  entry.name = std::move(name);
  entry.paper_anchor = std::move(paper_anchor);
  entry.has_language = true;
  entry.problem = std::move(source);
  entry.factorization = r.source_factorization;
  entry.witness = core::Transport(r, (*target_entry)->witness);
  return Register(std::move(entry));
}

Status QueryEngine::RegisterViaFReduction(
    std::string name, std::string paper_anchor, core::DecisionProblem source,
    core::Factorization source_factorization, const core::FReduction& r,
    std::string_view target) {
  auto target_entry = Find(target);
  if (!target_entry.ok()) return target_entry.status();
  if (!(*target_entry)->has_language) {
    return Status::FailedPrecondition("F-reduction target '" +
                                      std::string(target) +
                                      "' has no Σ*-level witness");
  }
  ProblemEntry entry;
  entry.name = std::move(name);
  entry.paper_anchor = std::move(paper_anchor);
  entry.has_language = true;
  entry.problem = std::move(source);
  entry.factorization = std::move(source_factorization);
  entry.witness = core::TransportF(r, (*target_entry)->witness);
  return Register(std::move(entry));
}

Result<const ProblemEntry*> QueryEngine::Find(std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(registry_mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("no problem registered as '" + std::string(name) +
                            "'");
  }
  // Map nodes are never erased, so the pointer stays valid after unlock.
  return &it->second;
}

Result<const ProblemEntry*> QueryEngine::FindLanguage(
    std::string_view name) const {
  auto entry = Find(name);
  if (!entry.ok()) return entry.status();
  if (!(*entry)->has_language) {
    return Status::FailedPrecondition("problem '" + std::string(name) +
                                      "' has no Σ*-level witness");
  }
  return entry;
}

std::vector<std::string> QueryEngine::Names() const {
  std::shared_lock<std::shared_mutex> lock(registry_mutex_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

Result<BatchResult> QueryEngine::AnswerBatch(
    std::string_view problem, const std::string& data,
    std::span<const std::string> queries) {
  PITRACT_ASSIGN_OR_RETURN(DataHandle route, Route(problem, data));
  return AnswerBatch(route, queries);
}

Result<DataHandle> QueryEngine::Intern(std::string_view problem,
                                       std::string data) const {
  auto entry = FindLanguage(problem);
  if (!entry.ok()) return entry.status();
  DataHandle handle;
  handle.problem = std::string(problem);
  handle.data = std::make_shared<const std::string>(std::move(data));
  handle.part_fingerprint = PartFingerprint(*handle.data);
  // Admission is where the solver earns its keep: the handle's key embeds
  // the witness the cost model picked for this part, and every later batch
  // over the handle flows through that choice with zero re-selection work.
  // The key shares the handle's buffer: D is held once, by both.
  const SelectedWitness sel =
      SelectWitness(**entry, handle.data.get(), handle.part_fingerprint);
  handle.key = PreparedStore::InternKey((*entry)->name, sel.witness->name,
                                        handle.data);
  return handle;
}

Result<DataHandle> QueryEngine::Route(std::string_view problem,
                                      const std::string& data) {
  auto entry = FindLanguage(problem);
  if (!entry.ok()) return entry.status();
  DataHandle route;
  route.problem = (*entry)->name;
  route.data = std::shared_ptr<const std::string>(std::shared_ptr<const void>(),
                                                  &data);
  // Selection (and its O(|D|) fingerprint) only runs when this entry has
  // alternatives and the model is live; the single-witness route pays just
  // the key build.
  if (!(*entry)->alternatives.empty() &&
      cost_model_.policy() != CostModel::Policy::kPrimaryOnly) {
    route.part_fingerprint = PartFingerprint(data);
  }
  const SelectedWitness sel =
      SelectWitness(**entry, &data, route.part_fingerprint);
  // The key carries the solver's choice, so a preparer handed this route
  // on a cold part builds the Π that was selected here. It borrows the
  // caller's bytes like route.data; a cold publish copies them once.
  route.key =
      store_.BuildKeyCounted((*entry)->name, sel.witness->name, route.data);
  return route;
}

Result<BatchResult> QueryEngine::AnswerBatch(
    const DataHandle& handle, std::span<const std::string> queries) {
  if (handle.data == nullptr || handle.key.data == nullptr) {
    return Status::InvalidArgument("empty DataHandle (use Intern)");
  }
  auto entry = FindLanguage(handle.problem);
  if (!entry.ok()) return entry.status();
  // The handle's key names the witness it was admitted under — answer
  // hooks must come from that candidate, never from the current selection.
  const SelectedWitness sel = ResolveWitnessFromKey(**entry, handle.key);
  WitnessBatchPath path(
      *sel.witness, sel.profile,
      MakeEntryOptions(*sel.witness, sel.size_of, (*entry)->spillable,
                       sel.descriptor, handle.data->size()),
      &store_, handle, queries);
  auto result = RunBatch(&path);
  if (result.ok()) {
    NoteAnswered(**entry, sel, handle.part_fingerprint,
                 static_cast<int64_t>(queries.size()),
                 result->answer_cost.work);
  }
  return result;
}

Result<bool> QueryEngine::TryAnswerWarm(const DataHandle& handle,
                                        std::span<const std::string> queries,
                                        BatchResult* result) {
  if (handle.data == nullptr || handle.key.data == nullptr) {
    return Status::InvalidArgument("empty DataHandle (use Intern)");
  }
  auto entry = FindLanguage(handle.problem);
  if (!entry.ok()) return entry.status();
  const SelectedWitness sel = ResolveWitnessFromKey(**entry, handle.key);
  PreparedStore::PreparedView view;
  if (!store_.TryGetView(handle.key,
                         MakeEntryOptions(*sel.witness, sel.size_of,
                                          (*entry)->spillable, sel.descriptor,
                                          handle.data->size()),
                         nullptr, &view)) {
    return false;  // cold: the caller parks the batch and prepares off-path
  }
  WitnessBatchPath path(*sel.witness, &store_, std::move(view), queries);
  auto answered = RunBatch(&path);
  if (!answered.ok()) return answered.status();
  NoteAnswered(**entry, sel, handle.part_fingerprint,
               static_cast<int64_t>(queries.size()),
               answered->answer_cost.work);
  *result = std::move(answered).value();
  return true;
}

Status QueryEngine::Prepare(std::string_view problem,
                            const std::shared_ptr<const std::string>& data,
                            const PreparedStore::Key& key, CostMeter* meter,
                            bool* ran_pi) {
  if (data == nullptr || key.data == nullptr) {
    return Status::InvalidArgument("Prepare needs a data part and its key");
  }
  auto entry = FindLanguage(problem);
  if (!entry.ok()) return entry.status();
  const ProblemEntry* e = *entry;
  // A parked cold key already embeds the witness the admission-time solver
  // chose; parsing it back out makes the preparer build exactly that Π.
  const SelectedWitness sel = ResolveWitnessFromKey(*e, key);
  bool hit = false;
  const PreparedStore::EntryOptions options = MakeEntryOptions(
      *sel.witness, sel.size_of, e->spillable, sel.descriptor, data->size());
  auto prepared = store_.GetOrBuildView(
      key, MakeBuildFn(*sel.witness, sel.profile, options, *data), meter,
      &hit, options);
  if (!prepared.ok()) return prepared.status();
  if (ran_pi != nullptr) *ran_pi = !hit;
  return Status::OK();
}

Result<bool> QueryEngine::Answer(std::string_view problem,
                                 const std::string& data,
                                 const std::string& query, CostMeter* meter) {
  auto batch = AnswerBatch(problem, data, std::span<const std::string>(&query, 1));
  if (!batch.ok()) return batch.status();
  if (meter != nullptr) {
    meter->AddSequential(batch->prepare_cost);
    meter->AddSequential(batch->answer_cost);
  }
  return static_cast<bool>(batch->answers[0]);
}

Result<bool> QueryEngine::AnswerInstance(std::string_view problem,
                                         const std::string& x,
                                         CostMeter* meter) {
  auto entry = FindLanguage(problem);
  if (!entry.ok()) return entry.status();
  PITRACT_ASSIGN_OR_RETURN(std::string data, (*entry)->factorization.pi1(x));
  PITRACT_ASSIGN_OR_RETURN(std::string query, (*entry)->factorization.pi2(x));
  return Answer(problem, data, query, meter);
}

Result<DeltaOutcome> QueryEngine::ApplyDelta(std::string_view problem,
                                             const std::string& data,
                                             const DeltaBatch& delta,
                                             CostMeter* meter) {
  auto entry = FindLanguage(problem);
  if (!entry.ok()) return entry.status();
  if (!(*entry)->apply_delta_to_data) {
    return Status::FailedPrecondition("problem '" + std::string(problem) +
                                      "' registers no data-delta hook");
  }
  // Coalesce first: a burst of ±ops on the same key nets out before either
  // hook runs, so both the data rewrite and the Π-patch pay for the net
  // delta, not the raw op stream. A burst that nets to nothing reaches the
  // hooks as an empty batch — zero per-op work, an in-place republish.
  const DeltaBatch coalesced = Coalesce(delta);
  DeltaOutcome outcome;
  PITRACT_ASSIGN_OR_RETURN(outcome.new_data,
                           (*entry)->apply_delta_to_data(data, coalesced));
  // Patch the witness this part is actually resident under: under an
  // adaptive/forced policy the sticky per-part choice (falling back to a
  // residency probe) says which candidate's payload is in the store, and
  // its popularity carries over to the post-delta fingerprint so one delta
  // never resets a hot part to cold.
  SelectedWitness sel = CandidateAt(**entry, 0);
  if (!(*entry)->alternatives.empty() &&
      cost_model_.policy() != CostModel::Policy::kPrimaryOnly) {
    const uint64_t old_fp = PartFingerprint(data);
    const uint64_t new_fp = PartFingerprint(outcome.new_data);
    if (cost_model_.policy() == CostModel::Policy::kForced) {
      sel = CandidateAt(**entry, cost_model_.forced_index());
    } else {
      const int cached = cost_model_.ChoiceFor(old_fp);
      if (cached >= 0) {
        sel = CandidateAt(**entry, cached);
      } else {
        for (int i = 0;
             i <= static_cast<int>((*entry)->alternatives.size()); ++i) {
          const SelectedWitness probe = CandidateAt(**entry, i);
          if (store_.Contains((*entry)->name, probe.witness->name, data)) {
            sel = probe;
            break;
          }
        }
      }
    }
    cost_model_.CarryTraffic(old_fp, new_fp);
  }
  if (sel.patch == nullptr || !*sel.patch) {
    outcome.fallback_reason = Status::FailedPrecondition(
        "problem '" + std::string(problem) + "' registers no Π-patch hook" +
        (sel.index > 0 ? " for witness '" + sel.witness->name + "'" : ""));
    return outcome;
  }
  // The entry options include the selected witness's view builder, so a
  // successful patch re-keys the entry with a freshly decoded post-delta
  // view — a patched entry never serves its pre-patch view.
  PreparedStore::EntryOptions entry_options =
      MakeEntryOptions(*sel.witness, sel.size_of, (*entry)->spillable,
                       sel.descriptor, outcome.new_data.size());
  const PreparedPatchFn& patch = *sel.patch;
  CostProfile* profile = sel.profile;
  Status patched = store_.UpdateData(
      (*entry)->name, sel.witness->name, data, outcome.new_data,
      [&patch, &coalesced, profile](std::string* prepared, CostMeter* m) {
        CostMeter local;
        Status s = patch(prepared, coalesced, &local);
        if (m != nullptr) m->MergeFrom(local);
        if (s.ok() && profile != nullptr) profile->RecordPatch(local.work());
        return s;
      },
      meter, entry_options);
  if (patched.ok()) {
    outcome.patched = true;
  } else {
    // Patch-side failures are soft: the post-delta data part recomputes
    // on its first miss, which is always correct (just not amortized).
    outcome.fallback_reason = patched;
  }
  return outcome;
}

Result<BatchResult> QueryEngine::AnswerTypedBatch(std::string_view problem,
                                                  int64_t n, uint64_t seed) {
  auto entry = Find(problem);
  if (!entry.ok()) return entry.status();
  if (!(*entry)->make_case) {
    return Status::FailedPrecondition("problem '" + std::string(problem) +
                                      "' has no typed case");
  }
  std::shared_ptr<core::QueryClassCase> cached;
  uint64_t generation_at_miss = 0;
  {
    std::lock_guard<std::mutex> lock(typed_mutex_);
    auto slot = std::find_if(typed_cache_.begin(), typed_cache_.end(),
                             [&](const TypedSlot& s) {
                               return s.Matches(problem, n, seed);
                             });
    if (slot != typed_cache_.end()) {
      // Cached slots are always prepared: insertion happens below only
      // after a fully successful batch. The shared_ptr keeps the instance
      // alive even if another thread trims it out of the cache mid-batch.
      typed_cache_.splice(typed_cache_.begin(), typed_cache_, slot);
      cached = slot->instance;
    } else {
      generation_at_miss = typed_generation_;
    }
  }
  if (cached != nullptr) {
    TypedCaseBatchPath path(cached.get(), /*already_prepared=*/true);
    return RunBatch(&path);
  }
  // Cold key: generate and prepare outside the lock (two racing threads may
  // each do this once; only the first inserts, the other's work is dropped).
  std::shared_ptr<core::QueryClassCase> fresh = (*entry)->make_case();
  if (fresh == nullptr) {
    return Status::Internal("typed case factory for '" + std::string(problem) +
                            "' returned null");
  }
  PITRACT_RETURN_IF_ERROR(fresh->Generate(n, seed));
  TypedCaseBatchPath path(fresh.get(), /*already_prepared=*/false);
  auto result = RunBatch(&path);
  if (!result.ok()) return result.status();  // never cache a failed prepare
  {
    std::lock_guard<std::mutex> lock(typed_mutex_);
    // Re-scan for a racing duplicate only when an insert actually landed
    // since the miss — the uncontended cold path skips the second scan.
    bool duplicate = false;
    if (typed_generation_ != generation_at_miss) {
      duplicate = std::any_of(typed_cache_.begin(), typed_cache_.end(),
                              [&](const TypedSlot& s) {
                                return s.Matches(problem, n, seed);
                              });
    }
    if (!duplicate) {
      typed_cache_.push_front(
          TypedSlot{std::string(problem), n, seed, std::move(fresh)});
      ++typed_generation_;
      if (typed_capacity_ > 0) {  // 0 = unbounded, like the PreparedStore
        while (typed_cache_.size() > typed_capacity_) typed_cache_.pop_back();
      }
    }
  }
  return result;
}

Result<std::unique_ptr<core::QueryClassCase>> QueryEngine::MakeCase(
    std::string_view problem) const {
  auto entry = Find(problem);
  if (!entry.ok()) return entry.status();
  if (!(*entry)->make_case) {
    return Status::FailedPrecondition("problem '" + std::string(problem) +
                                      "' has no typed case");
  }
  auto instance = (*entry)->make_case();
  if (instance == nullptr) {
    return Status::Internal("typed case factory for '" + std::string(problem) +
                            "' returned null");
  }
  return instance;
}

}  // namespace engine
}  // namespace pitract
