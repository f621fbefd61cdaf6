#ifndef PITRACT_CORE_LANGUAGE_H_
#define PITRACT_CORE_LANGUAGE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/cost_meter.h"
#include "common/result.h"
#include "core/factorization.h"

namespace pitract {
namespace core {

/// A decision problem L ⊆ Σ* with an executable membership test (the
/// "reference semantics" used to verify every construction in this module).
struct DecisionProblem {
  std::string name;
  /// x ∈ L?
  std::function<Result<bool>(const std::string& x)> contains;
};

/// The language of pairs S(L, Υ) = {⟨π₁(x), π₂(x)⟩ | x ∈ L}: membership of
/// a pair is decided by restoring the instance and asking L (Proposition 1
/// makes this sound — the restored instance is unique).
class LanguageOfPairs {
 public:
  LanguageOfPairs(DecisionProblem problem, Factorization factorization)
      : problem_(std::move(problem)),
        factorization_(std::move(factorization)) {}

  /// ⟨data, query⟩ ∈ S(L, Υ)?
  Result<bool> Contains(const std::string& data,
                        const std::string& query) const {
    auto x = factorization_.rho(data, query);
    if (!x.ok()) return x.status();
    return problem_.contains(*x);
  }

  const DecisionProblem& problem() const { return problem_; }
  const Factorization& factorization() const { return factorization_; }

 private:
  DecisionProblem problem_;
  Factorization factorization_;
};

/// Type-erased decoded view of a Π(D) payload: the witness's typed
/// in-memory structure (a sorted std::vector, a closure object, a decoded
/// circuit, ...) held behind shared ownership so a serving cache and any
/// number of in-flight batches can alias it safely.
using PiViewPtr = std::shared_ptr<const void>;

/// One pre-decoded query of the batch answer layer: the numeric form the
/// hot builtin views probe. Single-value queries (membership element, gate
/// id) use `a`; pair queries (graph endpoints, interval bounds) use
/// (`a`, `b`). Witnesses whose queries are not numeric (e.g. circuit
/// assignments) leave `decode_query` unset and answer per query through
/// `answer_view`.
struct DecodedQuery {
  int64_t a = 0;
  int64_t b = 0;
};

/// A Π-tractability witness for a language of pairs S (Definition 1): a
/// PTIME preprocessing function Π and a language S′ decidable in NC, given
/// here as an `answer` function over (Π(D), Q).
///
/// Cost-accounting contract: Π (`preprocess`, and `preprocess_view` where
/// set) charges its full PTIME work; `answer` charges only the
/// *conceptual probe cost* of S′-membership (e.g. the two binary searches
/// of Example 5) — string decode overhead is harness bookkeeping and is
/// excluded, since a deployed engine would hold the preprocessed structure
/// in memory (the typed cases in core/cases.h measure exactly that
/// deployed form).
///
/// Π has one or two faces:
///
///  * `preprocess` — Π(D) as a Σ* string. Always set.
///  * `preprocess_view` — optional: Π itself, returning the typed view that
///    `deserialize` would build from Π(D), with no Σ* string printed or
///    parsed. A witness that sets it defines its Π here, sets
///    `encode_view` and `encoded_size`, and sets `preprocess` to
///    EncodedPreprocess(*this): one Π, so the two faces agree byte for
///    byte, charge the same work, and fail with the same Status. A serving
///    store admits such a view directly (view-first, no payload, no
///    `deserialize`). A witness derived by copying one that sets it, and
///    that changes the view's type (other `deserialize` / answer hooks),
///    must reset it.
///
/// A witness has at most three answer faces:
///
///  * `answer` — the reference semantics of S′ over the Σ*-string Π(D).
///    Always set; engines fall back to it whenever no view is resident.
///  * `decode_query` + `answer_view_batch` — the warm path for numeric
///    queries: each query of a batch is decoded once into its DecodedQuery
///    form, then one kernel call answers the whole span against the
///    decoded view (`deserialize` or `preprocess_view` built it).
///  * `answer_view` — the per-query view face, only for witnesses whose
///    queries are not numeric (a circuit assignment has no DecodedQuery
///    form), so they still skip the per-query Π(D) re-decode.
struct PiWitness {
  std::string name;
  /// Π: data part -> preprocessed structure D′ (string-encoded).
  std::function<Result<std::string>(const std::string& data, CostMeter*)>
      preprocess;
  /// Optional Π straight to the decoded view (see above):
  /// encode_view(preprocess_view(D)) == preprocess(D).
  std::function<Result<PiViewPtr>(const std::string& data, CostMeter*)>
      preprocess_view;
  /// S′ membership: ⟨Π(D), Q⟩ -> bool.
  std::function<Result<bool>(const std::string& preprocessed,
                             const std::string& query, CostMeter*)>
      answer;

  /// Optional decoded view of Π(D): `deserialize` builds the typed
  /// structure once (memoized by the serving layer next to the raw
  /// payload), so a warm query is O(query) in wall-clock too. The payload
  /// arrives as the cache's shared_ptr, so a deserializer whose
  /// "structure" is the payload itself may alias it copy-free (the GVP
  /// bitmap does). The view passed to the answerers below is always one
  /// produced by this witness's `deserialize` or `preprocess_view`.
  /// Engines fall back to the string `answer` path whenever a view build
  /// fails, so views are a pure optimization.
  std::function<Result<PiViewPtr>(
      const std::shared_ptr<const std::string>& preprocessed, CostMeter*)>
      deserialize;
  /// Optional inverse of `deserialize`: appends to `out` the exact Σ*
  /// payload the view was decoded from. Contract: for every payload p
  /// this witness's Π (or its Δ-patch) produces,
  /// encode_view(deserialize(p)) == p byte for byte. A store holding such
  /// a view keeps only the view and encodes the payload when it is asked
  /// for (the string `answer`, a spill frame, a Δ-patch).
  std::function<Status(const void* view, std::string* out)> encode_view;
  /// Optional, set with `preprocess_view`: the bytes encode_view appends
  /// for `view`, counted without encoding (|Π(D)| of a directly built
  /// view).
  std::function<size_t(const void* view)> encoded_size;
  /// Optional heap footprint of a view `deserialize` built, in bytes
  /// (0 for a view that aliases the payload). Unset: a store charges the
  /// view |Π(D)| bytes as a proxy.
  std::function<size_t(const void* view)> view_bytes;

  /// Batch face over the view.
  ///
  ///  * `decode_query` parses one Σ*-query string into its numeric
  ///    DecodedQuery form. The batch driver calls it once per query per
  ///    batch, up front, passing a reusable int64 scratch buffer so
  ///    codec::DecodeIntsInto-style decoders allocate nothing in steady
  ///    state. Query rewriting (λ) and reduction transport (β) compose on
  ///    this hook, so derived entries pre-decode through the same chain
  ///    their string path answers through.
  ///  * `answer_view_batch` answers a whole span of pre-decoded queries
  ///    into a caller-owned 0/1 output span in one call. It must write
  ///    answers[i] for queries[i], charge the same total work as `answer`
  ///    would over the same queries, and fail the whole batch on the first
  ///    invalid query, matching `answer`'s error code. Kernels over flat
  ///    arrays charge once per batch with the depth of one probe (the
  ///    batch is conceptually parallel — the NC claim); a witness with no
  ///    such kernel loops its per-query probe here instead.
  std::function<Status(const std::string& query, DecodedQuery* out,
                       std::vector<int64_t>* scratch)>
      decode_query;
  std::function<Status(const void* view, std::span<const DecodedQuery> queries,
                       std::span<uint8_t> answers, CostMeter*)>
      answer_view_batch;

  /// Per-query view face, for non-numeric queries only (see above).
  std::function<Result<bool>(const void* view, const std::string& query,
                             CostMeter*)>
      answer_view;

  /// True when this witness builds a decoded view of Π(D).
  bool has_view() const {
    return static_cast<bool>(deserialize) &&
           (static_cast<bool>(answer_view) ||
            static_cast<bool>(answer_view_batch));
  }

  /// True when Π can hand a store its view directly: `preprocess_view`
  /// plus the encoder and size hook a view-first entry needs.
  bool builds_view() const {
    return has_view() && static_cast<bool>(preprocess_view) &&
           static_cast<bool>(encode_view) && static_cast<bool>(encoded_size);
  }

  /// True when a whole pre-decoded batch can be answered by one
  /// `answer_view_batch` call.
  bool has_batch_kernel() const {
    return has_view() && static_cast<bool>(decode_query) &&
           static_cast<bool>(answer_view_batch);
  }
};

/// The string face of a witness whose Π builds its view directly:
/// preprocess = encode_view ∘ preprocess_view, over the two hooks as they
/// are set on `w` now.
std::function<Result<std::string>(const std::string& data, CostMeter*)>
EncodedPreprocess(const PiWitness& w);

/// End-to-end check of Definition 1 on one instance: x ∈ L must equal
/// answer(Π(π₁(x)), π₂(x)).
Status VerifyWitnessOnInstance(const LanguageOfPairs& s, const PiWitness& w,
                               const std::string& x);

/// The generalized setting sketched under Definition 1: "one may consider
/// ... a query rewriting function λ : Q → Q′, and revise Definition 1 such
/// that ⟨D, Q⟩ ∈ S iff ⟨Π(D), λ(Q)⟩ ∈ S′ ... as long as λ is a PTIME
/// computable function, it is still feasible to answer queries of Q on big
/// data." λ is a per-query rewrite (e.g. predicate normalization); the
/// data side is untouched.
struct QueryRewriter {
  std::string name;
  std::function<Result<std::string>(const std::string& query)> lambda;
};

/// Builds the revised-Definition-1 witness: Π unchanged, answering maps
/// each query through λ before consulting S′.
PiWitness ApplyRewriting(const QueryRewriter& rewriter,
                         const PiWitness& base);

}  // namespace core
}  // namespace pitract

#endif  // PITRACT_CORE_LANGUAGE_H_
