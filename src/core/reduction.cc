#include "core/reduction.h"

#include "common/codec.h"

namespace pitract {
namespace core {

namespace {

/// The σ side of the Lemma 2 proof: σ₁(x) = σ₂(x) = π₁(x) @ π₂(x), with
/// ρ′ unpadding one copy and delegating to the original ρ.
Factorization PaddedFactorization(const Factorization& original) {
  Factorization padded;
  padded.name = original.name + "@";
  auto pi1 = original.pi1;
  auto pi2 = original.pi2;
  auto rho = original.rho;
  auto sigma = [pi1, pi2](const std::string& x) -> Result<std::string> {
    auto data = pi1(x);
    if (!data.ok()) return data.status();
    auto query = pi2(x);
    if (!query.ok()) return query.status();
    return codec::PadPair(*data, *query);
  };
  padded.pi1 = sigma;
  padded.pi2 = sigma;
  padded.rho = [rho](const std::string& a,
                     const std::string& b) -> Result<std::string> {
    if (a != b) {
      return Status::InvalidArgument("padded halves disagree");
    }
    auto parts = codec::UnpadPair(a);
    if (!parts.ok()) return parts.status();
    return rho(parts->first, parts->second);
  };
  return padded;
}

}  // namespace

NcFactorReduction Compose(const NcFactorReduction& r12,
                          const NcFactorReduction& r23) {
  NcFactorReduction r13;
  r13.name = r12.name + " ; " + r23.name;
  r13.source_factorization = PaddedFactorization(r12.source_factorization);
  r13.target_factorization = r23.target_factorization;

  // Both composed maps receive a padded part r@s, reassemble the L2
  // instance x2 = ρ2(α1(r), β1(s)), re-factorize it with r23's source
  // factorization, and push the proper part through r23's map.
  auto alpha1 = r12.alpha;
  auto beta1 = r12.beta;
  auto rho2 = r12.target_factorization.rho;
  auto sigma21 = r23.source_factorization.pi1;
  auto sigma22 = r23.source_factorization.pi2;
  auto alpha2 = r23.alpha;
  auto beta2 = r23.beta;

  auto reassemble = [alpha1, beta1,
                     rho2](const std::string& padded) -> Result<std::string> {
    auto parts = codec::UnpadPair(padded);
    if (!parts.ok()) return parts.status();
    auto d2 = alpha1(parts->first);
    if (!d2.ok()) return d2.status();
    auto q2 = beta1(parts->second);
    if (!q2.ok()) return q2.status();
    return rho2(*d2, *q2);
  };

  r13.alpha = [reassemble, sigma21,
               alpha2](const std::string& padded) -> Result<std::string> {
    auto x2 = reassemble(padded);
    if (!x2.ok()) return x2.status();
    auto d = sigma21(*x2);
    if (!d.ok()) return d.status();
    return alpha2(*d);
  };
  r13.beta = [reassemble, sigma22,
              beta2](const std::string& padded) -> Result<std::string> {
    auto x2 = reassemble(padded);
    if (!x2.ok()) return x2.status();
    auto q = sigma22(*x2);
    if (!q.ok()) return q.status();
    return beta2(*q);
  };
  return r13;
}

FReduction ComposeF(const FReduction& r12, const FReduction& r23) {
  FReduction r13;
  r13.name = r12.name + " ; " + r23.name;
  auto alpha1 = r12.alpha;
  auto alpha2 = r23.alpha;
  auto beta1 = r12.beta;
  auto beta2 = r23.beta;
  r13.alpha = [alpha1, alpha2](const std::string& d) -> Result<std::string> {
    auto mid = alpha1(d);
    if (!mid.ok()) return mid.status();
    return alpha2(*mid);
  };
  r13.beta = [beta1, beta2](const std::string& q) -> Result<std::string> {
    auto mid = beta1(q);
    if (!mid.ok()) return mid.status();
    return beta2(*mid);
  };
  return r13;
}

PiWitness Transport(const NcFactorReduction& r, const PiWitness& w2) {
  PiWitness w1;
  w1.name = w2.name + " via " + r.name;
  auto alpha = r.alpha;
  auto beta = r.beta;
  auto preprocess2 = w2.preprocess;
  auto answer2 = w2.answer;
  // Π′ = Π ∘ α: PTIME because α is NC ⊆ P and Π is PTIME (Lemma 3).
  w1.preprocess = [alpha, preprocess2](const std::string& data,
                                       CostMeter* meter) {
    auto mapped = alpha(data);
    if (!mapped.ok()) return Result<std::string>(mapped.status());
    return preprocess2(*mapped, meter);
  };
  // S″: ⟨a, b⟩ ∈ S″ iff ⟨a, β(b)⟩ ∈ S′ — still NC since β is NC.
  w1.answer = [beta, answer2](const std::string& prepared,
                              const std::string& query, CostMeter* meter) {
    auto mapped = beta(query);
    if (!mapped.ok()) return Result<bool>(mapped.status());
    return answer2(prepared, *mapped, meter);
  };
  // The prepared structure is the target's Π(α(D)), so the target's
  // decoded view (and its encoder and footprint) transports verbatim;
  // only the query side maps through β.
  if (w2.has_view()) {
    w1.deserialize = w2.deserialize;
    w1.encode_view = w2.encode_view;
    w1.encoded_size = w2.encoded_size;
    w1.view_bytes = w2.view_bytes;
    if (w2.preprocess_view) {
      // Π′ = preprocess_view ∘ α: the same Π as above, typed.
      w1.preprocess_view = [alpha, preprocess_view2 = w2.preprocess_view](
                               const std::string& data, CostMeter* meter) {
        auto mapped = alpha(data);
        if (!mapped.ok()) return Result<PiViewPtr>(mapped.status());
        return preprocess_view2(*mapped, meter);
      };
    }
  }
  if (w2.answer_view) {
    auto answer_view2 = w2.answer_view;
    w1.answer_view = [beta, answer_view2](const void* view,
                                          const std::string& query,
                                          CostMeter* meter) {
      auto mapped = beta(query);
      if (!mapped.ok()) return Result<bool>(mapped.status());
      return answer_view2(view, *mapped, meter);
    };
  }
  // Batch face: β composes into the per-batch decode (each source query
  // is mapped then decoded once), while the target's kernel transports
  // verbatim — it probes the same Π(α(D)) view either way.
  if (w2.decode_query) {
    auto decode2 = w2.decode_query;
    w1.decode_query = [beta, decode2](const std::string& query,
                                      DecodedQuery* out,
                                      std::vector<int64_t>* scratch) {
      auto mapped = beta(query);
      if (!mapped.ok()) return mapped.status();
      return decode2(*mapped, out, scratch);
    };
    w1.answer_view_batch = w2.answer_view_batch;
  }
  return w1;
}

PiWitness TransportF(const FReduction& r, const PiWitness& w2) {
  NcFactorReduction shim;
  shim.name = r.name;
  shim.alpha = r.alpha;
  shim.beta = r.beta;
  return Transport(shim, w2);
}

Status VerifyReductionOnInstance(const DecisionProblem& l1,
                                 const NcFactorReduction& r,
                                 const DecisionProblem& l2,
                                 const std::string& x) {
  auto expected = l1.contains(x);
  if (!expected.ok()) return expected.status();
  auto data = r.source_factorization.pi1(x);
  if (!data.ok()) return data.status();
  auto query = r.source_factorization.pi2(x);
  if (!query.ok()) return query.status();
  auto mapped_data = r.alpha(*data);
  if (!mapped_data.ok()) return mapped_data.status();
  auto mapped_query = r.beta(*query);
  if (!mapped_query.ok()) return mapped_query.status();
  LanguageOfPairs s2(l2, r.target_factorization);
  auto actual = s2.Contains(*mapped_data, *mapped_query);
  if (!actual.ok()) return actual.status();
  if (*actual != *expected) {
    return Status::Internal("reduction " + r.name +
                            " changes the answer on '" + x + "'");
  }
  return Status::OK();
}

Status VerifyFReductionOnPair(const LanguageOfPairs& s1, const FReduction& r,
                              const LanguageOfPairs& s2,
                              const std::string& data,
                              const std::string& query) {
  auto expected = s1.Contains(data, query);
  if (!expected.ok()) return expected.status();
  auto mapped_data = r.alpha(data);
  if (!mapped_data.ok()) return mapped_data.status();
  auto mapped_query = r.beta(query);
  if (!mapped_query.ok()) return mapped_query.status();
  auto actual = s2.Contains(*mapped_data, *mapped_query);
  if (!actual.ok()) return actual.status();
  if (*actual != *expected) {
    return Status::Internal("F-reduction " + r.name +
                            " changes the answer");
  }
  return Status::OK();
}

}  // namespace core
}  // namespace pitract
