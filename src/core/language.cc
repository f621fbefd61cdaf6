#include "core/language.h"

namespace pitract {
namespace core {

std::function<Result<std::string>(const std::string& data, CostMeter*)>
EncodedPreprocess(const PiWitness& w) {
  return [preprocess_view = w.preprocess_view, encode_view = w.encode_view](
             const std::string& data, CostMeter* meter) -> Result<std::string> {
    PITRACT_ASSIGN_OR_RETURN(PiViewPtr view, preprocess_view(data, meter));
    std::string payload;
    PITRACT_RETURN_IF_ERROR(encode_view(view.get(), &payload));
    return payload;
  };
}

Status VerifyWitnessOnInstance(const LanguageOfPairs& s, const PiWitness& w,
                               const std::string& x) {
  auto expected = s.problem().contains(x);
  if (!expected.ok()) return expected.status();
  auto data = s.factorization().pi1(x);
  if (!data.ok()) return data.status();
  auto query = s.factorization().pi2(x);
  if (!query.ok()) return query.status();
  CostMeter meter;
  auto prepared = w.preprocess(*data, &meter);
  if (!prepared.ok()) return prepared.status();
  auto actual = w.answer(*prepared, *query, &meter);
  if (!actual.ok()) return actual.status();
  if (*actual != *expected) {
    return Status::Internal("witness disagrees with reference semantics on '" +
                            x + "'");
  }
  return Status::OK();
}

PiWitness ApplyRewriting(const QueryRewriter& rewriter,
                         const PiWitness& base) {
  PiWitness w;
  w.name = base.name + " with " + rewriter.name;
  w.preprocess = base.preprocess;
  auto lambda = rewriter.lambda;
  auto answer = base.answer;
  w.answer = [lambda, answer](const std::string& prepared,
                              const std::string& query, CostMeter* meter) {
    auto rewritten = lambda(query);
    if (!rewritten.ok()) return Result<bool>(rewritten.status());
    return answer(prepared, *rewritten, meter);
  };
  // The decoded view is a property of Π(D) alone, so it survives query
  // rewriting unchanged; only the query side maps through λ.
  if (base.has_view()) {
    w.preprocess_view = base.preprocess_view;
    w.deserialize = base.deserialize;
    w.encode_view = base.encode_view;
    w.encoded_size = base.encoded_size;
    w.view_bytes = base.view_bytes;
  }
  if (base.answer_view) {
    auto answer_view = base.answer_view;
    w.answer_view = [lambda, answer_view](const void* view,
                                          const std::string& query,
                                          CostMeter* meter) {
      auto rewritten = lambda(query);
      if (!rewritten.ok()) return Result<bool>(rewritten.status());
      return answer_view(view, *rewritten, meter);
    };
  }
  // The batch face composes on the decode hook alone: pre-decoding maps
  // the query through λ once per batch, after which the base kernel
  // applies verbatim (it only sees numeric forms).
  if (base.decode_query) {
    auto base_decode = base.decode_query;
    w.decode_query = [lambda, base_decode](const std::string& query,
                                           DecodedQuery* out,
                                           std::vector<int64_t>* scratch) {
      auto rewritten = lambda(query);
      if (!rewritten.ok()) return rewritten.status();
      return base_decode(*rewritten, out, scratch);
    };
    w.answer_view_batch = base.answer_view_batch;
  }
  return w;
}

}  // namespace core
}  // namespace pitract
