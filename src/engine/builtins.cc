#include "engine/builtins.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "circuit/circuit.h"
#include "common/codec.h"
#include "common/heap_bytes.h"
#include "core/problems.h"
#include "engine/delta_hooks.h"

namespace pitract {
namespace engine {

namespace {

ProblemEntry LanguageEntry(std::string name, std::string anchor,
                           core::DecisionProblem problem,
                           core::Factorization factorization,
                           core::PiWitness witness) {
  ProblemEntry entry;
  entry.name = std::move(name);
  entry.paper_anchor = std::move(anchor);
  entry.has_language = true;
  entry.problem = std::move(problem);
  entry.factorization = std::move(factorization);
  entry.witness = std::move(witness);
  return entry;
}

/// Witness for CVP pairs under the circuit-data factorization: Π keeps the
/// circuit, answering evaluates it on the assignment. Correct but *not* NC
/// for deep circuits — it exists as the Lemma 8 target so cvp-via-nand can
/// be transported through the registry.
core::PiWitness CircuitEvalWitness() {
  core::PiWitness w;
  w.name = "keep-circuit+evaluate";
  w.preprocess = [](const std::string& data,
                    CostMeter* meter) -> Result<std::string> {
    if (meter != nullptr) meter->AddSerial(1);
    return data;
  };
  w.answer = [](const std::string& prepared, const std::string& query,
                CostMeter* meter) -> Result<bool> {
    auto fields = codec::DecodeFields(prepared);
    if (!fields.ok()) return fields.status();
    if (fields->size() != 1) {
      return Status::InvalidArgument("expected a single circuit field");
    }
    auto c = circuit::Circuit::Decode((*fields)[0]);
    if (!c.ok()) return c.status();
    std::vector<char> assignment;
    assignment.reserve(query.size());
    for (char bit : query) assignment.push_back(bit == '1' ? 1 : 0);
    return c->Evaluate(assignment, meter);
  };
  // Decoded view: the circuit object itself — warm queries evaluate
  // directly instead of re-parsing the whole circuit encoding per query
  // (the dominant wall-clock cost of this witness).
  w.deserialize = [](const std::shared_ptr<const std::string>& prepared,
                     CostMeter*) -> Result<core::PiViewPtr> {
    auto fields = codec::DecodeFields(*prepared);
    if (!fields.ok()) return fields.status();
    if (fields->size() != 1) {
      return Status::InvalidArgument("expected a single circuit field");
    }
    auto c = circuit::Circuit::Decode((*fields)[0]);
    if (!c.ok()) return c.status();
    return core::PiViewPtr(
        std::make_shared<circuit::Circuit>(std::move(*c)));
  };
  w.view_bytes = [](const void* view) {
    return MakeSharedHeapBytes<circuit::Circuit>() +
           static_cast<const circuit::Circuit*>(view)->HeapBytes();
  };
  w.answer_view = [](const void* view, const std::string& query,
                     CostMeter* meter) -> Result<bool> {
    const auto& c = *static_cast<const circuit::Circuit*>(view);
    std::vector<char> assignment;
    assignment.reserve(query.size());
    for (char bit : query) assignment.push_back(bit == '1' ? 1 : 0);
    return c.Evaluate(assignment, meter);
  };
  return w;
}

}  // namespace

Status RegisterBuiltins(QueryEngine* engine) {
  // Every typed query class registers under its own name; the three with
  // Σ*-level twins carry the full Definition 1 artifact set.
  for (auto& typed_case : core::MakeAllCases()) {
    ProblemEntry entry;
    entry.name = typed_case->name();
    entry.paper_anchor = typed_case->paper_anchor();
    const std::string case_name = entry.name;
    entry.make_case = [case_name] { return core::MakeCaseByName(case_name); };
    if (case_name == "list-membership") {
      entry.has_language = true;
      entry.problem = core::ListMembershipProblem();
      entry.factorization = core::MemberFactorization();
      entry.witness = core::MemberWitness();
      // Incremental maintenance: ΔD patches the sorted column through the
      // Δ-maintained B+-tree instead of re-sorting the whole list.
      entry.apply_delta_to_data = MemberDataDelta();
      entry.prepared_patch = MemberPreparedPatch();
      // Cost prior: sort-once build (n log n), branchless binary-search
      // probes. The B+-tree alternative shares the payload (and so the
      // patch hook) but pays node hops per probe — the solver keeps the
      // flat column unless measured probes say otherwise.
      entry.witness_descriptor.build_ops_per_byte = 2.0;
      entry.witness_descriptor.answer_ops_base = 16.0;
      {
        WitnessAlternative tree;
        tree.witness = MemberBptreeWitness();
        tree.prepared_patch = MemberPreparedPatch();
        tree.descriptor.build_ops_per_byte = 2.0;
        tree.descriptor.bytes_per_byte = 2.0;  // payload + node overhead
        tree.descriptor.answer_ops_base = 48.0;
        entry.alternatives.push_back(std::move(tree));
      }
    } else if (case_name == "graph-reachability") {
      // The Example 3 typed case gains its Σ*-level twin here: Π builds
      // the transitive closure *incrementally* (Section 4(7)), which is
      // exactly what makes edge-insert deltas patchable in place.
      entry.has_language = true;
      entry.problem = core::ReachabilityProblem();
      entry.factorization = core::ReachFactorization();
      entry.witness = ReachClosureWitness();
      entry.apply_delta_to_data = ReachDataDelta();
      entry.prepared_patch = ReachPreparedPatch();
      // Π(D) is the packed closure image; key bytes (the whole graph
      // encoding) are the data part's cost, not the structure's.
      entry.prepared_size_of = [](const std::string& prepared) {
        return prepared.size() + PreparedStore::kEntryOverheadBytes;
      };
      // Cost prior: the closure is the dearer-build/O(1)-answer extreme;
      // the edge-scan alternative is the cheap-build/BFS-answer one.
      // Parts expected to see few queries select the scan, busier ones
      // the closure — the trade bench_x6_adaptive measures end to end.
      // The prior is a two-point fit of the SCC-condensation build on
      // digraphs with 4n arcs at n = 64 (|D| ≈ 1.4KB: 438 ops charged,
      // |Π| ≈ 3.0KB) and n = 256 (|D| ≈ 7.2KB: 3,314 ops, |Π| ≈ 24.5KB);
      // the negative bases are the fits' intercepts, clamped to 0 below
      // their roots. Both grow as n², so larger parts are under-priced
      // (n = 1024: 38K ops charged, 15.7K fitted).
      entry.witness_descriptor.build_ops_base = -265.0;
      entry.witness_descriptor.build_ops_per_byte = 0.5;
      entry.witness_descriptor.bytes_base = -2220.0;
      entry.witness_descriptor.bytes_per_byte = 3.7;
      entry.witness_descriptor.answer_ops_base = 1.0;
      {
        WitnessAlternative scan;
        scan.witness = ReachEdgeScanWitness();
        scan.prepared_patch = ReachEdgeScanPatch();
        scan.prepared_size_of = [](const std::string& prepared) {
          return prepared.size() + PreparedStore::kEntryOverheadBytes;
        };
        // Fits of the charged costs: re-encode build ≈ 0.17 ops/byte and
        // per-query BFS ≈ 9 + 0.035 ops/byte (average touched region of a
        // 4n-edge digraph).
        scan.descriptor.build_ops_base = 80.0;
        scan.descriptor.build_ops_per_byte = 0.17;
        scan.descriptor.bytes_per_byte = 1.0;
        scan.descriptor.answer_ops_base = 9.0;
        scan.descriptor.answer_ops_per_byte = 0.035;
        entry.alternatives.push_back(std::move(scan));
      }
    } else if (case_name == "breadth-depth-search") {
      entry.has_language = true;
      entry.problem = core::BdsProblem();
      entry.factorization = core::BdsFactorization();
      entry.witness = core::BdsWitness();
    } else if (case_name == "cvp-refactorized") {
      entry.has_language = true;
      entry.problem = core::GateValueProblem();
      entry.factorization = core::GvpFactorization();
      entry.witness = core::GvpWitness();
      // Π(D) is the all-gates value bitmap: one byte per gate, no key
      // bytes worth accounting beyond the store's fixed overhead.
      entry.prepared_size_of = [](const std::string& prepared) {
        return prepared.size() + PreparedStore::kEntryOverheadBytes;
      };
      // View-vs-string-path candidates over the *same* Π: the view-less
      // alternative answers straight off the bitmap string (cheaper
      // residency, costlier probes) — the "any builtin" cost trade.
      entry.witness_descriptor.answer_ops_base = 2.0;
      entry.witness_descriptor.bytes_per_byte = 2.0;  // payload + view
      {
        WitnessAlternative flat;
        flat.witness = core::GvpWitness();
        flat.witness.name = "evaluate-all-gates-string";
        flat.witness.deserialize = nullptr;
        flat.witness.decode_query = nullptr;
        flat.witness.answer_view_batch = nullptr;
        flat.prepared_size_of = [](const std::string& prepared) {
          return prepared.size() + PreparedStore::kEntryOverheadBytes;
        };
        flat.descriptor.bytes_per_byte = 1.0;
        flat.descriptor.answer_ops_base = 4.0;
        flat.descriptor.answer_ops_per_byte = 0.125;  // per-query re-decode
        entry.alternatives.push_back(std::move(flat));
      }
    }
    PITRACT_RETURN_IF_ERROR(engine->Register(std::move(entry)));
  }

  // Σ*-only problems.
  PITRACT_RETURN_IF_ERROR(engine->Register(
      LanguageEntry("connectivity", "S4(2), Theorem 5",
                    core::ConnectivityProblem(), core::ConnFactorization(),
                    core::ConnWitness())));
  PITRACT_RETURN_IF_ERROR(engine->Register(
      LanguageEntry("cvp-empty-data", "Theorem 9", core::CvpProblem(),
                    core::EmptyDataFactorization(),
                    core::CvpEmptyDataWitness())));
  {
    // Shares the sort-once Π of the membership witness, so it shares the
    // B+-tree Δ-patch too: one maintained structure, two query dialects.
    ProblemEntry entry = LanguageEntry(
        "predicate-selection", "Definition 1 remark (λ-rewriting)",
        core::PredicateSelectionProblem(), core::SelectionFactorization(),
        core::ApplyRewriting(core::IntervalNormalizingRewriter(),
                             core::IntervalWitness()));
    entry.apply_delta_to_data = MemberDataDelta();
    entry.prepared_patch = MemberPreparedPatch();
    PITRACT_RETURN_IF_ERROR(engine->Register(std::move(entry)));
  }
  {
    // The NAND-eval witness keeps the circuit verbatim as its "prepared"
    // structure — spilling that to disk would persist a copy of the data
    // part for a one-op Π, so the entry opts out of persistence and
    // recomputes on the first post-restart miss instead.
    ProblemEntry entry =
        LanguageEntry("cvp-nand-eval", "Section 7", core::CvpProblem(),
                      core::CvpCircuitDataFactorization(),
                      CircuitEvalWitness());
    entry.spillable = false;
    PITRACT_RETURN_IF_ERROR(engine->Register(std::move(entry)));
  }

  // The reduction chain, routed through the registry: each derived entry
  // *looks up* its target's witness and transports it.
  PITRACT_RETURN_IF_ERROR(engine->RegisterViaReduction(
      "member-via-conn", "Lemma 3", core::ListMembershipProblem(),
      core::MemberToConnReduction(), "connectivity"));
  PITRACT_RETURN_IF_ERROR(engine->RegisterViaReduction(
      "connectivity-via-bds", "Theorem 5", core::ConnectivityProblem(),
      core::ConnToBdsReduction(), "breadth-depth-search"));
  PITRACT_RETURN_IF_ERROR(engine->RegisterViaReduction(
      "member-via-bds", "Theorem 5 (Lemma 2 composition)",
      core::ListMembershipProblem(),
      core::Compose(core::MemberToConnReduction(),
                    core::ConnToBdsReduction()),
      "breadth-depth-search"));
  PITRACT_RETURN_IF_ERROR(engine->RegisterViaFReduction(
      "cvp-via-nand", "Lemma 8", core::CvpProblem(),
      core::CvpCircuitDataFactorization(), core::CvpToNandFReduction(),
      "cvp-nand-eval"));
  return Status::OK();
}

QueryEngine& DefaultEngine() {
  static QueryEngine* engine = [] {
    auto* e = new QueryEngine();
    Status status = RegisterBuiltins(e);
    if (!status.ok()) {
      std::fprintf(stderr, "RegisterBuiltins failed: %s\n",
                   status.ToString().c_str());
      std::abort();
    }
    return e;
  }();
  return *engine;
}

}  // namespace engine
}  // namespace pitract
