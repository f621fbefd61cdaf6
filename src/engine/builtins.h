#ifndef PITRACT_ENGINE_BUILTINS_H_
#define PITRACT_ENGINE_BUILTINS_H_

#include "common/status.h"
#include "engine/engine.h"

namespace pitract {
namespace engine {

/// Registers every built-in problem into `engine` under one name each:
///
///  * all typed query classes of core/cases.cc (the Figure 2 rows), with
///    Σ*-level language artifacts attached where they exist
///    (list-membership, breadth-depth-search, cvp-refactorized,
///    graph-reachability with its incremental-closure witness), and
///    incremental-maintenance hooks (engine/delta_hooks.h) where a delta
///    can patch Π(D) instead of recomputing it (list-membership,
///    predicate-selection, graph-reachability);
///  * the Σ*-only problems (connectivity, cvp-empty-data,
///    predicate-selection with its λ-rewriting witness, cvp-nand-eval);
///  * the reduction chain of Sections 5–7, routed *through the registry*:
///    member-via-conn, connectivity-via-bds, member-via-bds and
///    cvp-via-nand look their target witness up and transport it (Lemma 3 /
///    Lemma 8) instead of re-plumbing it by hand.
///
/// Every Σ*-level builtin witness except the `evaluate-all-gates-string`
/// alternative builds a decoded Π-view (PiWitness::deserialize), so warm
/// engine batches answer through memoized typed structures instead of
/// re-decoding Π(D) per query; reduction-derived entries inherit the views
/// of their targets.
Status RegisterBuiltins(QueryEngine* engine);

}  // namespace engine
}  // namespace pitract

#endif  // PITRACT_ENGINE_BUILTINS_H_
