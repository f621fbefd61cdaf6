#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/engine.h"
#include "trace.h"

namespace perfbench {

/// The registered problems the workloads use. The index is the `problem`
/// attribute of witness-hook spans.
enum Problem : int { kMember = 0, kConn = 1, kReach = 2, kProblems = 3 };
extern const char* const kProblemNames[kProblems];

/// Queries per work item (one answered batch).
inline constexpr int kBatch = 64;

// --- generated inputs and their bench-side models --------------------------

/// A list-membership data part (values drawn from [0, 2n)) and its model:
/// the same values as a sorted multiset.
struct MemberPart {
  std::string data;
  std::vector<int64_t> sorted;
  int64_t universe = 0;
};
MemberPart MakeMemberPart(pitract::Rng* rng, int64_t n);
std::string EncodeMemberData(int64_t universe,
                             const std::vector<int64_t>& values);
bool MemberModel(const std::vector<int64_t>& sorted, int64_t value);

/// An undirected connectivity data part and its model: component labels
/// from a bench-side union-find.
struct ConnPart {
  std::string data;
  std::vector<int32_t> label;
};
ConnPart MakeConnPart(pitract::Rng* rng, int32_t nodes, int64_t edges);

/// A directed graph-reachability data part's model: sorted adjacency
/// lists, answered by BFS.
struct ReachModel {
  std::vector<std::vector<int32_t>> out;
  int64_t edges = 0;
};
ReachModel MakeReachModel(pitract::Rng* rng, int32_t nodes, int64_t edges);
std::string EncodeReachData(const ReachModel& model);
bool ReachQuery(const ReachModel& model, int32_t s, int32_t t);

/// `count` batches of kBatch random queries: member values in
/// [0, universe), or "s#t" node pairs below `nodes`.
std::vector<std::vector<std::string>> MemberQueries(pitract::Rng* rng,
                                                    size_t count,
                                                    int64_t universe);
std::vector<std::vector<std::string>> PairQueries(pitract::Rng* rng,
                                                  size_t count, int32_t nodes);
/// Parses a "s#t" pair query.
std::pair<int32_t, int32_t> ParsePair(const std::string& query);

// --- engine -----------------------------------------------------------------

/// A QueryEngine holding copies of the builtin entries for the three
/// problems above, registered through the public QueryEngine::Register.
/// With a tracer, the copies' witness hooks (preprocess, deserialize,
/// prepared_patch, apply_delta_to_data) are wrapped in spans.
std::unique_ptr<pitract::engine::QueryEngine> MakeEngine(
    const pitract::engine::PreparedStore::Options& options, Tracer* tracer);

/// Entry options equal to the engine's for a primary-witness part, for
/// probing the store directly (PreparedStore::TryGetView).
pitract::engine::PreparedStore::EntryOptions ProbeOptions(
    const pitract::engine::ProblemEntry& entry);

// --- correctness ------------------------------------------------------------

/// Counts answers checked against a model; the first mismatches go to
/// stderr. Thread-safe.
class Verifier {
 public:
  void Check(bool got, bool want, const char* where);
  /// A failure that is not an answer (an error status, a refused call).
  void Fail(const std::string& what);
  int64_t checked() const { return checked_.load(); }
  int64_t wrong() const { return wrong_.load(); }

 private:
  std::atomic<int64_t> checked_{0};
  std::atomic<int64_t> wrong_{0};
};

/// Checks one answered member batch against its sorted-multiset model.
void CheckMemberBatch(const std::vector<bool>& answers,
                      const std::vector<std::string>& queries,
                      const std::vector<int64_t>& sorted, Verifier* verifier);

// --- report -----------------------------------------------------------------

/// Metrics of one run. `Set` records a metric of the final JSON line
/// (end-to-end or per-layer, by run mode); `Detail` records a figure that
/// is printed by name and unit but kept out of the JSON line.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  void Detail(const std::string& name, double value, const std::string& unit);
  /// Prints every metric and detail as "name = value unit" lines.
  void Print() const;
  /// The final JSON line.
  std::string Json(bool correct, int64_t attempted, int64_t failed) const;

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> metrics_;
  std::vector<Row> details_;
};

// --- per-layer measurement --------------------------------------------------

/// One warm member batch to replay step by step.
struct ReplayItem {
  std::shared_ptr<const pitract::engine::DataHandle> handle;
  const std::vector<std::string>* queries = nullptr;
  const std::vector<int64_t>* sorted = nullptr;  // model, for checking
};

/// Replays `items` on the calling thread: the whole AnswerBatch, then its
/// steps (TryGetView, decode_query per query, answer_view_batch), each
/// timed and recorded as spans. Sets witness.decode_ns_per_q,
/// witness.kernel_ns_per_q, store.probe_ns, engine.overhead_ns_per_q,
/// cost.answer_work_per_q and cost.bytes_per_q.
void MeasureWarmSteps(pitract::engine::QueryEngine* engine, Tracer* tracer,
                      const std::vector<ReplayItem>& items, Report* report,
                      Verifier* verifier);

/// The cost-model fidelity column: wall ns per charged CostMeter op of each
/// kernel (member 2^16, connectivity 2^16, reachability 2^10), measured on
/// a side engine. Sets witness.kernel_ns_per_op.<problem>.
void MeasureKernelFidelity(uint64_t seed, Report* report, Verifier* verifier);

/// Span-derived layer metrics: witness.pi_ms, witness.view_build_ms and
/// engine.intern_ms (medians over member spans) as metrics, and a
/// count/median/self-time detail row for every span kind recorded.
void ReportSpans(const std::vector<Span>& spans, Report* report);

/// Median duration (ms) of the spans of `kind` for `problem` (-1: any).
double MedianSpanMs(const std::vector<Span>& spans, SpanKind kind,
                    int problem);

/// PreparedStore counters as store.* metrics.
void ReportStoreStats(const pitract::engine::PreparedStore& store,
                      const pitract::engine::PreparedStore::Stats& stats,
                      Report* report);

/// Peak resident set of this process, in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
