#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <numeric>
#include <span>
#include <unordered_map>

#include "common/cost_meter.h"
#include "core/problems.h"
#include "engine/builtins.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "stats.h"

namespace perfbench {

namespace engine = pitract::engine;
namespace core = pitract::core;
namespace graph = pitract::graph;
using pitract::Rng;

const char* const kProblemNames[kProblems] = {
    "list-membership", "connectivity", "graph-reachability"};

namespace {

template <typename T>
T ValueOrDie(pitract::Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

int32_t Find(std::vector<int32_t>* parent, int32_t x) {
  while ((*parent)[static_cast<size_t>(x)] != x) {
    int32_t& p = (*parent)[static_cast<size_t>(x)];
    p = (*parent)[static_cast<size_t>(p)];
    x = p;
  }
  return x;
}

}  // namespace

// --- inputs and models ------------------------------------------------------

std::string EncodeMemberData(int64_t universe,
                             const std::vector<int64_t>& values) {
  return ValueOrDie(core::MemberFactorization().pi1(
                        core::MakeMemberInstance(universe, values, 0)),
                    "member data");
}

MemberPart MakeMemberPart(Rng* rng, int64_t n) {
  MemberPart part;
  part.universe = 2 * n;
  part.sorted.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    part.sorted.push_back(
        static_cast<int64_t>(rng->NextBelow(static_cast<uint64_t>(2 * n))));
  }
  part.data = EncodeMemberData(part.universe, part.sorted);
  std::sort(part.sorted.begin(), part.sorted.end());
  return part;
}

bool MemberModel(const std::vector<int64_t>& sorted, int64_t value) {
  return std::binary_search(sorted.begin(), sorted.end(), value);
}

ConnPart MakeConnPart(Rng* rng, int32_t nodes, int64_t edges) {
  graph::Graph g = graph::ErdosRenyi(nodes, edges, /*directed=*/false, rng);
  ConnPart part;
  part.data = ValueOrDie(
      core::ConnFactorization().pi1(core::MakeConnInstance(g, 0, 0)),
      "connectivity data");
  std::vector<int32_t> parent(static_cast<size_t>(nodes));
  std::iota(parent.begin(), parent.end(), 0);
  for (const auto& [u, v] : g.Edges()) {
    const int32_t ru = Find(&parent, u);
    const int32_t rv = Find(&parent, v);
    if (ru != rv) parent[static_cast<size_t>(ru)] = rv;
  }
  part.label.resize(static_cast<size_t>(nodes));
  for (int32_t x = 0; x < nodes; ++x) {
    part.label[static_cast<size_t>(x)] = Find(&parent, x);
  }
  return part;
}

ReachModel MakeReachModel(Rng* rng, int32_t nodes, int64_t edges) {
  ReachModel model;
  model.out.resize(static_cast<size_t>(nodes));
  while (model.edges < edges) {
    const auto u = static_cast<int32_t>(rng->NextBelow(nodes));
    const auto v = static_cast<int32_t>(rng->NextBelow(nodes));
    if (u == v) continue;
    auto& adj = model.out[static_cast<size_t>(u)];
    auto it = std::lower_bound(adj.begin(), adj.end(), v);
    if (it != adj.end() && *it == v) continue;
    adj.insert(it, v);
    ++model.edges;
  }
  return model;
}

std::string EncodeReachData(const ReachModel& model) {
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
  for (size_t u = 0; u < model.out.size(); ++u) {
    for (int32_t v : model.out[u]) {
      edges.emplace_back(static_cast<graph::NodeId>(u), v);
    }
  }
  graph::Graph g = ValueOrDie(
      graph::Graph::FromEdges(static_cast<graph::NodeId>(model.out.size()),
                              edges, /*directed=*/true),
      "reach graph");
  return ValueOrDie(
      core::ReachFactorization().pi1(core::MakeReachInstance(g, 0, 0)),
      "reach data");
}

bool ReachQuery(const ReachModel& model, int32_t s, int32_t t) {
  if (s == t) return true;
  std::vector<uint8_t> seen(model.out.size(), 0);
  std::deque<int32_t> frontier{s};
  seen[static_cast<size_t>(s)] = 1;
  while (!frontier.empty()) {
    const int32_t u = frontier.front();
    frontier.pop_front();
    for (int32_t v : model.out[static_cast<size_t>(u)]) {
      if (v == t) return true;
      if (seen[static_cast<size_t>(v)] == 0) {
        seen[static_cast<size_t>(v)] = 1;
        frontier.push_back(v);
      }
    }
  }
  return false;
}

std::vector<std::vector<std::string>> MemberQueries(Rng* rng, size_t count,
                                                    int64_t universe) {
  std::vector<std::vector<std::string>> batches(count);
  for (auto& batch : batches) {
    for (int i = 0; i < kBatch; ++i) {
      batch.push_back(std::to_string(
          rng->NextBelow(static_cast<uint64_t>(universe))));
    }
  }
  return batches;
}

std::vector<std::vector<std::string>> PairQueries(Rng* rng, size_t count,
                                                  int32_t nodes) {
  std::vector<std::vector<std::string>> batches(count);
  for (auto& batch : batches) {
    for (int i = 0; i < kBatch; ++i) {
      batch.push_back(std::to_string(rng->NextBelow(nodes)) + "#" +
                      std::to_string(rng->NextBelow(nodes)));
    }
  }
  return batches;
}

std::pair<int32_t, int32_t> ParsePair(const std::string& query) {
  const size_t hash = query.find('#');
  return {std::atoi(query.substr(0, hash).c_str()),
          std::atoi(query.substr(hash + 1).c_str())};
}

// --- engine -----------------------------------------------------------------

std::unique_ptr<engine::QueryEngine> MakeEngine(
    const engine::PreparedStore::Options& options, Tracer* tracer) {
  // The process-wide default engine holds the builtin registrations; the
  // benchmark registers copies so it can wrap their hooks.
  engine::QueryEngine& builtins = engine::DefaultEngine();
  auto eng = std::make_unique<engine::QueryEngine>(options);
  for (int p = 0; p < kProblems; ++p) {
    engine::ProblemEntry entry =
        *ValueOrDie(builtins.Find(kProblemNames[p]), "builtin entry");
    // Fresh measured-cost profiles: Register fills null ones.
    entry.witness_profile = nullptr;
    for (engine::WitnessAlternative& alt : entry.alternatives) {
      alt.profile = nullptr;
    }
    if (tracer != nullptr) {
      core::PiWitness& w = entry.witness;
      w.preprocess = [inner = w.preprocess, tracer, p](
                         const std::string& data, pitract::CostMeter* meter) {
        Tracer::Scope span(tracer, SpanKind::kPi, p);
        return inner(data, meter);
      };
      if (w.deserialize) {
        w.deserialize = [inner = w.deserialize, tracer, p](
                            const std::shared_ptr<const std::string>& prepared,
                            pitract::CostMeter* meter) {
          Tracer::Scope span(tracer, SpanKind::kViewBuild, p);
          return inner(prepared, meter);
        };
      }
      if (entry.prepared_patch) {
        entry.prepared_patch = [inner = entry.prepared_patch, tracer, p](
                                   std::string* prepared,
                                   const engine::DeltaBatch& delta,
                                   pitract::CostMeter* meter) {
          Tracer::Scope span(tracer, SpanKind::kPatch, p);
          return inner(prepared, delta, meter);
        };
      }
      if (entry.apply_delta_to_data) {
        entry.apply_delta_to_data = [inner = entry.apply_delta_to_data, tracer,
                                     p](const std::string& data,
                                        const engine::DeltaBatch& delta) {
          Tracer::Scope span(tracer, SpanKind::kToData, p);
          return inner(data, delta);
        };
      }
    }
    pitract::Status status = eng->Register(std::move(entry));
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: Register: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
  }
  return eng;
}

engine::PreparedStore::EntryOptions ProbeOptions(
    const engine::ProblemEntry& entry) {
  engine::PreparedStore::EntryOptions options;
  if (entry.prepared_size_of) options.size_of = entry.prepared_size_of;
  options.spillable = entry.spillable;
  if (entry.witness.has_view()) options.make_view = entry.witness.deserialize;
  return options;
}

// --- correctness ------------------------------------------------------------

void Verifier::Check(bool got, bool want, const char* where) {
  checked_.fetch_add(1, std::memory_order_relaxed);
  if (got == want) return;
  if (wrong_.fetch_add(1) < 5) {
    std::fprintf(stderr, "perfbench: wrong answer in %s: got %d, want %d\n",
                 where, got ? 1 : 0, want ? 1 : 0);
  }
}

void Verifier::Fail(const std::string& what) {
  if (wrong_.fetch_add(1) < 5) {
    std::fprintf(stderr, "perfbench: failure: %s\n", what.c_str());
  }
}

void CheckMemberBatch(const std::vector<bool>& answers,
                      const std::vector<std::string>& queries,
                      const std::vector<int64_t>& sorted, Verifier* verifier) {
  if (answers.size() != queries.size()) {
    verifier->Fail("answer count differs from query count");
    return;
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    verifier->Check(answers[i],
                    MemberModel(sorted, std::atoll(queries[i].c_str())),
                    "list-membership");
  }
}

// --- report -----------------------------------------------------------------

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back(Row{name, value, unit});
}

void Report::Detail(const std::string& name, double value,
                    const std::string& unit) {
  details_.push_back(Row{name, value, unit});
}

void Report::Print() const {
  for (const Row& row : details_) {
    std::printf("  detail %-40s = %.6g %s\n", row.name.c_str(), row.value,
                row.unit.c_str());
  }
  for (const Row& row : metrics_) {
    std::printf("  metric %-40s = %.6g %s\n", row.name.c_str(), row.value,
                row.unit.c_str());
  }
}

std::string Report::Json(bool correct, int64_t attempted,
                         int64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

// --- per-layer measurement --------------------------------------------------

void MeasureWarmSteps(engine::QueryEngine* eng, Tracer* tracer,
                      const std::vector<ReplayItem>& items, Report* report,
                      Verifier* verifier) {
  std::vector<double> decode_ns, kernel_ns, probe_ns, overhead_ns;
  double work = 0;
  double bytes = 0;
  double queries = 0;
  std::vector<pitract::core::DecodedQuery> decoded;
  std::vector<int64_t> scratch;
  std::vector<uint8_t> raw;
  for (size_t i = 0; i < items.size(); ++i) {
    const ReplayItem& item = items[i];
    // The whole call answers a different batch of the same part, so the
    // steps below do not run on cache lines it just touched.
    const std::vector<std::string>& other =
        *items[(i + 1) % items.size()].queries;
    const std::vector<std::string>& batch = *item.queries;
    const auto* entry = ValueOrDie(eng->Find(item.handle->problem), "entry");
    const core::PiWitness& w = entry->witness;
    const double n = static_cast<double>(batch.size());

    // Each step is timed inside its span, so span bookkeeping stays out of
    // the step's figure.
    int64_t full_ns = 0;
    pitract::Result<engine::BatchResult> full = [&] {
      Tracer::Scope span(tracer, SpanKind::kAnswerBatch, kMember);
      const int64_t t0 = NowNs();
      auto result = eng->AnswerBatch(*item.handle, other);
      full_ns = NowNs() - t0;
      return result;
    }();
    if (!full.ok()) {
      verifier->Fail("replay AnswerBatch: " + full.status().ToString());
      continue;
    }

    const engine::PreparedStore::EntryOptions options = ProbeOptions(*entry);
    engine::PreparedStore::PreparedView view;
    bool resident = false;
    int64_t probe = 0;
    {
      Tracer::Scope span(tracer, SpanKind::kTryGetView, kMember);
      const int64_t t0 = NowNs();
      resident =
          eng->store().TryGetView(item.handle->key, options, nullptr, &view);
      probe = NowNs() - t0;
    }
    if (!resident || view.view == nullptr || !w.has_batch_kernel()) continue;

    decoded.resize(batch.size());
    int64_t decode = 0;
    {
      Tracer::Scope span(tracer, SpanKind::kDecode, kMember);
      const int64_t t0 = NowNs();
      for (size_t q = 0; q < batch.size(); ++q) {
        pitract::Status s = w.decode_query(batch[q], &decoded[q], &scratch);
        if (!s.ok()) verifier->Fail("replay decode: " + s.ToString());
      }
      decode = NowNs() - t0;
    }

    raw.assign(batch.size(), 0);
    pitract::CostMeter meter;
    pitract::Status kernel_status;
    int64_t kernel = 0;
    {
      Tracer::Scope span(tracer, SpanKind::kKernel, kMember);
      const int64_t t0 = NowNs();
      kernel_status = w.answer_view_batch(view.view.get(), decoded,
                                          std::span<uint8_t>(raw), &meter);
      kernel = NowNs() - t0;
    }
    if (!kernel_status.ok()) {
      verifier->Fail("replay kernel: " + kernel_status.ToString());
      continue;
    }
    for (size_t q = 0; q < batch.size(); ++q) {
      verifier->Check(raw[q] != 0,
                      MemberModel(*item.sorted, std::atoll(batch[q].c_str())),
                      "replayed kernel");
    }
    CheckMemberBatch(full->answers, other, *item.sorted, verifier);

    decode_ns.push_back(static_cast<double>(decode) / n);
    kernel_ns.push_back(static_cast<double>(kernel) / n);
    probe_ns.push_back(static_cast<double>(probe));
    overhead_ns.push_back(
        static_cast<double>(full_ns - probe - decode - kernel) / n);
    work += static_cast<double>(full->answer_cost.work);
    bytes += static_cast<double>(full->answer_bytes_read);
    queries += n;
  }
  report->Set("witness.decode_ns_per_q", Median(decode_ns), "ns");
  report->Set("witness.kernel_ns_per_q", Median(kernel_ns), "ns");
  report->Set("store.probe_ns", Median(probe_ns), "ns");
  report->Set("engine.overhead_ns_per_q", Median(overhead_ns), "ns");
  report->Set("cost.answer_work_per_q", queries > 0 ? work / queries : 0,
              "ops");
  report->Set("cost.bytes_per_q", queries > 0 ? bytes / queries : 0, "B");
  report->Detail("replay.batches", static_cast<double>(decode_ns.size()),
                 "count");
}

namespace {

/// Wall ns per charged op of one kernel over `batches` on a resident part.
double KernelNsPerOp(engine::QueryEngine* eng,
                     const engine::DataHandle& handle,
                     const std::vector<std::vector<std::string>>& batches,
                     const std::function<bool(const std::string&)>& model,
                     Verifier* verifier) {
  const auto* entry = ValueOrDie(eng->Find(handle.problem), "entry");
  const core::PiWitness& w = entry->witness;
  auto warm = eng->AnswerBatch(handle, batches.front());
  engine::PreparedStore::PreparedView view;
  if (!warm.ok() || !w.has_batch_kernel() ||
      !eng->store().TryGetView(handle.key, ProbeOptions(*entry), nullptr,
                               &view) ||
      view.view == nullptr) {
    verifier->Fail("kernel fidelity: " + handle.problem + " has no warm view");
    return 0;
  }
  std::vector<core::DecodedQuery> decoded;
  std::vector<int64_t> scratch;
  std::vector<uint8_t> raw;
  int64_t total_ns = 0;
  pitract::CostMeter meter;
  for (const auto& batch : batches) {
    decoded.resize(batch.size());
    for (size_t q = 0; q < batch.size(); ++q) {
      if (!w.decode_query(batch[q], &decoded[q], &scratch).ok()) {
        verifier->Fail("kernel fidelity: decode");
        return 0;
      }
    }
    raw.assign(batch.size(), 0);
    const int64_t t0 = NowNs();
    pitract::Status s = w.answer_view_batch(view.view.get(), decoded,
                                            std::span<uint8_t>(raw), &meter);
    total_ns += NowNs() - t0;
    if (!s.ok()) {
      verifier->Fail("kernel fidelity: " + s.ToString());
      return 0;
    }
    for (size_t q = 0; q < batch.size(); ++q) {
      verifier->Check(raw[q] != 0, model(batch[q]), "kernel fidelity");
    }
  }
  return meter.work() > 0 ? static_cast<double>(total_ns) /
                                static_cast<double>(meter.work())
                          : 0;
}

}  // namespace

void MeasureKernelFidelity(uint64_t seed, Report* report, Verifier* verifier) {
  Rng rng(seed ^ 0xf1de1171ULL);
  auto eng = MakeEngine(engine::PreparedStore::Options{}, nullptr);
  constexpr size_t kBatches = 256;

  MemberPart member = MakeMemberPart(&rng, int64_t{1} << 16);
  auto member_queries = MemberQueries(&rng, kBatches, member.universe);
  auto mh = ValueOrDie(eng->Intern(kProblemNames[kMember], member.data),
                       "intern");
  report->Set("witness.kernel_ns_per_op.member",
              KernelNsPerOp(eng.get(), mh, member_queries,
                            [&](const std::string& q) {
                              return MemberModel(member.sorted,
                                                 std::atoll(q.c_str()));
                            },
                            verifier),
              "ns/op");

  constexpr int32_t kConnNodes = 1 << 16;
  ConnPart conn = MakeConnPart(&rng, kConnNodes, kConnNodes);
  auto conn_queries = PairQueries(&rng, kBatches, kConnNodes);
  auto ch = ValueOrDie(eng->Intern(kProblemNames[kConn], conn.data), "intern");
  report->Set("witness.kernel_ns_per_op.connectivity",
              KernelNsPerOp(eng.get(), ch, conn_queries,
                            [&](const std::string& q) {
                              auto [s, t] = ParsePair(q);
                              return conn.label[static_cast<size_t>(s)] ==
                                     conn.label[static_cast<size_t>(t)];
                            },
                            verifier),
              "ns/op");

  constexpr int32_t kReachNodes = 1 << 10;
  ReachModel reach = MakeReachModel(&rng, kReachNodes, 2 * kReachNodes);
  auto reach_queries = PairQueries(&rng, kBatches, kReachNodes);
  auto rh = ValueOrDie(
      eng->Intern(kProblemNames[kReach], EncodeReachData(reach)), "intern");
  report->Set("witness.kernel_ns_per_op.reachability",
              KernelNsPerOp(eng.get(), rh, reach_queries,
                            [&](const std::string& q) {
                              auto [s, t] = ParsePair(q);
                              return ReachQuery(reach, s, t);
                            },
                            verifier),
              "ns/op");
}

double MedianSpanMs(const std::vector<Span>& spans, SpanKind kind,
                    int problem) {
  std::vector<double> ms;
  for (const Span& s : spans) {
    if (s.kind != kind || (problem >= 0 && s.problem != problem)) continue;
    ms.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  }
  return Median(std::move(ms));
}

void ReportSpans(const std::vector<Span>& spans, Report* report) {
  report->Set("witness.pi_ms", MedianSpanMs(spans, SpanKind::kPi, kMember),
              "ms");
  report->Set("witness.view_build_ms",
              MedianSpanMs(spans, SpanKind::kViewBuild, kMember), "ms");
  report->Set("engine.intern_ms",
              MedianSpanMs(spans, SpanKind::kIntern, kMember), "ms");

  const std::vector<int64_t> self = SelfTimes(spans);
  constexpr size_t kKinds = static_cast<size_t>(SpanKind::kCount);
  std::vector<double> count(kKinds, 0), total_ms(kKinds, 0), self_ms(kKinds, 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const auto k = static_cast<size_t>(spans[i].kind);
    count[k] += 1;
    total_ms[k] +=
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
    self_ms[k] += static_cast<double>(self[i]) / 1e6;
  }
  for (size_t k = 0; k < kKinds; ++k) {
    if (count[k] == 0) continue;
    const std::string name =
        std::string("span.") + SpanName(static_cast<SpanKind>(k));
    report->Detail(name + ".count", count[k], "count");
    report->Detail(name + ".median_ms",
                   MedianSpanMs(spans, static_cast<SpanKind>(k), -1), "ms");
    report->Detail(name + ".total_ms", total_ms[k], "ms");
    report->Detail(name + ".self_ms", self_ms[k], "ms");
  }
  for (int p = 0; p < kProblems; ++p) {
    const double pi = MedianSpanMs(spans, SpanKind::kPi, p);
    if (pi > 0) {
      report->Detail(std::string("witness.pi_ms.") + kProblemNames[p], pi,
                     "ms");
    }
  }

  // Layer figures of single workloads: the delta path, persistence and
  // the Submit call.
  auto present = [&](SpanKind kind) {
    return count[static_cast<size_t>(kind)] > 0;
  };
  if (present(SpanKind::kApplyDelta)) {
    report->Detail("delta.to_data_ms",
                   MedianSpanMs(spans, SpanKind::kToData, -1), "ms");
    report->Detail("delta.patch_ms", MedianSpanMs(spans, SpanKind::kPatch, -1),
                   "ms");
    // store.update_ms: ApplyDelta minus its data rewrite and Π-patch.
    std::unordered_map<uint64_t, int64_t> hooks_ns;
    for (const Span& s : spans) {
      if (s.kind == SpanKind::kToData || s.kind == SpanKind::kPatch) {
        hooks_ns[s.parent] += s.end_ns - s.start_ns;
      }
    }
    std::vector<double> update_ms;
    for (const Span& s : spans) {
      if (s.kind != SpanKind::kApplyDelta) continue;
      update_ms.push_back(
          static_cast<double>(s.end_ns - s.start_ns - hooks_ns[s.id]) / 1e6);
    }
    report->Detail("store.update_ms", Median(std::move(update_ms)), "ms");
  }
  if (present(SpanKind::kLoad)) {
    report->Detail("store.load_s",
                   MedianSpanMs(spans, SpanKind::kLoad, -1) / 1e3, "s");
  }
  if (present(SpanKind::kSpill)) {
    report->Detail("store.spill_s",
                   MedianSpanMs(spans, SpanKind::kSpill, -1) / 1e3, "s");
  }
  if (present(SpanKind::kSubmit)) {
    report->Detail("pipeline.submit_ns",
                   MedianSpanMs(spans, SpanKind::kSubmit, -1) * 1e6, "ns");
    std::vector<double> item_us;
    for (const Span& s : spans) {
      if (s.kind == SpanKind::kCompletion) {
        item_us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
    report->Detail("pipeline.item_latency_p50_us", Median(item_us), "us");
    report->Detail("pipeline.item_latency_p99_us",
                   ReportableTail(std::move(item_us), 0.99).value, "us");
  }
}

void ReportStoreStats(const engine::PreparedStore& store,
                      const engine::PreparedStore::Stats& stats,
                      Report* report) {
  const std::pair<const char*, int64_t> counts[] = {
      {"store.hits", stats.hits},
      {"store.misses", stats.misses},
      {"store.locked_hits", stats.locked_hits},
      {"store.key_builds", stats.key_builds},
      {"store.view_builds", stats.view_builds},
      {"store.evictions", stats.evictions},
      {"store.patches", stats.patches},
      {"store.patch_fallbacks", stats.patch_fallbacks},
      {"store.lineage_resolves", stats.lineage_resolves},
  };
  for (const auto& [name, value] : counts) {
    report->Set(name, static_cast<double>(value), "count");
  }
  // The tiering counters move on churn only.
  report->Detail("store.view_demotions",
                 static_cast<double>(stats.view_demotions), "count");
  report->Detail("store.cold_demotions",
                 static_cast<double>(stats.cold_demotions), "count");
  report->Detail("store.cold_promotions",
                 static_cast<double>(stats.cold_promotions), "count");
  const double lookups = static_cast<double>(stats.hits + stats.misses);
  report->Set("store.hit_ratio",
              lookups > 0 ? static_cast<double>(stats.hits) / lookups : 0,
              "fraction");
  report->Set("store.bytes_resident_mb",
              static_cast<double>(store.bytes_resident()) / (1 << 20), "MB");
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
