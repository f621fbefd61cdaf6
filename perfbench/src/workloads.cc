#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <mutex>
#include <thread>

#include "engine/pipeline.h"
#include "engine/serve.h"
#include "stats.h"

namespace perfbench {

namespace engine = pitract::engine;
using pitract::Rng;

namespace {

constexpr int64_t kMs = 1'000'000;

/// Waits until `target_ns`: sleeping, or with `spin` busy-waiting, so an
/// open-loop generator sends on time. (On a virtual machine a sleeping
/// thread's wake-up can lag by milliseconds when its vCPU was halted; a
/// spinning generator keeps its vCPU running.)
void WaitUntil(int64_t target_ns, bool spin) {
  if (spin) {
    while (NowNs() < target_ns) __builtin_ia32_pause();
    return;
  }
  const int64_t left = target_ns - NowNs();
  if (left > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(left));
}

std::shared_ptr<const engine::DataHandle> InternOrDie(
    engine::QueryEngine* eng, Tracer* tracer, int problem, std::string data) {
  Tracer::Scope span(tracer, SpanKind::kIntern, problem);
  auto handle = eng->Intern(kProblemNames[problem], std::move(data));
  if (!handle.ok()) {
    std::fprintf(stderr, "perfbench: Intern: %s\n",
                 handle.status().ToString().c_str());
    std::exit(1);
  }
  return std::make_shared<const engine::DataHandle>(std::move(handle).value());
}

/// One AnswerBatch through a handle, recorded as a span.
pitract::Result<engine::BatchResult> Answer(
    engine::QueryEngine* eng, Tracer* tracer, int problem,
    const engine::DataHandle& handle, const std::vector<std::string>& queries) {
  Tracer::Scope span(tracer, SpanKind::kAnswerBatch, problem);
  return eng->AnswerBatch(handle, queries);
}

std::string SizesJson(
    const std::vector<std::pair<std::string, double>>& fields) {
  std::string out;
  for (const auto& [name, value] : fields) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    if (!out.empty()) out += ",";
    out += "\"" + name + "\":" + buf;
  }
  return out;
}

// --- closed loop: SubmitWorkload rounds plus a probe client ----------------

/// Closed-loop rounds through ServePipeline::SubmitWorkload, each sized to
/// about one second after a calibration round. While a round's bulk load
/// runs, the calling thread sends a probe item every kProbeGapNs through
/// ServePipeline::Submit and times it from the Submit call to its
/// completion callback: the per-item latency an interactive caller sees
/// beside the bulk load. The probe thread sleeps between sends.
struct ClosedLoop {
  engine::QueryEngine* eng = nullptr;
  const std::vector<engine::ServeWorkItem>* items = nullptr;
  int threads = 1;
  int preparers = 1;
  /// Probe residency before each probe send (a lock-free TryGetView), so
  /// warm probes can be told from cold ones.
  bool classify_probes = false;
  /// Checks a sample of answers against the model after each round.
  std::function<void(Rng*)> check_sample;
};

constexpr int64_t kRoundNs = 1000 * kMs;
constexpr int64_t kProbeGapNs = 500'000;

Measured RunClosedLoop(const ClosedLoop& loop, double seconds, Tracer* tracer,
                       Rng* rng, Report* report) {
  Measured m;
  engine::PipelineOptions options;
  options.threads = loop.threads;
  options.preparers = loop.preparers;
  const auto probe_options = ProbeOptions(
      **loop.eng->Find(kProblemNames[kMember]));
  const auto items = static_cast<int64_t>(loop.items->size());
  const int64_t budget_ns = static_cast<int64_t>(seconds * 1e9);
  std::vector<double> round_qps;
  int repeat = 1;
  int64_t round_ns = 0;
  int64_t wall_ns = 0;
  int64_t busy_ns = 0;
  int64_t probes = 0;
  const int64_t start = NowNs();
  for (bool calibrated = false;;) {
    if (calibrated && NowNs() - start >= budget_ns && round_qps.size() >= 3) {
      break;
    }
    engine::ServePipeline pipeline(loop.eng, options);
    std::vector<int64_t> sent;
    std::vector<int64_t> done;
    std::vector<uint8_t> warm;
    std::vector<uint8_t> ok;
    int64_t refused = 0;
    const int64_t t0 = NowNs();
    pipeline.SubmitWorkload(*loop.items, repeat);
    if (calibrated) {
      const int64_t probe_end = t0 + round_ns * 4 / 5;
      const auto cap = static_cast<size_t>(round_ns / kProbeGapNs + 2);
      sent.assign(cap, 0);
      done.assign(cap, 0);
      warm.assign(cap, 1);
      ok.assign(cap, 0);
      size_t i = 0;
      for (int64_t next = t0 + kProbeGapNs; i < cap && next < probe_end;
           next += kProbeGapNs, ++i) {
        WaitUntil(next, /*spin=*/false);
        engine::ServeWorkItem item = (*loop.items)[rng->NextBelow(
            static_cast<uint64_t>(items))];
        if (loop.classify_probes) {
          engine::PreparedStore::PreparedView view;
          warm[i] = loop.eng->store().TryGetView(item.handle->key,
                                                 probe_options, nullptr, &view)
                        ? 1
                        : 0;
        }
        const uint64_t request = static_cast<uint64_t>(probes) + i + 1;
        int64_t* slot = &done[i];
        uint8_t* okp = &ok[i];
        const int64_t s = NowNs();
        sent[i] = s;
        pitract::Status admit;
        {
          Tracer::Scope span(tracer, SpanKind::kSubmit, kMember, request);
          admit = pipeline.Submit(
              std::move(item),
              [slot, okp, tracer, s, request](const engine::ItemOutcome& out) {
                *slot = NowNs();
                *okp = out.status.ok() ? 1 : 0;
                if (tracer != nullptr) {
                  tracer->Record(SpanKind::kCompletion, s, *slot, request);
                }
              });
        }
        if (!admit.ok()) ++refused;
      }
      sent.resize(i);
    }
    pipeline.Drain();
    const int64_t t1 = NowNs();
    const engine::ServeReport r = pipeline.report();
    m.attempted += items * repeat + static_cast<int64_t>(sent.size());
    m.failed += r.errors + r.shed + r.deadline_expired + refused;
    if (!calibrated) {
      // Size the measured rounds from the calibration pass.
      repeat = static_cast<int>(std::max<int64_t>(1, kRoundNs / (t1 - t0)));
      round_ns = (t1 - t0) * repeat;
      calibrated = true;
      continue;
    }
    round_ns = t1 - t0;
    wall_ns += t1 - t0;
    busy_ns += r.preparer_busy_ns;
    round_qps.push_back(static_cast<double>(r.queries) * 1e9 /
                        static_cast<double>(t1 - t0));
    m.batches += r.batches;
    m.kernel_batches += r.kernel_batches;
    m.queue_depth_max = std::max(m.queue_depth_max, r.queue_depth_max);
    LatencySet& window = m.windows.emplace_back();
    for (size_t i = 0; i < sent.size(); ++i) {
      if (ok[i] == 0) continue;
      const double us = static_cast<double>(done[i] - sent[i]) / 1e3;
      window.all_us.push_back(us);
      if (warm[i] != 0) window.warm_us.push_back(us);
    }
    probes += static_cast<int64_t>(sent.size());
    if (loop.check_sample) loop.check_sample(rng);
  }
  m.qps = Median(round_qps);
  m.preparer_busy_frac =
      wall_ns > 0 ? static_cast<double>(busy_ns) /
                        (static_cast<double>(wall_ns) * loop.preparers)
                  : 0;
  report->Detail("closed_loop.rounds", static_cast<double>(round_qps.size()),
                 "count");
  report->Detail("closed_loop.items_per_round",
                 static_cast<double>(items * repeat), "count");
  report->Detail("closed_loop.probes", static_cast<double>(probes), "count");
  return m;
}

// --- warm_read --------------------------------------------------------------

/// Warm answer path only: every part interned and warmed in setup, closed
/// loop through SubmitWorkload with 4 answer workers and an idle preparer.
class WarmRead : public Workload {
 public:
  explicit WarmRead(Verifier* verifier) : verifier_(verifier) {}

  void Generate(uint64_t seed, Tracer*) override {
    Rng rng(seed);
    // Parts are numbered by zipf rank. The connectivity parts sit at fixed
    // ranks spread through the order, so the mix of kernels a run answers
    // does not depend on the seed.
    for (int part = 0; part < kParts; ++part) {
      const bool conn = part % kConnEvery == kConnEvery / 2;
      slot_.push_back(static_cast<int>(conn ? conns_.size() : members_.size()));
      conn_.push_back(conn);
      if (conn) {
        conns_.push_back(MakeConnPart(&rng, kConnNodes, kConnNodes));
      } else {
        members_.push_back(MakeMemberPart(&rng, kN));
      }
    }
    member_queries_ = MemberQueries(&rng, kQueryBatches, 2 * kN);
    conn_queries_ = PairQueries(&rng, kQueryBatches, kConnNodes);
    for (int i = 0; i < kItems; ++i) {
      plan_.emplace_back(static_cast<int>(rng.NextZipf(kParts, kZipf)),
                         static_cast<int>(rng.NextBelow(kQueryBatches)));
    }
    rng_ = std::make_unique<Rng>(seed ^ 0x5eed);
  }

  void Setup(Tracer* tracer) override {
    eng_ = MakeEngine(engine::PreparedStore::Options{}, tracer);
    handles_.clear();
    for (int p = 0; p < kParts; ++p) {
      const int problem = conn_[p] ? kConn : kMember;
      const std::string& data = conn_[p] ? Conn(p).data : Member(p).data;
      handles_.push_back(InternOrDie(eng_.get(), tracer, problem, data));
      auto warm = Answer(eng_.get(), tracer, problem, *handles_.back(),
                         Queries(p, 0));
      if (!warm.ok()) verifier_->Fail("warm-up: " + warm.status().ToString());
    }
  }

  void Teardown() override {
    items_.clear();
    handles_.clear();
    eng_.reset();
  }

  Measured Measure(double seconds, Tracer* tracer, Report* report) override {
    items_.clear();
    for (const auto& [part, q] : plan_) {
      engine::ServeWorkItem item;
      item.handle = handles_[static_cast<size_t>(part)];
      item.queries = Queries(part, q);
      items_.push_back(std::move(item));
    }
    ClosedLoop loop;
    loop.eng = eng_.get();
    loop.items = &items_;
    loop.threads = 4;
    loop.preparers = 1;
    loop.check_sample = [this](Rng* rng) {
      for (int i = 0; i < 16; ++i) CheckItem(rng->NextBelow(kItems));
    };
    return RunClosedLoop(loop, seconds, tracer, rng_.get(), report);
  }

  std::vector<ReplayItem> ReplaySample(size_t n) override {
    std::vector<ReplayItem> sample;
    for (const auto& [part, q] : plan_) {
      if (sample.size() == n) break;
      if (conn_[part]) continue;
      sample.push_back(ReplayItem{handles_[static_cast<size_t>(part)],
                                  &member_queries_[static_cast<size_t>(q)],
                                  &Member(part).sorted});
    }
    return sample;
  }

  engine::QueryEngine* engine() override { return eng_.get(); }

  std::string Sizes() const override {
    return SizesJson({{"member_parts", static_cast<double>(members_.size())},
                 {"member_n", static_cast<double>(kN)},
                 {"conn_parts", static_cast<double>(conns_.size())},
                 {"conn_nodes", kConnNodes},
                 {"conn_edges", kConnNodes},
                 {"zipf_theta", kZipf},
                 {"items", kItems},
                 {"batch", kBatch},
                 {"answer_workers", 4},
                 {"preparers", 1}});
  }

 private:
  /// 96 member and 8 connectivity parts: every 13th rank is connectivity.
  static constexpr int kParts = 104;
  static constexpr int kConnEvery = 13;
  static constexpr int64_t kN = int64_t{1} << 16;
  static constexpr int32_t kConnNodes = 1 << 16;
  static constexpr int kItems = 4096;
  static constexpr int kQueryBatches = 256;
  static constexpr double kZipf = 0.99;

  const MemberPart& Member(int part) const {
    return members_[static_cast<size_t>(slot_[static_cast<size_t>(part)])];
  }
  const ConnPart& Conn(int part) const {
    return conns_[static_cast<size_t>(slot_[static_cast<size_t>(part)])];
  }
  const std::vector<std::string>& Queries(int part, int q) const {
    return conn_[static_cast<size_t>(part)]
               ? conn_queries_[static_cast<size_t>(q)]
               : member_queries_[static_cast<size_t>(q)];
  }

  void CheckItem(uint64_t index) {
    const auto [part, q] = plan_[index];
    const bool member = !conn_[static_cast<size_t>(part)];
    auto r = eng_->AnswerBatch(*handles_[static_cast<size_t>(part)],
                               Queries(part, q));
    if (!r.ok()) {
      verifier_->Fail("check: " + r.status().ToString());
      return;
    }
    if (member) {
      CheckMemberBatch(r->answers, Queries(part, q), Member(part).sorted,
                       verifier_);
      return;
    }
    const ConnPart& conn = Conn(part);
    const auto& queries = Queries(part, q);
    for (size_t i = 0; i < queries.size(); ++i) {
      const auto [s, t] = ParsePair(queries[i]);
      verifier_->Check(r->answers[i],
                       conn.label[static_cast<size_t>(s)] ==
                           conn.label[static_cast<size_t>(t)],
                       "connectivity");
    }
  }

  Verifier* verifier_;
  std::vector<MemberPart> members_;
  std::vector<ConnPart> conns_;
  std::vector<bool> conn_;  // by part: a connectivity part
  std::vector<int> slot_;   // by part: index into members_ or conns_
  std::vector<std::vector<std::string>> member_queries_;
  std::vector<std::vector<std::string>> conn_queries_;
  std::vector<std::pair<int, int>> plan_;  // (part, query batch) per item
  std::unique_ptr<Rng> rng_;
  std::unique_ptr<engine::QueryEngine> eng_;
  std::vector<std::shared_ptr<const engine::DataHandle>> handles_;
  std::vector<engine::ServeWorkItem> items_;
};

// --- open_mixed -------------------------------------------------------------

/// Open loop: Poisson arrivals from one generator thread into
/// ServePipeline::Submit, 2 answer workers and 1 preparer. About 3% of
/// arrivals name a never-seen part and cost a full Π on the preparer.
class OpenMixed : public Workload {
 public:
  explicit OpenMixed(Verifier* verifier) : verifier_(verifier) {}

  void Generate(uint64_t seed, Tracer*) override {
    seed_ = seed;
    Rng rng(seed);
    for (int i = 0; i < kWarmParts; ++i) {
      members_.push_back(MakeMemberPart(&rng, kN));
    }
    queries_ = MemberQueries(&rng, kQueryBatches, 2 * kN);
    data_bytes_ = members_.front().data.size();
  }

  void Setup(Tracer* tracer) override {
    // Never-seen parts stream through the store: the byte budget keeps the
    // warm set plus the most recent cold parts resident.
    engine::PreparedStore::Options options;
    options.tiered = false;
    options.byte_budget =
        kBytesPerPart * data_bytes_ * (kWarmParts + kColdSlots);
    eng_ = MakeEngine(options, tracer);
    handles_.clear();
    for (int p = 0; p < kWarmParts; ++p) {
      handles_.push_back(InternOrDie(eng_.get(), tracer, kMember,
                                     members_[static_cast<size_t>(p)].data));
      auto warm = Answer(eng_.get(), tracer, kMember, *handles_.back(),
                         queries_.front());
      if (!warm.ok()) verifier_->Fail("warm-up: " + warm.status().ToString());
    }
  }

  void Teardown() override {
    handles_.clear();
    eng_.reset();
  }

  Measured Measure(double seconds, Tracer* tracer, Report* report) override {
    Measured m;
    std::vector<double> late_us;
    std::vector<double> cold_outcome_us;
    std::vector<Rung> rungs;
    Rung reference{kReferenceRate, 0, false};
    std::vector<double> reference_p99;
    int64_t wall_ns = 0;
    int64_t busy_ns = 0;
    int64_t answered = 0;
    int window = 0;
    // The reference rate, in windows; each window's percentiles count once.
    for (int w = 0; w < kReferenceWindows; ++w) {
      Window r = RunWindow(kReferenceRate, seconds * kReferenceShare /
                                               kReferenceWindows,
                           window++, tracer);
      reference_p99.push_back(ReportableTail(r.latency.all_us, 0.99).value);
      late_us.insert(late_us.end(), r.late_us.begin(), r.late_us.end());
      cold_outcome_us.insert(cold_outcome_us.end(), r.cold_outcome_us.begin(),
                             r.cold_outcome_us.end());
      m.windows.push_back(std::move(r.latency));
      reference.backlog_grows |= r.backlog_grows;
      m.attempted += r.attempted;
      m.failed += r.failed;
      m.batches += r.report.batches;
      m.kernel_batches += r.report.kernel_batches;
      m.queue_depth_max = std::max(m.queue_depth_max, r.report.queue_depth_max);
      busy_ns += r.report.preparer_busy_ns;
      wall_ns += r.wall_ns;
      answered += r.report.queries;
    }
    reference.p99_us = Median(reference_p99);
    rungs.push_back(reference);
    // The rest of the fixed ladder, one window per rung.
    const double rung_seconds =
        seconds * (1 - kReferenceShare) / std::size(kLadder);
    for (double rate : kLadder) {
      Window r = RunWindow(rate, rung_seconds, window++, tracer);
      const Rung rung{rate, ReportableTail(r.latency.all_us, 0.99).value,
                      r.backlog_grows};
      rungs.push_back(rung);
      m.attempted += r.attempted;
      m.failed += r.failed;
      char name[64];
      std::snprintf(name, sizeof(name), "ladder.%d.p99_us",
                    static_cast<int>(rate));
      report->Detail(name, rung.p99_us, "us");
      std::snprintf(name, sizeof(name), "ladder.%d.backlog_grows",
                    static_cast<int>(rate));
      report->Detail(name, rung.backlog_grows ? 1 : 0, "bool");
    }
    m.qps = wall_ns > 0 ? static_cast<double>(answered) * 1e9 /
                              static_cast<double>(wall_ns)
                        : 0;
    m.preparer_busy_frac = wall_ns > 0 ? static_cast<double>(busy_ns) /
                                             static_cast<double>(wall_ns)
                                       : 0;
    report->Detail("slo_rate", SloRate(rungs, kP99LimitUs), "1/s");
    report->Detail("slo_rate.p99_limit_us", kP99LimitUs, "us");
    const Tail late = ReportableTail(late_us, 0.99);
    report->Detail("loadgen.late_p99_us", late.value, "us");
    report->Detail("loadgen.late_quantile", late.quantile, "fraction");
    report->Detail("pipeline.cold_item_latency_p50_us", Median(cold_outcome_us),
                   "us");
    if (tracer != nullptr) {
      // Park wait: a cold item's latency minus the Π and view build it
      // waited for.
      const std::vector<Span> spans = tracer->Collect();
      const double build_us =
          1e3 * (MedianSpanMs(spans, SpanKind::kPi, kMember) +
                 MedianSpanMs(spans, SpanKind::kViewBuild, kMember));
      report->Detail("pipeline.park_wait_us",
                     Median(cold_outcome_us) - build_us, "us");
    }
    return m;
  }

  std::vector<ReplayItem> ReplaySample(size_t n) override {
    std::vector<ReplayItem> sample;
    Rng rng(seed_ ^ 0x2e91a7);
    for (size_t i = 0; i < n; ++i) {
      const auto p = rng.NextZipf(kWarmParts, kZipf);
      sample.push_back(ReplayItem{handles_[p],
                                  &queries_[rng.NextBelow(kQueryBatches)],
                                  &members_[p].sorted});
    }
    return sample;
  }

  engine::QueryEngine* engine() override { return eng_.get(); }

  std::string Sizes() const override {
    std::vector<std::pair<std::string, double>> fields = {
        {"warm_parts", kWarmParts},
        {"member_n", static_cast<double>(kN)},
        {"cold_every", kColdEvery},
        {"reference_windows", kReferenceWindows},
        {"zipf_theta", kZipf},
        {"batch", kBatch},
        {"answer_workers", 2},
        {"preparers", 1},
        {"reference_rate", kReferenceRate},
        {"p99_limit_us", kP99LimitUs},
        {"byte_budget_mb", static_cast<double>(kBytesPerPart * data_bytes_ *
                                               (kWarmParts + kColdSlots)) /
                               (1 << 20)}};
    for (double rate : kLadder) {
      fields.emplace_back(
          "ladder_rate_" + std::to_string(static_cast<int>(rate)), rate);
    }
    return SizesJson(fields);
  }

 private:
  static constexpr int kWarmParts = 32;
  static constexpr int64_t kN = int64_t{1} << 16;
  static constexpr int kQueryBatches = 256;
  static constexpr double kZipf = 0.99;
  /// Every kColdEvery-th arrival (from a random phase per window) names a
  /// never-seen part: about 3%, spaced evenly so the preparer's load does
  /// not depend on how a seed happens to cluster them.
  static constexpr int kColdEvery = 33;
  static constexpr double kReferenceRate = 1500;
  /// Share of the run spent at the reference rate, and its window count.
  static constexpr double kReferenceShare = 0.6;
  static constexpr int kReferenceWindows = 6;
  static constexpr double kLadder[] = {750, 2250, 3000, 3750};
  static constexpr double kP99LimitUs = 50'000;
  /// Resident bytes per part ≈ key (the data) + payload + view.
  static constexpr size_t kBytesPerPart = 4;
  static constexpr int kColdSlots = 16;
  static constexpr int64_t kBacklogSampleNs = 10 * kMs;

  struct Window {
    LatencySet latency;
    std::vector<double> late_us;
    std::vector<double> cold_outcome_us;
    bool backlog_grows = false;
    int64_t attempted = 0;
    int64_t failed = 0;
    int64_t wall_ns = 0;
    engine::ServeReport report;
  };

  /// One window of Poisson arrivals at `rate` for `seconds`. Latency runs
  /// from each arrival's scheduled send time to its completion callback.
  Window RunWindow(double rate, double seconds, int index, Tracer* tracer) {
    Rng rng(seed_ * 1000003 + static_cast<uint64_t>(index) + 1);
    // Arrival plan: offsets, and which arrivals are cold.
    std::vector<int64_t> offset;
    std::vector<uint8_t> cold;
    const auto phase = rng.NextBelow(kColdEvery);
    for (double t = 0;;) {
      const double u = std::min(rng.NextDouble(), 0.999999999);
      t += -std::log(1.0 - u) / rate;
      if (t >= seconds) break;
      cold.push_back((offset.size() + phase) % kColdEvery == 0 ? 1 : 0);
      offset.push_back(static_cast<int64_t>(t * 1e9));
    }
    const size_t n = offset.size();
    // Never-seen parts: one random base list per window; cold part k
    // replaces its first value with k, so every part is distinct and costs
    // a full Π.
    std::vector<int64_t> base;
    for (int64_t i = 0; i < kN; ++i) {
      base.push_back(static_cast<int64_t>(rng.NextBelow(2 * kN)));
    }
    base[0] = 2 * kN - 1;
    const std::string encoded = EncodeMemberData(2 * kN, base);
    const size_t first = encoded.find('#') + 1;
    const size_t tail = encoded.find(',', first);
    const std::string head = encoded.substr(0, first);
    std::vector<engine::ServeWorkItem> items(n);
    std::vector<int> warm_part(n, -1);
    std::vector<std::pair<std::string, std::vector<int64_t>>> cold_checks;
    int64_t cold_count = 0;
    for (size_t i = 0; i < n; ++i) {
      engine::ServeWorkItem& item = items[i];
      item.queries = queries_[rng.NextBelow(kQueryBatches)];
      if (cold[i] != 0) {
        item.problem = kProblemNames[kMember];
        item.data = head + std::to_string(cold_count);
        item.data.append(encoded, tail);
        if (cold_checks.size() < 2) {
          std::vector<int64_t> values = base;
          values[0] = cold_count;
          std::sort(values.begin(), values.end());
          cold_checks.emplace_back(item.data, std::move(values));
        }
        ++cold_count;
      } else {
        warm_part[i] = static_cast<int>(rng.NextZipf(kWarmParts, kZipf));
        item.handle = handles_[static_cast<size_t>(warm_part[i])];
      }
    }

    engine::PipelineOptions options;
    options.threads = 2;
    options.preparers = 1;
    Window w;
    std::vector<int64_t> done(n, 0);
    std::vector<int64_t> outcome_ns(n, 0);
    std::vector<uint8_t> ok(n, 0);
    std::vector<uint8_t> admitted(n, 0);
    std::vector<double> outstanding;
    std::atomic<int64_t> completed{0};
    int64_t refused = 0;
    const int64_t start = NowNs() + kMs;
    {
      engine::ServePipeline pipeline(eng_.get(), options);
      int64_t next_sample = start;
      for (size_t i = 0; i < n; ++i) {
        const int64_t target = start + offset[i];
        WaitUntil(target, /*spin=*/true);
        const int64_t s = NowNs();
        w.late_us.push_back(static_cast<double>(s - target) / 1e3);
        int64_t* slot = &done[i];
        int64_t* outcome = &outcome_ns[i];
        uint8_t* okp = &ok[i];
        std::atomic<int64_t>* completed_ptr = &completed;
        const uint64_t request = i + 1;
        pitract::Status admit;
        {
          Tracer::Scope span(tracer, SpanKind::kSubmit, kMember, request);
          admit = pipeline.Submit(
              std::move(items[i]),
              [slot, outcome, okp, completed_ptr, tracer, s,
               request](const engine::ItemOutcome& out) {
                *slot = NowNs();
                *outcome = out.latency_ns;
                *okp = out.status.ok() ? 1 : 0;
                if (tracer != nullptr) {
                  tracer->Record(SpanKind::kCompletion, s, *slot, request);
                }
                completed_ptr->fetch_add(1, std::memory_order_release);
              });
        }
        if (admit.ok()) {
          admitted[i] = 1;
        } else {
          ++refused;
        }
        if (s >= next_sample) {
          outstanding.push_back(static_cast<double>(
              static_cast<int64_t>(i + 1) - refused -
              completed.load(std::memory_order_acquire)));
          next_sample += kBacklogSampleNs;
        }
      }
      pipeline.Drain();
      w.wall_ns = NowNs() - start;
      w.report = pipeline.report();
    }
    w.attempted = static_cast<int64_t>(n);
    w.failed = w.report.errors + w.report.shed + w.report.deadline_expired +
               refused;
    for (size_t i = 0; i < n; ++i) {
      if (admitted[i] == 0 || ok[i] == 0) continue;
      const double us = static_cast<double>(done[i] - start - offset[i]) / 1e3;
      w.latency.all_us.push_back(us);
      if (cold[i] == 0) {
        w.latency.warm_us.push_back(us);
      } else {
        w.cold_outcome_us.push_back(static_cast<double>(outcome_ns[i]) / 1e3);
      }
    }
    w.backlog_grows =
        BacklogGrows(outstanding, rate * kP99LimitUs / 1e6);

    // Correctness: a sample of warm parts, and the sampled cold parts.
    for (int c = 0; c < 8; ++c) {
      const auto p = rng.NextBelow(kWarmParts);
      const auto& queries = queries_[rng.NextBelow(kQueryBatches)];
      auto r = eng_->AnswerBatch(*handles_[p], queries);
      if (!r.ok()) {
        verifier_->Fail("check: " + r.status().ToString());
        continue;
      }
      CheckMemberBatch(r->answers, queries, members_[p].sorted, verifier_);
    }
    for (const auto& [data, sorted] : cold_checks) {
      const auto& queries = queries_[rng.NextBelow(kQueryBatches)];
      auto r = eng_->AnswerBatch(kProblemNames[kMember], data, queries);
      if (!r.ok()) {
        verifier_->Fail("cold check: " + r.status().ToString());
        continue;
      }
      CheckMemberBatch(r->answers, queries, sorted, verifier_);
    }
    return w;
  }

  Verifier* verifier_;
  uint64_t seed_ = 0;
  size_t data_bytes_ = 0;
  std::vector<MemberPart> members_;
  std::vector<std::vector<std::string>> queries_;
  std::unique_ptr<engine::QueryEngine> eng_;
  std::vector<std::shared_ptr<const engine::DataHandle>> handles_;
};

// --- read_write -------------------------------------------------------------

/// Three closed-loop readers answer zipf-picked member parts through
/// QueryEngine::AnswerBatch(handle) while one writer applies single-op
/// deltas at a fixed rate to the hottest parts, re-interns the post-delta
/// data and publishes the new handle.
class ReadWrite : public Workload {
 public:
  explicit ReadWrite(Verifier* verifier) : verifier_(verifier) {}

  void Generate(uint64_t seed, Tracer*) override {
    seed_ = seed;
    Rng rng(seed);
    for (int i = 0; i < kMemberParts; ++i) {
      members_.push_back(MakeMemberPart(&rng, kN));
    }
    for (int i = 0; i < kReachParts; ++i) {
      reaches_.push_back(MakeReachModel(&rng, kReachNodes, kReachEdges));
    }
    queries_ = MemberQueries(&rng, kQueryBatches, 2 * kN);
  }

  void Setup(Tracer* tracer) override {
    eng_ = MakeEngine(engine::PreparedStore::Options{}, tracer);
    slots_ = std::vector<Slot>(kMemberParts + kReachParts);
    for (int p = 0; p < kMemberParts + kReachParts; ++p) {
      auto version = std::make_shared<Version>();
      if (p < kMemberParts) {
        const MemberPart& part = members_[static_cast<size_t>(p)];
        version->handle = InternOrDie(eng_.get(), tracer, kMember, part.data);
        version->sorted =
            std::make_shared<const std::vector<int64_t>>(part.sorted);
        auto warm = Answer(eng_.get(), tracer, kMember, *version->handle,
                           queries_.front());
        if (!warm.ok()) verifier_->Fail("warm-up: " + warm.status().ToString());
      } else {
        const ReachModel& model =
            reaches_[static_cast<size_t>(p - kMemberParts)];
        version->handle =
            InternOrDie(eng_.get(), tracer, kReach, EncodeReachData(model));
        version->reach = std::make_shared<const ReachModel>(model);
        auto warm = Answer(eng_.get(), tracer, kReach, *version->handle,
                           {"0#1"});
        if (!warm.ok()) verifier_->Fail("warm-up: " + warm.status().ToString());
      }
      slots_[static_cast<size_t>(p)].current = std::move(version);
    }
  }

  void Teardown() override {
    slots_.clear();
    keepalive_.clear();
    eng_.reset();
  }

  Measured Measure(double seconds, Tracer* tracer, Report* report) override {
    Measured m;
    std::atomic<bool> stop{false};
    std::vector<ReaderTally> tallies(kReaders);
    std::vector<std::thread> readers;
    const int64_t start = NowNs();
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([this, t, start, tracer, &stop, &tallies] {
        ReaderLoop(t, start, tracer, &stop, &tallies[static_cast<size_t>(t)]);
      });
    }
    // The writer: fixed-rate single-op deltas on this thread.
    Rng rng(seed_ ^ 0x3717e5);
    WriterTally writer;
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    const int64_t period = static_cast<int64_t>(1e9 / kWriteRate);
    for (int64_t next = start + period; next < end; next += period) {
      WaitUntil(next, /*spin=*/false);
      ApplyOne(&rng, tracer, &writer);
    }
    stop.store(true);
    for (std::thread& reader : readers) reader.join();
    const int64_t wall = NowNs() - start;

    int64_t queries = 0;
    for (const ReaderTally& tally : tallies) {
      m.windows.resize(std::max(m.windows.size(), tally.slices.size()));
      for (size_t w = 0; w < tally.slices.size(); ++w) {
        const LatencySet& slice = tally.slices[w];
        LatencySet& window = m.windows[w];
        window.all_us.insert(window.all_us.end(), slice.all_us.begin(),
                             slice.all_us.end());
        window.warm_us.insert(window.warm_us.end(), slice.warm_us.begin(),
                              slice.warm_us.end());
      }
      queries += tally.queries;
      m.batches += tally.batches;
      m.kernel_batches += tally.kernel_batches;
      m.attempted += tally.batches + tally.failed;
      m.failed += tally.failed;
    }
    m.attempted += writer.attempted;
    m.failed += writer.failed;
    m.qps = static_cast<double>(queries) * 1e9 / static_cast<double>(wall);

    const Tail p99 = ReportableTail(writer.latency_ms, 0.99);
    report->Detail("delta_p50_ms", Median(writer.latency_ms), "ms");
    report->Detail("delta_p99_ms", p99.value, "ms");
    report->Detail("delta_p99_ms.quantile", p99.quantile, "fraction");
    report->Detail("delta.count", static_cast<double>(writer.latency_ms.size()),
                   "count");
    report->Detail("delta.member_p50_ms", Median(writer.member_ms), "ms");
    report->Detail("delta.reach_p50_ms", Median(writer.reach_ms), "ms");
    report->Detail("delta.patched", static_cast<double>(writer.patched),
                   "count");
    return m;
  }

  std::vector<ReplayItem> ReplaySample(size_t n) override {
    std::vector<ReplayItem> sample;
    Rng rng(seed_ ^ 0x2e91a7);
    for (size_t i = 0; i < n; ++i) {
      const auto p = rng.NextZipf(kMemberParts, kZipf);
      std::shared_ptr<const Version> v = Current(p);
      keepalive_.push_back(v);
      sample.push_back(ReplayItem{v->handle,
                                  &queries_[rng.NextBelow(kQueryBatches)],
                                  v->sorted.get()});
    }
    return sample;
  }

  engine::QueryEngine* engine() override { return eng_.get(); }

  std::string Sizes() const override {
    return SizesJson({{"member_parts", kMemberParts},
                 {"member_n", static_cast<double>(kN)},
                 {"reach_parts", kReachParts},
                 {"reach_nodes", kReachNodes},
                 {"reach_edges", kReachEdges},
                 {"zipf_theta", kZipf},
                 {"readers", kReaders},
                 {"writers", 1},
                 {"write_rate", kWriteRate},
                 {"write_targets", kHotParts},
                 {"reach_write_fraction", 0.25},
                 {"batch", kBatch}});
  }

 private:
  static constexpr int kMemberParts = 16;
  static constexpr int kReachParts = 4;
  static constexpr int kHotParts = 4;
  static constexpr int64_t kN = int64_t{1} << 16;
  static constexpr int32_t kReachNodes = 1 << 10;
  static constexpr int64_t kReachEdges = 2 << 10;
  static constexpr int kQueryBatches = 256;
  static constexpr double kZipf = 0.99;
  static constexpr int kReaders = 3;
  static constexpr double kWriteRate = 40;
  static constexpr int64_t kSliceNs = 1000 * kMs;

  /// One published version of a part: its handle and the model answers are
  /// checked against.
  struct Version {
    std::shared_ptr<const engine::DataHandle> handle;
    std::shared_ptr<const std::vector<int64_t>> sorted;
    std::shared_ptr<const ReachModel> reach;
  };
  /// A part's publication point. Readers re-read `current` under the mutex
  /// only when `version` moved, so the read path shares no written line.
  struct alignas(64) Slot {
    std::atomic<uint64_t> version{0};
    std::mutex mu;
    std::shared_ptr<const Version> current;  // guarded by mu
  };
  struct ReaderTally {
    /// Latency samples by one-second slice of the run.
    std::vector<LatencySet> slices;
    int64_t queries = 0;
    int64_t batches = 0;
    int64_t kernel_batches = 0;
    int64_t failed = 0;
  };
  struct WriterTally {
    std::vector<double> latency_ms;
    std::vector<double> member_ms;
    std::vector<double> reach_ms;
    int64_t attempted = 0;
    int64_t failed = 0;
    int64_t patched = 0;
  };

  std::shared_ptr<const Version> Current(size_t p) {
    std::lock_guard<std::mutex> lock(slots_[p].mu);
    return slots_[p].current;
  }

  void Publish(size_t p, std::shared_ptr<const Version> v) {
    std::lock_guard<std::mutex> lock(slots_[p].mu);
    slots_[p].current = std::move(v);
    slots_[p].version.fetch_add(1, std::memory_order_release);
  }

  void ReaderLoop(int t, int64_t start, Tracer* tracer,
                  const std::atomic<bool>* stop, ReaderTally* tally) {
    Rng rng(seed_ * 7919 + static_cast<uint64_t>(t) + 1);
    std::vector<std::pair<uint64_t, std::shared_ptr<const Version>>> cache(
        kMemberParts);
    while (!stop->load(std::memory_order_relaxed)) {
      const auto p = rng.NextZipf(kMemberParts, kZipf);
      auto& [seen, version] = cache[p];
      const uint64_t now = slots_[p].version.load(std::memory_order_acquire);
      if (version == nullptr || seen != now) {
        seen = now;
        version = Current(p);
      }
      const auto& queries = queries_[rng.NextBelow(kQueryBatches)];
      const int64_t t0 = NowNs();
      auto r = Answer(eng_.get(), tracer, kMember, *version->handle, queries);
      const double us = static_cast<double>(NowNs() - t0) / 1e3;
      if (!r.ok()) {
        ++tally->failed;
        verifier_->Fail("read: " + r.status().ToString());
        continue;
      }
      const auto slice = static_cast<size_t>((t0 - start) / kSliceNs);
      if (tally->slices.size() <= slice) tally->slices.resize(slice + 1);
      tally->slices[slice].all_us.push_back(us);
      if (r->cache_hit) tally->slices[slice].warm_us.push_back(us);
      tally->queries += static_cast<int64_t>(queries.size());
      ++tally->batches;
      if (r->mode == engine::BatchAnswerMode::kKernel) ++tally->kernel_batches;
      if (tally->batches % 16 == 0) {
        CheckMemberBatch(r->answers, queries, *version->sorted, verifier_);
      }
    }
  }

  /// One single-op delta: ApplyDelta, then Intern of the post-delta data
  /// (timed together, as the writer sees it), then the model update and
  /// the publish.
  void ApplyOne(Rng* rng, Tracer* tracer, WriterTally* tally) {
    const bool reach = rng->NextBelow(4) == 0;
    const size_t p = reach ? kMemberParts + rng->NextZipf(kReachParts, kZipf)
                           : rng->NextZipf(kHotParts, kZipf);
    const int problem = reach ? kReach : kMember;
    std::shared_ptr<const Version> cur = Current(p);
    auto next = std::make_shared<Version>();
    engine::DeltaOp op;
    if (reach) {
      auto model = std::make_shared<ReachModel>(*cur->reach);
      if (!EdgeOp(rng, model.get(), &op)) return;
      next->reach = std::move(model);
    } else {
      auto sorted = std::make_shared<std::vector<int64_t>>(*cur->sorted);
      ListOp(rng, sorted.get(), &op);
      next->sorted = std::move(sorted);
    }
    engine::DeltaBatch batch;
    batch.ops.push_back(op);
    ++tally->attempted;
    const int64_t t0 = NowNs();
    pitract::Result<engine::DeltaOutcome> outcome = [&] {
      Tracer::Scope span(tracer, SpanKind::kApplyDelta, problem);
      return eng_->ApplyDelta(kProblemNames[problem], *cur->handle->data,
                              batch);
    }();
    if (!outcome.ok()) {
      ++tally->failed;
      verifier_->Fail("ApplyDelta: " + outcome.status().ToString());
      return;
    }
    const bool patched = outcome->patched;
    next->handle = InternOrDie(eng_.get(), tracer, problem,
                               std::move(outcome->new_data));
    const double ms = static_cast<double>(NowNs() - t0) / 1e6;
    tally->latency_ms.push_back(ms);
    (reach ? tally->reach_ms : tally->member_ms).push_back(ms);
    if (patched) ++tally->patched;
    std::shared_ptr<const Version> published = next;
    Publish(p, published);
    if (reach) CheckReach(rng, *published);
  }

  /// A list op valid on `sorted`, applied to it: insert, delete or update.
  static void ListOp(Rng* rng, std::vector<int64_t>* sorted,
                     engine::DeltaOp* op) {
    const auto kind = rng->NextBelow(3);
    const int64_t fresh = static_cast<int64_t>(rng->NextBelow(2 * kN));
    const auto at = rng->NextBelow(sorted->size());
    const int64_t existing = (*sorted)[at];
    if (kind == 0) {
      op->kind = engine::DeltaOp::Kind::kListInsert;
      op->a = fresh;
    } else {
      sorted->erase(sorted->begin() + static_cast<std::ptrdiff_t>(at));
      op->kind = kind == 1 ? engine::DeltaOp::Kind::kListDelete
                           : engine::DeltaOp::Kind::kValueUpdate;
      op->a = existing;
      op->b = fresh;
      if (kind == 1) return;
    }
    sorted->insert(std::lower_bound(sorted->begin(), sorted->end(), fresh),
                   fresh);
  }

  /// An edge insert or delete valid on `model`, applied to it.
  static bool EdgeOp(Rng* rng, ReachModel* model, engine::DeltaOp* op) {
    const bool insert = rng->NextBelow(2) == 0 || model->edges == 0;
    for (int attempt = 0; attempt < 64; ++attempt) {
      const auto u = static_cast<int32_t>(rng->NextBelow(kReachNodes));
      auto& adj = model->out[static_cast<size_t>(u)];
      if (insert) {
        const auto v = static_cast<int32_t>(rng->NextBelow(kReachNodes));
        auto it = std::lower_bound(adj.begin(), adj.end(), v);
        if (u == v || (it != adj.end() && *it == v)) continue;
        adj.insert(it, v);
        ++model->edges;
        *op = {engine::DeltaOp::Kind::kEdgeInsert, u, v};
        return true;
      }
      if (adj.empty()) continue;
      const auto at = rng->NextBelow(adj.size());
      const int32_t v = adj[at];
      adj.erase(adj.begin() + static_cast<std::ptrdiff_t>(at));
      --model->edges;
      *op = {engine::DeltaOp::Kind::kEdgeDelete, u, v};
      return true;
    }
    return false;
  }

  void CheckReach(Rng* rng, const Version& v) {
    std::vector<std::string> queries;
    for (int i = 0; i < 16; ++i) {
      queries.push_back(std::to_string(rng->NextBelow(kReachNodes)) + "#" +
                        std::to_string(rng->NextBelow(kReachNodes)));
    }
    auto r = eng_->AnswerBatch(*v.handle, queries);
    if (!r.ok()) {
      verifier_->Fail("reach check: " + r.status().ToString());
      return;
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      const auto [s, t] = ParsePair(queries[i]);
      verifier_->Check(r->answers[i], ReachQuery(*v.reach, s, t),
                       "graph-reachability");
    }
  }

  Verifier* verifier_;
  uint64_t seed_ = 0;
  std::vector<MemberPart> members_;
  std::vector<ReachModel> reaches_;
  std::vector<std::vector<std::string>> queries_;
  std::unique_ptr<engine::QueryEngine> eng_;
  std::vector<Slot> slots_;
  std::vector<std::shared_ptr<const Version>> keepalive_;
};

// --- churn ------------------------------------------------------------------

/// Over-budget serving after a restart: a prior engine spills 256 member
/// parts, a fresh engine with a byte budget of a quarter of their resident
/// size Loads them (timed as setup), then a closed loop through
/// SubmitWorkload runs with 3 answer workers and 1 preparer.
class Churn : public Workload {
 public:
  Churn(const std::string& scratch, Verifier* verifier)
      : verifier_(verifier),
        spill_dir_(scratch + "/spill-" + std::to_string(getpid())) {}
  ~Churn() override {
    std::error_code ec;
    std::filesystem::remove_all(spill_dir_, ec);
  }

  void Generate(uint64_t seed, Tracer* tracer) override {
    Rng rng(seed);
    for (int i = 0; i < kParts; ++i) {
      members_.push_back(MakeMemberPart(&rng, kN));
    }
    queries_ = MemberQueries(&rng, kQueryBatches, 2 * kN);
    const auto ranks = rng.Permutation(kParts);
    for (int i = 0; i < kItems; ++i) {
      plan_.emplace_back(
          static_cast<int>(ranks[rng.NextZipf(kParts, kZipf)]),
          static_cast<int>(rng.NextBelow(kQueryBatches)));
    }
    rng_ = std::make_unique<Rng>(seed ^ 0xc4a2);

    // The prior engine: every part prepared, then spilled.
    std::error_code ec;
    std::filesystem::remove_all(spill_dir_, ec);
    auto prior = MakeEngine(engine::PreparedStore::Options{}, tracer);
    for (const MemberPart& part : members_) {
      auto handle = InternOrDie(prior.get(), tracer, kMember, part.data);
      auto warm = Answer(prior.get(), tracer, kMember, *handle, queries_[0]);
      if (!warm.ok()) verifier_->Fail("prior: " + warm.status().ToString());
    }
    total_bytes_ = prior->store().bytes_resident();
    pitract::Status spilled = [&] {
      Tracer::Scope span(tracer, SpanKind::kSpill, kMember);
      return prior->store().Spill(spill_dir_);
    }();
    if (!spilled.ok()) verifier_->Fail("Spill: " + spilled.ToString());
  }

  void Setup(Tracer* tracer) override {
    engine::PreparedStore::Options options;
    options.byte_budget = total_bytes_ / 4;
    options.tiered = true;
    eng_ = MakeEngine(options, tracer);
    pitract::Result<size_t> loaded = [&] {
      Tracer::Scope span(tracer, SpanKind::kLoad, kMember);
      return eng_->store().Load(spill_dir_);
    }();
    if (!loaded.ok() || *loaded != static_cast<size_t>(kParts)) {
      verifier_->Fail("Load did not restore every spilled part");
    }
    handles_.clear();
    for (const MemberPart& part : members_) {
      handles_.push_back(InternOrDie(eng_.get(), tracer, kMember, part.data));
    }
  }

  void Teardown() override {
    items_.clear();
    handles_.clear();
    eng_.reset();
  }

  Measured Measure(double seconds, Tracer* tracer, Report* report) override {
    items_.clear();
    for (const auto& [part, q] : plan_) {
      engine::ServeWorkItem item;
      item.handle = handles_[static_cast<size_t>(part)];
      item.queries = queries_[static_cast<size_t>(q)];
      items_.push_back(std::move(item));
    }
    ClosedLoop loop;
    loop.eng = eng_.get();
    loop.items = &items_;
    loop.threads = 3;
    loop.preparers = 1;
    loop.classify_probes = true;
    loop.check_sample = [this](Rng* rng) {
      for (int i = 0; i < 16; ++i) {
        const auto [part, q] = plan_[rng->NextBelow(kItems)];
        auto r = eng_->AnswerBatch(*handles_[static_cast<size_t>(part)],
                                   queries_[static_cast<size_t>(q)]);
        if (!r.ok()) {
          verifier_->Fail("check: " + r.status().ToString());
          continue;
        }
        CheckMemberBatch(r->answers, queries_[static_cast<size_t>(q)],
                         members_[static_cast<size_t>(part)].sorted, verifier_);
      }
    };
    Measured m = RunClosedLoop(loop, seconds, tracer, rng_.get(), report);
    report->Detail("churn.byte_budget_mb",
                   static_cast<double>(total_bytes_ / 4) / (1 << 20), "MB");
    return m;
  }

  std::vector<ReplayItem> ReplaySample(size_t n) override {
    std::vector<ReplayItem> sample;
    for (const auto& [part, q] : plan_) {
      if (sample.size() == n) break;
      sample.push_back(ReplayItem{handles_[static_cast<size_t>(part)],
                                  &queries_[static_cast<size_t>(q)],
                                  &members_[static_cast<size_t>(part)].sorted});
    }
    return sample;
  }

  engine::QueryEngine* engine() override { return eng_.get(); }

  std::string Sizes() const override {
    return SizesJson({{"parts", kParts},
                 {"member_n", static_cast<double>(kN)},
                 {"zipf_theta", kZipf},
                 {"items", kItems},
                 {"batch", kBatch},
                 {"answer_workers", 3},
                 {"preparers", 1},
                 {"resident_mb", static_cast<double>(total_bytes_) / (1 << 20)},
                 {"byte_budget_mb",
                  static_cast<double>(total_bytes_ / 4) / (1 << 20)}});
  }

 private:
  static constexpr int kParts = 256;
  static constexpr int64_t kN = int64_t{1} << 14;
  static constexpr int kItems = 4096;
  static constexpr int kQueryBatches = 256;
  static constexpr double kZipf = 0.8;

  Verifier* verifier_;
  const std::string spill_dir_;
  size_t total_bytes_ = 0;
  std::vector<MemberPart> members_;
  std::vector<std::vector<std::string>> queries_;
  std::vector<std::pair<int, int>> plan_;
  std::unique_ptr<Rng> rng_;
  std::unique_ptr<engine::QueryEngine> eng_;
  std::vector<std::shared_ptr<const engine::DataHandle>> handles_;
  std::vector<engine::ServeWorkItem> items_;
};

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"warm_read", "open_mixed", "read_write", "churn"};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& scratch,
                                       Verifier* verifier) {
  if (name == "warm_read") return std::make_unique<WarmRead>(verifier);
  if (name == "open_mixed") return std::make_unique<OpenMixed>(verifier);
  if (name == "read_write") return std::make_unique<ReadWrite>(verifier);
  if (name == "churn") return std::make_unique<Churn>(scratch, verifier);
  return nullptr;
}

}  // namespace perfbench
