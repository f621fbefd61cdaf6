#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <unordered_map>

#include "stats.h"

namespace perfbench {

namespace {

constexpr size_t kMaxSpansPerThread = size_t{1} << 18;

std::atomic<uint64_t> g_generation{0};

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kIntern: return "engine.Intern";
    case SpanKind::kAnswerBatch: return "engine.AnswerBatch";
    case SpanKind::kTryGetView: return "store.TryGetView";
    case SpanKind::kSubmit: return "pipeline.Submit";
    case SpanKind::kCompletion: return "pipeline.completion";
    case SpanKind::kApplyDelta: return "engine.ApplyDelta";
    case SpanKind::kSpill: return "store.Spill";
    case SpanKind::kLoad: return "store.Load";
    case SpanKind::kPi: return "witness.preprocess";
    case SpanKind::kViewBuild: return "witness.deserialize";
    case SpanKind::kPatch: return "witness.prepared_patch";
    case SpanKind::kToData: return "witness.apply_delta_to_data";
    case SpanKind::kDecode: return "witness.decode_query";
    case SpanKind::kKernel: return "witness.answer_view_batch";
    case SpanKind::kCount: break;
  }
  return "?";
}

struct Tracer::ThreadLog {
  uint64_t thread_index = 0;
  uint64_t next_seq = 1;
  int64_t dropped = 0;
  std::vector<uint64_t> open;  // ids of this thread's open scopes
  std::vector<Span> spans;
};

namespace {
struct LocalSlot {
  uint64_t generation = 0;
  void* log = nullptr;
};
thread_local LocalSlot t_slot;
}  // namespace

Tracer::Tracer() : generation_(g_generation.fetch_add(1) + 1) {}
Tracer::~Tracer() = default;

Tracer::ThreadLog* Tracer::Local() {
  if (t_slot.generation == generation_) {
    return static_cast<ThreadLog*>(t_slot.log);
  }
  auto log = std::make_unique<ThreadLog>();
  ThreadLog* raw = log.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    raw->thread_index = logs_.size() + 1;
    logs_.push_back(std::move(log));
  }
  t_slot.generation = generation_;
  t_slot.log = raw;
  return raw;
}

void Tracer::Append(ThreadLog* log, const Span& span) {
  if (log->spans.size() >= kMaxSpansPerThread) {
    ++log->dropped;
    return;
  }
  log->spans.push_back(span);
}

Tracer::Scope::Scope(Tracer* tracer, SpanKind kind, int problem,
                     uint64_t request)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  ThreadLog* log = tracer_->Local();
  span_.id = (log->thread_index << 40) | log->next_seq++;
  span_.parent = log->open.empty() ? 0 : log->open.back();
  span_.request = request;
  span_.kind = kind;
  span_.problem = static_cast<int8_t>(problem);
  log->open.push_back(span_.id);
  span_.start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  ThreadLog* log = tracer_->Local();
  log->open.pop_back();
  tracer_->Append(log, span_);
}

void Tracer::Record(SpanKind kind, int64_t start_ns, int64_t end_ns,
                    uint64_t request) {
  ThreadLog* log = Local();
  Span span;
  span.id = (log->thread_index << 40) | log->next_seq++;
  span.request = request;
  span.kind = kind;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  Append(log, span);
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& log : logs_) {
    all.insert(all.end(), log->spans.begin(), log->spans.end());
  }
  return all;
}

int64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& log : logs_) total += log->dropped;
  return total;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : Collect()) {
    std::fprintf(out,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"name\":\"%s\",\"problem\":%d,\"start_ns\":%lld,"
                 "\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), SpanName(s.kind),
                 static_cast<int>(s.problem),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<Interval>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    auto it = index.find(s.parent);
    if (it != index.end()) {
      children[it->second].push_back(Interval{s.start_ns, s.end_ns});
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Interval own{spans[i].start_ns, spans[i].end_ns};
    self[i] = (own.end - own.start) - CoveredNs(own, std::move(children[i]));
  }
  return self;
}

}  // namespace perfbench
