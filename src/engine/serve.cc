#include "engine/serve.h"

#include <string>

namespace pitract {
namespace engine {

std::string ServeReport::ToJson() const {
  std::string json = "{";
  auto field = [&json](const char* name, int64_t value) {
    if (json.size() > 1) json.push_back(',');
    json.push_back('"');
    json.append(name);
    json.append("\":");
    json.append(std::to_string(value));
  };
  field("batches", batches);
  field("queries", queries);
  field("pi_runs", pi_runs);
  field("cache_hits", cache_hits);
  field("kernel_batches", kernel_batches);
  field("answer_bytes_read", answer_bytes_read);
  field("errors", errors);
  field("prepare_work", prepare_cost.work);
  field("prepare_depth", prepare_cost.depth);
  field("answer_work", answer_cost.work);
  field("answer_depth", answer_cost.depth);
  field("threads", threads);
  field("deadline_expired", deadline_expired);
  field("shed", shed);
  field("queue_depth_max", queue_depth_max);
  field("preparer_busy_ns", preparer_busy_ns);
  field("preparers", preparers);
  field("pi_failures", pi_failures);
  field("pi_retries", pi_retries);
  field("quarantined", quarantined);
  json.push_back('}');
  return json;
}

}  // namespace engine
}  // namespace pitract
