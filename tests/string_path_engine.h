// The string-path reference engine shared by the engine-level tests.

#ifndef PITRACT_TESTS_STRING_PATH_ENGINE_H_
#define PITRACT_TESTS_STRING_PATH_ENGINE_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "engine/builtins.h"
#include "engine/engine.h"

namespace pitract {
namespace engine {

/// Every builtin registered on its string `answer` path only: each entry
/// (and each witness alternative) is copied out of DefaultEngine() with
/// its view and batch hooks cleared and fresh cost profiles, so every
/// query re-decodes Π(D). This is the reference the view and kernel paths
/// must match, answer for answer and charge for charge.
inline std::unique_ptr<QueryEngine> MakeStringPathEngine(
    const PreparedStore::Options& options = {}) {
  auto strip = [](core::PiWitness* w) {
    w->deserialize = nullptr;
    w->answer_view = nullptr;
    w->decode_query = nullptr;
    w->answer_view_batch = nullptr;
  };
  QueryEngine& builtins = DefaultEngine();
  auto engine = std::make_unique<QueryEngine>(options);
  for (const std::string& name : builtins.Names()) {
    ProblemEntry entry = *builtins.Find(name).value();
    entry.witness_profile = nullptr;
    strip(&entry.witness);
    for (WitnessAlternative& alt : entry.alternatives) {
      alt.profile = nullptr;
      strip(&alt.witness);
    }
    EXPECT_TRUE(engine->Register(std::move(entry)).ok()) << name;
  }
  return engine;
}

}  // namespace engine
}  // namespace pitract

#endif  // PITRACT_TESTS_STRING_PATH_ENGINE_H_
