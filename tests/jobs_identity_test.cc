// Full-registry byte identity under the scenario thread pool (ctest labels:
// golden, integration). Every registered scenario runs at --jobs 1 and at
// --jobs 4 from a cold model cache; each BENCH JSON must be byte-equal
// between the two passes, and every checked-in golden must be compared and
// pass on both.

#include <gtest/gtest.h>

#include "src/nn/model_cache.h"
#include "src/runner/cluster_scenarios.h"
#include "src/runner/fleet_scenarios.h"
#include "src/runner/paper_scenarios.h"
#include "src/runner/runner.h"
#include "src/runner/search_scenarios.h"
#include "src/runner/serve_scenarios.h"
#include "src/runner/sweep_scenarios.h"

#ifndef OOBP_REPO_ROOT
#error "OOBP_REPO_ROOT must point at the repository checkout"
#endif

namespace oobp {
namespace {

constexpr const char* kGoldenDir = OOBP_REPO_ROOT "/bench/golden";
// Scenarios with a checked-in golden under bench/golden.
constexpr int kGoldenScenarios = 46;

void RegisterAll() {
  RegisterPaperScenarios();
  RegisterServeScenarios();
  RegisterSweepScenarios();
  RegisterFleetScenarios();
  RegisterClusterScenarios();
  RegisterSearchScenarios();
}

// One pass over every scenario. The model caches are cleared first, so the
// parallel pass builds its models concurrently instead of reusing the
// serial pass's.
RunnerReport RunPass(int jobs) {
  ClearModelCaches();
  RunnerOptions opts;
  opts.filter = "*";
  opts.jobs = jobs;
  opts.print = false;
  opts.golden_dir = kGoldenDir;
  return RunScenarios(opts);
}

int GoldensCompared(const RunnerReport& report) {
  int compared = 0;
  for (const ScenarioRun& run : report.runs) {
    compared += run.golden_compared ? 1 : 0;
  }
  return compared;
}

TEST(JobsIdentityTest, FullRegistryIsByteIdenticalAtJobs1And4) {
  RegisterAll();
  const RunnerReport serial = RunPass(/*jobs=*/1);
  const RunnerReport parallel = RunPass(/*jobs=*/4);
  EXPECT_TRUE(serial.ok());
  EXPECT_TRUE(parallel.ok());
  EXPECT_EQ(GoldensCompared(serial), kGoldenScenarios);
  EXPECT_EQ(GoldensCompared(parallel), kGoldenScenarios);
  ASSERT_EQ(serial.runs.size(), parallel.runs.size());
  ASSERT_FALSE(serial.runs.empty());
  for (size_t i = 0; i < serial.runs.size(); ++i) {
    const std::string& name = serial.runs[i].scenario->name;
    EXPECT_EQ(name, parallel.runs[i].scenario->name);
    // run.json is exactly what `bench --out` writes to BENCH_<name>.json.
    EXPECT_FALSE(serial.runs[i].json.empty()) << name;
    EXPECT_EQ(serial.runs[i].json, parallel.runs[i].json) << name;
  }
}

}  // namespace
}  // namespace oobp
