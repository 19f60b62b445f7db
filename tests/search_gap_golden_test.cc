// Golden + byte-identity battery for the search_gap_* scenarios (ctest
// labels: search, golden, integration).
//
// Pins the heuristic-vs-search optimality-gap metrics against the
// checked-in goldens and proves the determinism contract the scenarios
// advertise: the serialized result JSON is byte-identical across --jobs 1
// vs --jobs 4 and under 8 search threads.

#include <gtest/gtest.h>

#include <string>

#include "src/nn/model_cache.h"
#include "src/runner/runner.h"
#include "src/runner/search_scenarios.h"

#ifndef OOBP_REPO_ROOT
#error "OOBP_REPO_ROOT must point at the repository checkout"
#endif

namespace oobp {
namespace {

constexpr const char* kGoldenDir = OOBP_REPO_ROOT "/bench/golden";
constexpr const char* kFilter = "search_gap_*";

// One pass over the search_gap_* scenarios from a cold model cache.
RunnerReport RunPass(int jobs, int threads) {
  ClearModelCaches();
  RunnerOptions opts;
  opts.filter = kFilter;
  opts.jobs = jobs;
  opts.print = false;
  opts.golden_dir = kGoldenDir;
  if (threads > 1) {
    opts.params.Set("threads", std::to_string(threads));
  }
  return RunScenarios(opts);
}

void ExpectByteIdentical(const RunnerReport& a, const RunnerReport& b) {
  ASSERT_EQ(a.runs.size(), b.runs.size());
  ASSERT_FALSE(a.runs.empty());
  EXPECT_EQ(a.num_scenario_failures, 0);
  EXPECT_EQ(b.num_scenario_failures, 0);
  EXPECT_EQ(a.num_golden_failures, 0);
  EXPECT_EQ(b.num_golden_failures, 0);
  for (size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_EQ(a.runs[i].scenario->name, b.runs[i].scenario->name);
    EXPECT_EQ(a.runs[i].json, b.runs[i].json) << a.runs[i].scenario->name;
    EXPECT_FALSE(a.runs[i].json.empty()) << a.runs[i].scenario->name;
    EXPECT_EQ(a.runs[i].golden_compared, b.runs[i].golden_compared)
        << a.runs[i].scenario->name;
  }
}

TEST(SearchGapGoldenTest, GapMetricsMatchCheckedInGoldens) {
  RegisterSearchScenarios();
  const RunnerReport report = RunPass(/*jobs=*/1, /*threads=*/1);
  ASSERT_EQ(report.runs.size(), 3u);
  EXPECT_EQ(report.num_scenario_failures, 0);
  EXPECT_EQ(report.num_golden_failures, 0);
  for (const ScenarioRun& run : report.runs) {
    EXPECT_TRUE(run.golden_compared)
        << run.scenario->name << " has no checked-in golden";
  }
}

TEST(SearchGapGoldenTest, ByteIdenticalAcrossJobs) {
  RegisterSearchScenarios();
  const RunnerReport serial = RunPass(/*jobs=*/1, /*threads=*/1);
  const RunnerReport parallel = RunPass(/*jobs=*/4, /*threads=*/1);
  ExpectByteIdentical(serial, parallel);
}

TEST(SearchGapGoldenTest, ByteIdenticalUnderThreads8) {
  RegisterSearchScenarios();
  const RunnerReport reference = RunPass(/*jobs=*/1, /*threads=*/1);
  const RunnerReport threaded = RunPass(/*jobs=*/1, /*threads=*/8);
  ExpectByteIdentical(reference, threaded);
}

}  // namespace
}  // namespace oobp
