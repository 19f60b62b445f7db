// Golden + byte-identity battery for the search_gap_* scenarios (ctest
// labels: search, golden, integration).
//
// Pins the heuristic-vs-search optimality-gap metrics against the
// checked-in goldens and proves the determinism contract the scenarios
// advertise: the serialized result JSON is byte-identical across --jobs 1
// vs --jobs 4, under 8 search threads, and with or without an active
// snapshot. The snapshot pass uses the recording API directly — a cold
// search_gap_* sweep with recording on yields a search-only snapshot whose
// stored schedules must reproduce the cold metrics exactly (consumers
// re-score stored schedules through the evaluator; evaluation counts never
// reach the metrics).

#include <gtest/gtest.h>

#include <string>

#include "src/nn/model_cache.h"
#include "src/runner/cluster_scenarios.h"
#include "src/runner/fleet_scenarios.h"
#include "src/runner/paper_scenarios.h"
#include "src/runner/registry.h"
#include "src/runner/runner.h"
#include "src/runner/search_scenarios.h"
#include "src/runner/serve_scenarios.h"
#include "src/runner/snapshot_build.h"
#include "src/runner/sweep_scenarios.h"
#include "src/store/snapshot.h"
#include "src/store/writer.h"

#ifndef OOBP_REPO_ROOT
#error "OOBP_REPO_ROOT must point at the repository checkout"
#endif

namespace oobp {
namespace {

constexpr const char* kGoldenDir = OOBP_REPO_ROOT "/bench/golden";
constexpr const char* kFilter = "search_gap_*";

void RegisterAll() {
  // The registry hash covers every scenario, so activation needs the full
  // registry even though only search_gap_* runs here. Registration order
  // matches the runner.
  RegisterPaperScenarios();
  RegisterServeScenarios();
  RegisterSweepScenarios();
  RegisterFleetScenarios();
  RegisterClusterScenarios();
  RegisterSearchScenarios();
}

// One pass over the search_gap_* scenarios; when `snapshot` is non-empty it
// must activate fresh. Model caches are cleared first so warm passes prove
// the snapshot path, not cache residue.
RunnerReport RunPass(int jobs, int threads, const std::string& snapshot) {
  DeactivateSnapshot();
  ClearModelCaches();
  if (!snapshot.empty()) {
    std::string error;
    EXPECT_EQ(ActivateSnapshot(snapshot, ComputeScenarioRegistryHash(),
                               /*check_registry=*/true, &error),
              SnapshotActivation::kActive)
        << error;
  }
  RunnerOptions opts;
  opts.filter = kFilter;
  opts.jobs = jobs;
  opts.print = false;
  opts.golden_dir = kGoldenDir;
  if (threads > 1) {
    opts.params.Set("threads", std::to_string(threads));
  }
  RunnerReport report = RunScenarios(opts);
  DeactivateSnapshot();
  ClearModelCaches();
  return report;
}

// Records a search-only snapshot: replay the sweep with recording on and
// serialize whatever SnapshotOooSchedule / SnapshotSearchSchedule captured.
std::string BuildSearchSnapshotOnce() {
  static const std::string path = [] {
    StartSnapshotRecording(ComputeScenarioRegistryHash());
    const RunnerReport report = RunPass(/*jobs=*/1, /*threads=*/1, "");
    SnapshotContents contents = TakeSnapshotRecording();
    EXPECT_EQ(report.num_scenario_failures, 0);
    EXPECT_FALSE(contents.schedules.empty());
    const std::string out = ::testing::TempDir() + "search_gap.snapshot";
    std::string error;
    EXPECT_TRUE(WriteSnapshotFile(out, contents, &error)) << error;
    return out;
  }();
  return path;
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
  RegisterAll();
  const RunnerReport report = RunPass(/*jobs=*/1, /*threads=*/1, "");
  ASSERT_EQ(report.runs.size(), 3u);
  EXPECT_EQ(report.num_scenario_failures, 0);
  EXPECT_EQ(report.num_golden_failures, 0);
  for (const ScenarioRun& run : report.runs) {
    EXPECT_TRUE(run.golden_compared)
        << run.scenario->name << " has no checked-in golden";
  }
}

TEST(SearchGapGoldenTest, ByteIdenticalAcrossJobs) {
  RegisterAll();
  const RunnerReport serial = RunPass(/*jobs=*/1, /*threads=*/1, "");
  const RunnerReport parallel = RunPass(/*jobs=*/4, /*threads=*/1, "");
  ExpectByteIdentical(serial, parallel);
}

TEST(SearchGapGoldenTest, ByteIdenticalUnderThreads8) {
  RegisterAll();
  const RunnerReport reference = RunPass(/*jobs=*/1, /*threads=*/1, "");
  const RunnerReport threaded = RunPass(/*jobs=*/1, /*threads=*/8, "");
  ExpectByteIdentical(reference, threaded);
}

TEST(SearchGapGoldenTest, ByteIdenticalWithAndWithoutSnapshot) {
  RegisterAll();
  const std::string snapshot = BuildSearchSnapshotOnce();
  ASSERT_FALSE(snapshot.empty());
  const RunnerReport cold = RunPass(/*jobs=*/1, /*threads=*/1, "");
  const RunnerReport warm = RunPass(/*jobs=*/1, /*threads=*/1, snapshot);
  ExpectByteIdentical(cold, warm);
  // The snapshot pass must also hold under parallel scenario execution.
  const RunnerReport warm4 = RunPass(/*jobs=*/4, /*threads=*/1, snapshot);
  ExpectByteIdentical(cold, warm4);
}

}  // namespace
}  // namespace oobp
