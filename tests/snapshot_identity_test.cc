// Snapshot byte-identity battery (ctest labels: snapshot, golden,
// integration — deliberately NOT `store`, so the fast ASan store tier stays
// fast). The headline acceptance gate for the snapshot subsystem:
//   * `snapshot build` is bit-deterministic (two builds → identical files);
//   * every golden scenario's serialized result JSON is byte-identical
//     with and without the snapshot active, under --jobs 4;
//   * golden comparison passes from snapshot-loaded specs exactly as from
//     the checked-in files.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

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

#ifndef OOBP_REPO_ROOT
#error "OOBP_REPO_ROOT must point at the repository checkout"
#endif

namespace oobp {
namespace {

constexpr const char* kGoldenDir = OOBP_REPO_ROOT "/bench/golden";
constexpr const char* kBaseline = OOBP_REPO_ROOT "/bench/perf_baseline.json";

void RegisterAll() {
  RegisterPaperScenarios();
  RegisterServeScenarios();
  RegisterSweepScenarios();
  RegisterFleetScenarios();
  RegisterClusterScenarios();
  RegisterSearchScenarios();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Builds a snapshot into TempDir via the real CLI entry point (the same
// code path check.sh tier 8 exercises) and returns its path.
std::string BuildSnapshotOnce() {
  static const std::string path = [] {
    const std::string out = ::testing::TempDir() + "identity.snapshot";
    const std::string out_flag = "--out=" + out;
    const std::string golden_flag = std::string("--golden=") + kGoldenDir;
    const std::string baseline_flag = std::string("--baseline=") + kBaseline;
    const char* argv[] = {"oobp", "snapshot", "build", out_flag.c_str(),
                          golden_flag.c_str(), baseline_flag.c_str()};
    const int rc = SnapshotMain(6, const_cast<char**>(argv));
    EXPECT_EQ(rc, 0);
    return rc == 0 ? out : std::string();
  }();
  return path;
}

// One full pass over `filter`; when `snapshot` is non-empty it must
// activate fresh. Model caches are cleared first so warm passes prove the
// snapshot path, not cache residue from the previous pass.
RunnerReport RunPass(const std::string& filter, int jobs,
                     const std::string& snapshot) {
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
  opts.filter = filter;
  opts.jobs = jobs;
  opts.print = false;
  opts.golden_dir = kGoldenDir;
  RunnerReport report = RunScenarios(opts);
  DeactivateSnapshot();
  ClearModelCaches();
  return report;
}

void ExpectByteIdentical(const RunnerReport& cold, const RunnerReport& warm) {
  ASSERT_EQ(cold.runs.size(), warm.runs.size());
  ASSERT_FALSE(cold.runs.empty());
  EXPECT_EQ(cold.num_scenario_failures, 0);
  EXPECT_EQ(warm.num_scenario_failures, 0);
  EXPECT_EQ(cold.num_golden_failures, 0);
  EXPECT_EQ(warm.num_golden_failures, 0);
  for (size_t i = 0; i < cold.runs.size(); ++i) {
    EXPECT_EQ(cold.runs[i].scenario->name, warm.runs[i].scenario->name);
    // run.json is exactly what `bench --out` writes to BENCH_<name>.json.
    EXPECT_EQ(cold.runs[i].json, warm.runs[i].json)
        << cold.runs[i].scenario->name;
    EXPECT_FALSE(cold.runs[i].json.empty()) << cold.runs[i].scenario->name;
    EXPECT_EQ(cold.runs[i].golden_compared, warm.runs[i].golden_compared)
        << cold.runs[i].scenario->name;
  }
}

TEST(SnapshotIdentityTest, BuildIsBitDeterministic) {
  RegisterAll();
  const std::string first = BuildSnapshotOnce();
  ASSERT_FALSE(first.empty());
  const std::string out2 = ::testing::TempDir() + "identity2.snapshot";
  const std::string out_flag = "--out=" + out2;
  const std::string golden_flag = std::string("--golden=") + kGoldenDir;
  const std::string baseline_flag = std::string("--baseline=") + kBaseline;
  const char* argv[] = {"oobp", "snapshot", "build", out_flag.c_str(),
                        golden_flag.c_str(), baseline_flag.c_str()};
  ASSERT_EQ(SnapshotMain(6, const_cast<char**>(argv)), 0);
  const std::string a = ReadFileBytes(first);
  const std::string b = ReadFileBytes(out2);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(SnapshotIdentityTest, FullGoldenSweepIsByteIdenticalUnderJobs4) {
  RegisterAll();
  const std::string snapshot = BuildSnapshotOnce();
  ASSERT_FALSE(snapshot.empty());
  const RunnerReport cold = RunPass("*", /*jobs=*/4, "");
  const RunnerReport warm = RunPass("*", /*jobs=*/4, snapshot);
  ExpectByteIdentical(cold, warm);
  // Every scenario with a checked-in golden was compared on both passes
  // (the warm pass loads specs from the snapshot, the cold one from disk).
  int compared = 0;
  for (const ScenarioRun& run : warm.runs) {
    compared += run.golden_compared ? 1 : 0;
  }
  EXPECT_EQ(compared, 46);
}

}  // namespace
}  // namespace oobp
