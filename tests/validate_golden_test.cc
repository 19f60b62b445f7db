// Replays every registered golden scenario — the 12 paper-figure training
// scenarios, the 6 inference-serving scenarios, the 6 scaling/analysis
// sweeps, the 3 steady-state replay scenarios, and the 2 parameter-server
// cluster scenarios — with the SimValidator installed, asserting zero
// invariant violations (ctest label: validate).
// The 11 fleet scenarios are counted here but replayed under the validator
// in fleet_golden_test.cc (which also pins their --jobs byte-identity), so
// the suite does not pay for the multi-replica simulations twice.
//
// The validator attaches through thread-local hooks, so scenarios run
// directly on this thread rather than through RunScenarios' thread pool.
// Each scenario gets a fresh validator, keeping a violation attributable to
// the scenario that produced it.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/runner/cluster_scenarios.h"
#include "src/runner/fleet_scenarios.h"
#include "src/runner/paper_scenarios.h"
#include "src/runner/registry.h"
#include "src/runner/serve_scenarios.h"
#include "src/runner/sweep_scenarios.h"
#include "src/validate/sim_validator.h"

namespace oobp {
namespace {

TEST(ValidateGoldenTest, AllScenariosRunCleanUnderValidator) {
  RegisterPaperScenarios();
  RegisterServeScenarios();
  RegisterSweepScenarios();
  RegisterFleetScenarios();
  RegisterClusterScenarios();
  const ScenarioRegistry& reg = ScenarioRegistry::Global();

  int train = 0, serve = 0, sweep = 0, steady = 0, fleet = 0, cluster = 0;
  int other = 0;
  int64_t total_gpus = 0, total_links = 0;
  int64_t total_kernels = 0, total_transfers = 0;
  for (const Scenario& scenario : reg.scenarios()) {
    if (scenario.label == "train") {
      ++train;
    } else if (scenario.label == "serve") {
      ++serve;
    } else if (scenario.label == "sweep") {
      ++sweep;
    } else if (scenario.label == "steady") {
      ++steady;
    } else if (scenario.label == "cluster") {
      ++cluster;
    } else if (scenario.label == "fleet") {
      // Counted so the registry totals stay honest, but replayed under the
      // validator in fleet_golden_test.cc instead of a second time here.
      ++fleet;
      continue;
    } else {
      ++other;
    }
    SimValidator validator;
    {
      ValidationScope scope(&validator);
      const ScenarioResult result = scenario.run(ScenarioParams());
      EXPECT_FALSE(result.values.empty()) << scenario.name;
    }
    EXPECT_TRUE(validator.ok())
        << scenario.name << ": " << validator.Summary();
    // A clean validator that saw no devices proves nothing; every scenario
    // simulates at least one validated device (the pipeline toys model
    // stage compute analytically and only build Links) to completion. The
    // one exception is ana_corun, whose CorunProfiler capacity analysis is
    // purely analytic by design (Section 8.2 reasons over occupancy ratios,
    // not event timelines).
    if (scenario.name != "ana_corun") {
      EXPECT_GT(validator.gpus_observed() + validator.links_observed(), 0)
          << scenario.name;
      EXPECT_GT(
          validator.kernels_finished() + validator.transfers_completed(), 0)
          << scenario.name;
    }
    total_gpus += validator.gpus_observed();
    total_links += validator.links_observed();
    total_kernels += validator.kernels_finished();
    total_transfers += validator.transfers_completed();
  }

  // The registry must hold the full golden suite (12 train + 6 serve +
  // 6 sweep + 3 steady + 11 fleet + 2 cluster); a silently missing
  // scenario would hollow out this test, and an unknown label would dodge
  // the per-group counts.
  EXPECT_EQ(train, 12);
  EXPECT_EQ(serve, 6);
  EXPECT_EQ(sweep, 6);
  EXPECT_EQ(steady, 3);
  EXPECT_EQ(fleet, 11);
  EXPECT_EQ(cluster, 2);
  EXPECT_EQ(other, 0);
  // The suite exercises the communication path too (data-parallel and
  // pipeline scenarios move gradients over Links).
  EXPECT_GT(total_links, 0);
  EXPECT_GT(total_transfers, 0);
  EXPECT_GT(total_gpus, 0);
  EXPECT_GT(total_kernels, 0);
}

}  // namespace
}  // namespace oobp
