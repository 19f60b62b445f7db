// Parameter-server cluster engine (ctest labels: unit, cluster):
// reverse-first-k semantics and conservation identities.

#include <gtest/gtest.h>

#include "src/nn/model_zoo.h"
#include "src/runtime/cluster_ps_engine.h"

namespace oobp {
namespace {

ClusterPsConfig SmallClusterConfig() {
  ClusterPsConfig cfg;
  cfg.gpu = GpuSpec::V100();
  cfg.profile = SystemProfile::TensorFlowXla();
  cfg.uplink = LinkSpec::Eth10G();
  cfg.downlink = LinkSpec::Eth10G();
  cfg.workers = 4;
  cfg.iterations = 3;
  cfg.straggler_spread = 0.2;
  return cfg;
}

TEST(ClusterPsEngine, ReverseFirstKReducesExposedSync) {
  const NnModel model = ResNet(50, 32, 224);
  ClusterPsConfig conv = SmallClusterConfig();
  ClusterPsConfig ooo = SmallClusterConfig();
  ooo.ooo = true;
  const ClusterPsMetrics mc = ClusterPsEngine(conv).Run(model);
  const ClusterPsMetrics mo = ClusterPsEngine(ooo).Run(model);
  // Same data pushed either way; the ordering only changes when.
  EXPECT_EQ(mo.bytes_pushed, mc.bytes_pushed);
  // Low-layer updates come back while the deferred gradients still
  // compute: less of the synchronization sits exposed, and iterations
  // finish no later.
  EXPECT_LT(mo.sync_stall_frac, mc.sync_stall_frac);
  EXPECT_LE(mo.iteration_time, mc.iteration_time);
}

TEST(ClusterPsEngine, AccountingIdentities) {
  const NnModel model = Ffnn(6, 4, 1024);
  ClusterPsConfig cfg = SmallClusterConfig();
  cfg.straggler_spread = 0.0;  // homogeneous fleet
  const ClusterPsMetrics m = ClusterPsEngine(cfg).Run(model);
  EXPECT_EQ(m.bytes_pushed,
            model.TotalParamBytes() * cfg.workers * cfg.iterations);
  // Identical workers see identical schedules.
  EXPECT_EQ(m.worker_iter_min, m.worker_iter_max);
  EXPECT_EQ(m.slowest_factor, 1.0);
  EXPECT_GT(m.iteration_time, 0);
  EXPECT_GE(m.makespan, m.iteration_time);
  EXPECT_GT(m.processed_events, 0u);
}

}  // namespace
}  // namespace oobp
