// Cluster-scale data-parallel training through a parameter server (the
// paper's Section 8.3 extension). Every worker GPU, the server and one
// priority-preemptive Link per uplink and downlink share one SimEngine.
//
// Model: W workers each run `iterations` of forward + backward over the
// same network. When a worker finishes the weight-gradient of layer l it
// pushes param_bytes over its uplink; the server aggregates once all W
// copies of (iteration, layer) arrived (a bandwidth-proportional reduction
// cost) and broadcasts the update on every downlink. The *next* iteration's
// forward of layer l blocks until that update is back — the classic exposed
// synchronization the paper's reverse-first-k scheduling attacks:
//
//  - conventional backprop emits weight gradients top-down (layer L-1
//    first, layer 0 last), so layer 0's push + aggregate + broadcast sits
//    fully exposed between iterations, exactly when forward needs it;
//  - ooo mode applies the paper's reverse-first-k: layers >= k keep the
//    interleaved top-down sweep (their pushes overlap the backward pass as
//    usual), but the first k layers' weight gradients are deferred past
//    the output-gradient chain and computed bottom-up (layer 0 earliest),
//    entering the priority-preemptive links in urgency order so low-layer
//    synchronization overlaps the deferred gradient compute instead of
//    sitting exposed.
//
// Per-worker straggler factors (seeded, uniform in [1, 1 + spread]) scale
// kernel durations, so the scenarios also measure how each ordering absorbs
// heterogeneity: the server's all-arrived barrier propagates the slowest
// worker's schedule to everyone.

#ifndef OOBP_SRC_RUNTIME_CLUSTER_PS_ENGINE_H_
#define OOBP_SRC_RUNTIME_CLUSTER_PS_ENGINE_H_

#include <cstdint>

#include "src/common/time.h"
#include "src/hw/gpu_spec.h"
#include "src/hw/link.h"
#include "src/nn/cost_model.h"
#include "src/nn/layer.h"

namespace oobp {

struct ClusterPsConfig {
  GpuSpec gpu;
  SystemProfile profile;
  LinkSpec uplink;    // worker -> server, one per worker
  LinkSpec downlink;  // server -> worker, one per worker
  int workers = 8;
  int iterations = 4;  // >= 2: first iteration is warm-up for the mean
  bool ooo = false;    // reverse-first-k weight gradients + priority comm

  // In ooo mode, how many of the lowest layers get the reverse-first
  // treatment (deferred past the og chain, computed bottom-up, pushed at
  // top priority). -1 = layers / 3. Ignored when ooo is false.
  int reverse_k = -1;

  // Worker w's kernel durations scale by 1 + spread * u_w, u_w seeded
  // uniform in [0, 1). 0 = homogeneous fleet.
  double straggler_spread = 0.0;
  uint64_t straggler_seed = 0x57A6;

  // Server-side reduction: fixed cost + bytes at `server_agg_gbps` per
  // aggregated layer (all W contributions).
  double server_agg_gbps = 50.0;
  TimeNs server_agg_fixed = Us(2);
};

struct ClusterPsMetrics {
  // Mean steady-state iteration time: per worker, successive deltas of
  // "all updates for iteration t received", averaged over iterations >= 1
  // and then over workers; min/max are the per-worker means' spread.
  TimeNs iteration_time = 0;
  TimeNs worker_iter_min = 0;
  TimeNs worker_iter_max = 0;
  TimeNs makespan = 0;  // last update delivery anywhere in the cluster

  // Mean over workers of the time forward progress sat blocked on a
  // parameter update, as a fraction of makespan.
  double sync_stall_frac = 0.0;

  int64_t bytes_pushed = 0;       // total gradient bytes over all uplinks
  double uplink_busy_frac = 0.0;  // mean uplink busy time / makespan
  double slowest_factor = 1.0;    // max straggler factor in the fleet
  uint64_t processed_events = 0;  // gated by the perf baseline
};

class ClusterPsEngine {
 public:
  explicit ClusterPsEngine(ClusterPsConfig config);

  ClusterPsMetrics Run(const NnModel& model) const;

  const ClusterPsConfig& config() const { return config_; }

 private:
  ClusterPsConfig config_;
};

}  // namespace oobp

#endif  // OOBP_SRC_RUNTIME_CLUSTER_PS_ENGINE_H_
