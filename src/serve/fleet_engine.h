// Fleet-scale inference serving: a cluster-level router in front of N
// replica serving engines, each its own GPU with a dynamic batcher and —
// in co-run mode — an ooo-backprop (or in-order baseline) training job
// sharing the device, exactly as in the single-GPU ServeEngine.
//
// The whole fleet lives in ONE simulated timeline: routing decisions
// observe replica queue depths at the simulated instant a request arrives,
// the autoscaler samples fleet-wide queue depth on the same clock, and
// every replica GPU advances in lockstep on one SimEngine. Per-replica
// stream priorities are identical to src/serve/serve_engine.h (training
// main prio 0, inference prio 1, ooo sub stream prio 2), so the paper's
// co-run property — inference preempts reordered weight-gradient kernels in
// SM-slot allocation — holds on every replica of the fleet under
// cluster-level load.
//
// Scale-down semantics: a drained replica stops receiving new requests but
// its GPU keeps training at full rate — scaling serving down returns the
// device to the training job, which is the operational story of co-running
// the two workloads in the first place.
//
// Determinism: arrivals (and the diurnal envelope thinning) are materialized
// from seeded Rngs before the event loop starts; the router's
// power-of-two-choices draws come from a seeded Rng consumed in request
// order on the single-threaded clock. Identical configs produce
// byte-identical metrics under any scenario-level --jobs parallelism.

#ifndef OOBP_SRC_SERVE_FLEET_ENGINE_H_
#define OOBP_SRC_SERVE_FLEET_ENGINE_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/core/schedule.h"
#include "src/hw/gpu_spec.h"
#include "src/nn/cost_model.h"
#include "src/nn/layer.h"
#include "src/runtime/metrics.h"
#include "src/serve/arrival.h"
#include "src/serve/autoscaler.h"
#include "src/serve/batcher.h"
#include "src/serve/router.h"
#include "src/serve/serve_metrics.h"

namespace oobp {

struct FleetConfig {
  GpuSpec gpu;             // every replica runs this device
  SystemProfile profile;
  ArrivalSpec arrivals;    // aggregate fleet load
  // Optional diurnal/trace rate envelope over the arrivals (see arrival.h);
  // empty = the raw Poisson/MMPP process.
  std::vector<RateSegment> envelope;
  BatcherConfig batcher;   // per replica
  RouterConfig router;
  // autoscaler.max_replicas is the fleet size; min == max pins a fixed
  // fleet (the autoscaler then never acts).
  AutoscalerConfig autoscaler;
  TimeNs horizon = Ms(200);  // arrival-generation window
  TimeNs slo = Ms(20);
  std::function<NnModel(int batch)> make_model;  // inference model per batch
};

struct FleetMetrics {
  ServeMetrics serve;  // fleet-wide aggregate over all requests

  // Per-replica serving metrics (index == replica). A replica that never
  // completed a request reports the ServeMetrics::kNoSample percentile
  // sentinel.
  std::vector<ServeMetrics> per_replica;
  std::vector<int64_t> replica_completed;
  // max / mean completions across replicas that were ever routable; 1.0 is
  // a perfectly balanced fleet, 0.0 when nothing completed.
  double imbalance = 0.0;

  // Autoscaler outcome.
  int scale_ups = 0;
  int scale_downs = 0;
  int min_routable = 0;
  int max_routable = 0;
  double mean_routable = 0.0;  // time-weighted over [0, horizon]
  // (time, routable count) on every change; first entry is t = 0.
  std::vector<std::pair<TimeNs, int>> replica_timeline;
  int64_t router_decisions = 0;

  // Co-run only: replica-mean training metrics plus the spread across the
  // fleet (all replicas train all the time, routable or not).
  TrainMetrics train;
  TimeNs train_iter_min = 0;
  TimeNs train_iter_max = 0;
};

class FleetEngine {
 public:
  explicit FleetEngine(FleetConfig config);

  // Inference alone on every replica (no training contention).
  FleetMetrics RunServeOnly() const;

  // Every replica co-runs `train_iterations` repetitions of the training
  // schedule (>= 2: one warm-up + measured window; it should cover the
  // horizon so requests face contention throughout).
  FleetMetrics RunCorun(const NnModel& train_model,
                        const IterationSchedule& train_schedule,
                        int train_iterations) const;

  const FleetConfig& config() const { return config_; }

 private:
  FleetMetrics RunImpl(const NnModel* train_model,
                       const IterationSchedule* train_schedule,
                       int train_iterations) const;

  FleetConfig config_;
};

}  // namespace oobp

#endif  // OOBP_SRC_SERVE_FLEET_ENGINE_H_
