// Lightweight schedule scoring for the search-based scheduler baseline.
//
// ScheduleEvaluator simulates one IterationSchedule on the event-driven GPU
// model — the same SimEngine + fluid scheduler + CpuLauncher stack
// SingleGpuEngine uses — but trimmed for throughput: no tracing, no replay
// detection, precompiled issue only, three iterations (one warm-up, two
// measured). The search (src/search/search.h) scores candidates with the
// bit-identical analytic FastScheduleEvaluator; this simulator is its
// Tier B — the conventional baseline, each trajectory's final point, and
// audits — and the oracle the analytic evaluator is tested against.
//
// Determinism: the evaluation is a pure function of (model, gpu, profile,
// schedule) — every call builds a fresh SimEngine, so scores are
// bit-reproducible across runs, --jobs threads, and machines.

#ifndef OOBP_SRC_SEARCH_EVALUATOR_H_
#define OOBP_SRC_SEARCH_EVALUATOR_H_

#include <cstdint>
#include <memory>

#include "src/common/time.h"
#include "src/core/schedule.h"
#include "src/hw/gpu_spec.h"
#include "src/nn/cost_model.h"
#include "src/nn/layer.h"

namespace oobp {

class ScheduleEvaluator {
 public:
  // `model` must outlive the evaluator. The cost model is taken from the
  // process-wide cache (CachedCostModel), so evaluators share the point
  // with the engines.
  ScheduleEvaluator(const NnModel* model, const GpuSpec& gpu,
                    const SystemProfile& profile);

  // Simulated steady-state time of one training iteration under `schedule`:
  // three iterations are simulated and the mean of the last two is returned
  // (iteration 0 absorbs the cold launcher queue).
  TimeNs IterationTime(const IterationSchedule& schedule);

  // Activation-memory peak (bytes, excluding weights/optimizer base) of the
  // schedule's merged issue order, from the shared memory model. Free — does
  // not count as an evaluation.
  int64_t PeakMemory(const IterationSchedule& schedule) const;

  // Number of IterationTime calls so far.
  int64_t evaluations() const { return evaluations_; }

  const NnModel& model() const { return *model_; }
  const GpuSpec& gpu() const { return gpu_; }
  const SystemProfile& profile() const { return profile_; }

 private:
  const NnModel* model_;
  GpuSpec gpu_;
  SystemProfile profile_;
  std::shared_ptr<const CostModel> cost_;
  int64_t evaluations_ = 0;
};

}  // namespace oobp

#endif  // OOBP_SRC_SEARCH_EVALUATOR_H_
