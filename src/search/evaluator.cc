#include "src/search/evaluator.h"

#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/core/memory_model.h"
#include "src/hw/cpu_launcher.h"
#include "src/hw/gpu.h"
#include "src/nn/model_cache.h"
#include "src/runtime/single_gpu_engine.h"
#include "src/sim/engine.h"

namespace oobp {

ScheduleEvaluator::ScheduleEvaluator(const NnModel* model, const GpuSpec& gpu,
                                     const SystemProfile& profile)
    : model_(model),
      gpu_(gpu),
      profile_(profile),
      cost_(CachedCostModel(gpu, profile)) {
  OOBP_CHECK(model_ != nullptr);
}

TimeNs ScheduleEvaluator::IterationTime(const IterationSchedule& schedule) {
  // One warm-up plus two measured iterations: the launcher's bounded issue
  // queue and the cross-iteration F->dO dependencies make iteration 0
  // atypical; iterations 1..2 are steady state for every schedule shape the
  // search emits (the full engine's replay detector confirms periodicity at
  // this depth).
  constexpr int kIterations = 3;
  SimEngine engine;
  Gpu gpu(&engine, gpu_, /*trace=*/nullptr, /*trace_track_base=*/0);
  const StreamId main_stream = gpu.CreateStream(/*priority=*/0);
  const StreamId sub_stream = gpu.CreateStream(/*priority=*/1);
  CpuLauncher launcher(&engine, &gpu, CpuLauncher::Mode::kPrecompiled,
                       profile_.graph_launch_latency, /*trace=*/nullptr,
                       /*issue_track=*/100, profile_.issue_queue_depth);

  const TrainIssuePlan plan =
      BuildTrainIssuePlan(*model_, schedule, *cost_, kIterations, main_stream,
                          sub_stream, /*label_items=*/false);

  std::vector<KernelId> item_kernel(plan.items.size(), -1);
  launcher.Launch(plan.items, [&](size_t index, KernelId id) {
    item_kernel[index] = id;
  });
  engine.Run();
  OOBP_CHECK_EQ(gpu.kernels_completed(), item_kernel.size());

  const std::vector<TimeNs> iter_end =
      TrainIterationEndTimes(gpu, item_kernel, plan.iter_last_item);
  ++evaluations_;
  return (iter_end[kIterations - 1] - iter_end[0]) / (kIterations - 1);
}

int64_t ScheduleEvaluator::PeakMemory(const IterationSchedule& schedule) const {
  return EstimateBackpropMemory(*model_, schedule.MergedOrder()).peak;
}

}  // namespace oobp
