// Figure 8: the multi-region joint schedule for DenseNet-121 — scheduling
// regions R1..Rn over the main stream (S1: dO + forward) and where each
// DenseBlock's weight gradients land on the sub stream (S2). The paper's
// schedule delays DenseBlock-4's weight gradients into the *forward*
// computation of DenseBlock-1 of the next iteration.

#include <map>

#include "bench/bench_common.h"
#include "src/core/corun_profiler.h"
#include "src/core/joint_scheduler.h"
#include "src/core/region.h"
#include "src/nn/model_zoo.h"

int main() {
  using namespace oobp;
  BenchHeader("Figure 8", "DenseNet-121 region/stream schedule");

  const NnModel model = DenseNet(121, 32, 32, /*image=*/224);
  const TrainGraph graph(&model);
  const CostModel cost(GpuSpec::V100(), SystemProfile::TensorFlowXla());
  const CorunProfiler profiler(graph, cost, BuildRegions(graph));

  const MemoryTimeline conv_mem =
      EstimateBackpropMemory(model, ConventionalIteration(graph).MergedOrder());

  auto summarize = [&](const char* title, const JointScheduleResult& result,
                       int* delayed_out) {
    std::printf("\n%s\n", title);
    std::map<int, std::map<std::string, int>> region_sources;
    int delayed_into_forward = 0;
    for (size_t i = 0; i < result.assigned_ops.size(); ++i) {
      const int layer = result.assigned_ops[i].layer;
      const int region = result.assigned_region[i];
      ++region_sources[region][model.layers[layer].block];
      if (profiler.region(region).kind == Region::Kind::kForward) {
        ++delayed_into_forward;
      }
    }
    Table table({"region", "kind", "main ops", "T_main(ms)", "dW placed"});
    for (int r = 0; r < profiler.num_regions(); ++r) {
      const Region& region = profiler.region(r);
      std::string placed;
      for (const auto& [block, count] : region_sources[r]) {
        placed += StrFormat("%s:%d ", block.c_str(), count);
      }
      table.Row({region.name,
                 region.kind == Region::Kind::kBackward ? "bwd" : "fwd",
                 StrFormat("%zu", region.main_ops.size()),
                 StrFormat("%.2f", ToMs(profiler.MainDuration(r))),
                 placed.empty() ? std::string("-") : placed});
    }
    std::printf("pre-scheduled regions: %d, dW in forward regions: %d, "
                "activation peak %.0f MB (conv %.0f MB)\n",
                result.pre_scheduled_regions, delayed_into_forward,
                result.peak_memory / 1e6, conv_mem.peak / 1e6);
    if (delayed_out != nullptr) {
      *delayed_out = delayed_into_forward;
    }
  };

  // Unconstrained: the list scheduler freely delays weight gradients past
  // the backward pass (the paper's Figure 8 structure).
  int delayed_unconstrained = 0;
  const JointScheduleResult unconstrained =
      MultiRegionJointSchedule(graph, profiler, {});
  summarize("-- unconstrained schedule --", unconstrained,
            &delayed_unconstrained);

  // With the paper's 1.1x memory cap the fallback pre-schedules leading
  // backward regions until the peak fits.
  JointScheduleOptions opts;
  opts.memory_cap_bytes = static_cast<int64_t>(1.1 * conv_mem.peak);
  const JointScheduleResult capped =
      MultiRegionJointSchedule(graph, profiler, opts);
  summarize("-- with 1.1x memory cap --", capped, nullptr);

  ShapeCheck("unconstrained: dW delayed past backprop (paper: DB4 -> fwd)",
             1.0, delayed_unconstrained > 0 ? 1.0 : 0.0);
  ShapeCheck("capped: peak within 1.1x of conventional", 1.1,
             static_cast<double>(capped.peak_memory) / conv_mem.peak);
  return 0;
}
