#include "src/runner/sweep_scenarios.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/str_util.h"
#include "src/core/corun_profiler.h"
#include "src/core/joint_scheduler.h"
#include "src/core/k_search.h"
#include "src/core/region.h"
#include "src/core/reverse_k.h"
#include "src/core/schedule.h"
#include "src/nn/model_cache.h"
#include "src/nn/model_zoo.h"
#include "src/runner/registry.h"
#include "src/runtime/data_parallel_engine.h"
#include "src/runtime/pipeline_engine.h"
#include "src/runtime/single_gpu_engine.h"

namespace oobp {
namespace {

// ---------------------------------------------------------------------------
// Figure 13 (a/b): pipeline-parallel scaling on the Pub-B cluster. Shared
// helpers mirror bench/fig13_scaling.cc, which is now a thin wrapper.

PipelineEngine MakePubBEngine(int gpus, int micro_batches) {
  PipelineConfig config;
  config.cluster = ClusterSpec::PubB(5);
  config.num_gpus = gpus;
  config.num_micro_batches = micro_batches;
  return PipelineEngine(config);
}

// Pre-training runs shard the input/output embedding GEMMs across a
// tensor-parallel group (Megatron-style; the paper dedicates 4 GPUs to
// GPT-3's embedding). Model that by quartering the head layer's cost —
// applied to every system equally.
NnModel WithShardedHead(NnModel model) {
  Layer& head = model.layers.back();
  head.fwd_flops /= 4;
  head.dgrad_flops /= 4;
  head.wgrad_flops /= 4;
  head.fwd_bytes /= 4;
  head.dgrad_bytes /= 4;
  head.wgrad_bytes /= 4;
  head.fwd_blocks /= 4;
  head.stash_bytes /= 4;
  return model;
}

// BERT with a sharded head, memoized: a scaling sweep evaluates the same
// (layers, micro-batch) point once per strategy and the perf suite repeats
// the whole scenario, so the layer table is built once process-wide.
std::shared_ptr<const NnModel> ShardedBert(int layers, int micro_batch) {
  return CachedModel(
      StrFormat("sharded-bert:L%d:B%d", layers, micro_batch),
      [layers, micro_batch] {
        return WithShardedHead(Bert(layers, micro_batch));
      });
}

ScenarioResult Fig13WeakScaling(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("weak scaling: BERT-{12,24,48} on 8/16/32 V100 (Pub-B)");
  struct WeakPoint {
    int gpus;
    int bert;
    int global_batch;
  };
  const std::vector<WeakPoint> weak = {{8, 12, 512}, {16, 24, 768},
                                       {32, 48, 1024}};
  for (const WeakPoint& p : weak) {
    const int micro_batches = p.gpus;
    const std::shared_ptr<const NnModel> micro =
        ShardedBert(p.bert, std::max(1, p.global_batch / micro_batches));
    const PipelineEngine engine = MakePubBEngine(p.gpus, micro_batches);
    const double gpipe =
        engine.Run(*micro, PipelineStrategy::kGPipe).metrics.throughput;
    const PipelineResult pd = engine.Run(*micro, PipelineStrategy::kPipeDream);
    const double ooo =
        engine.Run(*micro, PipelineStrategy::kOooPipe2).metrics.throughput;
    const std::string prefix = StrFormat("g%d.", p.gpus);
    result.Set(prefix + "gpipe_throughput", gpipe);
    result.Set(prefix + "pipedream_throughput", pd.metrics.throughput);
    result.Set(prefix + "pipedream_weight_versions", pd.weight_versions);
    result.Set(prefix + "ooo_throughput", ooo);
    result.Set(prefix + "ooo_over_gpipe", ooo / gpipe);
    result.Set(prefix + "ooo_over_pd", ooo / pd.metrics.throughput);
  }
  return result;
}

ScenarioResult Fig13StrongBert(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("strong scaling: BERT-24/48, OOO-Pipe2, 8-32 V100 (Pub-B)");
  for (const int bert : {24, 48}) {
    double tp8 = 0.0;
    for (const int gpus : {8, 16, 32}) {
      if (gpus > bert) {
        continue;  // more GPUs than transformer layers
      }
      const int micro_batches = 2 * gpus;
      const std::shared_ptr<const NnModel> micro =
          ShardedBert(bert, std::max(1, 512 / micro_batches));
      const double tp = MakePubBEngine(gpus, micro_batches)
                            .Run(*micro, PipelineStrategy::kOooPipe2)
                            .metrics.throughput;
      result.Set(StrFormat("b%d.g%d.throughput", bert, gpus), tp);
      if (gpus == 8) {
        tp8 = tp;
      } else if (tp8 > 0) {
        result.Set(StrFormat("b%d.scaling_8_to_%d", bert, gpus), tp / tp8);
      }
    }
  }
  return result;
}

ScenarioResult Fig13StrongGpt3(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("strong scaling: GPT-3 Medium (sharded head), OOO-Pipe2");
  // 26 pipeline layers (embed + 24 decoders + head) bound the stage count.
  for (const int gpus : {8, 12, 16, 24}) {
    const int micro_batches = 2 * gpus;
    const int micro_batch = std::max(1, 96 / micro_batches);
    const std::shared_ptr<const NnModel> micro = CachedModel(
        StrFormat("sharded-gpt3m:B%d", micro_batch),
        [micro_batch] { return WithShardedHead(Gpt3Medium(micro_batch)); });
    const double tp = MakePubBEngine(gpus, micro_batches)
                          .Run(*micro, PipelineStrategy::kOooPipe2)
                          .metrics.throughput;
    result.Set(StrFormat("g%d.throughput", gpus), tp);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Section 8.4.2: Megatron-2 interleaved schedule vs OOO-Pipe2, BERT-48.

ScenarioResult AnaMegatron(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("Megatron-2 interleaved vs OOO-Pipe2, BERT-48 (Pub-B)");
  std::vector<double> ff_gains, ooo_vs_mega;
  for (const int gpus : {8, 16, 24}) {
    const int micro_batches = gpus;
    const std::shared_ptr<const NnModel> micro =
        ShardedBert(48, std::max(1, 512 / micro_batches));
    const PipelineEngine engine = MakePubBEngine(gpus, micro_batches);
    const double gpipe =
        engine.Run(*micro, PipelineStrategy::kGPipe).metrics.throughput;
    const double mega =
        engine.Run(*micro, PipelineStrategy::kMegatron).metrics.throughput;
    const double mega_ff =
        engine.Run(*micro, PipelineStrategy::kMegatronFF).metrics.throughput;
    const double ooo =
        engine.Run(*micro, PipelineStrategy::kOooPipe2).metrics.throughput;
    const std::string p = StrFormat("g%d.", gpus);
    result.Set(p + "gpipe_throughput", gpipe);
    result.Set(p + "megatron_throughput", mega);
    result.Set(p + "megatron_ff_throughput", mega_ff);
    result.Set(p + "ooo_throughput", ooo);
    result.Set(p + "ooo_over_megatron", ooo / mega);
    result.Set(p + "ff_gain", mega_ff / mega);
    ff_gains.push_back(mega_ff / mega);
    ooo_vs_mega.push_back(ooo / mega);
  }
  double ff_avg = 0.0, ooo_max = 0.0;
  for (size_t i = 0; i < ff_gains.size(); ++i) {
    ff_avg += ff_gains[i] / ff_gains.size();
    ooo_max = std::max(ooo_max, ooo_vs_mega[i]);
  }
  result.Set("ff_gain_avg", ff_avg);
  result.Set("ooo_over_megatron_max", ooo_max);
  return result;
}

// Note: bench/ana_megatron.cc historically did NOT quarter fwd_blocks when
// sharding the head, while fig13 did. The registry scenario uses the fig13
// variant (WithShardedHead) for both so the cached model can be shared; the
// occupancy of one GEMM head has no measurable effect on these ratios.

// ---------------------------------------------------------------------------
// Section 8.3: reverse first-k on ResNet-50 over Pub-A data parallelism.

ScenarioResult AnaReverseK(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("reverse first-k, ResNet-50 batch 128, 16/32x V100 (Pub-A)");
  const std::shared_ptr<const NnModel> model =
      CachedModel("resnet:L50:B128", [] { return ResNet(50, 128); });
  const TrainGraph graph(model.get());

  DataParallelConfig config;
  config.cluster = ClusterSpec::PubA();
  config.num_gpus = 16;
  const DataParallelEngine engine(config);

  int64_t total_volume = 0;
  for (int l = 0; l < model->num_layers(); ++l) {
    total_volume += engine.SyncVolume(*model, l);
  }
  result.Set("total_sync_mb", static_cast<double>(total_volume) / 1e6);
  result.Set("channel_gbps", engine.ChannelBandwidthGbps());

  const TrainMetrics base = engine.Run(*model, graph.ConventionalBackprop());
  result.SetMetrics("byteps.", base);

  for (int k : {0, 10, 20, 30, 45, 53}) {
    const ReverseFirstKResult rk = ReverseFirstK(graph, k);
    const TrainMetrics m = engine.Run(*model, rk.order);
    result.Set(StrFormat("k%d.gain", rk.effective_k),
               m.throughput / base.throughput);
  }

  const KSearchResult search = SearchBestK(model->num_layers(), [&](int k) {
    return engine.Run(*model, ReverseFirstK(graph, k).order).throughput;
  });
  const TrainMetrics best =
      engine.Run(*model, ReverseFirstK(graph, search.best_k).order);
  result.Set("g16.best_k", search.best_k);
  result.Set("g16.probes", static_cast<double>(search.evaluations.size()));
  result.Set("g16.gain", best.throughput / base.throughput);

  DataParallelConfig config32 = config;
  config32.num_gpus = 32;
  const DataParallelEngine engine32(config32);
  const TrainMetrics base32 =
      engine32.Run(*model, graph.ConventionalBackprop());
  const KSearchResult search32 = SearchBestK(model->num_layers(), [&](int k) {
    return engine32.Run(*model, ReverseFirstK(graph, k).order).throughput;
  });
  result.Set("g32.best_k", search32.best_k);
  result.Set("g32.gain", search32.best_throughput / base32.throughput);
  return result;
}

// ---------------------------------------------------------------------------
// Section 8.2: per-region co-run capacity for DenseNet-121 on the V100.

ScenarioResult AnaCorun(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("per-region co-run capacity, DenseNet-121(k32) on V100");
  const std::shared_ptr<const NnModel> model = CachedModel(
      "densenet:L121:k32:B32:I224", [] { return DenseNet(121, 32, 32, 224); });
  const TrainGraph graph(model.get());
  const GpuSpec gpu = GpuSpec::V100();
  const std::shared_ptr<const CostModel> cost =
      CachedCostModel(gpu, SystemProfile::TensorFlowXla());
  const CorunProfiler profiler(graph, *cost, BuildRegions(graph));
  const double capacity = gpu.slot_capacity();

  double best_low_occ = 0.0;   // regions with free slots
  double best_high_occ = 0.0;  // saturated regions
  for (int r = 0; r < profiler.num_regions(); ++r) {
    const Region& region = profiler.region(r);
    double occ_sum = 0.0;
    for (const TrainOp& op : region.main_ops) {
      const KernelCost kc = cost->Cost(model->layers[op.layer], op.type);
      occ_sum += EffectiveOccupancy(kc.thread_blocks, capacity) / capacity;
    }
    const double avg_occ = occ_sum / region.main_ops.size();

    double best = 1.0;
    for (int l = 0; l < model->num_layers(); ++l) {
      if (!graph.HasWgrad(l)) {
        continue;
      }
      best = std::max(
          best, profiler.SpeedupAt(r, {TrainOpType::kWeightGrad, l}, 0));
    }
    const std::string p = StrFormat("r%d.", r);
    result.Set(p + "main_ms", ToMs(profiler.MainDuration(r)));
    result.Set(p + "avg_occupancy", avg_occ);
    result.Set(p + "best_speedup", best);
    if (avg_occ > 0.9) {
      best_high_occ = std::max(best_high_occ, best);
    } else {
      best_low_occ = std::max(best_low_occ, best);
    }
  }
  result.Set("best_low_occ_speedup", best_low_occ);
  result.Set("best_high_occ_speedup", best_high_occ);
  return result;
}

// ---------------------------------------------------------------------------
// Steady-state scenarios: long training runs whose event timelines become
// iteration-periodic, exercising the replay fast path end to end. Their
// goldens pin `replayed == 1` alongside the metrics, so a regression that
// silently disables replay (or one that changes any extrapolated value)
// fails the golden gate.

ScenarioResult SteadySingleGpu(const ScenarioParams& params,
                               const std::shared_ptr<const NnModel>& model) {
  ScenarioResult result;
  const int measured = params.GetInt("measured_iterations", 24);
  result.AddNote(StrFormat("%s on V100, %d measured iterations",
                           model->name.c_str(), measured));
  const TrainGraph graph(model.get());
  const GpuSpec gpu = GpuSpec::V100();
  const SystemProfile xla = SystemProfile::TensorFlowXla();

  SingleGpuConfig config;
  config.gpu = gpu;
  config.profile = xla;
  config.precompiled_issue = true;
  config.measured_iterations = measured;

  ReplayStats conv_stats;
  const TrainMetrics conv = SingleGpuEngine(config).Run(
      *model, ConventionalIteration(graph), nullptr, &conv_stats);
  result.SetMetrics("conv.", conv);
  result.Set("conv.replayed", conv_stats.replayed ? 1 : 0);
  result.Set("conv.simulated_iterations", conv_stats.simulated_iterations);

  const JointScheduleResult sched = MakeOooSchedule(graph, gpu, xla);
  ReplayStats ooo_stats;
  const TrainMetrics ooo = SingleGpuEngine(config).Run(
      *model, sched.schedule, nullptr, &ooo_stats);
  result.SetMetrics("ooo.", ooo);
  result.Set("ooo.replayed", ooo_stats.replayed ? 1 : 0);
  result.Set("ooo.simulated_iterations", ooo_stats.simulated_iterations);
  result.Set("ooo_over_conv", ooo.throughput / conv.throughput);
  return result;
}

ScenarioResult SteadyResnet50(const ScenarioParams& params) {
  return SteadySingleGpu(
      params, CachedModel("resnet:L50:B32", [] { return ResNet(50, 32); }));
}

ScenarioResult SteadyDensenet121(const ScenarioParams& params) {
  return SteadySingleGpu(params,
                         CachedModel("densenet:L121:k24:B32:I32", [] {
                           return DenseNet(121, 24, 32, 32);
                         }));
}

ScenarioResult SteadyPipedreamBert12(const ScenarioParams& params) {
  ScenarioResult result;
  const int measured = params.GetInt("measured_iterations", 16);
  result.AddNote(StrFormat(
      "BERT-12 PipeDream on 4x V100 (Pub-B), %d measured iterations",
      measured));
  const std::shared_ptr<const NnModel> micro = ShardedBert(12, 8);

  PipelineConfig config;
  config.cluster = ClusterSpec::PubB(5);
  config.num_gpus = 4;
  config.num_micro_batches = 4;
  config.measured_iterations = measured;

  ReplayStats stats;
  const PipelineResult pd = PipelineEngine(config).Run(
      *micro, PipelineStrategy::kPipeDream, nullptr, &stats);
  result.SetMetrics("pd.", pd.metrics);
  result.Set("pd.replayed", stats.replayed ? 1 : 0);
  result.Set("pd.simulated_iterations", stats.simulated_iterations);
  result.Set("pd.weight_versions", pd.weight_versions);
  return result;
}

void RegisterSweep(ScenarioRegistry& reg, Scenario scenario) {
  scenario.label = "sweep";
  reg.Register(std::move(scenario));
}

void RegisterSteady(ScenarioRegistry& reg, Scenario scenario) {
  scenario.label = "steady";
  reg.Register(std::move(scenario));
}

}  // namespace

std::shared_ptr<const NnModel> Fig13ShardedBert(int layers, int micro_batch) {
  return ShardedBert(layers, micro_batch);
}

std::shared_ptr<const NnModel> Fig13ShardedGpt3(int micro_batch) {
  return CachedModel(
      StrFormat("sharded-gpt3m:B%d", micro_batch),
      [micro_batch] { return WithShardedHead(Gpt3Medium(micro_batch)); });
}

void RegisterSweepScenarios() {
  static std::once_flag once;
  std::call_once(once, [] {
    ScenarioRegistry& reg = ScenarioRegistry::Global();
    RegisterSweep(reg, {"fig13_weak_scaling", "Figure 13a",
                        "weak scaling: BERT-{12,24,48} on 8/16/32 V100, "
                        "GPipe vs PipeDream vs OOO-Pipe2",
                        Fig13WeakScaling});
    RegisterSweep(reg, {"fig13_strong_bert", "Figure 13b",
                        "strong scaling: BERT-24/48 from 8 to 32 GPUs, "
                        "OOO-Pipe2",
                        Fig13StrongBert});
    RegisterSweep(reg, {"fig13_strong_gpt3", "Figure 13b",
                        "strong scaling: GPT-3 Medium on 8-24 GPUs (+4 "
                        "embedding), OOO-Pipe2",
                        Fig13StrongGpt3});
    RegisterSweep(reg, {"ana_megatron", "Section 8.4.2",
                        "Megatron-2 interleaved vs OOO-Pipe2, BERT-48 "
                        "pre-training",
                        AnaMegatron});
    RegisterSweep(reg, {"ana_reverse_k", "Section 8.3",
                        "reverse first-k response curve and concave search, "
                        "ResNet-50 on Pub-A",
                        AnaReverseK});
    RegisterSweep(reg, {"ana_corun", "Section 8.2",
                        "per-region co-run capacity analysis, DenseNet-121",
                        AnaCorun});
    RegisterSteady(reg, {"steady_resnet50", "DESIGN.md §9",
                         "long-run ResNet-50 training under steady-state "
                         "iteration replay",
                         SteadyResnet50});
    RegisterSteady(reg, {"steady_densenet121", "DESIGN.md §9",
                         "long-run DenseNet-121(k24) training under "
                         "steady-state iteration replay",
                         SteadyDensenet121});
    RegisterSteady(reg, {"steady_pipedream_bert12", "DESIGN.md §9",
                         "long-run BERT-12 PipeDream pipeline under "
                         "steady-state iteration replay",
                         SteadyPipedreamBert12});
  });
}

}  // namespace oobp
