#include "src/runner/paper_scenarios.h"

#include <algorithm>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/str_util.h"
#include "src/core/corun_profiler.h"
#include "src/core/joint_scheduler.h"
#include "src/core/k_search.h"
#include "src/core/list_dp_scheduler.h"
#include "src/core/memory_model.h"
#include "src/core/region.h"
#include "src/core/reverse_k.h"
#include "src/core/schedule.h"
#include "src/nn/model_cache.h"
#include "src/nn/model_zoo.h"
#include "src/runner/registry.h"
#include "src/runtime/data_parallel_engine.h"
#include "src/runtime/hybrid_engine.h"
#include "src/runtime/pipeline_engine.h"
#include "src/runtime/single_gpu_engine.h"
#include "src/trace/trace.h"

namespace oobp {
namespace {

// The DenseNet-121 (growth 32, batch 32, 224x224) that Figures 1, 2 and 8
// and the Section 8.2 co-run analysis share.
std::shared_ptr<const NnModel> DenseNet121K32() {
  return CachedModel("densenet:L121:k32:B32:I224",
                     [] { return DenseNet(121, 32, 32, 224); });
}

// ---------------------------------------------------------------------------
// Figure 1: kernel issue overhead vs execution time for DenseNet-121's
// layers, per DenseBlock, under eager TensorFlow on a V100. Paper: in
// DenseBlock-3/4 the per-op issue overhead is up to 4x the kernel's
// execution, and those two blocks hold two thirds of the convolutions, so
// the executor, not the GPU, bounds training. Cost model only.

ScenarioResult Fig01KernelIssue(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("DenseNet-121(k32) batch 32 on V100, eager TensorFlow issue");
  const std::shared_ptr<const NnModel> model = DenseNet121K32();
  const std::shared_ptr<const CostModel> cost =
      CachedCostModel(GpuSpec::V100(), SystemProfile::TensorFlow());

  struct BlockStats {
    TimeNs exec = 0;
    TimeNs issue = 0;
    int convs = 0;
    double worst_ratio = 0.0;
  };
  std::map<std::string, BlockStats> blocks;
  for (const Layer& l : model->layers) {
    if (!l.block.starts_with("denseblock")) {
      continue;
    }
    const KernelCost kc = cost->Cost(l, TrainOpType::kForward);
    BlockStats& b = blocks[l.block];
    b.exec += kc.duration;
    b.issue += kc.issue_latency;
    ++b.convs;
    b.worst_ratio = std::max(
        b.worst_ratio, static_cast<double>(kc.issue_latency) / kc.duration);
  }

  int convs = 0, convs_34 = 0;
  TimeNs exec = 0, exec_34 = 0;
  double worst_34 = 0.0;
  for (const auto& [name, b] : blocks) {
    result.Set(name + ".convs", b.convs);
    result.Set(name + ".exec_us", ToUs(b.exec));
    result.Set(name + ".issue_us", ToUs(b.issue));
    result.Set(name + ".issue_over_exec",
               static_cast<double>(b.issue) / b.exec);
    result.Set(name + ".worst_issue_over_exec", b.worst_ratio);
    convs += b.convs;
    exec += b.exec;
    if (name == "denseblock3" || name == "denseblock4") {
      convs_34 += b.convs;
      exec_34 += b.exec;
      worst_34 = std::max(worst_34, b.worst_ratio);
    }
  }
  result.Set("db34.worst_issue_over_exec", worst_34);
  // Once training is issue-bound, DenseBlock-3/4's wall share follows their
  // op share ("two thirds of the total execution"), not their FLOP share.
  result.Set("db34.conv_share", static_cast<double>(convs_34) / convs);
  result.Set("db34.exec_share", static_cast<double>(exec_34) / exec);
  return result;
}

// ---------------------------------------------------------------------------
// Figure 2: DenseNet-121's conventional training timeline under eager
// TensorFlow. Issue overhead is masked behind queued kernels early in each
// pass and exposed where kernels are short (the end of DenseBlock-4), so the
// GPU's idle fraction differs sharply between windows of the iteration.

ScenarioResult Fig02Timeline(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("DenseNet-121(k32) batch 32 on V100, eager TensorFlow, "
                 "idle fraction of the GPU main stream per twelfth of the "
                 "run");
  const std::shared_ptr<const NnModel> model = DenseNet121K32();
  const TrainGraph graph(model.get());

  SingleGpuConfig config;
  config.gpu = GpuSpec::V100();
  config.profile = SystemProfile::TensorFlow();
  config.precompiled_issue = false;
  config.measured_iterations = 1;

  TraceRecorder trace;
  const TrainMetrics metrics =
      SingleGpuEngine(config).Run(*model, ConventionalIteration(graph), &trace);
  result.Set("iteration_ms", ToMs(metrics.iteration_time));
  result.Set("trace_events", static_cast<double>(trace.events().size()));

  const TimeNs makespan = trace.Makespan();
  constexpr int kWindows = 12;
  double max_idle = 0.0, min_idle = 1.0;
  for (int q = 0; q < kWindows; ++q) {
    const TimeNs begin = makespan * q / kWindows;
    const TimeNs end = makespan * (q + 1) / kWindows;
    const TimeNs busy = trace.BusyTime(/*track=*/0, begin, end);
    const double idle = static_cast<double>(end - begin - busy) / (end - begin);
    result.Set(StrFormat("w%02d.idle_frac", q + 1), idle);
    max_idle = std::max(max_idle, idle);
    min_idle = std::min(min_idle, idle);
  }
  result.Set("peak_idle_frac", max_idle);
  // Masked vs exposed windows; the floor keeps a fully masked window from
  // turning the ratio into noise.
  result.Set("idle_contrast", max_idle / std::max(min_idle, 1e-2));
  return result;
}

// ---------------------------------------------------------------------------
// Figure 4: data-parallel schedules on a uniform toy model — (a) conventional
// wait-free backprop + FIFO comm, (b) prioritized comm, (c) + reordered
// computation (reverse first-k). Reported both under the analytic cost model
// (ms) and in the paper's unit-time mode.

ScenarioResult Fig04DpUnit(const ScenarioParams& params) {
  ScenarioResult result;
  const int k = params.GetInt("k", 3);  // the paper reverses 3 of 5 layers
  const std::shared_ptr<const NnModel> model_ptr =
      CachedModel("ffnn:L5:B512:H8192", [] { return Ffnn(5, 512, 8192); });
  const NnModel& model = *model_ptr;
  const TrainGraph graph(&model);
  result.AddNote(StrFormat("model %s, 8 GPUs, reverse first k=%d",
                           model.name.c_str(), k));

  DataParallelConfig config;
  // A single NVLink node keeps per-layer sync comparable to per-layer
  // gradient compute, matching the figure's unit-time proportions.
  config.cluster = ClusterSpec::PubB(1);
  config.num_gpus = 8;
  config.commit_window_bytes = 96LL << 20;

  auto run_three = [&](const DataParallelConfig& base, const char* suffix,
                       TimeNs unit) {
    // (a) FIFO: Horovod with immediate per-tensor flush (no batching delay).
    DataParallelConfig fifo = base;
    fifo.scheme = CommScheme::kHorovod;
    fifo.fusion_cycle = 1;
    fifo.fusion_buffer_bytes = 1;
    const TrainMetrics a =
        DataParallelEngine(fifo).Run(model, graph.ConventionalBackprop());

    // (b) prioritized communication (BytePS), conventional order.
    DataParallelConfig prio = base;
    prio.scheme = CommScheme::kBytePS;
    const DataParallelEngine byteps(prio);
    const TrainMetrics b = byteps.Run(model, graph.ConventionalBackprop());

    // (c) + reordered computation.
    const TrainMetrics c = byteps.Run(model, ReverseFirstK(graph, k).order);

    if (unit > 0) {
      result.Set(StrFormat("unit_a%s", suffix),
                 static_cast<double>(a.iteration_time) / unit);
      result.Set(StrFormat("unit_b%s", suffix),
                 static_cast<double>(b.iteration_time) / unit);
      result.Set(StrFormat("unit_c%s", suffix),
                 static_cast<double>(c.iteration_time) / unit);
    } else {
      result.SetMetrics("a.", a);
      result.SetMetrics("b.", b);
      result.SetMetrics("c.", c);
    }
    result.Set(StrFormat("speedup_c_over_a%s", suffix),
               c.throughput / a.throughput);
    result.Set(StrFormat("speedup_c_over_b%s", suffix),
               c.throughput / b.throughput);
  };

  run_three(config, "", 0);

  // Unit-time toy: every op is one unit, per-layer sync `sync_units` units,
  // and the commit window admits a single message so priorities can act.
  DataParallelConfig unit_config = config;
  unit_config.unit_time = Ms(1);
  // Three sync units per layer congest the channel enough that FIFO ordering
  // hurts (a) and the reordered schedule (c) wins: 22 / 21 / 20 units, the
  // paper's strict (a) > (b) > (c) ordering.
  unit_config.unit_sync_units = params.GetDouble("unit_sync_units", 3.0);
  unit_config.commit_window_bytes = 1 << 20;
  run_three(unit_config, "_unit", unit_config.unit_time);
  return result;
}

// ---------------------------------------------------------------------------
// Figures 5 and 6: the 8-layer / 2-GPU toy — cross-layer model parallelism
// (M = 1, Figure 5) and pipeline parallelism with two micro-batches
// (Figure 6). (a) conventional / GPipe, (b) + gradient fast-forwarding,
// (c) + modulo allocation. Unit-time mode pins the paper's exact makespans
// (Figure 5: 23 / 19 / 16 units).

ScenarioResult PipeToy(int micro_batches, int batch) {
  ScenarioResult result;
  const std::shared_ptr<const NnModel> model_ptr =
      CachedModel(StrFormat("ffnn:L8:B%d:H4096", batch),
                  [batch] { return Ffnn(8, batch, 4096); });
  const NnModel& model = *model_ptr;
  result.AddNote(StrFormat("model %s, 2 GPUs, %d micro-batch(es)",
                           model.name.c_str(), micro_batches));

  PipelineConfig config;
  config.cluster = ClusterSpec::PubB(1);
  config.num_gpus = 2;
  config.num_micro_batches = micro_batches;
  config.use_link_override = true;
  config.link_override = {"ideal", 10000.0, 0};

  const PipelineEngine engine(config);
  const PipelineResult a = engine.Run(model, PipelineStrategy::kGPipe);
  const PipelineResult b = engine.Run(model, PipelineStrategy::kOooPipe1);
  const PipelineResult c = engine.Run(model, PipelineStrategy::kOooPipe2);
  result.SetMetrics("a.", a.metrics);
  result.SetMetrics("b.", b.metrics);
  result.SetMetrics("c.", c.metrics);
  result.Set("speedup_b", static_cast<double>(a.metrics.iteration_time) /
                              static_cast<double>(b.metrics.iteration_time));
  result.Set("speedup_c", static_cast<double>(a.metrics.iteration_time) /
                              static_cast<double>(c.metrics.iteration_time));

  // Unit-time mode: op = 1 unit, near-infinite link so the unit counts are
  // exactly the paper's figure makespans.
  PipelineConfig unit_config = config;
  unit_config.unit_time = Ms(1);
  unit_config.link_override = {"unit-ideal", 1e6, 0};
  const PipelineEngine unit_engine(unit_config);
  const double unit = static_cast<double>(unit_config.unit_time);
  const PipelineResult ua = unit_engine.Run(model, PipelineStrategy::kGPipe);
  const PipelineResult ub = unit_engine.Run(model, PipelineStrategy::kOooPipe1);
  const PipelineResult uc = unit_engine.Run(model, PipelineStrategy::kOooPipe2);
  result.Set("unit_a", static_cast<double>(ua.metrics.iteration_time) / unit);
  result.Set("unit_b", static_cast<double>(ub.metrics.iteration_time) / unit);
  result.Set("unit_c", static_cast<double>(uc.metrics.iteration_time) / unit);
  return result;
}

ScenarioResult Fig05MpUnit(const ScenarioParams&) { return PipeToy(1, 256); }
ScenarioResult Fig06PipeUnit(const ScenarioParams&) { return PipeToy(2, 128); }

// ---------------------------------------------------------------------------
// Figure 7: single-GPU training throughput vs XLA on a V100 — XLA, XLA+Opt1
// (pre-compiled issue), OOO-XLA (= +Opt2 multi-stream ooo), and Nimble.
// Split per model family so the runner can parallelize.

struct SingleGpuRow {
  double xla = 0, opt1 = 0, ooo = 0;
  std::optional<double> nimble;
  bool ooo_oom = false;
  TrainMetrics ooo_metrics;
};

SingleGpuRow RunSingleGpuConfig(const NnModel& model) {
  const TrainGraph graph(&model);
  const GpuSpec gpu = GpuSpec::V100();
  const SystemProfile xla = SystemProfile::TensorFlowXla();
  SingleGpuRow r;

  const IterationSchedule conventional = ConventionalIteration(graph);
  const TrainMetrics m_xla =
      SingleGpuEngine({gpu, xla, /*precompiled_issue=*/false})
          .Run(model, conventional);
  const TrainMetrics m_opt1 =
      SingleGpuEngine({gpu, xla, /*precompiled_issue=*/true})
          .Run(model, conventional);

  const JointScheduleResult sched = MakeOooSchedule(graph, gpu, xla);
  const TrainMetrics m_ooo =
      SingleGpuEngine({gpu, xla, /*precompiled_issue=*/true})
          .Run(model, sched.schedule);

  const TrainMetrics m_nimble =
      SingleGpuEngine({gpu, SystemProfile::PyTorchNimble(), true})
          .Run(model, conventional);

  r.xla = m_xla.oom ? 0 : m_xla.throughput;
  r.opt1 = m_opt1.oom ? 0 : m_opt1.throughput;
  r.ooo = m_ooo.oom ? 0 : m_ooo.throughput;
  r.ooo_oom = m_ooo.oom;
  r.ooo_metrics = m_ooo;
  if (!m_nimble.oom) {
    r.nimble = m_nimble.throughput;
  }
  return r;
}

ScenarioResult Fig07Model(
    const std::function<std::shared_ptr<const NnModel>(int)>& make,
    const std::string& label) {
  ScenarioResult result;
  result.AddNote(label + " on V100, batch 32 and 64");
  double max_gain = 0.0;
  for (int batch : {32, 64}) {
    const SingleGpuRow r = RunSingleGpuConfig(*make(batch));
    const std::string p = StrFormat("b%d.", batch);
    result.Set(p + "xla_throughput", r.xla);
    result.Set(p + "opt1_over_xla", r.xla > 0 ? r.opt1 / r.xla : 0);
    result.Set(p + "ooo_over_xla", r.xla > 0 ? r.ooo / r.xla : 0);
    result.Set(p + "nimble_over_xla",
               r.nimble.has_value() && r.xla > 0 ? *r.nimble / r.xla : 0);
    result.Set(p + "nimble_oom", r.nimble.has_value() ? 0 : 1);
    result.SetMetrics(p + "ooo.", r.ooo_metrics);
    max_gain = std::max(max_gain, r.xla > 0 ? r.ooo / r.xla : 0);
  }
  result.Set("max_ooo_over_xla", max_gain);
  return result;
}

// The maximum-speedup configurations the paper calls out separately, plus
// Nimble's memory behaviour at batch 64.
ScenarioResult Fig07MaxGain(const ScenarioParams&) {
  ScenarioResult result;
  const SingleGpuRow k12 =
      RunSingleGpuConfig(*CachedModel("densenet:L121:k12:B32:I32", [] {
        return DenseNet(121, 12, 32, 32);
      }));
  const SingleGpuRow a025 =
      RunSingleGpuConfig(*CachedModel("mobilenet:a0.25:B32:I224", [] {
        return MobileNetV3Large(0.25, 32);
      }));
  const SingleGpuRow nimble64 = RunSingleGpuConfig(
      *CachedModel("resnet:L101:B64", [] { return ResNet(101, 64); }));
  result.Set("densenet121_k12_b32_gain",
             k12.xla > 0 ? k12.ooo / k12.xla : 0);
  result.Set("mobilenet_a025_b32_gain",
             a025.xla > 0 ? a025.ooo / a025.xla : 0);
  result.Set("nimble_resnet101_b64_oom", nimble64.nimble.has_value() ? 0 : 1);
  return result;
}

// ---------------------------------------------------------------------------
// Figure 8: the multi-region joint schedule of DenseNet-121 — the
// scheduling regions over the main stream and where each DenseBlock's
// weight gradients land on the sub stream. Unconstrained, the scheduler
// delays DenseBlock-4's weight gradients into the next iteration's forward
// pass; under the paper's 1.1x memory cap it pre-schedules leading backward
// regions until the peak fits. Analytic: co-run profiler + memory model.

ScenarioResult Fig08Regions(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("DenseNet-121(k32) batch 32 on V100, XLA; notes list the "
                 "weight gradients placed in each region");
  const std::shared_ptr<const NnModel> model = DenseNet121K32();
  const TrainGraph graph(model.get());
  const std::shared_ptr<const CostModel> cost =
      CachedCostModel(GpuSpec::V100(), SystemProfile::TensorFlowXla());
  const CorunProfiler profiler(graph, *cost, BuildRegions(graph));
  const MemoryTimeline conv_mem = EstimateBackpropMemory(
      *model, ConventionalIteration(graph).MergedOrder());
  result.Set("conv_peak_mb", conv_mem.peak / 1e6);
  for (int r = 0; r < profiler.num_regions(); ++r) {
    result.Set(StrFormat("r%d.main_ops", r),
               static_cast<double>(profiler.region(r).main_ops.size()));
    result.Set(StrFormat("r%d.main_ms", r), ToMs(profiler.MainDuration(r)));
  }

  auto summarize = [&](const std::string& prefix,
                       const JointScheduleResult& sched) {
    std::vector<std::map<std::string, int>> placed(profiler.num_regions());
    int into_forward = 0, db4_into_forward = 0;
    for (size_t i = 0; i < sched.assigned_ops.size(); ++i) {
      const std::string& block =
          model->layers[sched.assigned_ops[i].layer].block;
      const int region = sched.assigned_region[i];
      ++placed[region][block];
      if (profiler.region(region).kind == Region::Kind::kForward) {
        ++into_forward;
        db4_into_forward += block == "denseblock4" ? 1 : 0;
      }
    }
    result.Set(prefix + "pre_scheduled_regions", sched.pre_scheduled_regions);
    result.Set(prefix + "dw_in_forward", into_forward);
    result.Set(prefix + "db4_dw_in_forward", db4_into_forward);
    result.Set(prefix + "peak_mb", sched.peak_memory / 1e6);
    result.Set(prefix + "peak_over_conv",
               static_cast<double>(sched.peak_memory) / conv_mem.peak);
    for (int r = 0; r < profiler.num_regions(); ++r) {
      std::string line = prefix + profiler.region(r).name + " <-";
      for (const auto& [block, count] : placed[r]) {
        line += StrFormat(" %s:%d", block.c_str(), count);
      }
      result.AddNote(placed[r].empty() ? line + " -" : line);
    }
  };
  summarize("unconstrained.", MultiRegionJointSchedule(graph, profiler));
  JointScheduleOptions capped;
  capped.memory_cap_bytes = static_cast<int64_t>(1.1 * conv_mem.peak);
  summarize("capped.", MultiRegionJointSchedule(graph, profiler, capped));
  return result;
}

// ---------------------------------------------------------------------------
// Figure 9: temporary memory through DenseNet-121's backprop, conventional
// vs the Figure 8 ooo schedule (DenseBlock-4's weight gradients delayed past
// the rest of backprop), sampled at output-gradient ops. Paper: the ooo run
// holds up to ~200 MB more late in backprop, but its peak, at the start of
// backprop, barely grows. Analytic: memory model only.

ScenarioResult Fig09Memory(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("DenseNet-121(k32) batch 64 on V100, XLA; do<L>.* sample "
                 "every 12th output-gradient op");
  const std::shared_ptr<const NnModel> model = CachedModel(
      "densenet:L121:k32:B64:I224", [] { return DenseNet(121, 32, 64, 224); });
  const TrainGraph graph(model.get());
  const std::shared_ptr<const CostModel> cost =
      CachedCostModel(GpuSpec::V100(), SystemProfile::TensorFlowXla());
  const CorunProfiler profiler(graph, *cost, BuildRegions(graph));

  const IterationSchedule conventional = ConventionalIteration(graph);
  const MemoryTimeline conv =
      EstimateBackpropMemory(*model, conventional.MergedOrder());
  JointScheduleOptions opts;
  opts.memory_cap_bytes = static_cast<int64_t>(1.1 * conv.peak);
  const JointScheduleResult joint =
      MultiRegionJointSchedule(graph, profiler, opts);

  // For the memory curve, running DenseBlock-4's weight gradients alongside
  // the next forward pass equals moving them after the rest of backprop.
  IterationSchedule fig8;
  std::vector<ScheduledOp> delayed;
  for (const TrainOp& op : graph.ConventionalBackprop()) {
    if (op.type == TrainOpType::kWeightGrad &&
        model->layers[op.layer].block == "denseblock4") {
      delayed.push_back({op, kSubStream, -1});
    } else {
      fig8.ops.push_back({op, kMainStream, -1});
    }
  }
  fig8.ops.insert(fig8.ops.end(), delayed.begin(), delayed.end());
  const MemoryTimeline ooo = EstimateBackpropMemory(*model, fig8.MergedOrder());

  // (layer, usage) after each output-gradient op.
  auto at_dgrad = [](const IterationSchedule& s, const MemoryTimeline& tl) {
    std::vector<std::pair<int, int64_t>> samples;
    const std::vector<TrainOp> merged = s.MergedOrder();
    for (size_t i = 0; i < merged.size(); ++i) {
      if (merged[i].type == TrainOpType::kOutputGrad) {
        samples.emplace_back(merged[i].layer, tl.usage_after[i]);
      }
    }
    return samples;
  };
  const auto conv_samples = at_dgrad(conventional, conv);
  const auto ooo_samples = at_dgrad(fig8, ooo);
  int64_t max_excess = 0;
  for (size_t i = 0; i < conv_samples.size(); ++i) {
    max_excess =
        std::max(max_excess, ooo_samples[i].second - conv_samples[i].second);
    if (i % 12 == 0) {
      const std::string p = StrFormat("do%d.", conv_samples[i].first);
      result.Set(p + "conv_mb", conv_samples[i].second / 1e6);
      result.Set(p + "ooo_mb", ooo_samples[i].second / 1e6);
    }
  }

  result.Set("conv_peak_mb", conv.peak_total() / 1e6);
  result.Set("ooo_peak_mb", (ooo.peak + conv.base) / 1e6);
  result.Set("peak_increase_frac",
             static_cast<double>(ooo.peak - conv.peak) / conv.peak);
  result.Set("max_excess_mb", max_excess / 1e6);
  result.Set("joint_peak_mb", (joint.peak_memory + conv.base) / 1e6);
  result.Set("joint_pre_scheduled_regions", joint.pre_scheduled_regions);
  return result;
}

// ---------------------------------------------------------------------------
// Figure 10: data-parallel scaling — Horovod / BytePS / OOO-BytePS (reverse
// first-k with concave k search) on the three clusters of Table 2. Split per
// cluster.

ScenarioResult Fig10Cluster(const ClusterSpec& cluster,
                            const std::vector<int>& gpu_counts, int batch50,
                            int batch101) {
  ScenarioResult result;
  result.AddNote(StrFormat("cluster %s, ResNet-50 batch %d / ResNet-101 "
                           "batch %d per GPU",
                           cluster.name.c_str(), batch50, batch101));
  double min_gain_16plus = 0.0, max_gain_16plus = 0.0;
  bool any_16plus = false;
  for (const int depth : {50, 101}) {
    const int batch = depth == 50 ? batch50 : batch101;
    const std::shared_ptr<const NnModel> model_ptr =
        CachedModel(StrFormat("resnet:L%d:B%d", depth, batch),
                    [depth, batch] { return ResNet(depth, batch); });
    const NnModel& model = *model_ptr;
    const TrainGraph graph(&model);
    for (int gpus : gpu_counts) {
      DataParallelConfig config;
      config.cluster = cluster;
      config.num_gpus = gpus;

      config.scheme = CommScheme::kHorovod;
      const double hvd = DataParallelEngine(config)
                             .Run(model, graph.ConventionalBackprop())
                             .throughput;
      config.scheme = CommScheme::kBytePS;
      const DataParallelEngine byteps(config);
      const double bps =
          byteps.Run(model, graph.ConventionalBackprop()).throughput;
      const KSearchResult search =
          SearchBestK(model.num_layers(), [&](int k) {
            return byteps.Run(model, ReverseFirstK(graph, k).order).throughput;
          });
      const double ooo = search.best_throughput;
      const double gain = bps > 0 ? ooo / bps : 0;

      const std::string p = StrFormat("r%d.g%d.", depth, gpus);
      result.Set(p + "horovod_throughput", hvd);
      result.Set(p + "byteps_throughput", bps);
      result.Set(p + "ooo_throughput", ooo);
      result.Set(p + "best_k", search.best_k);
      result.Set(p + "gain", gain);
      if (gpus >= 16) {
        min_gain_16plus =
            any_16plus ? std::min(min_gain_16plus, gain) : gain;
        max_gain_16plus =
            any_16plus ? std::max(max_gain_16plus, gain) : gain;
        any_16plus = true;
      }
    }
  }
  if (any_16plus) {
    result.Set("min_gain_16plus", min_gain_16plus);
    result.Set("max_gain_16plus", max_gain_16plus);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Figure 11(a): pipeline-parallel fine-tuning on four NVLink V100s,
// normalized to one GPU: cross-layer model parallelism, GPipe, OOO-Pipe1,
// OOO-Pipe2 and PipeDream (reference only: weight stashing changes the
// semantics). Paper: OOO-Pipe2 is 1.59x GPipe and 3.2x one GPU on BERT-24,
// 1.5x GPipe on the FFNN, and 1.47x model parallelism on the RNN.

ScenarioResult Fig11aFinetune(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("4x V100 (NVLink, Pub-B node); *_norm = throughput over "
                 "one GPU");
  struct Workload {
    const char* key;
    std::function<NnModel(int)> model;  // arg: (micro-)batch size
    int global_batch;
    int micro_batches;  // 1: no micro-batching (the RNN, Section 8.4.1)
  };
  const std::vector<Workload> workloads = {
      {"rnn", [](int b) { return RnnModel(16, b); }, 1024, 1},
      {"bert", [](int b) { return Bert(24, b); }, 96, 4},
      {"ffnn", [](int b) { return Ffnn(16, b, 4096); }, 256, 4},
  };
  for (const Workload& w : workloads) {
    PipelineConfig config;
    config.cluster = ClusterSpec::PubB(1);
    config.num_gpus = 4;
    config.num_micro_batches = 1;
    const NnModel full = w.model(w.global_batch);
    PipelineConfig one_gpu = config;
    one_gpu.num_gpus = 1;
    const double single = PipelineEngine(one_gpu)
                              .Run(full, PipelineStrategy::kGPipe)
                              .metrics.throughput;
    // Cross-layer model parallelism: the pipeline without micro-batches.
    const double mp = PipelineEngine(config)
                          .Run(full, PipelineStrategy::kGPipe)
                          .metrics.throughput;
    config.num_micro_batches = w.micro_batches;
    const NnModel micro = w.model(w.global_batch / w.micro_batches);
    const PipelineEngine engine(config);
    auto run = [&](PipelineStrategy s) {
      return engine.Run(micro, s).metrics.throughput;
    };
    const double gpipe = run(PipelineStrategy::kGPipe);
    const double pipe2 = run(PipelineStrategy::kOooPipe2);
    const std::string p = std::string(w.key) + ".";
    result.Set(p + "single_throughput", single);
    result.Set(p + "mp_norm", mp / single);
    result.Set(p + "gpipe_norm", gpipe / single);
    result.Set(p + "pipe1_norm", run(PipelineStrategy::kOooPipe1) / single);
    result.Set(p + "pipe2_norm", pipe2 / single);
    result.Set(p + "pipedream_norm",
               run(PipelineStrategy::kPipeDream) / single);
    result.Set(p + "pipe2_over_gpipe", pipe2 / gpipe);
    // The cell-granularity cost model does not reproduce the paper's RNN
    // micro-batch interference (GPipe < MP), so the RNN's headline is the
    // comparison with model parallelism the paper also reports.
    result.Set(p + "pipe2_over_mp", pipe2 / mp);
  }
  return result;
}

// Pipeline config of the four-V100 BERT-24 runs over an overridden link
// (Figure 11(b) and the modulo-granularity ablation).
PipelineConfig FourGpuOver(const LinkSpec& link, int modulo_group) {
  PipelineConfig config;
  config.cluster = ClusterSpec::PubB(1);
  config.num_gpus = 4;
  config.num_micro_batches = 4;
  config.use_link_override = true;
  config.link_override = link;
  config.modulo_group_size = modulo_group;
  return config;
}

// The three interconnects of Figure 11(b), keyed for result names.
const std::vector<std::pair<std::string, LinkSpec>>& Interconnects() {
  static const std::vector<std::pair<std::string, LinkSpec>> links = {
      {"nvlink", LinkSpec::NvLink()},
      {"pcie3", LinkSpec::PcIe3()},
      {"eth10g", LinkSpec::Eth10G()},
  };
  return links;
}

// ---------------------------------------------------------------------------
// Figure 11(b): BERT-24 on four V100s over NVLink, PCIe 3.0 and 10GbE, with
// group-2 modulo allocation on Ethernet. Paper: OOO-Pipe2 beats GPipe by
// 1.70x / 1.58x / 1.48x at comm/comp ratios 0.05 / 0.16 / 1.8.

ScenarioResult Fig11bInterconnect(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("BERT-24, 96 sequences in 4 micro-batches on 4x V100; "
                 "modulo group 2 on 10GbE, 1 elsewhere");
  const NnModel micro = Bert(24, 96 / 4);
  for (const auto& [key, link] : Interconnects()) {
    const int group = key == "eth10g" ? 2 : 1;
    const PipelineEngine engine(FourGpuOver(link, group));
    const double gpipe =
        engine.Run(micro, PipelineStrategy::kGPipe).metrics.throughput;
    const PipelineResult p2 = engine.Run(micro, PipelineStrategy::kOooPipe2);
    const std::string p = key + ".";
    result.Set(p + "gpipe_throughput", gpipe);
    result.Set(p + "pipedream_throughput",
               engine.Run(micro, PipelineStrategy::kPipeDream)
                   .metrics.throughput);
    result.Set(p + "ooo_throughput", p2.metrics.throughput);
    result.Set(p + "comm_comp", p2.comm_comp_ratio);
    result.Set(p + "gain", p2.metrics.throughput / gpipe);
  }
  // Per-transformer modulo allocation on Ethernet, for the grouping gain.
  const double per_layer = PipelineEngine(FourGpuOver(LinkSpec::Eth10G(), 1))
                               .Run(micro, PipelineStrategy::kOooPipe2)
                               .metrics.throughput;
  result.Set("eth10g.per_layer_ooo_throughput", per_layer);
  result.Set("eth10g.grouping_gain",
             result.Get("eth10g.ooo_throughput") / per_layer);
  return result;
}

// ---------------------------------------------------------------------------
// Figure 12: FFNN pipeline timelines on 4 GPUs with 4 micro-batches over an
// ideal link — (a) GPipe, (b) OOO-Pipe1 (gradient fast-forwarding),
// (c) OOO-Pipe2 (+ modulo allocation). The 8-layer timelines go into the
// notes; the 16-layer analysis model gives the speedups. Paper (ideal
// analysis): 1.22x and 1.62x over GPipe.

// One line per GPU: op labels in time order, "...." per idle op slot.
std::vector<std::string> RenderTimeline(const TraceRecorder& trace, int gpus,
                                        TimeNs unit) {
  std::vector<std::string> lines;
  for (int g = 0; g < gpus; ++g) {
    std::string line = StrFormat("GPU%d |", g);
    TimeNs cursor = 0;
    for (const TraceEvent& ev : trace.TrackEvents(g)) {
      while (cursor + unit / 2 < ev.start) {
        line += " .... ";
        cursor += unit;
      }
      std::string label = ev.name.substr(0, ev.name.find('#'));
      label.resize(6, ' ');
      line += label;
      cursor = ev.end();
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

ScenarioResult Fig12FfnnTimeline(const ScenarioParams&) {
  ScenarioResult result;
  PipelineConfig config;
  config.cluster = ClusterSpec::PubB(1);
  config.num_gpus = 4;
  config.num_micro_batches = 4;
  config.use_link_override = true;
  config.link_override = {"ideal", 10000.0, 0};
  const PipelineEngine engine(config);
  const std::vector<std::pair<std::string, PipelineStrategy>> strategies = {
      {"gpipe", PipelineStrategy::kGPipe},
      {"pipe1", PipelineStrategy::kOooPipe1},
      {"pipe2", PipelineStrategy::kOooPipe2},
  };

  const NnModel small = Ffnn(8, 64, 4096);
  for (const auto& [key, strategy] : strategies) {
    TraceRecorder trace;
    const PipelineResult r = engine.Run(small, strategy, &trace);
    result.Set("ffnn8." + key + ".iteration_ms",
               ToMs(r.metrics.iteration_time));
    result.AddNote(StrFormat("FFNN-8 %s:", PipelineStrategyName(strategy)));
    const TimeNs unit =
        trace.events().empty() ? 1 : trace.events()[0].duration;
    for (std::string& line : RenderTimeline(trace, config.num_gpus, unit)) {
      result.AddNote(std::move(line));
    }
  }

  const NnModel model = Ffnn(16, 64, 4096);
  std::map<std::string, double> tp;
  for (const auto& [key, strategy] : strategies) {
    tp[key] = engine.Run(model, strategy).metrics.throughput;
  }
  result.Set("gpipe_throughput", tp["gpipe"]);
  result.Set("pipe1_over_gpipe", tp["pipe1"] / tp["gpipe"]);
  result.Set("pipe2_over_gpipe", tp["pipe2"] / tp["gpipe"]);
  result.Set("pipe2_over_pipe1", tp["pipe2"] / tp["pipe1"]);
  return result;
}

// ---------------------------------------------------------------------------
// Section 6 / 8.4.2 ablation: data parallelism over 8-GPU BERT-24 pipelines
// (paper: replication improves DAPPLE and OOO-Pipe2 alike by 30-35%), and
// reverse first-k inside OOO-Pipe2's deferred pool (the paper leaves the
// optimal k as future work; this sweeps it).

ScenarioResult AblHybrid(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("BERT-24 micro-batch 16, 8-GPU pipelines x 1/2/4 replicas "
                 "(Pub-B)");
  const NnModel micro = Bert(24, 16);
  auto run = [&](int replicas, PipelineStrategy s, int k) {
    HybridConfig config;
    config.pipeline.cluster = ClusterSpec::PubB(5);
    config.pipeline.num_gpus = 8;
    config.pipeline.num_micro_batches = 8;
    config.pipeline.reverse_first_k = k;
    config.dp_groups = replicas;
    return HybridEngine(config).Run(micro, s);
  };

  for (const auto& [key, strategy] :
       {std::pair{"dapple", PipelineStrategy::kDapple},
        std::pair{"pipe2", PipelineStrategy::kOooPipe2}}) {
    double one_replica = 0.0;
    for (const int replicas : {1, 2, 4}) {
      const HybridResult r = run(replicas, strategy, 0);
      if (replicas == 1) {
        one_replica = r.metrics.throughput;
      }
      const std::string p = StrFormat("%s.r%d.", key, replicas);
      result.Set(p + "throughput", r.metrics.throughput);
      result.Set(p + "exposed_ms", ToMs(r.exposed_sync));
      result.Set(p + "gain", r.metrics.throughput / one_replica);
    }
  }

  double k0 = 0.0, best = 0.0, worst = 0.0;
  for (const int k : {0, 4, 8, 16, 26}) {
    const HybridResult r = run(2, PipelineStrategy::kOooPipe2, k);
    if (k == 0) {
      k0 = best = worst = r.metrics.throughput;
    }
    best = std::max(best, r.metrics.throughput);
    worst = std::min(worst, r.metrics.throughput);
    result.Set(StrFormat("pool.k%d.throughput", k), r.metrics.throughput);
    result.Set(StrFormat("pool.k%d.exposed_ms", k), ToMs(r.exposed_sync));
  }
  result.Set("pool.best_k_gain", best / k0);
  result.Set("pool.worst_k_gain", worst / k0);
  return result;
}

// ---------------------------------------------------------------------------
// Section 8.2 ablation: multi-region joint scheduling vs the naive variant
// that moves weight gradients to the sub stream in conventional order.
// Paper (DenseNet-121 k=12, batch 32): naive 1.39x over XLA, joint 1.54x.

ScenarioResult AblJointVsNaive(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("V100, XLA, batch 32");
  const GpuSpec gpu = GpuSpec::V100();
  const SystemProfile xla = SystemProfile::TensorFlowXla();
  const std::vector<std::pair<std::string, std::shared_ptr<const NnModel>>>
      cases = {
          {"densenet121_k12",
           CachedModel("densenet:L121:k12:B32:I32",
                       [] { return DenseNet(121, 12, 32, 32); })},
          {"densenet121_k32",
           CachedModel("densenet:L121:k32:B32:I32",
                       [] { return DenseNet(121, 32, 32, 32); })},
          {"mobilenet_a025",
           CachedModel("mobilenet:a0.25:B32:I224",
                       [] { return MobileNetV3Large(0.25, 32); })},
      };
  for (const auto& [key, model] : cases) {
    const TrainGraph graph(model.get());
    const double base = SingleGpuEngine({gpu, xla, false})
                            .Run(*model, ConventionalIteration(graph))
                            .throughput;
    const double naive = SingleGpuEngine({gpu, xla, true})
                             .Run(*model, NaiveSubStreamIteration(graph))
                             .throughput;
    const CorunProfiler profiler(graph, *CachedCostModel(gpu, xla),
                                 BuildRegions(graph));
    const double joint =
        SingleGpuEngine({gpu, xla, true})
            .Run(*model, MultiRegionJointSchedule(graph, profiler).schedule)
            .throughput;
    const std::string p = key + ".";
    result.Set(p + "xla_throughput", base);
    result.Set(p + "naive_over_xla", naive / base);
    result.Set(p + "joint_over_xla", joint / base);
    result.Set(p + "joint_over_naive", joint / naive);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Section 5.1 ablation: the concave k-halving search vs an exhaustive sweep
// of reverse first-k ("the above heuristic search can efficiently find the
// optimal k"): probes spent and fraction of the exhaustive optimum reached.

ScenarioResult AblKSearch(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("ResNet-50 batch 128 / ResNet-101 batch 96, Pub-A");
  struct Case {
    const char* key;
    std::shared_ptr<const NnModel> model;
    int gpus;
  };
  const std::shared_ptr<const NnModel> r50 =
      CachedModel("resnet:L50:B128", [] { return ResNet(50, 128); });
  const std::shared_ptr<const NnModel> r101 =
      CachedModel("resnet:L101:B96", [] { return ResNet(101, 96); });
  double worst_quality = 1.0;
  for (const Case& c : {Case{"resnet50_g16", r50, 16},
                        Case{"resnet101_g16", r101, 16},
                        Case{"resnet50_g32", r50, 32}}) {
    const NnModel& model = *c.model;
    const TrainGraph graph(&model);
    DataParallelConfig config;
    config.cluster = ClusterSpec::PubA();
    config.num_gpus = c.gpus;
    config.measured_iterations = 2;
    const DataParallelEngine engine(config);
    auto throughput = [&](int k) {
      return engine.Run(model, ReverseFirstK(graph, k).order).throughput;
    };
    const KSearchResult search = SearchBestK(model.num_layers(), throughput);
    double exhaustive_best = 0.0;
    int exhaustive_k = 0;
    for (int k = 0; k <= model.num_layers(); ++k) {
      const double t = throughput(k);
      if (t > exhaustive_best) {
        exhaustive_best = t;
        exhaustive_k = k;
      }
    }
    const double quality = search.best_throughput / exhaustive_best;
    worst_quality = std::min(worst_quality, quality);
    const std::string p = std::string(c.key) + ".";
    result.Set(p + "layers", model.num_layers());
    result.Set(p + "probes", static_cast<double>(search.evaluations.size()));
    result.Set(p + "best_k", search.best_k);
    result.Set(p + "exhaustive_k", exhaustive_k);
    result.Set(p + "quality", quality);
  }
  result.Set("worst_quality", worst_quality);
  return result;
}

// ---------------------------------------------------------------------------
// Section 5.1 ablation: reverse first-k vs an explicit list scheduler for
// data-parallel training. The list scheduler needs per-layer sync-time
// estimates (here exact, 4x too low and 4x too high); reverse first-k only
// probes throughput for k.

ScenarioResult AblListScheduling(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("ResNet-50 batch 128 on 32x V100 (Pub-A); gains over "
                 "conventional backprop");
  const std::shared_ptr<const NnModel> model =
      CachedModel("resnet:L50:B128", [] { return ResNet(50, 128); });
  const TrainGraph graph(model.get());
  const std::shared_ptr<const CostModel> cost =
      CachedCostModel(GpuSpec::V100(), SystemProfile::TensorFlow());
  DataParallelConfig config;
  config.cluster = ClusterSpec::PubA();
  config.num_gpus = 32;
  const DataParallelEngine engine(config);

  const double conv =
      engine.Run(*model, graph.ConventionalBackprop()).throughput;
  const KSearchResult search = SearchBestK(model->num_layers(), [&](int k) {
    return engine.Run(*model, ReverseFirstK(graph, k).order).throughput;
  });
  result.Set("conv_throughput", conv);
  result.Set("reverse_k.best_k", search.best_k);
  result.Set("reverse_k.gain", search.best_throughput / conv);

  std::vector<TimeNs> ideal(model->num_layers());
  for (int l = 0; l < model->num_layers(); ++l) {
    ideal[l] = engine.IdealSyncTime(*model, l);
  }
  double list_exact = 0.0;
  for (const auto& [key, scale] : {std::pair{"exact", 1.0},
                                   std::pair{"under4x", 0.25},
                                   std::pair{"over4x", 4.0}}) {
    std::vector<TimeNs> estimate(ideal);
    for (TimeNs& t : estimate) {
      t = static_cast<TimeNs>(t * scale);
    }
    const ListDpResult list = ListScheduleDataParallel(
        graph, BuildListDpInputs(*model, *cost, estimate));
    const double tp = engine.Run(*model, list.order).throughput;
    if (scale == 1.0) {
      list_exact = tp;
    }
    result.Set(StrFormat("list_%s.gain", key), tp / conv);
  }
  result.Set("reverse_k_over_list_exact", search.best_throughput / list_exact);
  return result;
}

// ---------------------------------------------------------------------------
// Section 8.4.1 ablation: modulo-allocation grouping vs interconnect. Fine
// grouping maximizes overlap but multiplies inter-GPU traffic; the paper
// groups per transformer on NVLink and two transformers on 10GbE.

ScenarioResult AblModuloGranularity(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("BERT-24 micro-batch 24, 4 micro-batches on 4x V100, "
                 "OOO-Pipe2");
  const NnModel micro = Bert(24, 24);
  for (const auto& [key, link] : Interconnects()) {
    double best_tp = 0.0;
    int best_group = 0;
    for (const int group : {1, 2, 3, 4, 6}) {
      const PipelineResult r = PipelineEngine(FourGpuOver(link, group))
                                   .Run(micro, PipelineStrategy::kOooPipe2);
      const std::string p = StrFormat("%s.g%d.", key.c_str(), group);
      result.Set(p + "throughput", r.metrics.throughput);
      result.Set(p + "comm_comp", r.comm_comp_ratio);
      if (r.metrics.throughput > best_tp) {
        best_tp = r.metrics.throughput;
        best_group = group;
      }
    }
    result.Set(key + ".best_group", best_group);
  }
  return result;
}

}  // namespace

void RegisterPaperScenarios() {
  static std::once_flag once;
  std::call_once(once, [] {
    ScenarioRegistry& reg = ScenarioRegistry::Global();
    reg.Register({"fig01_kernel_issue", "Figure 1",
                  "kernel issue overhead vs execution per DenseBlock, "
                  "DenseNet-121 (cost model)",
                  Fig01KernelIssue});
    reg.Register({"fig02_timeline", "Figure 2",
                  "masked vs exposed issue overhead: GPU idle per window, "
                  "DenseNet-121",
                  Fig02Timeline});
    reg.Register(
        {"fig04_dp_unit", "Figure 4",
         "data-parallel schedules on a uniform toy model (+ unit-time mode)",
         Fig04DpUnit});
    reg.Register({"fig05_mp_unit", "Figure 5",
                  "cross-layer model parallelism, 8 layers / 2 GPUs "
                  "(23/19/16 unit times)",
                  Fig05MpUnit});
    reg.Register({"fig06_pipe_unit", "Figure 6",
                  "pipeline parallelism with 2 micro-batches (+ unit-time "
                  "mode)",
                  Fig06PipeUnit});

    struct Fig07Entry {
      const char* name;
      const char* label;
      std::shared_ptr<const NnModel> (*make)(int);
    };
    // Cache keys follow the sweep/steady conventions so a batch-32 fig07
    // model and its steady_* twin share one zoo entry.
    const std::vector<Fig07Entry> fig07 = {
        {"fig07_densenet121", "DenseNet-121(k24)",
         [](int b) {
           return CachedModel(StrFormat("densenet:L121:k24:B%d:I32", b),
                              [b] { return DenseNet(121, 24, b, 32); });
         }},
        {"fig07_densenet169", "DenseNet-169(k32)",
         [](int b) {
           return CachedModel(StrFormat("densenet:L169:k32:B%d:I32", b),
                              [b] { return DenseNet(169, 32, b, 32); });
         }},
        {"fig07_mobilenet", "MobileNetV3(a.75)",
         [](int b) {
           return CachedModel(StrFormat("mobilenet:a0.75:B%d:I224", b),
                              [b] { return MobileNetV3Large(0.75, b, 224); });
         }},
        {"fig07_resnet50", "ResNet-50",
         [](int b) {
           return CachedModel(StrFormat("resnet:L50:B%d", b),
                              [b] { return ResNet(50, b, 224); });
         }},
        {"fig07_resnet101", "ResNet-101",
         [](int b) {
           return CachedModel(StrFormat("resnet:L101:B%d", b),
                              [b] { return ResNet(101, b, 224); });
         }},
    };
    for (const Fig07Entry& e : fig07) {
      const std::string label = e.label;
      auto make = e.make;
      reg.Register({e.name, "Figure 7",
                    StrFormat("single-GPU throughput vs XLA: %s", e.label),
                    [make, label](const ScenarioParams&) {
                      return Fig07Model(make, label);
                    }});
    }
    reg.Register({"fig07_max_gain", "Figure 7",
                  "maximum-speedup configs (DenseNet k=12, MobileNet a=0.25) "
                  "and Nimble OOM",
                  Fig07MaxGain});
    reg.Register({"fig08_regions", "Figure 8",
                  "DenseNet-121 region schedule, unconstrained and under the "
                  "1.1x memory cap (analytic)",
                  Fig08Regions});
    reg.Register({"fig09_memory", "Figure 9",
                  "backprop memory, conventional vs ooo, DenseNet-121 "
                  "(memory model)",
                  Fig09Memory});

    reg.Register({"fig10_priva", "Figure 10",
                  "data-parallel scaling on Priv-A (8x Titan XP, PCIe+10GbE)",
                  [](const ScenarioParams&) {
                    return Fig10Cluster(ClusterSpec::PrivA(), {1, 2, 4, 8}, 64,
                                        64);
                  }});
    reg.Register({"fig10_privb", "Figure 10",
                  "data-parallel scaling on Priv-B (20x P100, PCIe+20GbE)",
                  [](const ScenarioParams&) {
                    return Fig10Cluster(ClusterSpec::PrivB(), {1, 4, 8, 16, 20},
                                        64, 64);
                  }});
    reg.Register({"fig10_puba", "Figure 10",
                  "data-parallel scaling on Pub-A (48x V100, NVLink+10GbE)",
                  [](const ScenarioParams&) {
                    return Fig10Cluster(ClusterSpec::PubA(),
                                        {1, 4, 8, 16, 32, 48}, 128, 96);
                  }});
    reg.Register({"fig11a_finetune", "Figure 11a",
                  "pipeline fine-tuning of RNN / BERT-24 / FFNN on 4x V100 vs "
                  "one GPU",
                  Fig11aFinetune});
    reg.Register({"fig11b_interconnect", "Figure 11b",
                  "BERT-24 pipeline over NVLink, PCIe 3.0 and 10GbE",
                  Fig11bInterconnect});
    reg.Register({"fig12_ffnn_timeline", "Figure 12",
                  "FFNN pipeline timelines and speedups: GPipe, OOO-Pipe1, "
                  "OOO-Pipe2",
                  Fig12FfnnTimeline});
    reg.Register({"abl_hybrid", "Section 6",
                  "data + pipeline parallel BERT-24: replication gain and "
                  "reverse first-k in the deferred pool",
                  AblHybrid});
    reg.Register({"abl_joint_vs_naive", "Section 8.2",
                  "multi-region joint scheduling vs naive sub-stream "
                  "offload",
                  AblJointVsNaive});
    reg.Register({"abl_k_search", "Section 5.1",
                  "concave k search vs exhaustive reverse first-k sweep",
                  AblKSearch});
    reg.Register({"abl_list_scheduling", "Section 5.1",
                  "reverse first-k vs data-parallel list scheduling under "
                  "sync-estimate error",
                  AblListScheduling});
    reg.Register({"abl_modulo_granularity", "Section 8.4.1",
                  "modulo-allocation group size vs interconnect, BERT-24",
                  AblModuloGranularity});
  });
}

}  // namespace oobp
