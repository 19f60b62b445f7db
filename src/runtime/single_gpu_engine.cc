#include "src/runtime/single_gpu_engine.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/str_util.h"
#include "src/core/memory_model.h"
#include "src/hw/cpu_launcher.h"
#include "src/hw/gpu.h"
#include "src/sim/engine.h"

namespace oobp {

IterationSchedule NaiveSubStreamIteration(const TrainGraph& graph) {
  IterationSchedule sched;
  for (const TrainOp& op : graph.ConventionalBackprop()) {
    if (op.type == TrainOpType::kWeightGrad) {
      sched.ops.push_back({op, kSubStream, -1});
      sched.ops.push_back({{TrainOpType::kWeightUpdate, op.layer}, kSubStream, -1});
    } else {
      sched.ops.push_back({op, kMainStream, -1});
    }
  }
  for (const TrainOp& op : graph.Forward()) {
    sched.ops.push_back({op, kMainStream, -1});
  }
  return sched;
}

TrainIssuePlan BuildTrainIssuePlan(const NnModel& model,
                                   const IterationSchedule& schedule,
                                   const CostModel& cost, int iterations,
                                   StreamId main_stream, StreamId sub_stream,
                                   bool label_items) {
  OOBP_CHECK_GT(iterations, 0);
  const int L = model.num_layers();

  // Kernel costs depend only on the scheduled op, not the iteration index:
  // compute them once per schedule position instead of once per issued item.
  std::vector<KernelCost> op_cost(schedule.ops.size());
  for (size_t p = 0; p < schedule.ops.size(); ++p) {
    op_cost[p] =
        cost.Cost(model.layers[schedule.ops[p].op.layer], schedule.ops[p].op.type);
  }

  // Build the issue sequence for all iterations with full data dependencies.
  TrainIssuePlan plan;
  std::vector<IssueItem>& items = plan.items;
  items.reserve(schedule.ops.size() * iterations);
  plan.iter_last_item.assign(iterations, -1);
  constexpr int kNone = -1;
  std::vector<int> fwd_item(L, kNone), dgrad_item(L, kNone),
      wgrad_item(L, kNone), update_item(L, kNone);
  std::vector<int> prev_fwd_item(L, kNone);
  std::vector<int> sched_to_item(schedule.ops.size(), kNone);

  for (int t = 0; t < iterations; ++t) {
    std::fill(fwd_item.begin(), fwd_item.end(), kNone);
    std::fill(dgrad_item.begin(), dgrad_item.end(), kNone);
    std::fill(wgrad_item.begin(), wgrad_item.end(), kNone);
    std::fill(update_item.begin(), update_item.end(), kNone);
    std::fill(sched_to_item.begin(), sched_to_item.end(), kNone);

    for (size_t p = 0; p < schedule.ops.size(); ++p) {
      const ScheduledOp& s = schedule.ops[p];
      const KernelCost& kc = op_cost[p];

      IssueItem item;
      item.stream = s.stream == kSubStream ? sub_stream : main_stream;
      if (label_items) {
        // Labels only feed trace events; untraced runs skip the per-item
        // string formatting entirely.
        item.name = StrFormat("%s[%s]#%d", TrainOpTypeName(s.op.type),
                              model.layers[s.op.layer].name.c_str(), t);
        item.category = TrainOpTypeName(s.op.type);
      }
      item.solo_duration = kc.duration;
      item.thread_blocks = kc.thread_blocks;
      item.issue_latency = kc.issue_latency;

      const int i = s.op.layer;
      switch (s.op.type) {
        case TrainOpType::kForward:
          if (i > 0 && fwd_item[i - 1] != kNone) {
            item.AddDep(fwd_item[i - 1]);
          }
          if (update_item[i] != kNone) {
            item.AddDep(update_item[i]);
          }
          break;
        case TrainOpType::kOutputGrad:
          if (i + 1 < L && dgrad_item[i + 1] != kNone) {
            item.AddDep(dgrad_item[i + 1]);
          } else if (i + 1 >= L && prev_fwd_item[L - 1] != kNone) {
            // Loss gradient: available once the previous iteration's forward
            // pass (and loss) completed.
            item.AddDep(prev_fwd_item[L - 1]);
          }
          break;
        case TrainOpType::kWeightGrad:
          if (i + 1 < L) {
            OOBP_CHECK_NE(dgrad_item[i + 1], kNone)
                << "dW[" << i << "] issued before dO[" << i + 1 << "]";
            item.AddDep(dgrad_item[i + 1]);
          } else if (prev_fwd_item[L - 1] != kNone) {
            item.AddDep(prev_fwd_item[L - 1]);
          }
          if (s.wait_for_index >= 0) {
            const int pinned = sched_to_item[s.wait_for_index];
            OOBP_CHECK_NE(pinned, kNone);
            item.AddDep(pinned);
          }
          break;
        case TrainOpType::kWeightUpdate:
          OOBP_CHECK_NE(wgrad_item[i], kNone);
          item.AddDep(wgrad_item[i]);
          break;
      }

      const int item_index = static_cast<int>(items.size());
      sched_to_item[p] = item_index;
      switch (s.op.type) {
        case TrainOpType::kForward:
          fwd_item[i] = item_index;
          break;
        case TrainOpType::kOutputGrad:
          dgrad_item[i] = item_index;
          break;
        case TrainOpType::kWeightGrad:
          wgrad_item[i] = item_index;
          break;
        case TrainOpType::kWeightUpdate:
          update_item[i] = item_index;
          break;
      }
      items.push_back(std::move(item));
    }
    prev_fwd_item = fwd_item;
    plan.iter_last_item[t] = static_cast<int>(items.size()) - 1;
  }
  return plan;
}

std::vector<TimeNs> TrainIterationEndTimes(
    const Gpu& gpu, const std::vector<KernelId>& item_kernel,
    const std::vector<int>& iter_last_item) {
  const int iterations = static_cast<int>(iter_last_item.size());
  std::vector<TimeNs> iter_end(iterations, 0);
  int t = 0;
  for (size_t index = 0; index < item_kernel.size(); ++index) {
    while (static_cast<int>(index) > iter_last_item[t]) {
      ++t;
    }
    iter_end[t] = std::max(iter_end[t], gpu.CompletionTime(item_kernel[index]));
  }
  return iter_end;
}

SingleGpuEngine::SingleGpuEngine(SingleGpuConfig config)
    : config_(std::move(config)) {
  OOBP_CHECK_GT(config_.measured_iterations, 0);
}

namespace {

// Outcome of one event simulation of `iterations` training iterations.
// `item_start` / `item_done` / `increments` are filled only for recorded
// (replay-candidate) runs; item index = iteration * ops_per_iter + position.
struct TrainSimOutcome {
  std::vector<TimeNs> iter_end;
  double busy_integral = 0.0;
  std::vector<TimeNs> item_start;
  std::vector<TimeNs> item_done;
  std::vector<BusyIncrement> increments;
};

TrainSimOutcome SimulateTraining(const SingleGpuConfig& config,
                                 const CostModel& cost, const NnModel& model,
                                 const IterationSchedule& schedule,
                                 int iterations, TraceRecorder* trace,
                                 bool record) {
  TrainSimOutcome out;
  SimEngine engine;
  Gpu gpu(&engine, config.gpu, trace, /*trace_track_base=*/0);
  if (record) {
    gpu.SetBusyRecorder(&out.increments);
  }
  const StreamId main_stream = gpu.CreateStream(/*priority=*/0);
  const StreamId sub_stream = gpu.CreateStream(/*priority=*/1);
  CpuLauncher launcher(&engine, &gpu,
                       config.precompiled_issue ? CpuLauncher::Mode::kPrecompiled
                                                : CpuLauncher::Mode::kPerOp,
                       config.profile.graph_launch_latency, trace,
                       /*issue_track=*/100, config.profile.issue_queue_depth);

  const TrainIssuePlan plan =
      BuildTrainIssuePlan(model, schedule, cost, iterations, main_stream,
                          sub_stream, /*label_items=*/trace != nullptr);

  // Run to completion, tracking per-item kernel ids for iteration timing.
  std::vector<KernelId> item_kernel(plan.items.size(), -1);
  launcher.Launch(plan.items, [&](size_t index, KernelId id) {
    item_kernel[index] = id;
  });
  engine.Run();
  OOBP_CHECK_EQ(gpu.kernels_completed(), item_kernel.size());

  out.iter_end = TrainIterationEndTimes(gpu, item_kernel, plan.iter_last_item);
  out.busy_integral = gpu.SmBusyIntegral();
  if (record) {
    out.item_start.reserve(item_kernel.size());
    out.item_done.reserve(item_kernel.size());
    for (KernelId id : item_kernel) {
      out.item_start.push_back(gpu.StartTime(id));
      out.item_done.push_back(gpu.CompletionTime(id));
    }
  }
  return out;
}

// Truncated-window length: warm-up (iteration 0) + the detection window
// (iterations 1..3) + a guard tail. The guard covers end effects that make
// the *last* iterations of any run differ from steady state: with no
// successor kernels fluid contention drops, and the launcher's bounded issue
// queue stops exerting back-pressure once fewer than `issue_queue_depth`
// items remain un-issued — about ceil(depth / ops_per_iter) iterations of
// lookahead, plus slack. Detection therefore only inspects iterations that
// sit at least 2 + lookahead iterations before the truncated stream's end.
int ReplayWindowIterations(int issue_queue_depth, size_t ops_per_iter) {
  const size_t depth =
      issue_queue_depth > 0 ? static_cast<size_t>(issue_queue_depth) : 0;
  const size_t lookahead = (depth + ops_per_iter - 1) / ops_per_iter;
  return static_cast<int>(4 + 2 + lookahead);
}

// Proves the truncated run is iteration-periodic over iterations 1..3: every
// per-position kernel start and completion time advances by exactly the same
// integer period P, the iteration boundaries advance by P, and the
// busy-integral increment blocks of iterations 2 and 3 — (E[1], E[2]] and
// (E[2], E[3]] — are identical term by term (time shifted by P, values
// bitwise equal; for finite nonzero doubles == is bitwise).
bool DetectSteadyPeriod(const TrainSimOutcome& out, size_t ops,
                        TimeNs* period) {
  const std::vector<TimeNs>& E = out.iter_end;
  const TimeNs p = E[3] - E[2];
  if (p <= 0 || E[2] - E[1] != p) {
    return false;
  }
  for (size_t q = 0; q < ops; ++q) {
    const size_t i1 = 1 * ops + q, i2 = 2 * ops + q, i3 = 3 * ops + q;
    if (out.item_done[i2] - out.item_done[i1] != p ||
        out.item_done[i3] - out.item_done[i2] != p ||
        out.item_start[i2] - out.item_start[i1] != p ||
        out.item_start[i3] - out.item_start[i2] != p) {
      return false;
    }
  }
  // Increment times are non-decreasing (recorded in event order), so the
  // three block boundaries are prefix scans.
  const std::vector<BusyIncrement>& inc = out.increments;
  size_t a = 0;
  while (a < inc.size() && inc[a].time <= E[1]) ++a;
  size_t b = a;
  while (b < inc.size() && inc[b].time <= E[2]) ++b;
  size_t c = b;
  while (c < inc.size() && inc[c].time <= E[3]) ++c;
  if (b - a != c - b) {
    return false;
  }
  for (size_t k = 0; k < b - a; ++k) {
    if (inc[b + k].time - inc[a + k].time != p ||
        inc[b + k].value != inc[a + k].value) {
      return false;
    }
  }
  *period = p;
  return true;
}

// Rebuilds the busy integral the full simulation would have computed, in its
// exact addition order: every increment up to E[3], then the steady block
// (E[2], E[3]] once per extrapolated iteration, then the truncated run's
// tail. A left fold in this order matches the full run's accumulation
// sequence because its extra iterations insert exactly that block (time
// shifted) between the detection window and the stream's final iterations —
// order-preserving insertion keeps the floating-point sum bit-identical.
double RefoldBusyIntegral(const std::vector<BusyIncrement>& inc, TimeNs e2,
                          TimeNs e3, int64_t extra_iterations) {
  double total = 0.0;
  size_t i = 0;
  size_t block_begin = 0;
  for (; i < inc.size() && inc[i].time <= e3; ++i) {
    if (inc[i].time <= e2) {
      ++block_begin;
    }
    total += inc[i].value;
  }
  const size_t block_end = i;
  for (int64_t r = 0; r < extra_iterations; ++r) {
    for (size_t k = block_begin; k < block_end; ++k) {
      total += inc[k].value;
    }
  }
  for (; i < inc.size(); ++i) {
    total += inc[i].value;
  }
  return total;
}

}  // namespace

TrainMetrics SingleGpuEngine::Run(const NnModel& model,
                                  const IterationSchedule& schedule,
                                  TraceRecorder* trace,
                                  ReplayStats* replay_stats) const {
  const CostModel cost(config_.gpu, config_.profile);
  const int iterations = 1 + config_.measured_iterations;  // 1 warm-up
  const size_t ops = schedule.ops.size();

  ReplayStats local_stats;
  ReplayStats& stats = replay_stats != nullptr ? *replay_stats : local_stats;
  stats = ReplayStats();
  stats.total_iterations = iterations;

  TrainSimOutcome out;
  TimeNs first_end = 0;
  TimeNs final_end = 0;
  double busy = 0.0;
  bool extrapolated = false;

  if (!config_.steady_replay) {
    stats.fallback_reason = "disabled";
  } else if (trace != nullptr) {
    stats.fallback_reason = "traced";
  } else if (ops == 0) {
    stats.fallback_reason = "empty-schedule";
  } else {
    const int window_iters =
        ReplayWindowIterations(config_.profile.issue_queue_depth, ops);
    if (iterations <= window_iters) {
      stats.fallback_reason = "short-run";
    } else {
      stats.attempted = true;
      out = SimulateTraining(config_, cost, model, schedule, window_iters,
                             /*trace=*/nullptr, /*record=*/true);
      TimeNs period = 0;
      if (DetectSteadyPeriod(out, ops, &period)) {
        const int64_t extra = iterations - window_iters;
        stats.replayed = true;
        stats.simulated_iterations = window_iters;
        first_end = out.iter_end[0];
        final_end = out.iter_end[window_iters - 1] + extra * period;
        busy = RefoldBusyIntegral(out.increments, out.iter_end[2],
                                  out.iter_end[3], extra);
        extrapolated = true;
      } else {
        stats.fallback_reason = "aperiodic";
      }
    }
  }
  if (!extrapolated) {
    out = SimulateTraining(config_, cost, model, schedule, iterations, trace,
                           /*record=*/false);
    stats.simulated_iterations = iterations;
    first_end = out.iter_end.front();
    final_end = out.iter_end.back();
    busy = out.busy_integral;
  }

  TrainMetrics metrics;
  const TimeNs window = final_end - first_end;
  metrics.iteration_time = window / config_.measured_iterations;
  metrics.throughput =
      static_cast<double>(model.batch) / ToSec(metrics.iteration_time);
  const double capacity = static_cast<double>(config_.gpu.slot_capacity());
  if (window > 0) {
    metrics.gpu_utilization =
        busy / (capacity * static_cast<double>(final_end));
  }

  // Memory: schedule-dependent activation peak plus the static base, under
  // the framework's allocator overhead.
  const MemoryTimeline mem =
      EstimateBackpropMemory(model, schedule.MergedOrder());
  metrics.peak_memory_bytes = static_cast<int64_t>(
      static_cast<double>(mem.peak_total()) * config_.profile.allocator_overhead);
  metrics.oom = metrics.peak_memory_bytes > config_.gpu.mem_bytes;
  return metrics;
}

}  // namespace oobp
