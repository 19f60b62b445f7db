#include "src/serve/serve_engine.h"

#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/core/memory_model.h"
#include "src/hw/cpu_launcher.h"
#include "src/hw/gpu.h"
#include "src/runtime/single_gpu_engine.h"
#include "src/sim/engine.h"

namespace oobp {

namespace {

// Per-batch inference state: the requests it serves and its kernel span on
// the inference stream.
struct Batch {
  std::vector<int64_t> requests;
  KernelId first = -1;
  KernelId last = -1;
};

}  // namespace

ServeEngine::ServeEngine(ServeConfig config) : config_(std::move(config)) {
  OOBP_CHECK(config_.make_model != nullptr);
  OOBP_CHECK_GT(config_.horizon, 0);
  OOBP_CHECK_GT(config_.slo, 0);
}

ServeMetrics ServeEngine::RunServeOnly() const {
  return RunImpl(nullptr, nullptr, 0, nullptr);
}

ServeCorunResult ServeEngine::RunCorun(const NnModel& train_model,
                                       const IterationSchedule& train_schedule,
                                       int train_iterations) const {
  OOBP_CHECK_GE(train_iterations, 2);
  ServeCorunResult result;
  result.serve = RunImpl(&train_model, &train_schedule, train_iterations,
                         &result.train);
  return result;
}

ServeMetrics ServeEngine::RunImpl(const NnModel* train_model,
                                  const IterationSchedule* train_schedule,
                                  int train_iterations,
                                  TrainMetrics* train_out) const {
  const CostModel cost(config_.gpu, config_.profile);

  // Inference kernel costs per batch size, as if each size had its own
  // captured graph (the realistic deployment: one CUDA graph per bucket).
  const int max_batch = config_.batcher.max_batch;
  std::vector<std::vector<KernelCost>> batch_costs(max_batch + 1);
  for (int b = 1; b <= max_batch; ++b) {
    const NnModel model = config_.make_model(b);
    batch_costs[b].reserve(model.layers.size());
    for (const Layer& layer : model.layers) {
      batch_costs[b].push_back(cost.Cost(layer, TrainOpType::kForward));
    }
  }

  SimEngine engine;
  Gpu gpu(&engine, config_.gpu);
  const StreamId main_stream = gpu.CreateStream(/*priority=*/0);
  const StreamId sub_stream = gpu.CreateStream(/*priority=*/2);
  const StreamId serve_stream = gpu.CreateStream(/*priority=*/1);

  // -- Serving side -------------------------------------------------------
  const std::vector<TimeNs> arrivals =
      GenerateArrivals(config_.arrivals, config_.horizon);
  std::vector<RequestRecord> records(arrivals.size());
  // The whole trace is scheduled up front, so the heap/slab high-water mark
  // is the trace plus a bounded set of batcher/launcher/GPU events;
  // pre-sizing avoids mid-run growth reallocations (capacity only, no
  // effect on results).
  engine.Reserve(arrivals.size() + 256);

  std::vector<Batch> batches;
  // Batches are enqueued in index order onto one in-order stream, so they
  // also finish in index order: the next batch to complete is always
  // batches[next_done_batch].
  size_t next_done_batch = 0;
  DynamicBatcher batcher(
      &engine, config_.batcher, [&](const std::vector<int64_t>& ids) {
        const size_t batch_index = batches.size();
        batches.push_back({});
        Batch& batch = batches.back();
        batch.requests = ids;
        const TimeNs now = engine.now();
        for (int64_t id : ids) {
          records[static_cast<size_t>(id)].dispatch = now;
          records[static_cast<size_t>(id)].batch_size =
              static_cast<int>(ids.size());
        }
        // Graph launch: one fixed host latency, then the whole per-layer
        // kernel sequence lands on the inference stream at once.
        engine.ScheduleAfter(config_.profile.graph_launch_latency,
                             [&, batch_index, serve_stream] {
                               Batch& b = batches[batch_index];
                               const std::vector<KernelCost>& costs =
                                   batch_costs[b.requests.size()];
                               for (size_t l = 0; l < costs.size(); ++l) {
                                 KernelDesc desc;
                                 desc.solo_duration = costs[l].duration;
                                 desc.thread_blocks = costs[l].thread_blocks;
                                 const KernelId kid =
                                     gpu.Enqueue(serve_stream, std::move(desc));
                                 if (l == 0) {
                                   b.first = kid;
                                 }
                                 b.last = kid;
                               }
                             });
      });

  gpu.AddKernelDoneListener([&](KernelId id) {
    if (next_done_batch == batches.size() ||
        id != batches[next_done_batch].last) {
      return;
    }
    const Batch& batch = batches[next_done_batch++];
    const TimeNs done = engine.now();
    const TimeNs exec_start = gpu.StartTime(batch.first);
    for (int64_t rid : batch.requests) {
      RequestRecord& r = records[static_cast<size_t>(rid)];
      r.exec_start = exec_start;
      r.done = done;
    }
    batcher.OnBatchDone();
  });

  for (size_t i = 0; i < arrivals.size(); ++i) {
    records[i].arrival = arrivals[i];
    engine.ScheduleAt(arrivals[i], [&batcher, i] {
      batcher.OnRequest(static_cast<int64_t>(i));
    });
  }

  // -- Training side (optional co-run) ------------------------------------
  CpuLauncher launcher(&engine, &gpu, CpuLauncher::Mode::kPrecompiled,
                       config_.profile.graph_launch_latency);
  TrainIssuePlan plan;
  std::vector<KernelId> item_kernel;
  if (train_model != nullptr) {
    plan = BuildTrainIssuePlan(*train_model, *train_schedule, cost,
                               train_iterations, main_stream, sub_stream,
                               /*label_items=*/false);
    item_kernel.assign(plan.items.size(), -1);
    launcher.Launch(plan.items,
                    [&](size_t index, KernelId id) { item_kernel[index] = id; });
  }

  engine.Run();

  if (train_model != nullptr) {
    OOBP_CHECK(train_out != nullptr);
    const std::vector<TimeNs> iter_end =
        TrainIterationEndTimes(gpu, item_kernel, plan.iter_last_item);
    TrainMetrics& train = *train_out;
    const int measured = train_iterations - 1;  // 1 warm-up
    const TimeNs window = iter_end[train_iterations - 1] - iter_end[0];
    train.iteration_time = window / measured;
    train.throughput = static_cast<double>(train_model->batch) /
                       ToSec(train.iteration_time);
    const double capacity = static_cast<double>(config_.gpu.slot_capacity());
    if (window > 0) {
      // Device-wide utilization over the training window (includes the
      // inference kernels sharing the device — that is the point).
      train.gpu_utilization =
          gpu.SmBusyIntegral() /
          (capacity * static_cast<double>(iter_end[train_iterations - 1]));
    }
    const MemoryTimeline mem =
        EstimateBackpropMemory(*train_model, train_schedule->MergedOrder());
    train.peak_memory_bytes =
        static_cast<int64_t>(static_cast<double>(mem.peak_total()) *
                             config_.profile.allocator_overhead);
    train.oom = train.peak_memory_bytes > config_.gpu.mem_bytes;
  }

  int64_t completed_batches = 0;
  for (const Batch& batch : batches) {
    if (batch.last >= 0 && gpu.Done(batch.last)) {
      ++completed_batches;
    }
  }
  // A skipped or stuck batch would silently drop its request records.
  OOBP_CHECK_EQ(static_cast<int64_t>(next_done_batch), completed_batches);
  return ComputeServeMetrics(records, completed_batches, config_.horizon,
                             config_.slo);
}

}  // namespace oobp
