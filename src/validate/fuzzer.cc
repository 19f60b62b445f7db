#include "src/validate/fuzzer.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/str_util.h"
#include "src/core/joint_scheduler.h"
#include "src/core/memory_model.h"
#include "src/core/region.h"
#include "src/core/schedule.h"
#include "src/hw/gpu.h"
#include "src/hw/gpu_spec.h"
#include "src/hw/link.h"
#include "src/nn/layer_builder.h"
#include "src/nn/train_graph.h"
#include "src/runner/glob.h"
#include "src/runtime/single_gpu_engine.h"
#include "src/serve/fleet_engine.h"
#include "src/serve/serve_engine.h"
#include "src/search/evaluator.h"
#include "src/search/search.h"
#include "src/sim/engine.h"
#include "src/validate/schedule_checker.h"
#include "src/validate/sim_validator.h"

namespace oobp {

namespace {

GpuSpec RandomGpuSpec(Rng& rng) {
  GpuSpec spec;
  spec.name = "fuzz-gpu";
  spec.num_sms = 16 + static_cast<int>(rng.NextBelow(81));        // 16..96
  spec.blocks_per_sm = 4 + static_cast<int>(rng.NextBelow(29));   // 4..32
  spec.fp32_tflops = rng.Uniform(4.0, 20.0);
  spec.mem_bandwidth_gbps = rng.Uniform(200.0, 1000.0);
  spec.mem_bytes = int64_t{16} << 30;
  spec.kernel_exec_overhead = static_cast<TimeNs>(rng.NextBelow(2001));
  return spec;
}

SystemProfile RandomProfile(Rng& rng) {
  SystemProfile profile = SystemProfile::TensorFlowXla();
  profile.compute_efficiency = rng.Uniform(0.3, 0.6);
  profile.mem_efficiency = rng.Uniform(0.5, 0.9);
  profile.issue_latency_per_op = Us(rng.Uniform(5.0, 25.0));
  profile.graph_launch_latency = Us(rng.Uniform(2.0, 10.0));
  profile.issue_queue_depth = 4 + static_cast<int>(rng.NextBelow(29));
  return profile;
}

// A random small model from the layer-builder zoo. Layer shapes need not
// chain (the scheduler and simulator consume per-layer costs only), so each
// layer draws independent dimensions for diversity. Consecutive layers share
// block names in groups of 2-4, which is what region splitting keys on.
NnModel RandomModel(Rng& rng) {
  NnModel model;
  model.name = "fuzz-model";
  model.batch = 8 << rng.NextBelow(4);  // 8, 16, 32, 64
  const int L = 3 + static_cast<int>(rng.NextBelow(9));  // 3..11 layers
  int block = 0;
  int in_block = 0;
  int block_len = 2 + static_cast<int>(rng.NextBelow(3));
  for (int i = 0; i < L; ++i) {
    if (in_block >= block_len) {
      ++block;
      in_block = 0;
      block_len = 2 + static_cast<int>(rng.NextBelow(3));
    }
    ++in_block;
    const std::string name = StrFormat("l%d", i);
    const std::string blk = StrFormat("block%d", block);
    int kind = static_cast<int>(rng.NextBelow(6));
    const int c = 8 << rng.NextBelow(3);   // 8, 16, 32 channels
    const int hw = 8 << rng.NextBelow(2);  // 8, 16 spatial
    switch (kind) {
      case 0:
      case 1:
        model.layers.push_back(MakeConv2d(
            name, blk, model.batch, c, hw, hw,
            8 + static_cast<int>(rng.NextBelow(33)),
            rng.NextBelow(2) == 0 ? 1 : 3, 1 + static_cast<int>(rng.NextBelow(2))));
        break;
      case 2:
        model.layers.push_back(MakePool(name, blk, model.batch, c, hw, hw));
        break;
      case 3:
        model.layers.push_back(MakeDense(
            name, blk, model.batch, 1 + static_cast<int>(rng.NextBelow(8)),
            64 << rng.NextBelow(3), 64 << rng.NextBelow(3)));
        break;
      case 4:
        model.layers.push_back(MakeTransformerLayer(
            name, blk, model.batch, 16 << rng.NextBelow(2),
            64 << rng.NextBelow(2), 4));
        break;
      default:
        model.layers.push_back(MakeLstmCell(
            name, blk, model.batch, 4 + static_cast<int>(rng.NextBelow(13)),
            64 << rng.NextBelow(2), 64 << rng.NextBelow(2)));
        break;
    }
  }
  // The scheduling problem is only interesting with at least one weight
  // gradient; replace the last layer if the draw produced none.
  bool any_params = false;
  for (const Layer& layer : model.layers) {
    any_params = any_params || layer.has_params();
  }
  if (!any_params) {
    model.layers.back() =
        MakeConv2d(StrFormat("l%d", L - 1), StrFormat("block%d", block),
                   model.batch, 16, 8, 8, 16, 3, 1);
  }
  return model;
}

// ---------------------------------------------------------------------------
// Metamorphic kernel-DAG checks on the raw Gpu model.

struct DagKernel {
  int stream = 0;
  TimeNs duration = 0;
  double blocks = 1.0;
  std::vector<int> deps;  // indices of earlier kernels
};

struct Dag {
  GpuSpec spec;  // kernel_exec_overhead == 0 (it does not scale with k)
  std::vector<int> stream_priority;
  std::vector<DagKernel> kernels;
};

Dag RandomDag(Rng& rng) {
  Dag dag;
  dag.spec.name = "dag-gpu";
  dag.spec.num_sms = 8 + static_cast<int>(rng.NextBelow(25));
  dag.spec.blocks_per_sm = 4 + static_cast<int>(rng.NextBelow(9));
  dag.spec.fp32_tflops = 10.0;
  dag.spec.mem_bandwidth_gbps = 500.0;
  dag.spec.mem_bytes = int64_t{16} << 30;
  dag.spec.kernel_exec_overhead = 0;

  const int num_streams = 1 + static_cast<int>(rng.NextBelow(4));
  for (int s = 0; s < num_streams; ++s) {
    dag.stream_priority.push_back(static_cast<int>(rng.NextBelow(4)));
  }
  const int K = 8 + static_cast<int>(rng.NextBelow(33));  // 8..40 kernels
  const uint64_t capacity = static_cast<uint64_t>(dag.spec.slot_capacity());
  for (int i = 0; i < K; ++i) {
    DagKernel k;
    k.stream = static_cast<int>(rng.NextBelow(num_streams));
    // One kernel in eight does 0 or 1 ns of work: the edge where completion
    // rounding must neither hold the stream nor finish early.
    k.duration = rng.NextBelow(8) == 0
                     ? static_cast<TimeNs>(rng.NextBelow(2))
                     : 100 + static_cast<TimeNs>(rng.NextBelow(9901));
    // Capped at device capacity so capacity *additions* leave every kernel's
    // max rate unchanged (the wave model is monotone, but equal rates make
    // the makespan-monotonicity property exact rather than asymptotic).
    k.blocks = static_cast<double>(1 + rng.NextBelow(capacity));
    if (i > 0) {
      const int num_deps = static_cast<int>(rng.NextBelow(3));  // 0..2
      for (int d = 0; d < num_deps; ++d) {
        k.deps.push_back(static_cast<int>(rng.NextBelow(
            static_cast<uint64_t>(i))));
      }
    }
    dag.kernels.push_back(std::move(k));
  }
  return dag;
}

// Simulates the DAG (all kernels enqueued at t=0, stream FIFO + deps order
// execution) and returns the makespan. `duration_scale` multiplies every
// solo duration; `extra_blocks_per_sm` adds SM capacity.
TimeNs RunDag(const Dag& dag, int64_t duration_scale, int extra_blocks_per_sm,
              SimValidator* validator) {
  SimEngine engine;
  std::optional<ValidationScope> scope;
  if (validator != nullptr) {
    scope.emplace(validator);
  }
  GpuSpec spec = dag.spec;
  spec.blocks_per_sm += extra_blocks_per_sm;
  Gpu gpu(&engine, spec);
  for (int priority : dag.stream_priority) {
    gpu.CreateStream(priority);
  }
  std::vector<KernelId> ids;
  ids.reserve(dag.kernels.size());
  for (const DagKernel& k : dag.kernels) {
    KernelDesc desc;
    desc.solo_duration = k.duration * duration_scale;
    desc.thread_blocks = k.blocks;
    for (int dep : k.deps) {
      desc.deps.push_back(ids[static_cast<size_t>(dep)]);
    }
    ids.push_back(gpu.Enqueue(k.stream, std::move(desc)));
  }
  engine.Run();
  TimeNs makespan = 0;
  for (KernelId id : ids) {
    makespan = std::max(makespan, gpu.CompletionTime(id));
  }
  return makespan;
}

// Reference makespan for the uncontended case (capacity >= sum of all
// thread blocks, zero exec overhead): every kernel runs at its max rate for
// exactly its solo duration, so completion times follow from a longest-path
// DP over stream order and dependencies — no fluid sharing involved.
TimeNs CriticalPathMakespan(const Dag& dag) {
  std::vector<TimeNs> finish(dag.kernels.size(), 0);
  std::vector<TimeNs> stream_tail(dag.stream_priority.size(), 0);
  for (size_t i = 0; i < dag.kernels.size(); ++i) {
    const DagKernel& k = dag.kernels[i];
    TimeNs start = stream_tail[static_cast<size_t>(k.stream)];
    for (int dep : k.deps) {
      start = std::max(start, finish[static_cast<size_t>(dep)]);
    }
    finish[i] = start + k.duration;
    stream_tail[static_cast<size_t>(k.stream)] = finish[i];
  }
  TimeNs makespan = 0;
  for (TimeNs f : finish) {
    makespan = std::max(makespan, f);
  }
  return makespan;
}

void MetamorphicDagChecks(Rng& rng, uint64_t seed,
                          std::vector<std::string>* errors) {
  const Dag dag = RandomDag(rng);
  const TimeNs K = static_cast<TimeNs>(dag.kernels.size());

  SimValidator validator;
  const TimeNs base = RunDag(dag, 1, 0, &validator);
  if (!validator.ok()) {
    errors->push_back(StrFormat("seed %llu: dag run: %s",
                                static_cast<unsigned long long>(seed),
                                validator.Summary().c_str()));
  }

  // Scaling all kernel costs by k scales the makespan by ~k. The fluid
  // processor rounds each completion up to integer ns, so each of the K
  // completions can drift by <= 1 ns in either run; k*K + K bounds the
  // accumulated divergence.
  const int64_t k = 2 + static_cast<int64_t>(rng.NextBelow(4));  // 2..5
  const TimeNs scaled = RunDag(dag, k, 0, nullptr);
  const TimeNs scale_tol = K * (k + 1) + 8;
  if (std::llabs(scaled - k * base) > scale_tol) {
    errors->push_back(StrFormat(
        "seed %llu: scaling durations x%lld changed makespan %lld -> %lld "
        "(expected ~%lld, tol %lld)",
        static_cast<unsigned long long>(seed), static_cast<long long>(k),
        static_cast<long long>(base), static_cast<long long>(scaled),
        static_cast<long long>(k * base), static_cast<long long>(scale_tol)));
  }

  // Adding SM capacity never increases the makespan (2K ns slack for the
  // integer rounding of each run).
  const TimeNs wider = RunDag(dag, 1, dag.spec.blocks_per_sm, nullptr);
  if (wider > base + 2 * K + 8) {
    errors->push_back(StrFormat(
        "seed %llu: doubling SM capacity increased makespan %lld -> %lld",
        static_cast<unsigned long long>(seed), static_cast<long long>(base),
        static_cast<long long>(wider)));
  }

  // With capacity >= total thread blocks there is no contention at all and
  // the makespan must equal the longest-path reference exactly.
  double total_blocks = 0.0;
  for (const DagKernel& kern : dag.kernels) {
    total_blocks += kern.blocks;
  }
  Dag wide = dag;
  wide.spec.num_sms = static_cast<int>(total_blocks) + 1;
  wide.spec.blocks_per_sm = 1;
  // Keep each kernel's max rate equal to its block count (blocks <= new
  // capacity holds by construction).
  const TimeNs uncontended = RunDag(wide, 1, 0, nullptr);
  const TimeNs reference = CriticalPathMakespan(dag);
  if (uncontended != reference) {
    errors->push_back(StrFormat(
        "seed %llu: uncontended makespan %lld != critical-path reference "
        "%lld",
        static_cast<unsigned long long>(seed),
        static_cast<long long>(uncontended),
        static_cast<long long>(reference)));
  }
}

// ---------------------------------------------------------------------------
// Link fuzz: random transfers at random times under the validator.

void LinkFuzz(Rng& rng, uint64_t seed, std::vector<std::string>* errors) {
  SimValidator validator;
  int64_t completed = 0;
  int total = 0;
  {
    ValidationScope scope(&validator);
    SimEngine engine;
    LinkSpec spec;
    spec.name = "fuzz-link";
    spec.bandwidth_gbps = rng.Uniform(1.0, 50.0);
    spec.latency = static_cast<TimeNs>(rng.NextBelow(25001));
    const int64_t chunk = int64_t{1} << (14 + rng.NextBelow(7));  // 16K..1M
    const int64_t window =
        rng.NextBelow(2) == 0 ? 0 : int64_t{1} << (16 + rng.NextBelow(6));
    Link link(&engine, spec, chunk, nullptr, 200, window);
    total = 4 + static_cast<int>(rng.NextBelow(17));  // 4..20 transfers
    for (int t = 0; t < total; ++t) {
      const int64_t bytes = 1 + static_cast<int64_t>(rng.NextBelow(1 << 22));
      const int priority = static_cast<int>(rng.NextBelow(4));
      const TimeNs at = static_cast<TimeNs>(rng.NextBelow(Ms(1)));
      engine.ScheduleAt(at, [&link, &completed, bytes, priority] {
        link.Transfer(bytes, priority, "t", [&completed] { ++completed; });
      });
    }
    engine.Run();
  }
  if (completed != total) {
    errors->push_back(StrFormat(
        "seed %llu: link drained %lld of %d transfers",
        static_cast<unsigned long long>(seed),
        static_cast<long long>(completed), total));
  }
  if (!validator.ok()) {
    errors->push_back(StrFormat("seed %llu: link fuzz: %s",
                                static_cast<unsigned long long>(seed),
                                validator.Summary().c_str()));
  }
}

// ---------------------------------------------------------------------------
// Serve-subsystem fuzz.

void ServeFuzz(Rng& rng, uint64_t seed, std::vector<std::string>* errors) {
  auto fail = [errors, seed](std::string msg) {
    errors->push_back(StrFormat("seed %llu: serve fuzz: ",
                                static_cast<unsigned long long>(seed)) +
                      std::move(msg));
  };
  ServeConfig cfg;
  cfg.gpu = RandomGpuSpec(rng);
  cfg.profile = RandomProfile(rng);
  cfg.arrivals.kind =
      rng.NextBelow(2) == 0 ? ArrivalKind::kPoisson : ArrivalKind::kBursty;
  cfg.arrivals.rate_rps = rng.Uniform(200.0, 3000.0);
  cfg.arrivals.seed = seed * 2 + 17;
  cfg.batcher.max_batch = 1 + static_cast<int>(rng.NextBelow(8));
  cfg.batcher.max_queue_delay = Us(rng.Uniform(200.0, 2000.0));
  cfg.batcher.max_inflight = 1 + static_cast<int>(rng.NextBelow(2));
  cfg.horizon = Ms(10.0 + static_cast<double>(rng.NextBelow(21)));
  cfg.slo = Ms(5.0 + static_cast<double>(rng.NextBelow(16)));
  cfg.make_model = [](int batch) {
    NnModel m;
    m.name = "fuzz-infer";
    m.batch = batch;
    m.layers.push_back(MakeConv2d("c0", "b0", batch, 8, 16, 16, 16, 3, 1));
    m.layers.push_back(MakeConv2d("c1", "b0", batch, 16, 8, 8, 32, 3, 1));
    m.layers.push_back(MakeDense("fc", "b1", batch, 1, 128, 64));
    return m;
  };

  ServeEngine serve(cfg);
  SimValidator validator;
  ServeMetrics m;
  {
    ValidationScope scope(&validator);
    m = serve.RunServeOnly();
  }
  if (!validator.ok()) {
    fail(validator.Summary());
  }
  if (m.num_completed > m.num_requests) {
    fail(StrFormat("completed %lld > offered %lld",
                   static_cast<long long>(m.num_completed),
                   static_cast<long long>(m.num_requests)));
  }
  if (m.num_completed > 0 &&
      !(m.p50_latency <= m.p95_latency && m.p95_latency <= m.p99_latency &&
        m.p99_latency <= m.max_latency)) {
    fail(StrFormat("percentiles not monotone: p50=%lld p95=%lld p99=%lld "
                   "max=%lld",
                   static_cast<long long>(m.p50_latency),
                   static_cast<long long>(m.p95_latency),
                   static_cast<long long>(m.p99_latency),
                   static_cast<long long>(m.max_latency)));
  }
  if (m.slo_attainment < 0.0 || m.slo_attainment > 1.0) {
    fail(StrFormat("slo_attainment %.6f outside [0, 1]", m.slo_attainment));
  }
  if (m.goodput_rps > m.completed_rps * (1.0 + 1e-9) + 1e-9) {
    fail(StrFormat("goodput %.3f rps exceeds completion rate %.3f rps",
                   m.goodput_rps, m.completed_rps));
  }
  if (m.mean_batch_size > static_cast<double>(cfg.batcher.max_batch) + 1e-9) {
    fail(StrFormat("mean batch %.3f exceeds max_batch %d", m.mean_batch_size,
                   cfg.batcher.max_batch));
  }
}

// ---------------------------------------------------------------------------
// Fleet fuzz: random multi-replica fleets (router + autoscaler) under the
// validator, with a metamorphic routing property.

// Sanity checks shared by every fleet run.
void FleetSanity(const ServeMetrics& m, const char* what,
                 const std::function<void(std::string)>& fail) {
  if (m.num_completed > m.num_requests) {
    fail(StrFormat("%s: completed %lld > offered %lld", what,
                   static_cast<long long>(m.num_completed),
                   static_cast<long long>(m.num_requests)));
  }
  if (m.num_completed > 0 &&
      !(m.p50_latency <= m.p95_latency && m.p95_latency <= m.p99_latency &&
        m.p99_latency <= m.max_latency)) {
    fail(StrFormat("%s: percentiles not monotone: p50=%lld p95=%lld "
                   "p99=%lld max=%lld",
                   what, static_cast<long long>(m.p50_latency),
                   static_cast<long long>(m.p95_latency),
                   static_cast<long long>(m.p99_latency),
                   static_cast<long long>(m.max_latency)));
  }
  if (m.slo_attainment < 0.0 || m.slo_attainment > 1.0) {
    fail(StrFormat("%s: slo_attainment %.6f outside [0, 1]", what,
                   m.slo_attainment));
  }
  if (m.goodput_rps > m.completed_rps * (1.0 + 1e-9) + 1e-9) {
    fail(StrFormat("%s: goodput %.3f rps exceeds completion rate %.3f rps",
                   what, m.goodput_rps, m.completed_rps));
  }
}

void FleetFuzz(Rng& rng, uint64_t seed, std::vector<std::string>* errors) {
  auto fail = [errors, seed](std::string msg) {
    errors->push_back(StrFormat("seed %llu: fleet fuzz: ",
                                static_cast<unsigned long long>(seed)) +
                      std::move(msg));
  };

  FleetConfig base;
  base.gpu = RandomGpuSpec(rng);
  base.profile = RandomProfile(rng);
  base.arrivals.kind =
      rng.NextBelow(2) == 0 ? ArrivalKind::kPoisson : ArrivalKind::kBursty;
  base.arrivals.rate_rps = rng.Uniform(200.0, 2000.0);
  base.arrivals.seed = seed * 2 + 29;
  // Single-request batches isolate queueing from batch-fill deadlines: with
  // max_batch > 1 an extra replica can slow batch filling and legitimately
  // raise the mean delay, which would void the metamorphic property below.
  base.batcher.max_batch = 1;
  base.batcher.max_queue_delay = Us(500.0);
  base.batcher.max_inflight = 1;
  base.horizon = Ms(10.0 + static_cast<double>(rng.NextBelow(11)));
  base.slo = Ms(5.0 + static_cast<double>(rng.NextBelow(16)));
  base.router.seed = seed * 3 + 7;
  const uint64_t policy_draw = rng.NextBelow(3);
  base.router.policy = policy_draw == 0   ? RoutingPolicy::kRoundRobin
                       : policy_draw == 1 ? RoutingPolicy::kLeastLoaded
                                          : RoutingPolicy::kPowerOfTwo;
  // A bursty diurnal envelope on half the fleets.
  if (rng.NextBelow(2) == 0) {
    base.envelope = MakeDiurnalEnvelope(
        Ms(4.0 + static_cast<double>(rng.NextBelow(5))),
        rng.Uniform(0.3, 0.8), rng.Uniform(1.2, 2.0), /*steps=*/4);
  }
  base.make_model = [](int batch) {
    NnModel m;
    m.name = "fuzz-infer";
    m.batch = batch;
    m.layers.push_back(MakeConv2d("c0", "b0", batch, 8, 16, 16, 16, 3, 1));
    m.layers.push_back(MakeConv2d("c1", "b0", batch, 16, 8, 8, 32, 3, 1));
    m.layers.push_back(MakeDense("fc", "b1", batch, 1, 128, 64));
    return m;
  };

  const int R = 1 + static_cast<int>(rng.NextBelow(3));  // 1..3

  const auto run_fixed = [&base](int replicas, SimValidator* validator) {
    FleetConfig cfg = base;
    cfg.autoscaler.min_replicas = replicas;
    cfg.autoscaler.max_replicas = replicas;
    const FleetEngine engine(std::move(cfg));
    ValidationScope scope(validator);
    return engine.RunServeOnly();
  };

  SimValidator v_small, v_big;
  const FleetMetrics small = run_fixed(R, &v_small);
  const FleetMetrics big = run_fixed(R + 1, &v_big);
  if (!v_small.ok()) {
    fail(StrFormat("%d-replica run: %s", R, v_small.Summary().c_str()));
  }
  if (!v_big.ok()) {
    fail(StrFormat("%d-replica run: %s", R + 1, v_big.Summary().c_str()));
  }
  FleetSanity(small.serve, "fixed fleet", fail);
  FleetSanity(big.serve, "fixed fleet+1", fail);

  // Metamorphic: same trace, one more replica, single-request batches ->
  // the mean queueing delay never worsens. Power-of-two-choices redraws its
  // candidate pairs when the fleet grows, so it only gets the coverage runs.
  if (base.router.policy != RoutingPolicy::kPowerOfTwo &&
      big.serve.mean_queue_delay_ms >
          small.serve.mean_queue_delay_ms + 1e-6) {
    fail(StrFormat("adding a replica (%d -> %d, %s) worsened mean queue "
                   "delay %.6f -> %.6f ms",
                   R, R + 1, RoutingPolicyName(base.router.policy),
                   small.serve.mean_queue_delay_ms,
                   big.serve.mean_queue_delay_ms));
  }

  // Autoscaled coverage run: random thresholds, cooldown and warm-up over
  // the full replica range.
  FleetConfig cfg = std::move(base);
  cfg.arrivals.seed = seed * 2 + 31;
  cfg.autoscaler.min_replicas = 1;
  cfg.autoscaler.max_replicas = R + 1;
  cfg.autoscaler.scale_up_depth = rng.Uniform(2.0, 10.0);
  cfg.autoscaler.scale_down_depth = rng.Uniform(0.2, 1.5);
  cfg.autoscaler.evaluate_every = Us(rng.Uniform(200.0, 1000.0));
  cfg.autoscaler.cooldown = Us(rng.Uniform(0.0, 2000.0));
  cfg.autoscaler.warmup = Us(rng.Uniform(0.0, 2000.0));
  SimValidator v_scaled;
  FleetMetrics scaled;
  {
    const FleetEngine engine(std::move(cfg));
    ValidationScope scope(&v_scaled);
    scaled = engine.RunServeOnly();
  }
  if (!v_scaled.ok()) {
    fail("autoscaled run: " + v_scaled.Summary());
  }
  FleetSanity(scaled.serve, "autoscaled fleet", fail);
  if (scaled.min_routable < 1 || scaled.max_routable > R + 1) {
    fail(StrFormat("routable range [%d, %d] outside [1, %d]",
                   scaled.min_routable, scaled.max_routable, R + 1));
  }
  // Reaching a peak of M routable replicas from a floor of 1 takes at least
  // M - 1 scale-ups (each action moves the fleet by one).
  if (scaled.scale_ups < scaled.max_routable - 1) {
    fail(StrFormat("peak %d routable with only %d scale-ups",
                   scaled.max_routable, scaled.scale_ups));
  }
}

// ---------------------------------------------------------------------------
// Search-based scheduler baseline (src/search): machine-verified schedules,
// never-worse-than-in-order, determinism, beam monotonicity, and a
// differential searched-vs-MakeOooSchedule run under the SimValidator.

void SearchFuzz(Rng& rng, uint64_t seed, std::vector<std::string>* errors) {
  auto fail = [errors, seed](std::string msg) {
    errors->push_back(StrFormat("seed %llu: search fuzz: ",
                                static_cast<unsigned long long>(seed)) +
                      std::move(msg));
  };

  const GpuSpec gpu = RandomGpuSpec(rng);
  const SystemProfile profile = RandomProfile(rng);
  const NnModel model = RandomModel(rng);
  const TrainGraph graph(&model);

  SearchOptions options;
  options.beam = 1 + static_cast<int>(rng.NextBelow(2));      // 1 or 2
  options.seed = rng.NextU64();
  options.budget = 8 + static_cast<int>(rng.NextBelow(9));    // 8..16
  options.audit_interval = 4;  // dense audits: small budgets need coverage

  // One check list per budget unit. Only Tier-B scores escape a trajectory
  // and Tier A is bit-exact, so best_time must equal a fresh simulator
  // score and every audit error must be zero; beam B+1 evaluates a
  // superset of beam B's candidates, so it never does worse.
  auto check_search = [&](bool free_cache_hits) {
    SearchOptions opts = options;
    opts.free_cache_hits = free_cache_hits;
    auto fail_unit = [&](const std::string& msg) {
      fail((free_cache_hits ? "free-hits: " : "visit-unit: ") + msg);
    };
    const SearchResult run = SearchSchedule(graph, gpu, profile, opts);
    const ScheduleCheckReport check =
        CheckIterationSchedule(graph, run.schedule);
    if (!check.ok()) {
      fail_unit("searched schedule: " + check.ToString());
    }
    if (run.best_time > run.conventional_time) {
      fail_unit(StrFormat("searched time %lld worse than conventional %lld",
                          static_cast<long long>(run.best_time),
                          static_cast<long long>(run.conventional_time)));
    }
    const TimeNs exact =
        ScheduleEvaluator(&model, gpu, profile).IterationTime(run.schedule);
    if (exact != run.best_time) {
      fail_unit(StrFormat("best_time %lld is not the exact score %lld of its "
                          "schedule",
                          static_cast<long long>(run.best_time),
                          static_cast<long long>(exact)));
    }
    if (run.stats.audit_max_rel_err != 0.0) {
      fail_unit(StrFormat("analytic evaluator drifted from the simulator: "
                          "audit max rel err %g over %lld samples",
                          run.stats.audit_max_rel_err,
                          static_cast<long long>(run.stats.audit_samples)));
    }
    for (const int threads : {1, 3}) {
      SearchOptions again = opts;
      again.threads = threads;
      const SearchResult other = SearchSchedule(graph, gpu, profile, again);
      if (other.schedule.ToString() != run.schedule.ToString() ||
          other.best_time != run.best_time || !(other.stats == run.stats)) {
        fail_unit(StrFormat("rerun at threads=%d diverged (schedule, score, "
                            "or pipeline stats)", threads));
      }
    }
    SearchOptions wider = opts;
    wider.beam = opts.beam + 1;
    const SearchResult wide = SearchSchedule(graph, gpu, profile, wider);
    if (wide.best_time > run.best_time) {
      fail_unit(StrFormat("beam %d best %lld worse than beam %d best %lld",
                          wider.beam, static_cast<long long>(wide.best_time),
                          opts.beam, static_cast<long long>(run.best_time)));
    }
    return run;
  };
  const SearchResult searched = check_search(/*free_cache_hits=*/false);
  check_search(/*free_cache_hits=*/true);

  // Differential execution: searched vs MakeOooSchedule end to end under
  // the invariant validator — both are dependency-true permutations, so
  // both must run clean.
  const JointScheduleResult ooo = MakeOooSchedule(graph, gpu, profile);
  SimValidator validator;
  TrainMetrics searched_metrics;
  TrainMetrics ooo_metrics;
  {
    ValidationScope scope(&validator);
    SingleGpuConfig cfg;
    cfg.gpu = gpu;
    cfg.profile = profile;
    cfg.precompiled_issue = true;
    cfg.measured_iterations = 2;
    const SingleGpuEngine engine(cfg);
    searched_metrics = engine.Run(model, searched.schedule);
    ooo_metrics = engine.Run(model, ooo.schedule);
  }
  if (!validator.ok()) {
    fail("differential run: " + validator.Summary());
  }
  if (searched_metrics.iteration_time <= 0 || ooo_metrics.iteration_time <= 0) {
    fail(StrFormat("non-positive iteration time (searched %lld, ooo %lld)",
                   static_cast<long long>(searched_metrics.iteration_time),
                   static_cast<long long>(ooo_metrics.iteration_time)));
  }
}

}  // namespace

void FuzzOneSeed(uint64_t seed, bool include_serve, const std::string& checks,
                 std::vector<std::string>* errors) {
  Rng rng(seed);
  auto on = [&checks](const char* family) {
    return MatchAnyGlob(checks, family);
  };
  auto fail = [errors, seed](std::string msg) {
    errors->push_back(
        StrFormat("seed %llu: ", static_cast<unsigned long long>(seed)) +
        std::move(msg));
  };

  // The model/schedule stack feeds the schedule, memory, and train families;
  // generate it only when one of them is selected so a pure dag/link/serve
  // run stays cheap.
  if (on("schedule") || on("memory") || on("train")) {
    const GpuSpec gpu = RandomGpuSpec(rng);
    const SystemProfile profile = RandomProfile(rng);
    const NnModel model = RandomModel(rng);
    const TrainGraph graph(&model);

    const IterationSchedule conventional = ConventionalIteration(graph);
    const JointScheduleResult ooo = MakeOooSchedule(graph, gpu, profile);

    if (on("schedule")) {
      // Schedule equivalence: both orders are dependency-preserving
      // permutations of the same iteration op set.
      ScheduleCheckReport conv_check =
          CheckIterationSchedule(graph, conventional);
      if (!conv_check.ok()) {
        fail("conventional schedule: " + conv_check.ToString());
      }
      ScheduleCheckReport ooo_check =
          CheckIterationSchedule(graph, ooo.schedule);
      if (!ooo_check.ok()) {
        fail("ooo schedule: " + ooo_check.ToString());
      }
    }

    if (on("memory")) {
      // Memory model vs the independent interval-liveness reference, for
      // both orders, plus the scheduler's cap contract.
      const std::vector<TrainOp> conv_order = conventional.MergedOrder();
      const std::vector<TrainOp> ooo_order = ooo.schedule.MergedOrder();
      const MemoryTimeline conv_mem =
          EstimateBackpropMemory(model, conv_order);
      const MemoryTimeline ooo_mem = EstimateBackpropMemory(model, ooo_order);
      ScheduleCheckReport conv_mem_check =
          CheckMemoryTimeline(model, conv_order, conv_mem);
      if (!conv_mem_check.ok()) {
        fail("conventional memory timeline: " + conv_mem_check.ToString());
      }
      ScheduleCheckReport ooo_mem_check =
          CheckMemoryTimeline(model, ooo_order, ooo_mem);
      if (!ooo_mem_check.ok()) {
        fail("ooo memory timeline: " + ooo_mem_check.ToString());
      }
      if (ooo.peak_memory != ooo_mem.peak) {
        fail(StrFormat("scheduler reported peak %lld, memory model says %lld",
                       static_cast<long long>(ooo.peak_memory),
                       static_cast<long long>(ooo_mem.peak)));
      }
      // Cap contract: within 1.1x of the conventional peak, unless the
      // fallback exhausted every backward region (then the cap is
      // best-effort).
      const int64_t cap = static_cast<int64_t>(1.1 * conv_mem.peak);
      int bwd_regions = 0;
      for (const Region& region : BuildRegions(graph)) {
        if (region.kind == Region::Kind::kBackward) {
          ++bwd_regions;
        }
      }
      if (ooo.peak_memory > cap && ooo.pre_scheduled_regions != bwd_regions) {
        fail(StrFormat("peak %lld over cap %lld with only %d of %d backward "
                       "regions pre-scheduled",
                       static_cast<long long>(ooo.peak_memory),
                       static_cast<long long>(cap), ooo.pre_scheduled_regions,
                       bwd_regions));
      }
    }

    if (on("train")) {
      // Differential execution: conventional vs ooo, both end to end under
      // the invariant validator.
      SimValidator validator;
      TrainMetrics conv_metrics;
      TrainMetrics ooo_metrics;
      {
        ValidationScope scope(&validator);
        SingleGpuConfig cfg;
        cfg.gpu = gpu;
        cfg.profile = profile;
        cfg.precompiled_issue = rng.NextBelow(2) == 0;
        cfg.measured_iterations = 2;
        const SingleGpuEngine engine(cfg);
        conv_metrics = engine.Run(model, conventional);
        ooo_metrics = engine.Run(model, ooo.schedule);
      }
      if (!validator.ok()) {
        fail("train run: " + validator.Summary());
      }
      if (validator.kernels_finished() == 0) {
        fail("train run: validator observed no kernel completions");
      }
      if (conv_metrics.iteration_time <= 0 ||
          ooo_metrics.iteration_time <= 0) {
        fail(StrFormat("non-positive iteration time (conventional %lld, ooo "
                       "%lld)",
                       static_cast<long long>(conv_metrics.iteration_time),
                       static_cast<long long>(ooo_metrics.iteration_time)));
      }
    }
  }

  if (on("dag")) {
    MetamorphicDagChecks(rng, seed, errors);
  }
  if (on("link")) {
    LinkFuzz(rng, seed, errors);
  }
  if (on("serve") && include_serve && seed % 4 == 0) {
    ServeFuzz(rng, seed, errors);
  }
  if (on("fleet") && include_serve && seed % 2 == 0) {
    FleetFuzz(rng, seed, errors);
  }
  if (on("search") && seed % 2 == 1) {
    SearchFuzz(rng, seed, errors);
  }
}

void FuzzOneSeed(uint64_t seed, bool include_serve,
                 std::vector<std::string>* errors) {
  FuzzOneSeed(seed, include_serve, "*", errors);
}

FuzzResult RunFuzz(const FuzzOptions& options) {
  FuzzResult result;
  const size_t n =
      options.num_seeds > 0 ? static_cast<size_t>(options.num_seeds) : 0;
  // One error-list slot per seed: workers never share state, and the merge
  // below walks slots in seed order, so the report is byte-identical for
  // every jobs value (the tier-5 fuzz_parallel_test pins this).
  std::vector<std::vector<std::string>> per_seed(n);

  int jobs = options.jobs;
  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
  }
  if (jobs < 1) {
    jobs = 1;
  }
  if (static_cast<size_t>(jobs) > n) {
    jobs = static_cast<int>(n);
  }

  auto run_seed = [&options, &per_seed](size_t i) {
    const uint64_t seed = options.base_seed + static_cast<uint64_t>(i);
    FuzzOneSeed(seed, options.include_serve, options.checks, &per_seed[i]);
  };
  if (jobs <= 1) {
    for (size_t i = 0; i < n; ++i) {
      run_seed(i);
    }
  } else {
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(jobs));
    for (int t = 0; t < jobs; ++t) {
      pool.emplace_back([&run_seed, &next, n] {
        while (true) {
          const size_t i = next.fetch_add(1);
          if (i >= n) {
            return;
          }
          run_seed(i);
        }
      });
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }

  for (size_t i = 0; i < n; ++i) {
    std::vector<std::string>& errors = per_seed[i];
    ++result.seeds_run;
    if (!errors.empty()) {
      ++result.failed_seeds;
      for (std::string& e : errors) {
        if (result.errors.size() < 200) {
          result.errors.push_back(std::move(e));
        }
      }
    }
    if (options.verbose) {
      std::fprintf(stderr, "seed %llu: %s\n",
                   static_cast<unsigned long long>(
                       options.base_seed + static_cast<uint64_t>(i)),
                   errors.empty() ? "ok" : "FAILED");
    }
  }
  return result;
}

int FuzzMain(int argc, char** argv) {
  FuzzOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (arg == "fuzz") {
      continue;  // subcommand token forwarded by the oobp driver
    } else if (const char* v = value_of("--seeds=")) {
      opts.num_seeds = std::atoi(v);
    } else if (arg == "--seeds" && i + 1 < argc) {
      opts.num_seeds = std::atoi(argv[++i]);
    } else if (const char* v2 = value_of("--base-seed=")) {
      opts.base_seed = static_cast<uint64_t>(std::atoll(v2));
    } else if (arg == "--base-seed" && i + 1 < argc) {
      opts.base_seed = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (const char* v3 = value_of("--jobs=")) {
      opts.jobs = std::atoi(v3);
    } else if (arg == "--jobs" && i + 1 < argc) {
      opts.jobs = std::atoi(argv[++i]);
    } else if (const char* v4 = value_of("--checks=")) {
      opts.checks = v4;
    } else if (arg == "--checks" && i + 1 < argc) {
      opts.checks = argv[++i];
    } else if (arg == "--no-serve") {
      opts.include_serve = false;
    } else if (arg == "--verbose") {
      opts.verbose = true;
    } else {
      std::fprintf(stderr,
                   "usage: oobp fuzz [--seeds=N] [--base-seed=N] [--jobs=N]\n"
                   "                 [--checks=GLOBS] [--no-serve] "
                   "[--verbose]\n"
                   "  --jobs=N       seeds per thread pool; 0 = all cores\n"
                   "  --checks=GLOBS comma-separated globs over families\n"
                   "                 schedule,memory,train,dag,link,serve,"
                   "fleet,search\n");
      return 2;
    }
  }
  if (opts.num_seeds <= 0) {
    std::fprintf(stderr, "fuzz: --seeds must be positive\n");
    return 2;
  }
  const FuzzResult result = RunFuzz(opts);
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "FAIL %s\n", e.c_str());
  }
  std::printf("fuzz: %d seed(s), %d failed (base seed %llu)\n",
              result.seeds_run, result.failed_seeds,
              static_cast<unsigned long long>(opts.base_seed));
  return result.ok() ? 0 : 1;
}

}  // namespace oobp
