#include "src/runner/serve_scenarios.h"

#include <cmath>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/str_util.h"
#include "src/core/joint_scheduler.h"
#include "src/core/schedule.h"
#include "src/nn/model_cache.h"
#include "src/nn/model_zoo.h"
#include "src/runner/registry.h"
#include "src/runtime/single_gpu_engine.h"
#include "src/serve/serve_engine.h"

namespace oobp {
namespace {

// One load point of a serving sweep.
struct LoadPoint {
  int rps;
  ArrivalKind kind;
};

std::string PointPrefix(const LoadPoint& p) {
  return StrFormat(p.kind == ArrivalKind::kBursty ? "burst%d." : "rps%d.",
                   p.rps);
}

struct ServeFamilySpec {
  std::function<NnModel(int)> make_infer;  // inference model at batch b
  std::vector<LoadPoint> loads;            // sweep, in increasing-rate order
  double slo_ms;
  // Training co-run; null make_train = serve-only. Returns a cache-shared
  // model so the zoo entry is built once per process.
  std::function<std::shared_ptr<const NnModel>()> make_train;
  bool ooo = false;  // joint (ooo) schedule vs conventional in-order
  // Longer default horizon for co-run families: requests are sparser there
  // and the percentiles need a few dozen samples per load point.
  double horizon_ms = 250.0;
};

ScenarioResult RunServeFamily(const ScenarioParams& params,
                              const ServeFamilySpec& spec) {
  ScenarioResult result;
  const GpuSpec gpu = GpuSpec::V100();
  const SystemProfile xla = SystemProfile::TensorFlowXla();

  ServeConfig base;
  base.gpu = gpu;
  base.profile = xla;
  base.horizon = Ms(params.GetDouble("horizon_ms", spec.horizon_ms));
  base.slo = Ms(params.GetDouble("slo_ms", spec.slo_ms));
  base.batcher.max_batch = params.GetInt("max_batch", 8);
  base.batcher.max_queue_delay =
      Ms(params.GetDouble("max_queue_delay_ms", 1.0));
  base.batcher.max_inflight = params.GetInt("max_inflight", 1);
  base.make_model = spec.make_infer;

  // Training side: pick the schedule, measure it solo (no inference), and
  // size the co-run iteration count so training covers the serving horizon
  // with margin — requests must face contention for the whole sweep.
  std::shared_ptr<const NnModel> train_model;
  IterationSchedule train_schedule;
  int train_iterations = 0;
  TimeNs solo_iter = 0;
  if (spec.make_train) {
    train_model = spec.make_train();
    const TrainGraph graph(train_model.get());
    train_schedule = spec.ooo ? MakeOooSchedule(graph, gpu, xla).schedule
                              : ConventionalIteration(graph);
    const TrainMetrics solo =
        SingleGpuEngine({gpu, xla, /*precompiled_issue=*/true})
            .Run(*train_model, train_schedule);
    result.SetMetrics("solo.", solo);
    solo_iter = solo.iteration_time;
    const int cover = static_cast<int>(
        std::ceil(static_cast<double>(base.horizon) /
                  static_cast<double>(solo.iteration_time)));
    train_iterations = std::max(3, cover + 2);
    result.AddNote(StrFormat("train %s, %d iterations (%s schedule)",
                             train_model->name.c_str(), train_iterations,
                             spec.ooo ? "ooo" : "in-order"));
  }
  result.AddNote(StrFormat("serve %s, slo %.1f ms, horizon %.0f ms, "
                           "max_batch %d",
                           spec.make_infer(1).name.c_str(), ToMs(base.slo),
                           ToMs(base.horizon), base.batcher.max_batch));

  std::vector<double> poisson_p50, poisson_p99;
  for (const LoadPoint& point : spec.loads) {
    ServeConfig cfg = base;
    cfg.arrivals.kind = point.kind;
    cfg.arrivals.rate_rps = point.rps;
    // Per-point seed: distinct deterministic traces across the sweep.
    cfg.arrivals.seed = 0x5EEDull * 1000003ull +
                        static_cast<uint64_t>(point.rps) * 2ull +
                        (point.kind == ArrivalKind::kBursty ? 1ull : 0ull);
    const ServeEngine engine(std::move(cfg));

    const std::string prefix = PointPrefix(point);
    ServeMetrics sm;
    if (spec.make_train) {
      const ServeCorunResult r =
          engine.RunCorun(*train_model, train_schedule, train_iterations);
      sm = r.serve;
      result.SetMetrics(prefix + "train.", r.train);
      result.Set(prefix + "train_overhead",
                 static_cast<double>(r.train.iteration_time) /
                     static_cast<double>(solo_iter));
    } else {
      sm = engine.RunServeOnly();
    }
    for (const MetricKv& kv : ServeMetricsToKv(sm, prefix)) {
      result.values.push_back(kv);
    }
    if (point.kind == ArrivalKind::kPoisson) {
      poisson_p50.push_back(ToMs(sm.p50_latency));
      poisson_p99.push_back(ToMs(sm.p99_latency));
    }
  }

  // Sanity indicators pinned by the golden files: latency percentiles must
  // not decrease as offered load increases (within the Poisson sweep).
  const auto monotonic = [](const std::vector<double>& xs) {
    for (size_t i = 1; i < xs.size(); ++i) {
      if (xs[i] < xs[i - 1]) {
        return 0.0;
      }
    }
    return 1.0;
  };
  result.Set("p50_monotonic", monotonic(poisson_p50));
  result.Set("p99_monotonic", monotonic(poisson_p99));
  return result;
}

void RegisterFamily(ScenarioRegistry& reg, const char* name,
                    const char* description, ServeFamilySpec spec) {
  reg.Register({name, "Serving", description,
                [spec = std::move(spec)](const ScenarioParams& params) {
                  return RunServeFamily(params, spec);
                },
                "serve"});
}

}  // namespace

void RegisterServeScenarios() {
  static std::once_flag once;
  std::call_once(once, [] {
    ScenarioRegistry& reg = ScenarioRegistry::Global();

    const auto infer_mobilenet = [](int b) {
      return MobileNetV3Large(1.0, b, 224);
    };
    const auto infer_resnet50 = [](int b) { return ResNet(50, b, 224); };

    // Serve-only load points sit in the contended regime (the device is a
    // meaningful fraction busy), so queueing — not the batching deadline —
    // dominates and percentiles grow with offered load.
    RegisterFamily(reg, "serve_only_mobilenet",
                   "MobileNetV3 inference alone: load sweep + bursty trace",
                   {infer_mobilenet,
                    {{5000, ArrivalKind::kPoisson},
                     {8000, ArrivalKind::kPoisson},
                     {12000, ArrivalKind::kPoisson},
                     {8000, ArrivalKind::kBursty}},
                    /*slo_ms=*/20.0,
                    /*make_train=*/nullptr});
    RegisterFamily(reg, "serve_only_resnet50",
                   "ResNet-50 inference alone: load sweep + bursty trace",
                   {infer_resnet50,
                    {{200, ArrivalKind::kPoisson},
                     {400, ArrivalKind::kPoisson},
                     {800, ArrivalKind::kPoisson},
                     {400, ArrivalKind::kBursty}},
                    /*slo_ms=*/40.0,
                    /*make_train=*/nullptr});

    const auto train_resnet50 = [] {
      return CachedModel("resnet:L50:B32", [] { return ResNet(50, 32, 224); });
    };
    RegisterFamily(reg, "serve_corun_baseline_resnet50",
                   "ResNet-50 inference + in-order ResNet-50 training",
                   {infer_resnet50,
                    {{50, ArrivalKind::kPoisson}, {90, ArrivalKind::kPoisson}},
                    /*slo_ms=*/40.0, train_resnet50, /*ooo=*/false,
                    /*horizon_ms=*/2000.0});
    RegisterFamily(reg, "serve_corun_ooo_resnet50",
                   "ResNet-50 inference + ooo-backprop ResNet-50 training",
                   {infer_resnet50,
                    {{50, ArrivalKind::kPoisson}, {90, ArrivalKind::kPoisson}},
                    /*slo_ms=*/40.0, train_resnet50, /*ooo=*/true,
                    /*horizon_ms=*/2000.0});

    const auto train_densenet = [] {
      return CachedModel("densenet:L121:k24:B32:I224",
                         [] { return DenseNet(121, 24, 32, 224); });
    };
    RegisterFamily(reg, "serve_corun_baseline_densenet121",
                   "ResNet-50 inference + in-order DenseNet-121 training",
                   {infer_resnet50,
                    {{50, ArrivalKind::kPoisson}, {120, ArrivalKind::kPoisson}},
                    /*slo_ms=*/40.0, train_densenet, /*ooo=*/false,
                    /*horizon_ms=*/2000.0});
    RegisterFamily(reg, "serve_corun_ooo_densenet121",
                   "ResNet-50 inference + ooo-backprop DenseNet-121 training",
                   {infer_resnet50,
                    {{50, ArrivalKind::kPoisson}, {120, ArrivalKind::kPoisson}},
                    /*slo_ms=*/40.0, train_densenet, /*ooo=*/true,
                    /*horizon_ms=*/2000.0});
  });
}

}  // namespace oobp
