#include "perfbench/probes.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <memory>

#include "perfbench/workloads.h"
#include "src/common/rng.h"
#include "src/common/str_util.h"
#include "src/common/time.h"
#include "src/core/joint_scheduler.h"
#include "src/core/k_search.h"
#include "src/core/reverse_k.h"
#include "src/core/schedule.h"
#include "src/hw/cluster.h"
#include "src/nn/model_cache.h"
#include "src/nn/model_zoo.h"
#include "src/nn/train_graph.h"
#include "src/runtime/data_parallel_engine.h"
#include "src/runtime/single_gpu_engine.h"
#include "src/search/fast_eval.h"
#include "src/search/search.h"

namespace perfbench {
namespace {

using oobp::StrFormat;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Times `body` once per repetition, after one untimed warm-up.
double MedianMs(int reps, const std::function<void()>& body) {
  body();
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    body();
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  }
  return Median(std::move(ms));
}

// The mirrored scenario's result at default parameters.
oobp::ScenarioResult Mirror(const std::string& name,
                            std::vector<std::string>* mismatches) {
  const oobp::Scenario* s = oobp::ScenarioRegistry::Global().Find(name);
  if (s == nullptr) {
    mismatches->push_back(name + " is not registered");
    return {};
  }
  OpRun run = RunOp(*s, oobp::ScenarioParams());
  for (const std::string& e : run.errors) {
    mismatches->push_back(name + ": " + e);
  }
  return run.result;
}

void Expect(const oobp::ScenarioResult& mirror, const std::string& scenario,
            const std::string& key, double probed,
            std::vector<std::string>* mismatches) {
  const double* v = mirror.Find(key);
  if (v == nullptr) {
    mismatches->push_back(scenario + " has no key " + key);
  } else if (*v != probed) {
    mismatches->push_back(StrFormat("%s %s: probe %.17g != scenario %.17g",
                                    scenario.c_str(), key.c_str(), probed,
                                    *v));
  }
}

void ExpectMetrics(const oobp::ScenarioResult& mirror,
                   const std::string& scenario, const std::string& prefix,
                   const oobp::TrainMetrics& m,
                   std::vector<std::string>* mismatches) {
  for (const oobp::MetricKv& kv : oobp::MetricsToKv(m, prefix)) {
    Expect(mirror, scenario, kv.key, kv.value, mismatches);
  }
}

// The fig07 models under the cache keys the fig07 scenarios use.
struct Fig07Model {
  const char* scenario;
  std::function<std::shared_ptr<const oobp::NnModel>(int)> make;
};

std::vector<Fig07Model> Fig07Models() {
  using oobp::CachedModel;
  return {
      {"fig07_densenet121",
       [](int b) {
         return CachedModel(StrFormat("densenet:L121:k24:B%d:I32", b),
                            [b] { return oobp::DenseNet(121, 24, b, 32); });
       }},
      {"fig07_densenet169",
       [](int b) {
         return CachedModel(StrFormat("densenet:L169:k32:B%d:I32", b),
                            [b] { return oobp::DenseNet(169, 32, b, 32); });
       }},
      {"fig07_mobilenet",
       [](int b) {
         return CachedModel(StrFormat("mobilenet:a0.75:B%d:I224", b), [b] {
           return oobp::MobileNetV3Large(0.75, b, 224);
         });
       }},
      {"fig07_resnet50",
       [](int b) {
         return CachedModel(StrFormat("resnet:L50:B%d", b),
                            [b] { return oobp::ResNet(50, b, 224); });
       }},
      {"fig07_resnet101",
       [](int b) {
         return CachedModel(StrFormat("resnet:L101:B%d", b),
                            [b] { return oobp::ResNet(101, b, 224); });
       }},
  };
}

void Fig07Probes(int reps, std::vector<ProbeResult>* out) {
  const oobp::GpuSpec gpu = oobp::GpuSpec::V100();
  const oobp::SystemProfile xla = oobp::SystemProfile::TensorFlowXla();
  struct Point {
    std::string scenario;
    int batch;
    std::shared_ptr<const oobp::NnModel> model;
    std::unique_ptr<oobp::TrainGraph> graph;
    oobp::JointScheduleResult sched;
    oobp::TrainMetrics xla_m, ooo_m;
  };
  std::vector<Point> points;
  for (const Fig07Model& m : Fig07Models()) {
    for (const int batch : {32, 64}) {
      Point p;
      p.scenario = m.scenario;
      p.batch = batch;
      p.model = m.make(batch);
      p.graph = std::make_unique<oobp::TrainGraph>(p.model.get());
      points.push_back(std::move(p));
    }
  }
  ProbeResult core{"core.ooo_schedule_ms", "ms", 0.0, "fig07_*", {}};
  core.value = MedianMs(reps, [&] {
    for (Point& p : points) {
      p.sched = oobp::MakeOooSchedule(*p.graph, gpu, xla);
    }
  });
  ProbeResult runtime{"runtime.single_gpu_run_ms", "ms", 0.0, "fig07_*", {}};
  runtime.value = MedianMs(reps, [&] {
    for (Point& p : points) {
      p.xla_m = oobp::SingleGpuEngine({gpu, xla, /*precompiled_issue=*/false})
                    .Run(*p.model, oobp::ConventionalIteration(*p.graph));
      p.ooo_m = oobp::SingleGpuEngine({gpu, xla, /*precompiled_issue=*/true})
                    .Run(*p.model, p.sched.schedule);
    }
  });
  std::map<std::string, oobp::ScenarioResult> mirrors;
  std::vector<std::string> mismatches;
  for (const Point& p : points) {
    if (mirrors.count(p.scenario) == 0) {
      mirrors[p.scenario] = Mirror(p.scenario, &mismatches);
    }
    const oobp::ScenarioResult& r = mirrors[p.scenario];
    const double xla_tp = p.xla_m.oom ? 0 : p.xla_m.throughput;
    const double ooo_tp = p.ooo_m.oom ? 0 : p.ooo_m.throughput;
    const std::string prefix = StrFormat("b%d.", p.batch);
    Expect(r, p.scenario, prefix + "xla_throughput", xla_tp, &mismatches);
    Expect(r, p.scenario, prefix + "ooo_over_xla",
           xla_tp > 0 ? ooo_tp / xla_tp : 0, &mismatches);
    ExpectMetrics(r, p.scenario, prefix + "ooo.", p.ooo_m, &mismatches);
  }
  core.mismatches = mismatches;
  runtime.mismatches = mismatches;
  out->push_back(std::move(core));
  out->push_back(std::move(runtime));
}

void ReverseKProbe(int reps, std::vector<ProbeResult>* out) {
  const std::shared_ptr<const oobp::NnModel> model = oobp::CachedModel(
      "resnet:L50:B64", [] { return oobp::ResNet(50, 64); });
  const oobp::TrainGraph graph(model.get());
  const int layers = model->num_layers();
  std::vector<std::vector<oobp::TrainOp>> orders(
      static_cast<size_t>(layers) + 1);
  ProbeResult probe{"core.reverse_k_ms", "ms", 0.0, "fig10_priva", {}};
  probe.value = MedianMs(reps, [&] {
    for (int k = 0; k <= layers; ++k) {
      orders[static_cast<size_t>(k)] = oobp::ReverseFirstK(graph, k).order;
    }
  });
  oobp::DataParallelConfig config;
  config.cluster = oobp::ClusterSpec::PrivA();
  config.num_gpus = 8;
  config.scheme = oobp::CommScheme::kBytePS;
  const oobp::DataParallelEngine byteps(config);
  const oobp::KSearchResult search =
      oobp::SearchBestK(layers, [&](int k) {
        const std::vector<oobp::TrainOp> order =
            k >= 0 && k <= layers ? orders[static_cast<size_t>(k)]
                                  : oobp::ReverseFirstK(graph, k).order;
        return byteps.Run(*model, order).throughput;
      });
  const oobp::ScenarioResult r = Mirror("fig10_priva", &probe.mismatches);
  Expect(r, "fig10_priva", "r50.g8.best_k", search.best_k, &probe.mismatches);
  Expect(r, "fig10_priva", "r50.g8.ooo_throughput", search.best_throughput,
         &probe.mismatches);
  out->push_back(std::move(probe));
}

// Same sampler as the search_eval_fidelity scenario: uniform slot within
// each layer's dependency window, uniform stream.
oobp::Genotype RandomGenotype(const oobp::TrainGraph& graph, oobp::Rng& rng) {
  oobp::Genotype genotype;
  for (int layer = graph.num_layers() - 1; layer >= 0; --layer) {
    if (!graph.HasWgrad(layer)) continue;
    const int lo = oobp::MinSlot(graph, layer);
    const int span = oobp::MaxSlot(graph, layer) - lo + 1;
    const int slot =
        lo + static_cast<int>(rng.NextBelow(static_cast<uint64_t>(span)));
    const int stream =
        rng.NextBelow(2) == 0 ? oobp::kMainStream : oobp::kSubStream;
    genotype.push_back({layer, slot, stream});
  }
  return genotype;
}

// DenseNet-121 at batch 32 on a V100 is the model steady_densenet121 runs;
// its steady-state iteration times equal the evaluator's scores.
void SteadyProbes(int64_t seed, int reps, std::vector<ProbeResult>* out) {
  const oobp::GpuSpec gpu = oobp::GpuSpec::V100();
  const oobp::SystemProfile xla = oobp::SystemProfile::TensorFlowXla();
  oobp::SingleGpuConfig config;
  config.gpu = gpu;
  config.profile = xla;
  config.precompiled_issue = true;
  config.measured_iterations = 24;  // the steady_* scenarios' default

  ProbeResult replay{"runtime.replayed_iters", "count", 0.0,
                     "steady_resnet50,steady_densenet121", {}};
  ProbeResult eval{"search.eval_us", "us", 0.0, "steady_densenet121", {}};
  const struct {
    const char* scenario;
    const char* key;
    std::function<oobp::NnModel()> build;
  } steady[] = {
      {"steady_resnet50", "resnet:L50:B32", [] { return oobp::ResNet(50, 32); }},
      {"steady_densenet121", "densenet:L121:k24:B32:I32",
       [] { return oobp::DenseNet(121, 24, 32, 32); }},
  };
  for (const auto& s : steady) {
    const std::shared_ptr<const oobp::NnModel> model =
        oobp::CachedModel(s.key, s.build);
    const oobp::TrainGraph graph(model.get());
    const oobp::IterationSchedule conventional =
        oobp::ConventionalIteration(graph);
    const oobp::IterationSchedule ooo =
        oobp::MakeOooSchedule(graph, gpu, xla).schedule;
    const oobp::ScenarioResult r = Mirror(s.scenario, &replay.mismatches);
    for (const auto& [prefix, schedule] :
         {std::pair{"conv.", &conventional}, std::pair{"ooo.", &ooo}}) {
      oobp::ReplayStats stats;
      const oobp::TrainMetrics m = oobp::SingleGpuEngine(config).Run(
          *model, *schedule, nullptr, &stats);
      ExpectMetrics(r, s.scenario, prefix, m, &replay.mismatches);
      Expect(r, s.scenario, std::string(prefix) + "replayed",
             stats.replayed ? 1 : 0, &replay.mismatches);
      Expect(r, s.scenario, std::string(prefix) + "simulated_iterations",
             stats.simulated_iterations, &replay.mismatches);
      if (stats.replayed) {
        replay.value +=
            stats.total_iterations - stats.simulated_iterations;
      }
    }
    if (std::string(s.scenario) != "steady_densenet121") {
      continue;
    }
    oobp::FastScheduleEvaluator fast(model.get(), gpu, xla);
    Expect(r, s.scenario, "conv.iteration_ms",
           oobp::ToMs(fast.IterationTime(conventional)), &eval.mismatches);
    Expect(r, s.scenario, "ooo.iteration_ms",
           oobp::ToMs(fast.IterationTime(ooo)), &eval.mismatches);
    constexpr int kGenotypes = 2000;
    oobp::Rng rng(static_cast<uint64_t>(seed) * 0x9E3779B97F4A7C15ULL);
    std::vector<oobp::IterationSchedule> stream;
    for (int i = 0; i < kGenotypes; ++i) {
      stream.push_back(
          oobp::DecodeGenotype(graph, RandomGenotype(graph, rng)));
    }
    eval.value = 1000.0 *
                 MedianMs(reps,
                          [&] {
                            for (const oobp::IterationSchedule& c : stream) {
                              fast.IterationTime(c);
                            }
                          }) /
                 kGenotypes;
  }
  out->push_back(std::move(replay));
  out->push_back(std::move(eval));
}

}  // namespace

std::vector<ProbeResult> RunProbes(int64_t seed, int reps) {
  std::vector<ProbeResult> out;
  Fig07Probes(reps, &out);
  ReverseKProbe(reps, &out);
  SteadyProbes(seed, reps, &out);
  return out;
}

}  // namespace perfbench
