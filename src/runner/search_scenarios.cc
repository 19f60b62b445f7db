#include "src/runner/search_scenarios.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/str_util.h"
#include "src/common/time.h"
#include "src/core/joint_scheduler.h"
#include "src/core/schedule.h"
#include "src/nn/model_cache.h"
#include "src/nn/model_zoo.h"
#include "src/runner/registry.h"
#include "src/runner/sweep_scenarios.h"
#include "src/search/evaluator.h"
#include "src/search/fast_eval.h"
#include "src/search/search.h"
#include "src/validate/schedule_checker.h"

namespace oobp {
namespace {

// One scheduling point: a cached model on a GPU from the paper's testbeds.
struct GapConfig {
  std::string name;  // metric prefix, e.g. "densenet121"
  std::shared_ptr<const NnModel> model;
  GpuSpec gpu;
};

// Search knobs shared by the search_* scenarios. The trajectory portfolio
// runs on every hardware thread unless `--param threads=N` says otherwise;
// results are byte-identical at any value, so the thread count never
// appears in notes or metrics.
SearchOptions BaseOptions(const ScenarioParams& params) {
  SearchOptions options;
  options.beam = params.GetInt("beam", 4);
  options.seed = static_cast<uint64_t>(params.GetInt("seed", 1));
  options.budget = params.GetInt("budget", 400);
  options.threads = std::max(1, params.GetInt("threads", options.threads));
  return options;
}

// Runs the three schedulers — in-order, MakeOooSchedule, SearchSchedule —
// on every config and reports simulated iteration times plus the
// heuristic-vs-searched gap. All three are scored by the same
// ScheduleEvaluator (evaluation counts are never reported).
ScenarioResult RunSearchGap(const std::vector<GapConfig>& configs,
                            const ScenarioParams& params) {
  const SearchOptions options = BaseOptions(params);
  const SystemProfile profile = SystemProfile::TensorFlowXla();

  ScenarioResult result;
  result.AddNote(StrFormat("search: beam=%d budget=%d seed=%d (portfolio "
                           "local search, DESIGN.md section 13)",
                           options.beam, options.budget,
                           static_cast<int>(options.seed)));
  double max_gap = 0.0;
  double sum_gap = 0.0;
  for (const GapConfig& config : configs) {
    const TrainGraph graph(config.model.get());
    ScheduleEvaluator eval(config.model.get(), config.gpu, profile);
    const TimeNs conventional_time =
        eval.IterationTime(ConventionalIteration(graph));

    const JointScheduleResult ooo =
        MakeOooSchedule(graph, config.gpu, profile);
    const ScheduleCheckReport ooo_check =
        CheckIterationSchedule(graph, ooo.schedule);
    OOBP_CHECK(ooo_check.ok())
        << config.name << " ooo schedule: " << ooo_check.ToString();
    const TimeNs ooo_time = eval.IterationTime(ooo.schedule);

    const SearchResult searched =
        SearchSchedule(graph, config.gpu, profile, options);
    const ScheduleCheckReport search_check =
        CheckIterationSchedule(graph, searched.schedule);
    OOBP_CHECK(search_check.ok())
        << config.name << " searched schedule: " << search_check.ToString();
    const TimeNs search_time = eval.IterationTime(searched.schedule);

    // The heuristic's optimality gap: how far MakeOooSchedule sits above
    // the searched best (negative when the budgeted search never caught
    // the heuristic). Measured, not asserted — the golden pins whatever
    // the search finds.
    const double gap = 100.0 *
                       (static_cast<double>(ooo_time) - search_time) /
                       static_cast<double>(search_time);
    result.Set(config.name + ".conventional_ms", ToMs(conventional_time));
    result.Set(config.name + ".ooo_ms", ToMs(ooo_time));
    result.Set(config.name + ".search_ms", ToMs(search_time));
    result.Set(config.name + ".speedup_ooo_over_conv",
               static_cast<double>(conventional_time) / ooo_time);
    result.Set(config.name + ".speedup_search_over_conv",
               static_cast<double>(conventional_time) / search_time);
    result.Set(config.name + ".gap_pct", gap);
    max_gap = std::max(max_gap, gap);
    sum_gap += gap;
  }
  result.Set("max_gap_pct", max_gap);
  result.Set("mean_gap_pct", sum_gap / static_cast<double>(configs.size()));
  return result;
}

// The deep-budget sweep: with free cache hits the search spends an order of
// magnitude more analytic evaluations than the search_gap_* scenarios,
// tightening the reported optimality gap. best_time is Tier-B
// simulator-scored inside the search; re-scoring through this scenario's
// own evaluator must reproduce it bit-for-bit, which the OOBP_CHECK pins on
// every run.
ScenarioResult RunSearchDeep(const std::vector<GapConfig>& configs,
                             const ScenarioParams& params) {
  SearchOptions options = BaseOptions(params);
  options.budget = params.GetInt("budget", 4000);
  options.free_cache_hits = true;
  options.audit_interval = params.GetInt("audit_interval", 256);
  const SystemProfile profile = SystemProfile::TensorFlowXla();

  ScenarioResult result;
  result.AddNote(StrFormat("two-tier search: beam=%d budget=%d seed=%d "
                           "audit=1/%d (analytic Tier A + simulator Tier B, "
                           "DESIGN.md section 14)",
                           options.beam, options.budget,
                           static_cast<int>(options.seed),
                           options.audit_interval));
  double max_gap = 0.0;
  double sum_gap = 0.0;
  double total_analytic = 0.0;
  double total_sim = 0.0;
  double total_hits = 0.0;
  double total_misses = 0.0;
  double total_audits = 0.0;
  double audit_max = 0.0;
  for (const GapConfig& config : configs) {
    const TrainGraph graph(config.model.get());
    ScheduleEvaluator eval(config.model.get(), config.gpu, profile);
    const TimeNs conventional_time =
        eval.IterationTime(ConventionalIteration(graph));

    const JointScheduleResult ooo =
        MakeOooSchedule(graph, config.gpu, profile);
    const TimeNs ooo_time = eval.IterationTime(ooo.schedule);

    const SearchResult searched =
        SearchSchedule(graph, config.gpu, profile, options);
    const ScheduleCheckReport check =
        CheckIterationSchedule(graph, searched.schedule);
    OOBP_CHECK(check.ok())
        << config.name << " searched schedule: " << check.ToString();
    const TimeNs search_time = eval.IterationTime(searched.schedule);
    // Tier-B contract: the search already scored its winner with the exact
    // simulator, so an independent evaluator must agree to the bit.
    OOBP_CHECK(search_time == searched.best_time)
        << config.name << ": two-tier best_time is not a simulator score";

    const double gap = 100.0 *
                       (static_cast<double>(ooo_time) - search_time) /
                       static_cast<double>(search_time);
    const SearchStats& stats = searched.stats;
    result.Set(config.name + ".conventional_ms", ToMs(conventional_time));
    result.Set(config.name + ".ooo_ms", ToMs(ooo_time));
    result.Set(config.name + ".search_ms", ToMs(search_time));
    result.Set(config.name + ".speedup_search_over_conv",
               static_cast<double>(conventional_time) / search_time);
    result.Set(config.name + ".gap_pct", gap);
    result.Set(config.name + ".analytic_evals",
               static_cast<double>(stats.analytic_evals));
    result.Set(config.name + ".sim_evals",
               static_cast<double>(stats.sim_evals));
    result.Set(config.name + ".cache_hits",
               static_cast<double>(stats.cache_hits));
    result.Set(config.name + ".audit_max_rel_err", stats.audit_max_rel_err);
    max_gap = std::max(max_gap, gap);
    sum_gap += gap;
    total_analytic += static_cast<double>(stats.analytic_evals);
    total_sim += static_cast<double>(stats.sim_evals);
    total_hits += static_cast<double>(stats.cache_hits);
    total_misses += static_cast<double>(stats.cache_misses);
    total_audits += static_cast<double>(stats.audit_samples);
    audit_max = std::max(audit_max, stats.audit_max_rel_err);
  }
  result.Set("max_gap_pct", max_gap);
  result.Set("mean_gap_pct", sum_gap / static_cast<double>(configs.size()));
  result.Set("analytic_evals", total_analytic);
  result.Set("sim_evals", total_sim);
  result.Set("cache_hits", total_hits);
  result.Set("cache_hit_rate",
             total_hits + total_misses > 0.0
                 ? total_hits / (total_hits + total_misses)
                 : 0.0);
  result.Set("audit_samples", total_audits);
  result.Set("audit_max_rel_err", audit_max);
  return result;
}

// Genotype sampler shared with the fast_eval fidelity tests: uniform slot
// within the dependency window, uniform stream.
Genotype RandomGenotype(const TrainGraph& graph, Rng& rng) {
  Genotype genotype;
  for (int layer = graph.num_layers() - 1; layer >= 0; --layer) {
    if (!graph.HasWgrad(layer)) continue;
    const int span = MaxSlot(graph, layer) - MinSlot(graph, layer) + 1;
    const int slot =
        MinSlot(graph, layer) +
        static_cast<int>(rng.NextBelow(static_cast<uint64_t>(span)));
    const int stream = rng.NextBelow(2) == 0 ? kMainStream : kSubStream;
    genotype.push_back({layer, slot, stream});
  }
  return genotype;
}

// Spearman rank correlation with average ranks for ties. The analytic
// evaluator replays the simulator's arithmetic exactly, so this is 1.0 by
// construction; the golden pins it so any future drift between the two
// implementations trips a gate, not just a slow search.
double SpearmanRankCorr(const std::vector<TimeNs>& a,
                        const std::vector<TimeNs>& b) {
  const size_t n = a.size();
  OOBP_CHECK_EQ(n, b.size());
  OOBP_CHECK_GE(n, 2u);
  const auto ranks = [n](const std::vector<TimeNs>& v) {
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&v](size_t x, size_t y) { return v[x] < v[y]; });
    std::vector<double> rank(n, 0.0);
    for (size_t i = 0; i < n;) {
      size_t j = i;
      while (j + 1 < n && v[order[j + 1]] == v[order[i]]) ++j;
      const double avg = 0.5 * (static_cast<double>(i) +
                                static_cast<double>(j));
      for (size_t k = i; k <= j; ++k) rank[order[k]] = avg;
      i = j + 1;
    }
    return rank;
  };
  const std::vector<double> ra = ranks(a);
  const std::vector<double> rb = ranks(b);
  double mean_a = 0.0;
  double mean_b = 0.0;
  for (size_t i = 0; i < n; ++i) {
    mean_a += ra[i];
    mean_b += rb[i];
  }
  mean_a /= static_cast<double>(n);
  mean_b /= static_cast<double>(n);
  double cov = 0.0;
  double var_a = 0.0;
  double var_b = 0.0;
  for (size_t i = 0; i < n; ++i) {
    cov += (ra[i] - mean_a) * (rb[i] - mean_b);
    var_a += (ra[i] - mean_a) * (ra[i] - mean_a);
    var_b += (rb[i] - mean_b) * (rb[i] - mean_b);
  }
  // A constant ranking (all candidates tie) correlates perfectly with
  // itself; both sides degenerate together or not at all here.
  if (var_a == 0.0 && var_b == 0.0) return 1.0;
  if (var_a == 0.0 || var_b == 0.0) return 0.0;
  return cov / std::sqrt(var_a * var_b);
}

// Analytic-vs-simulator fidelity over the gap zoo: conventional plus
// `candidates` random genotypes per config, each scored by both evaluators.
// Reported per config and in aggregate; EXPERIMENTS.md cites the aggregate
// row and the golden pins it.
ScenarioResult RunEvalFidelity(const std::vector<GapConfig>& configs,
                               const ScenarioParams& params) {
  const int candidates = params.GetInt("candidates", 24);
  const uint64_t seed = static_cast<uint64_t>(params.GetInt("seed", 7));
  const SystemProfile profile = SystemProfile::TensorFlowXla();

  ScenarioResult result;
  result.AddNote(StrFormat("fast-eval fidelity: %d random candidates + "
                           "conventional per config, rank correlation and "
                           "relative error vs the exact simulator",
                           candidates));
  double min_corr = 1.0;
  double err_sum = 0.0;
  double err_max = 0.0;
  double scored = 0.0;
  for (size_t ci = 0; ci < configs.size(); ++ci) {
    const GapConfig& config = configs[ci];
    const TrainGraph graph(config.model.get());
    ScheduleEvaluator sim(config.model.get(), config.gpu, profile);
    FastScheduleEvaluator fast(config.model.get(), config.gpu, profile);
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + ci);
    std::vector<TimeNs> fast_times;
    std::vector<TimeNs> sim_times;
    double config_err_sum = 0.0;
    double config_err_max = 0.0;
    for (int k = 0; k <= candidates; ++k) {
      const IterationSchedule schedule =
          k == 0 ? ConventionalIteration(graph)
                 : DecodeGenotype(graph, RandomGenotype(graph, rng));
      const TimeNs f = fast.IterationTime(schedule);
      const TimeNs s = sim.IterationTime(schedule);
      fast_times.push_back(f);
      sim_times.push_back(s);
      const double err =
          s > 0 ? std::abs(static_cast<double>(f) - static_cast<double>(s)) /
                      static_cast<double>(s)
                : (f == s ? 0.0 : 1.0);
      config_err_sum += err;
      config_err_max = std::max(config_err_max, err);
    }
    const double corr = SpearmanRankCorr(fast_times, sim_times);
    result.Set(config.name + ".rank_corr", corr);
    result.Set(config.name + ".mean_rel_err",
               config_err_sum / static_cast<double>(candidates + 1));
    result.Set(config.name + ".max_rel_err", config_err_max);
    min_corr = std::min(min_corr, corr);
    err_sum += config_err_sum;
    err_max = std::max(err_max, config_err_max);
    scored += static_cast<double>(candidates + 1);
  }
  result.Set("min_rank_corr", min_corr);
  result.Set("mean_rel_err", err_sum / scored);
  result.Set("max_rel_err", err_max);
  result.Set("candidates_scored", scored);
  return result;
}

std::vector<GapConfig> Fig07Configs() {
  // Cache keys follow the fig07/steady conventions so these points share
  // one zoo entry with the figure scenarios.
  return {
      {"densenet121",
       CachedModel("densenet:L121:k24:B32:I32",
                   [] { return DenseNet(121, 24, 32, 32); }),
       GpuSpec::V100()},
      {"mobilenet",
       CachedModel("mobilenet:a0.75:B32:I224",
                   [] { return MobileNetV3Large(0.75, 32, 224); }),
       GpuSpec::V100()},
      {"resnet50",
       CachedModel("resnet:L50:B32", [] { return ResNet(50, 32, 224); }),
       GpuSpec::V100()},
  };
}

std::vector<GapConfig> Fig10Configs() {
  // Single-GPU scheduling points on the Figure 10 clusters' hardware:
  // Priv-A trains on Titan XP, Priv-B on P100.
  return {
      {"resnet50_titanxp",
       CachedModel("resnet:L50:B64", [] { return ResNet(50, 64, 224); }),
       GpuSpec::TitanXp()},
      {"resnet101_p100",
       CachedModel("resnet:L101:B64", [] { return ResNet(101, 64, 224); }),
       GpuSpec::P100()},
  };
}

std::vector<GapConfig> Fig13Configs() {
  // Pre-training micro-batch points from the Figure 13 scaling sweeps
  // (sharded-head BERT/GPT-3 on the V100-based Pub-B cluster).
  return {
      {"bert12", Fig13ShardedBert(12, 32), GpuSpec::V100()},
      {"bert24", Fig13ShardedBert(24, 16), GpuSpec::V100()},
      {"gpt3m", Fig13ShardedGpt3(6), GpuSpec::V100()},
  };
}

ScenarioResult SearchGapFig07(const ScenarioParams& params) {
  return RunSearchGap(Fig07Configs(), params);
}

ScenarioResult SearchGapFig10(const ScenarioParams& params) {
  return RunSearchGap(Fig10Configs(), params);
}

ScenarioResult SearchGapFig13(const ScenarioParams& params) {
  return RunSearchGap(Fig13Configs(), params);
}

ScenarioResult SearchDeepFig07(const ScenarioParams& params) {
  return RunSearchDeep(Fig07Configs(), params);
}

ScenarioResult SearchEvalFidelity(const ScenarioParams& params) {
  std::vector<GapConfig> configs = Fig07Configs();
  for (std::vector<GapConfig> (*family)() : {&Fig10Configs, &Fig13Configs}) {
    std::vector<GapConfig> extra = family();
    std::move(extra.begin(), extra.end(), std::back_inserter(configs));
  }
  return RunEvalFidelity(configs, params);
}

// Perf smoke for the analytic pipeline: one deep two-tier search on the
// fig07 headline model. The perf harness (`oobp bench --perf`) measures
// FastScheduleEvaluator throughput around this scenario and gates it
// against the analytic-evals count and evals/sec floor in
// bench/perf_baseline.json.
ScenarioResult SearchEvalPerf(const ScenarioParams& params) {
  SearchOptions options = BaseOptions(params);
  options.beam = params.GetInt("beam", 2);
  options.budget = params.GetInt("budget", 2000);
  options.free_cache_hits = true;
  options.audit_interval = params.GetInt("audit_interval", 0);
  const SystemProfile profile = SystemProfile::TensorFlowXla();
  const std::shared_ptr<const NnModel> model =
      CachedModel("densenet:L121:k24:B32:I32",
                  [] { return DenseNet(121, 24, 32, 32); });
  const TrainGraph graph(model.get());
  const SearchResult searched =
      SearchSchedule(graph, GpuSpec::V100(), profile, options);
  ScenarioResult result;
  result.AddNote(StrFormat("analytic-evaluator perf smoke: two-tier search, "
                           "beam=%d budget=%d on densenet121/V100",
                           options.beam, options.budget));
  result.Set("analytic_evals",
             static_cast<double>(searched.stats.analytic_evals));
  result.Set("sim_evals", static_cast<double>(searched.stats.sim_evals));
  result.Set("cache_hits", static_cast<double>(searched.stats.cache_hits));
  result.Set("search_ms", ToMs(searched.best_time));
  result.Set("conventional_ms", ToMs(searched.conventional_time));
  return result;
}

}  // namespace

void RegisterSearchScenarios() {
  static std::once_flag once;
  std::call_once(once, [] {
    ScenarioRegistry& registry = ScenarioRegistry::Global();
    registry.Register(
        {"search_gap_fig07", "Figure 7",
         "scheduler-optimality gap: search vs MakeOooSchedule on the fig07 "
         "single-GPU models (V100)",
         SearchGapFig07, "search"});
    registry.Register(
        {"search_gap_fig10", "Figure 10",
         "scheduler-optimality gap on the fig10 cluster GPUs (Titan XP, "
         "P100)",
         SearchGapFig10, "search"});
    registry.Register(
        {"search_gap_fig13", "Figure 13",
         "scheduler-optimality gap on the fig13 pre-training models "
         "(sharded BERT/GPT-3, V100)",
         SearchGapFig13, "search"});
    registry.Register(
        {"search_deep_fig07", "Figure 7",
         "deep-budget two-tier search (analytic Tier A + simulator Tier B) "
         "on the fig07 models: tightened optimality gap + pipeline stats",
         SearchDeepFig07, "search"});
    registry.Register(
        {"search_eval_fidelity", "Figure 7",
         "analytic-vs-simulator fidelity over the gap zoo: rank correlation "
         "and relative error of the fast schedule evaluator",
         SearchEvalFidelity, "search"});
    registry.Register(
        {"search_eval_perf", "Figure 7",
         "analytic-evaluator perf smoke: deep two-tier search on "
         "densenet121, gated by the perf baseline's evals/sec floor",
         SearchEvalPerf, "search"});
  });
}

}  // namespace oobp
