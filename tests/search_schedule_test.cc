// Property battery for the search-based scheduler baseline (src/search).
//
// The contract under test (DESIGN.md §13):
//   * every schedule the search emits — across hundreds of fuzzed models —
//     passes the full CheckIterationSchedule gate (machine-verified);
//   * the searched iteration time is never worse than the in-order
//     baseline, and the searched peak stays under the memory cap;
//   * beam=1 is exactly the deterministic greedy trajectory;
//   * identical (seed, beam, budget) produce byte-identical schedules;
//   * enlarging the beam never worsens the best score (portfolio
//     monotonicity);
//   * budget=0 degrades to the conventional schedule;
//   * candidates are analytic-scored under both budget units: the simulator
//     runs only for the baseline, audits, and each trajectory's final point;
//   * the genotype decoder is dependency-safe for *arbitrary* genotypes and
//     maps the conventional genotype to ConventionalIteration exactly.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/str_util.h"
#include "src/core/schedule.h"
#include "src/hw/gpu_spec.h"
#include "src/nn/layer_builder.h"
#include "src/nn/model_zoo.h"
#include "src/nn/train_graph.h"
#include "src/search/evaluator.h"
#include "src/search/fast_eval.h"
#include "src/search/search.h"
#include "src/validate/schedule_checker.h"
#include "src/validate/sim_validator.h"

namespace oobp {
namespace {

// A random small model: 3..10 layers of mixed kinds, always at least one
// parameterized layer (mirrors the fuzzer's generator without linking it).
NnModel RandomModel(Rng& rng) {
  NnModel model;
  model.name = "search-fuzz";
  model.batch = 8 << rng.NextBelow(3);
  const int L = 3 + static_cast<int>(rng.NextBelow(8));
  for (int i = 0; i < L; ++i) {
    const std::string name = StrFormat("l%d", i);
    const std::string block = StrFormat("b%d", i / 2);
    const int c = 8 << rng.NextBelow(3);
    const int hw = 8 << rng.NextBelow(2);
    switch (rng.NextBelow(4)) {
      case 0:
      case 1:
        model.layers.push_back(
            MakeConv2d(name, block, model.batch, c, hw, hw,
                       8 + static_cast<int>(rng.NextBelow(25)), 3, 1));
        break;
      case 2:
        model.layers.push_back(MakePool(name, block, model.batch, c, hw, hw));
        break;
      default:
        model.layers.push_back(MakeDense(name, block, model.batch, 1,
                                         64 << rng.NextBelow(2),
                                         64 << rng.NextBelow(2)));
        break;
    }
  }
  bool any_params = false;
  for (const Layer& layer : model.layers) {
    any_params = any_params || layer.has_params();
  }
  if (!any_params) {
    model.layers.back() =
        MakeConv2d("l" + std::to_string(L - 1), "tail", model.batch, 16, 8, 8,
                   16, 3, 1);
  }
  return model;
}

GpuSpec RotatingGpu(uint64_t seed) {
  switch (seed % 3) {
    case 0:
      return GpuSpec::V100();
    case 1:
      return GpuSpec::P100();
    default:
      return GpuSpec::TitanXp();
  }
}

TEST(SearchGenotypeTest, ConventionalGenotypeDecodesToConventionalIteration) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const NnModel model = RandomModel(rng);
    const TrainGraph graph(&model);
    EXPECT_EQ(DecodeGenotype(graph, ConventionalGenotype(graph)).ToString(),
              ConventionalIteration(graph).ToString())
        << "seed " << seed;
  }
}

TEST(SearchGenotypeTest, ArbitraryGenotypesDecodeToValidSchedules) {
  // The decoder clamps into the dependency window, so *any* gene values —
  // even out-of-range slots — must produce checker-clean schedules.
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed * 977);
    const NnModel model = RandomModel(rng);
    const TrainGraph graph(&model);
    Genotype genotype;
    for (int layer = graph.num_layers() - 1; layer >= 0; --layer) {
      if (!graph.HasWgrad(layer)) continue;
      const int slot = static_cast<int>(rng.NextBelow(
                           2 * static_cast<uint64_t>(graph.num_layers()) + 8)) -
                       4;  // deliberately may fall outside the window
      const int stream =
          rng.NextBelow(2) == 0 ? kMainStream : kSubStream;
      genotype.push_back({layer, slot, stream});
    }
    const IterationSchedule schedule = DecodeGenotype(graph, genotype);
    const ScheduleCheckReport report = CheckIterationSchedule(graph, schedule);
    EXPECT_TRUE(report.ok()) << "seed " << seed << ": " << report.ToString();
  }
}

TEST(SearchGenotypeTest, SlotWindowsMatchDependencyPositions) {
  Rng rng(7);
  const NnModel model = RandomModel(rng);
  const TrainGraph graph(&model);
  const int L = graph.num_layers();
  for (int i = 0; i < L; ++i) {
    EXPECT_EQ(MinSlot(graph, i), i < L - 1 ? L - 2 - i : 0);
    EXPECT_EQ(MaxSlot(graph, i), L + i - 1);
    EXPECT_LE(MinSlot(graph, i), MaxSlot(graph, i));
  }
}

// The headline battery: 200 fuzzed seeds, every emitted schedule verified.
TEST(SearchScheduleTest, FuzzedSchedulesPassCheckerAndNeverLoseToInOrder) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    const NnModel model = RandomModel(rng);
    const TrainGraph graph(&model);
    const GpuSpec gpu = RotatingGpu(seed);
    const SystemProfile profile = SystemProfile::TensorFlowXla();

    SearchOptions options;
    options.beam = 1 + static_cast<int>(seed % 2);
    options.seed = seed;
    options.budget = 6 + static_cast<int>(seed % 5);
    const SearchResult result = SearchSchedule(graph, gpu, profile, options);

    const ScheduleCheckReport report =
        CheckIterationSchedule(graph, result.schedule);
    ASSERT_TRUE(report.ok()) << "seed " << seed << ": " << report.ToString();
    EXPECT_LE(result.best_time, result.conventional_time) << "seed " << seed;

    ScheduleEvaluator eval(&model, gpu, profile);
    const int64_t conventional_peak =
        eval.PeakMemory(ConventionalIteration(graph));
    EXPECT_LE(result.peak_memory,
              static_cast<int64_t>(options.memory_cap_factor *
                                   conventional_peak))
        << "seed " << seed;
  }
}

TEST(SearchScheduleTest, BeamOneEqualsGreedy) {
  for (uint64_t seed = 3; seed <= 12; seed += 3) {
    Rng rng(seed);
    const NnModel model = RandomModel(rng);
    const TrainGraph graph(&model);
    const GpuSpec gpu = RotatingGpu(seed);
    const SystemProfile profile = SystemProfile::TensorFlowXla();

    SearchOptions options;
    options.beam = 1;
    options.seed = 999;  // must be irrelevant at beam=1
    options.budget = 40;
    const SearchResult beam1 = SearchSchedule(graph, gpu, profile, options);
    const SearchResult greedy = GreedySchedule(graph, gpu, profile, options);
    EXPECT_EQ(beam1.schedule.ToString(), greedy.schedule.ToString());
    EXPECT_EQ(beam1.best_time, greedy.best_time);
    EXPECT_EQ(beam1.stats, greedy.stats);
  }
}

TEST(SearchScheduleTest, IdenticalOptionsAreByteIdentical) {
  Rng rng(42);
  const NnModel model = RandomModel(rng);
  const TrainGraph graph(&model);
  const SystemProfile profile = SystemProfile::TensorFlowXla();

  SearchOptions options;
  options.beam = 3;
  options.seed = 17;
  options.budget = 30;
  const SearchResult a =
      SearchSchedule(graph, GpuSpec::V100(), profile, options);
  const SearchResult b =
      SearchSchedule(graph, GpuSpec::V100(), profile, options);
  EXPECT_EQ(a.schedule.ToString(), b.schedule.ToString());
  EXPECT_EQ(a.genotype, b.genotype);
  EXPECT_EQ(a.best_time, b.best_time);
  EXPECT_EQ(a.conventional_time, b.conventional_time);
  EXPECT_EQ(a.stats, b.stats);
}

TEST(SearchScheduleTest, EnlargingBeamNeverWorsensBestScore) {
  for (uint64_t seed = 5; seed <= 20; seed += 5) {
    Rng rng(seed);
    const NnModel model = RandomModel(rng);
    const TrainGraph graph(&model);
    const GpuSpec gpu = RotatingGpu(seed);
    const SystemProfile profile = SystemProfile::TensorFlowXla();

    SearchOptions options;
    options.seed = seed;
    options.budget = 20;
    TimeNs previous = 0;
    for (int beam = 1; beam <= 4; ++beam) {
      options.beam = beam;
      const SearchResult result = SearchSchedule(graph, gpu, profile, options);
      if (beam > 1) {
        EXPECT_LE(result.best_time, previous)
            << "seed " << seed << " beam " << beam;
      }
      previous = result.best_time;
    }
  }
}

TEST(SearchScheduleTest, ZeroBudgetReturnsConventional) {
  Rng rng(11);
  const NnModel model = RandomModel(rng);
  const TrainGraph graph(&model);
  const SystemProfile profile = SystemProfile::TensorFlowXla();

  SearchOptions options;
  options.beam = 3;
  options.budget = 0;
  const SearchResult result =
      SearchSchedule(graph, GpuSpec::V100(), profile, options);
  EXPECT_EQ(result.schedule.ToString(),
            ConventionalIteration(graph).ToString());
  EXPECT_EQ(result.best_time, result.conventional_time);
}

// Candidates are scored by the analytic evaluator under both budget units;
// the simulator runs once for the coordinator's baseline, once per
// trajectory for its final point, and once per audit — never per candidate.
TEST(SearchScheduleTest, SimulatorScoresOnlyBaselineAuditsAndFinals) {
  int64_t audits = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const NnModel model = RandomModel(rng);
    const TrainGraph graph(&model);
    SearchOptions options;
    options.seed = seed;
    options.budget = 30;
    options.audit_interval = 3;
    for (const bool free_hits : {false, true}) {
      for (const int beam : {1, 4}) {
        options.free_cache_hits = free_hits;
        options.beam = beam;
        const SearchStats stats =
            SearchSchedule(graph, RotatingGpu(seed),
                           SystemProfile::TensorFlowXla(), options)
                .stats;
        EXPECT_EQ(stats.sim_evals, 1 + beam + stats.audit_samples)
            << "seed " << seed << " free_hits " << free_hits;
        audits += stats.audit_samples;
      }
    }
  }
  EXPECT_GT(audits, 0);  // the audit term above is exercised
}

// Validators attach through thread-local hooks, so a search observed by
// one keeps every trajectory on the observing thread: the validator sees
// the same devices at any `threads`, one GPU per simulator score at least.
TEST(SearchScheduleTest, ObservedSearchShowsEveryDeviceToTheValidator) {
  Rng rng(3);
  const NnModel model = RandomModel(rng);
  const TrainGraph graph(&model);
  SearchOptions options;
  options.beam = 4;
  options.budget = 30;
  options.audit_interval = 3;
  std::vector<int64_t> gpus;
  for (const int threads : {1, 4}) {
    options.threads = threads;
    SimValidator validator;
    SearchStats stats;
    {
      ValidationScope scope(&validator);
      stats = SearchSchedule(graph, GpuSpec::V100(),
                             SystemProfile::TensorFlowXla(), options)
                  .stats;
    }
    EXPECT_TRUE(validator.ok()) << validator.Summary();
    EXPECT_GE(validator.gpus_observed(), stats.sim_evals);
    gpus.push_back(validator.gpus_observed());
  }
  EXPECT_EQ(gpus[0], gpus[1]);
}

// Pinned on a zoo model: charging repeated visits leaves fewer analytic
// evaluations than charging only cache misses, and neither unit can score
// more distinct candidates than the portfolio's total budget.
TEST(SearchScheduleTest, VisitUnitSpendsFewerAnalyticEvalsThanFreeHits) {
  const NnModel model = ResNet(50, 32, 224);
  const TrainGraph graph(&model);
  SearchOptions options;
  options.beam = 2;
  options.budget = 150;
  const SearchResult visits = SearchSchedule(
      graph, GpuSpec::V100(), SystemProfile::TensorFlowXla(), options);
  options.free_cache_hits = true;
  const SearchResult free_hits = SearchSchedule(
      graph, GpuSpec::V100(), SystemProfile::TensorFlowXla(), options);
  EXPECT_LT(visits.stats.analytic_evals, free_hits.stats.analytic_evals);
  EXPECT_LE(free_hits.stats.analytic_evals, options.beam * options.budget);
}

}  // namespace
}  // namespace oobp
