// Fidelity battery for the incremental analytic evaluator (Tier A of the
// two-tier search evaluation pipeline, DESIGN.md §14).
//
// The contract is stronger than the usual surrogate-model bargain: because
// FastScheduleEvaluator replays the exact floating-point recurrence of the
// fluid processor, its iteration times must be BIT-IDENTICAL to
// ScheduleEvaluator's simulator scores — on zoo models, on fuzzed models,
// on arbitrary decodable genotypes, warm or cold. Likewise its incremental
// memory walk must reproduce EstimateBackpropMemory exactly. The rank
// correlation (1.0) and relative error (0.0) the search scenarios pin as
// golden stats follow from these identities; this battery is what localizes
// a violation when evaluator drift trips that gate.

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
#include "src/search/candidate_cache.h"
#include "src/search/evaluator.h"
#include "src/search/fast_eval.h"
#include "src/search/search.h"

namespace oobp {
namespace {

// Mirrors the search property battery's fuzzed-model generator.
NnModel RandomModel(Rng& rng) {
  NnModel model;
  model.name = "fast-eval-fuzz";
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

Genotype RandomGenotype(const TrainGraph& graph, Rng& rng) {
  Genotype genotype;
  for (int layer = graph.num_layers() - 1; layer >= 0; --layer) {
    if (!graph.HasWgrad(layer)) continue;
    const int span = MaxSlot(graph, layer) - MinSlot(graph, layer) + 1;
    const int slot = MinSlot(graph, layer) +
                     static_cast<int>(rng.NextBelow(
                         static_cast<uint64_t>(span)));
    const int stream = rng.NextBelow(2) == 0 ? kMainStream : kSubStream;
    genotype.push_back({layer, slot, stream});
  }
  return genotype;
}

// One fresh (cold) analytic evaluator per call: the reference the warm
// incremental path must match bit-for-bit.
TimeNs ColdAnalyticTime(const NnModel& model, const GpuSpec& gpu,
                        const SystemProfile& profile,
                        const IterationSchedule& schedule) {
  FastScheduleEvaluator cold(&model, gpu, profile);
  return cold.IterationTime(schedule);
}

TEST(FastEvalTest, BitIdenticalToSimulatorOnZooModels) {
  const SystemProfile profile = SystemProfile::TensorFlowXla();
  const GpuSpec gpu = GpuSpec::V100();
  const std::vector<NnModel> models = {
      DenseNet(121, 24, 32, 32),
      MobileNetV3Large(0.75, 32, 224),
      ResNet(50, 32),
  };
  for (const NnModel& model : models) {
    const TrainGraph graph(&model);
    ScheduleEvaluator sim(&model, gpu, profile);
    FastScheduleEvaluator fast(&model, gpu, profile);
    Rng rng(2026);
    std::vector<IterationSchedule> schedules = {
        ConventionalIteration(graph)};
    for (int k = 0; k < 10; ++k) {
      schedules.push_back(DecodeGenotype(graph, RandomGenotype(graph, rng)));
    }
    for (const IterationSchedule& schedule : schedules) {
      EXPECT_EQ(fast.IterationTime(schedule), sim.IterationTime(schedule))
          << model.name;
      EXPECT_EQ(fast.PeakMemory(schedule), sim.PeakMemory(schedule))
          << model.name;
    }
  }
}

TEST(FastEvalTest, BitIdenticalToSimulatorOnFuzzedModels) {
  const SystemProfile profile = SystemProfile::TensorFlowXla();
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 1299709);
    const NnModel model = RandomModel(rng);
    const TrainGraph graph(&model);
    const GpuSpec gpu = RotatingGpu(seed);
    ScheduleEvaluator sim(&model, gpu, profile);
    FastScheduleEvaluator fast(&model, gpu, profile);
    for (int k = 0; k < 8; ++k) {
      const IterationSchedule schedule =
          DecodeGenotype(graph, RandomGenotype(graph, rng));
      ASSERT_EQ(fast.IterationTime(schedule), sim.IterationTime(schedule))
          << "seed " << seed << " candidate " << k;
      ASSERT_EQ(fast.PeakMemory(schedule), sim.PeakMemory(schedule))
          << "seed " << seed << " candidate " << k;
    }
  }
}

// The incremental path (warm evaluator, prefix checkpoints) must return the
// same bits as a cold evaluation of the same schedule — including under
// single-gene mutations, the access pattern the local search produces.
TEST(FastEvalTest, IncrementalMatchesColdUnderPointMutations) {
  const SystemProfile profile = SystemProfile::TensorFlowXla();
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed * 6700417);
    const NnModel model = RandomModel(rng);
    const TrainGraph graph(&model);
    const GpuSpec gpu = RotatingGpu(seed);
    FastScheduleEvaluator warm(&model, gpu, profile);
    Genotype genotype = RandomGenotype(graph, rng);
    for (int step = 0; step < 30; ++step) {
      // Mutate one gene: slot bump or stream flip, clamped by the decoder.
      const size_t g = rng.NextBelow(genotype.size());
      if (rng.NextBelow(2) == 0) {
        genotype[g].slot += rng.NextBelow(2) == 0 ? 1 : -1;
      } else {
        genotype[g].stream = genotype[g].stream == kMainStream
                                 ? kSubStream
                                 : kMainStream;
      }
      const IterationSchedule schedule = DecodeGenotype(graph, genotype);
      ASSERT_EQ(warm.IterationTime(schedule),
                ColdAnalyticTime(model, gpu, profile, schedule))
          << "seed " << seed << " step " << step;
      FastScheduleEvaluator cold(&model, gpu, profile);
      ASSERT_EQ(warm.PeakMemory(schedule), cold.PeakMemory(schedule))
          << "seed " << seed << " step " << step;
    }
  }
}

TEST(FastEvalTest, RepeatedEvaluationIsStable) {
  const SystemProfile profile = SystemProfile::TensorFlowXla();
  Rng rng(11);
  const NnModel model = RandomModel(rng);
  const TrainGraph graph(&model);
  FastScheduleEvaluator fast(&model, GpuSpec::V100(), profile);
  const IterationSchedule schedule = ConventionalIteration(graph);
  const TimeNs first = fast.IterationTime(schedule);
  EXPECT_EQ(fast.IterationTime(schedule), first);
  EXPECT_EQ(fast.evaluations(), 2);
}

TEST(CandidateCacheTest, HitReturnsInsertedScoreAndCounts) {
  CandidateCache cache;
  const Genotype a = {{2, 1, kSubStream}, {0, 3, kMainStream}};
  const Genotype b = {{2, 1, kMainStream}, {0, 3, kMainStream}};
  EXPECT_EQ(cache.Lookup(a), nullptr);
  cache.Insert(a, {Ms(5), 1234});
  const CandidateCache::Score* hit = cache.Lookup(a);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->time, Ms(5));
  EXPECT_EQ(hit->peak, 1234);
  EXPECT_EQ(cache.Lookup(b), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(CandidateCacheTest, HashIsContentAddressed) {
  const Genotype a = {{2, 1, kSubStream}, {0, 3, kMainStream}};
  Genotype b = a;
  EXPECT_EQ(CandidateCache::Hash(a), CandidateCache::Hash(b));
  b[1].slot = 4;
  EXPECT_NE(CandidateCache::Hash(a), CandidateCache::Hash(b));
  EXPECT_NE(CandidateCache::Hash({}), CandidateCache::Hash(a));
}

TEST(CandidateCacheTest, PrecomputedHashOverloadsMatchDefault) {
  // The hot path hashes once and shares the value between the missing
  // lookup and the insert; the behavior must match the hashing overloads.
  CandidateCache cache;
  const Genotype a = {{2, 1, kSubStream}, {0, 3, kMainStream}};
  const uint64_t hash = CandidateCache::Hash(a);
  EXPECT_EQ(cache.Lookup(a, hash), nullptr);
  cache.Insert(a, {Ms(7), 99}, hash);
  const CandidateCache::Score* via_hash = cache.Lookup(a, hash);
  ASSERT_NE(via_hash, nullptr);
  EXPECT_EQ(via_hash->time, Ms(7));
  const CandidateCache::Score* via_default = cache.Lookup(a);
  ASSERT_NE(via_default, nullptr);
  EXPECT_EQ(via_default->peak, 99);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(CandidateCacheTest, ForcedHashCollisionKeepsEveryEntry) {
  // Different genotypes under one hash must each find their own score:
  // the hash only indexes, the full packed key decides.
  CandidateCache cache;
  const Genotype a = {{2, 1, kSubStream}, {0, 3, kMainStream}};
  const Genotype b = {{2, 1, kMainStream}, {0, 3, kMainStream}};
  const Genotype c = {{2, 0, kMainStream}, {0, 3, kMainStream}};
  constexpr uint64_t kForced = 42;
  cache.Insert(a, {Ms(1), 10}, kForced);
  cache.Insert(b, {Ms(2), 20}, kForced);
  const CandidateCache::Score* hit_a = cache.Lookup(a, kForced);
  const CandidateCache::Score* hit_b = cache.Lookup(b, kForced);
  ASSERT_NE(hit_a, nullptr);
  ASSERT_NE(hit_b, nullptr);
  EXPECT_EQ(hit_a->time, Ms(1));
  EXPECT_EQ(hit_a->peak, 10);
  EXPECT_EQ(hit_b->time, Ms(2));
  EXPECT_EQ(hit_b->peak, 20);
  EXPECT_EQ(cache.Lookup(c, kForced), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_DEATH(cache.Insert(b, {Ms(3), 30}, kForced), "cached twice");
}

TEST(CandidateCacheTest, OtherLayerLayoutMissesAndFailsClosedOnInsert) {
  // The first genotype fixes the layer sequence; a genotype with other
  // layers or another length can never match a stored key.
  CandidateCache cache;
  const Genotype a = {{2, 1, kSubStream}, {0, 3, kMainStream}};
  cache.Insert(a, {Ms(5), 1});
  const Genotype other_layers = {{1, 1, kSubStream}, {0, 3, kMainStream}};
  const Genotype longer = {{2, 1, kSubStream}, {1, 3, kMainStream},
                           {0, 3, kMainStream}};
  const Genotype shorter = {{2, 1, kSubStream}};
  for (const Genotype& g : {other_layers, longer, shorter}) {
    EXPECT_EQ(cache.Lookup(g), nullptr);
    EXPECT_DEATH(cache.Insert(g, {Ms(6), 2}), "layer sequence");
  }
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_NE(cache.Lookup(a), nullptr);
}

TEST(CandidateCacheTest, GeneOutsideTheKeyWordFailsClosed) {
  CandidateCache cache;
  const Genotype big_slot = {{0, 1 << 15, kMainStream}};
  const Genotype negative_slot = {{0, -1, kMainStream}};
  const Genotype bad_stream = {{0, 3, 2}};
  const Genotype negative_stream = {{0, 3, -1}};
  EXPECT_DEATH(CandidateCache::Hash(big_slot), "slot");
  EXPECT_DEATH(cache.Lookup(big_slot, 0), "slot");
  EXPECT_DEATH(cache.Insert(negative_slot, {Ms(1), 1}, 0), "slot");
  EXPECT_DEATH(CandidateCache::Hash(bad_stream), "stream");
  EXPECT_DEATH(cache.Lookup(bad_stream, 0), "stream");
  EXPECT_DEATH(cache.Insert(negative_stream, {Ms(1), 1}, 0), "stream");
  // The largest packable slot is fine.
  const Genotype max_slot = {{0, (1 << 15) - 1, kSubStream}};
  cache.Insert(max_slot, {Ms(1), 1});
  ASSERT_NE(cache.Lookup(max_slot), nullptr);
}

TEST(CandidateCacheTest, EntriesAcrossBlockBoundariesStayHits) {
  // 100 genes pack into 200-byte keys, so a 64 KiB block holds 327 of
  // them and 2000 entries span seven blocks.
  constexpr int kGenes = 100;
  constexpr int kEntries = 2000;
  auto genotype = [](int i) {
    Genotype g;
    for (int layer = kGenes - 1; layer >= 0; --layer) {
      g.push_back({layer, (i >> (layer % 11)) & 7, (i + layer) % 2});
    }
    g[0].slot = i;  // every genotype distinct
    return g;
  };
  CandidateCache cache;
  const Genotype first = genotype(0);
  cache.Insert(first, {Ms(1), 0});
  const CandidateCache::Score* first_hit = cache.Lookup(first);
  ASSERT_NE(first_hit, nullptr);
  for (int i = 1; i < kEntries; ++i) {
    cache.Insert(genotype(i), {Ms(1) + i, i});
  }
  EXPECT_EQ(cache.size(), static_cast<size_t>(kEntries));
  // Blocks are never reallocated: a score pointer outlives later inserts.
  EXPECT_EQ(first_hit, cache.Lookup(first));
  for (int i = 0; i < kEntries; ++i) {
    const CandidateCache::Score* hit = cache.Lookup(genotype(i));
    ASSERT_NE(hit, nullptr) << i;
    EXPECT_EQ(hit->time, Ms(1) + i);
    EXPECT_EQ(hit->peak, i);
  }
  EXPECT_EQ(cache.Lookup(genotype(kEntries)), nullptr);
}

}  // namespace
}  // namespace oobp
