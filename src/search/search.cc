#include "src/search/search.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/hw/validation_hooks.h"
#include "src/search/candidate_cache.h"
#include "src/search/fast_eval.h"
#include "src/sim/worker_pool.h"

namespace oobp {
namespace {

// Score of a candidate the memory cap rejected; never beats a real time.
constexpr TimeNs kRejected = std::numeric_limits<TimeNs>::max();

// Parameterized layers in descending order — the genotype layout.
std::vector<int> WgradLayers(const TrainGraph& graph) {
  std::vector<int> layers;
  for (int i = graph.num_layers() - 1; i >= 0; --i) {
    if (graph.HasWgrad(i)) layers.push_back(i);
  }
  return layers;
}

int ClampSlot(const TrainGraph& graph, int layer, int slot) {
  return std::clamp(slot, MinSlot(graph, layer), MaxSlot(graph, layer));
}

// Allocation-free DecodeGenotype: same op sequence, but the slot bucketing
// is a single sort of the genotype (layers are unique, so (slot, -layer) is
// a total order and equals the bucket-then-sort order) and both the sort
// scratch and the output schedule are caller-owned, so the per-candidate
// decode on the search's hot path reuses its buffers instead of building
// 2L bucket vectors per call.
void DecodeGenotypeInto(const TrainGraph& graph, const Genotype& genotype,
                        std::vector<WgradGene>* scratch,
                        IterationSchedule* out) {
  const int L = graph.num_layers();
  const int backbone_size = 2 * L;
  scratch->clear();
  scratch->reserve(genotype.size());
  for (const WgradGene& gene : genotype) {
    OOBP_CHECK(graph.HasWgrad(gene.layer));
    WgradGene g = gene;
    g.slot = ClampSlot(graph, gene.layer, gene.slot);
    scratch->push_back(g);
  }
  std::sort(scratch->begin(), scratch->end(),
            [](const WgradGene& a, const WgradGene& b) {
              return a.slot != b.slot ? a.slot < b.slot : a.layer > b.layer;
            });

  out->ops.clear();
  out->ops.reserve(static_cast<size_t>(backbone_size) + 2 * scratch->size());
  size_t gi = 0;
  for (int pos = 0; pos < backbone_size; ++pos) {
    const TrainOp backbone =
        pos < L ? TrainOp{TrainOpType::kOutputGrad, L - 1 - pos}
                : TrainOp{TrainOpType::kForward, pos - L};
    out->ops.push_back({backbone, kMainStream, -1});
    for (; gi < scratch->size() && (*scratch)[gi].slot == pos; ++gi) {
      const WgradGene& gene = (*scratch)[gi];
      out->ops.push_back(
          {{TrainOpType::kWeightGrad, gene.layer}, gene.stream, -1});
      out->ops.push_back(
          {{TrainOpType::kWeightUpdate, gene.layer}, gene.stream, -1});
    }
  }
}

// Per-trajectory evaluation pipeline (see the header comment): a cache
// miss is decoded, walked for its activation peak and, if admissible,
// scored by Tier A; either outcome is cached. Budget follows
// SearchOptions::free_cache_hits. The simulator is touched here only for
// the deterministic audit sample; RunTrajectory re-scores the final point.
struct SearchContext {
  const TrainGraph& graph;
  const SearchOptions& options;
  ScheduleEvaluator sim;       // Tier B: audits and the final point
  FastScheduleEvaluator fast;  // memory walk + Tier A
  int64_t memory_cap;
  int evals_left;
  CandidateCache cache = {};
  // Rejections and audits; RunTrajectory reads the rest off the evaluators.
  SearchStats stats = {};

  // Decode buffers, reused across candidates (the context is
  // single-threaded; only the evaluators read `schedule` and they keep
  // their own copies of whatever they diff against).
  std::vector<WgradGene> decode_scratch = {};
  IterationSchedule schedule = {};

  TimeNs Evaluate(const Genotype& genotype) {
    const uint64_t hash = CandidateCache::Hash(genotype);
    if (const CandidateCache::Score* hit = cache.Lookup(genotype, hash)) {
      if (hit->time != kRejected && !options.free_cache_hits) evals_left--;
      return hit->time;
    }
    DecodeGenotypeInto(graph, genotype, &decode_scratch, &schedule);
    const int64_t peak = fast.PeakMemory(schedule);
    if (peak > memory_cap) {
      ++stats.memory_rejections;
      cache.Insert(genotype, {kRejected, peak}, hash);
      return kRejected;
    }
    evals_left--;
    const TimeNs t = fast.IterationTime(schedule);
    cache.Insert(genotype, {t, peak}, hash);
    // Deterministic 1-in-K audit: the K-th, 2K-th, ... analytic evaluation
    // of this trajectory is re-scored by the simulator (outside the budget)
    // and the relative error recorded. The cache guarantees the counter
    // advances once per distinct candidate, so the sample is reproducible
    // at any thread count.
    const int audit_interval = options.audit_interval;
    if (audit_interval > 0 && fast.evaluations() % audit_interval == 0) {
      const TimeNs exact = sim.IterationTime(schedule);
      ++stats.audit_samples;
      const double err =
          exact > 0 ? std::abs(static_cast<double>(t) -
                               static_cast<double>(exact)) /
                          static_cast<double>(exact)
                    : (t == exact ? 0.0 : 1.0);
      stats.audit_max_rel_err = std::max(stats.audit_max_rel_err, err);
    }
    return t;
  }
};

// The deterministic per-gene move set of the greedy sweep: the extremes and
// midpoint of the dependency window on the sub stream (the placements
// MakeOooSchedule chooses between), a stream flip in place, and the
// latest-possible main-stream placement (pure reordering, no overlap).
std::vector<WgradGene> GreedyMoves(const TrainGraph& graph,
                                   const WgradGene& gene) {
  const int lo = MinSlot(graph, gene.layer);
  const int hi = MaxSlot(graph, gene.layer);
  return {
      {gene.layer, lo, kSubStream},
      {gene.layer, hi, kSubStream},
      {gene.layer, (lo + hi) / 2, kSubStream},
      {gene.layer, gene.slot,
       gene.stream == kMainStream ? kSubStream : kMainStream},
      {gene.layer, hi, kMainStream},
  };
}

// Scores `cur` with gene `gi` replaced by `move`, in place: the move is
// kept on a strict improvement and undone otherwise, so no candidate
// copies the genotype. Returns whether the move was kept.
bool TryMove(SearchContext& ctx, Genotype& cur, TimeNs& cur_time, size_t gi,
             const WgradGene& move) {
  const WgradGene kept = cur[gi];
  cur[gi] = move;
  const TimeNs t = ctx.Evaluate(cur);
  if (t < cur_time) {
    cur_time = t;
    return true;
  }
  cur[gi] = kept;
  return false;
}

// One coordinate-descent pass framework: sweeps over genes until a full
// sweep yields no strict improvement or the budget runs out. `moves`
// produces the candidate genes to try for one position.
template <typename MoveFn>
void SweepToFixpoint(SearchContext& ctx, Genotype& cur, TimeNs& cur_time,
                     const MoveFn& moves) {
  bool improved = true;
  while (improved && ctx.evals_left > 0) {
    improved = false;
    for (size_t gi = 0; gi < cur.size(); ++gi) {
      for (const WgradGene& move : moves(cur[gi])) {
        if (ctx.evals_left <= 0) return;
        if (move == cur[gi]) continue;
        if (TryMove(ctx, cur, cur_time, gi, move)) improved = true;
      }
    }
  }
}

// Trajectory 0: pure greedy coordinate descent from the conventional
// genotype. No randomness — this is what `beam=1` and GreedySchedule run.
void GreedyTrajectory(SearchContext& ctx, Genotype& cur, TimeNs& cur_time) {
  SweepToFixpoint(ctx, cur, cur_time, [&](const WgradGene& gene) {
    return GreedyMoves(ctx.graph, gene);
  });
}

// Trajectories >= 1: the greedy move set plus two random placements per
// gene per sweep, then a strict-improvement random walk until the budget
// (or a deterministic attempt bound, for heavily cap-rejected walks) runs
// out. All randomness flows from the caller's seeded Rng.
void RandomTrajectory(SearchContext& ctx, Rng& rng, Genotype& cur,
                      TimeNs& cur_time) {
  auto random_gene = [&](int layer) {
    const int lo = MinSlot(ctx.graph, layer);
    const int hi = MaxSlot(ctx.graph, layer);
    const int slot = lo + static_cast<int>(rng.NextBelow(hi - lo + 1));
    const int stream = rng.NextBelow(2) == 0 ? kMainStream : kSubStream;
    return WgradGene{layer, slot, stream};
  };
  SweepToFixpoint(ctx, cur, cur_time, [&](const WgradGene& gene) {
    std::vector<WgradGene> moves = GreedyMoves(ctx.graph, gene);
    moves.push_back(random_gene(gene.layer));
    moves.push_back(random_gene(gene.layer));
    return moves;
  });
  if (cur.empty()) return;
  for (int attempts = 4 * ctx.evals_left;
       attempts > 0 && ctx.evals_left > 0; --attempts) {
    const size_t gi = rng.NextBelow(cur.size());
    const WgradGene move = random_gene(cur[gi].layer);
    if (move == cur[gi]) continue;
    TryMove(ctx, cur, cur_time, gi, move);
  }
}

// Derives the genotype closest to an existing schedule (typically
// MakeOooSchedule's): each dW keeps its stream and maps to the slot of the
// last backbone op issued before it, clamped into the dependency window.
Genotype DeriveGenotype(const TrainGraph& graph,
                        const IterationSchedule& schedule) {
  const int L = graph.num_layers();
  std::vector<WgradGene> by_layer(L);
  std::vector<bool> seen(L, false);
  int backbone_pos = -1;  // index of the last backbone (dO/F) op issued
  for (const ScheduledOp& s : schedule.ops) {
    switch (s.op.type) {
      case TrainOpType::kOutputGrad:
      case TrainOpType::kForward:
        ++backbone_pos;
        break;
      case TrainOpType::kWeightGrad:
        seen[s.op.layer] = true;
        by_layer[s.op.layer] = {s.op.layer,
                                ClampSlot(graph, s.op.layer,
                                          std::max(backbone_pos, 0)),
                                s.stream};
        break;
      case TrainOpType::kWeightUpdate:
        break;  // bound to its dW by the decoder
    }
  }
  Genotype genotype;
  for (int layer : WgradLayers(graph)) {
    genotype.push_back(seen[layer]
                           ? by_layer[layer]
                           : WgradGene{layer, ClampSlot(graph, layer, L - 1 - layer),
                                       kMainStream});
  }
  return genotype;
}

// Everything a finished trajectory hands back to the coordinator. `time`
// is a simulator score of `genotype` (Tier B), so every value that can
// become the reported best_time is exact.
struct TrajectoryOutcome {
  Genotype genotype;
  TimeNs time = kRejected;
  SearchStats stats;
};

// One trajectory of the portfolio, self-contained: private evaluators,
// cache, and Rng, so trajectories are pure functions of their index and may
// run on any worker thread in any order.
TrajectoryOutcome RunTrajectory(const TrainGraph& graph, const GpuSpec& gpu,
                                const SystemProfile& profile,
                                const SearchOptions& options, int j,
                                const Genotype& conventional_genotype,
                                TimeNs conventional_time, int64_t cap,
                                const Genotype* ooo_genotype) {
  SearchContext ctx{.graph = graph,
                    .options = options,
                    .sim = {&graph.model(), gpu, profile},
                    .fast = {&graph.model(), gpu, profile},
                    .memory_cap = cap,
                    .evals_left = options.budget};
  // The conventional point: the coordinator's score for free, or one
  // budgeted analytic evaluation (bit-identical; only accounting differs).
  Genotype cur;
  TimeNs cur_time = kRejected;
  auto start_conventional = [&] {
    cur = conventional_genotype;
    if (!options.free_cache_hits) {
      cur_time = conventional_time;
    } else if (ctx.evals_left > 0) {
      cur_time = ctx.Evaluate(cur);
    }
  };
  if (j == 0) {
    start_conventional();
    GreedyTrajectory(ctx, cur, cur_time);
  } else {
    Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(j));
    cur = *ooo_genotype;
    if (ctx.evals_left > 0) cur_time = ctx.Evaluate(cur);
    // Over the memory cap after re-decoding (or zero budget): restart from
    // the always-admissible conventional point.
    if (cur_time == kRejected) start_conventional();
    RandomTrajectory(ctx, rng, cur, cur_time);
  }

  // Tier B: the only number that escapes a trajectory is a simulator score
  // of its final point, and it must equal the analytic score the
  // trajectory carried (unless the point was never scored).
  const TimeNs time = ctx.sim.IterationTime(DecodeGenotype(graph, cur));
  OOBP_CHECK(cur_time == kRejected || time == cur_time)
      << "trajectory " << j << ": analytic score " << cur_time
      << " != simulator score " << time;
  SearchStats& stats = ctx.stats;
  stats.sim_evals = ctx.sim.evaluations();
  stats.analytic_evals = ctx.fast.evaluations();
  stats.cache_hits = ctx.cache.hits();
  stats.cache_misses = ctx.cache.misses();
  return {std::move(cur), time, stats};
}

SearchResult AssembleResult(const TrainGraph& graph, ScheduleEvaluator& eval,
                            Genotype best, TimeNs best_time,
                            TimeNs conventional_time,
                            const SearchStats& stats) {
  SearchResult out;
  out.schedule = DecodeGenotype(graph, best);
  out.genotype = std::move(best);
  out.best_time = best_time;
  out.conventional_time = conventional_time;
  out.peak_memory = eval.PeakMemory(out.schedule);
  out.stats = stats;
  // Structural self-check: the decoded gradient order must satisfy the
  // training-graph dependencies. Callers additionally run the full
  // CheckIterationSchedule gate (src/validate); a failure here is a decoder
  // bug, never a property of the searched point.
  std::vector<TrainOp> grad_order;
  for (const ScheduledOp& s : out.schedule.ops) {
    if (s.op.type == TrainOpType::kOutputGrad ||
        s.op.type == TrainOpType::kWeightGrad) {
      grad_order.push_back(s.op);
    }
  }
  OOBP_CHECK(graph.ValidateBackpropOrder(grad_order));
  return out;
}

}  // namespace

int DefaultSearchThreads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

int MinSlot(const TrainGraph& graph, int layer) {
  const int L = graph.num_layers();
  OOBP_CHECK_GE(layer, 0);
  OOBP_CHECK_LT(layer, L);
  // dW_i consumes dO_{i+1}, which sits at backbone index L-2-i; dW_{L-1}
  // only needs the loss gradient and may go anywhere after dO_{L-1}.
  return layer < L - 1 ? L - 2 - layer : 0;
}

int MaxSlot(const TrainGraph& graph, int layer) {
  // U_i must land before F_i (backbone index L+layer), i.e. at the latest
  // directly after backbone op L+layer-1.
  return graph.num_layers() + layer - 1;
}

Genotype ConventionalGenotype(const TrainGraph& graph) {
  const int L = graph.num_layers();
  Genotype genotype;
  for (int layer : WgradLayers(graph)) {
    // Directly after dO_i (backbone index L-1-i), main stream — decodes to
    // ConventionalIteration exactly.
    genotype.push_back({layer, L - 1 - layer, kMainStream});
  }
  return genotype;
}

IterationSchedule DecodeGenotype(const TrainGraph& graph,
                                 const Genotype& genotype) {
  // Genes bucket by (clamped) slot with descending layer order within a
  // slot, which keeps the decoder a bijection on sorted genotypes; the
  // hot-path helper realizes the same order with a single sort.
  std::vector<WgradGene> scratch;
  IterationSchedule schedule;
  DecodeGenotypeInto(graph, genotype, &scratch, &schedule);
  return schedule;
}

SearchResult GreedySchedule(const TrainGraph& graph, const GpuSpec& gpu,
                            const SystemProfile& profile,
                            const SearchOptions& options) {
  // Trajectory 0 only: the portfolio at beam=1 (`seed` is unused there).
  SearchOptions greedy = options;
  greedy.beam = 1;
  return SearchSchedule(graph, gpu, profile, greedy);
}

SearchResult SearchSchedule(const TrainGraph& graph, const GpuSpec& gpu,
                            const SystemProfile& profile,
                            const SearchOptions& options) {
  OOBP_CHECK_GE(options.beam, 1);
  OOBP_CHECK_GE(options.budget, 0);
  OOBP_CHECK_GE(options.memory_cap_factor, 1.0);
  OOBP_CHECK_GE(options.threads, 1);
  ScheduleEvaluator eval(&graph.model(), gpu, profile);
  const IterationSchedule conventional = ConventionalIteration(graph);
  const TimeNs conventional_time = eval.IterationTime(conventional);
  const int64_t cap = static_cast<int64_t>(options.memory_cap_factor *
                                           eval.PeakMemory(conventional));
  const Genotype conventional_genotype = ConventionalGenotype(graph);

  // Computed once on the coordinator so every trajectory stays a pure
  // function of its index. Seeded trajectories start from the heuristic's
  // own point — the search refines MakeOooSchedule rather than
  // rediscovering it.
  Genotype ooo_genotype;
  if (options.beam > 1) {
    const JointScheduleResult ooo =
        MakeOooSchedule(graph, gpu, profile, options.memory_cap_factor);
    ooo_genotype = DeriveGenotype(graph, ooo.schedule);
  }

  // The portfolio: every trajectory owns its evaluators, cache, and Rng, so
  // the pool may run them in any order on any worker; the index-ordered
  // merge below makes the result byte-identical at every thread count.
  // Validators and counters attach through thread-local hooks
  // (src/hw/validation_hooks.h) and see only the devices built on their own
  // thread, so an observed search runs its trajectories inline.
  std::vector<TrajectoryOutcome> outcomes(options.beam);
  WorkerPool pool(ActiveHwValidationHooks() != nullptr
                      ? 1
                      : std::min(options.threads, options.beam));
  pool.Run(static_cast<size_t>(options.beam), [&](size_t j, int) {
    outcomes[j] = RunTrajectory(graph, gpu, profile, options,
                                static_cast<int>(j), conventional_genotype,
                                conventional_time, cap,
                                options.beam > 1 ? &ooo_genotype : nullptr);
  });

  // Global best starts at the in-order baseline, so the search can never
  // return something worse; strict-improvement acceptance everywhere keeps
  // the portfolio monotone in `beam` (every trajectory is independent, and
  // beam B+1 evaluates a superset of beam B's candidates).
  Genotype best = conventional_genotype;
  TimeNs best_time = conventional_time;
  SearchStats stats;
  stats.sim_evals = eval.evaluations();
  for (TrajectoryOutcome& o : outcomes) {
    if (o.time < best_time) {
      best = std::move(o.genotype);
      best_time = o.time;
    }
    stats.sim_evals += o.stats.sim_evals;
    stats.analytic_evals += o.stats.analytic_evals;
    stats.cache_hits += o.stats.cache_hits;
    stats.cache_misses += o.stats.cache_misses;
    stats.memory_rejections += o.stats.memory_rejections;
    stats.audit_samples += o.stats.audit_samples;
    stats.audit_max_rel_err =
        std::max(stats.audit_max_rel_err, o.stats.audit_max_rel_err);
  }
  return AssembleResult(graph, eval, std::move(best), best_time,
                        conventional_time, stats);
}

}  // namespace oobp
