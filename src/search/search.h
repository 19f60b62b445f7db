// Search-based scheduler baseline (DESIGN.md §13).
//
// The paper's schedulers are hand-designed heuristics; this module measures
// the headroom they leave by searching the same schedule space directly —
// op orderings and main/sub stream assignments for one training iteration —
// scored by steady-state iteration time.
//
// Search space. A candidate is a *genotype*: one gene per parameterized
// layer placing that layer's weight-gradient + update pair (dW_i, U_i)
// against a fixed backbone [dO_{L-1} .. dO_0, F_0 .. F_{L-1}]. The gene is
// (slot, stream): the pair is issued directly after backbone op `slot`, on
// the main or sub stream. Slots are clamped to the dependency window
//   min_slot(i) = position of dO_{i+1}   (dW_i consumes dO_{i+1}'s output)
//   max_slot(i) = position of F_i - 1    (F_i consumes U_i's result)
// so *every* decodable genotype satisfies the training-graph dependencies —
// the search can never emit an invalid schedule, only a slow one. This is
// exactly the space MakeOooSchedule explores (it also only moves dW/U pairs
// and assigns streams); the conventional schedule is the genotype with
// slot_i = position of dO_i, all ops on the main stream.
//
// Algorithm. A portfolio of `beam` independent, deterministic trajectories:
//   * trajectory 0 is pure greedy coordinate descent (no randomness):
//     repeated sweeps over the genes, each trying a fixed move set, keeping
//     strict improvements, until a sweep makes no progress or the budget is
//     exhausted;
//   * trajectories 1..beam-1 are seeded local searches: start from the
//     MakeOooSchedule-derived genotype, sweep with the greedy move set plus
//     random moves, then random-walk with strict-improvement acceptance.
// The result is the best of the conventional baseline and all trajectories.
// By construction the search is (a) never worse than the in-order baseline,
// (b) monotone in `beam` (beam B+1 evaluates a superset of candidates),
// (c) equal to pure greedy at beam=1, and (d) bit-deterministic for a fixed
// (model, gpu, profile, beam, seed, budget) — no wall-clock, no global rng.
//
// Memory. Candidates whose activation peak exceeds memory_cap_factor x the
// conventional schedule's peak are rejected without consuming budget. The
// peak comes from the incremental liveness walk in FastScheduleEvaluator —
// bit-identical to EstimateBackpropMemory but resumed from the last common
// schedule prefix instead of recomputed from scratch per candidate.
//
// Scoring (DESIGN.md §14). Every candidate goes through one pipeline: the
// memory walk, then a per-trajectory content-addressed CandidateCache, then
// the incremental analytic evaluator (Tier A), which replays the
// simulator's floating-point arithmetic and so returns its score bit for
// bit. The event-driven simulator (ScheduleEvaluator, Tier B) scores only
// the conventional baseline, each trajectory's final point — the only
// number allowed to escape a trajectory, and checked to equal the analytic
// score the trajectory carried — and a deterministic 1-in-audit_interval
// sample of analytic scores, whose relative error feeds SearchStats.
//
// Parallelism. The independent trajectories run on a WorkerPool
// (src/sim/worker_pool.h) with one worker per hardware thread by default
// (`threads`, capped at `beam`). Each trajectory owns its evaluators,
// cache, and Rng; outcomes are merged in trajectory index order after the
// pool quiesces, so results are byte-identical at any thread count. Each
// trajectory's CandidateCache stores packed keys (about 0.3 KB per
// densenet121 entry), so trajectories running side by side stay cheap in
// memory.
//
// Verification. Every returned schedule is checked against
// TrainGraph::ValidateBackpropOrder here, and callers (scenarios, CLI,
// fuzzer, tests) feed it through the full CheckIterationSchedule gate —
// a violation is a hard failure, not a score penalty.

#ifndef OOBP_SRC_SEARCH_SEARCH_H_
#define OOBP_SRC_SEARCH_SEARCH_H_

#include <cstdint>
#include <vector>

#include "src/common/time.h"
#include "src/core/joint_scheduler.h"
#include "src/core/schedule.h"
#include "src/nn/train_graph.h"
#include "src/search/evaluator.h"

namespace oobp {

// std::thread::hardware_concurrency(), at least 1: the default worker count
// of the trajectory portfolio.
int DefaultSearchThreads();

struct SearchOptions {
  int beam = 4;         // independent trajectories (>= 1)
  uint64_t seed = 1;    // base seed for trajectories >= 1
  int budget = 200;     // budget units per trajectory (>= 0)
  // Peak activation-memory cap as a multiple of the conventional schedule's
  // peak; the paper's schedulers use 1.1x. Must be >= 1.0 so the
  // conventional fallback is always admissible.
  double memory_cap_factor = 1.1;
  // Budget unit. false: every admissible candidate visit costs one unit,
  // cache hits included, and trajectory 0 and the over-cap restart take the
  // coordinator's conventional score for free (what the search_gap_*
  // goldens pin). true: only analytic evaluations (cache misses) cost a
  // unit, and every start point is scored from the budget. Rejected
  // candidates never cost a unit.
  bool free_cache_hits = false;
  // Worker threads for the trajectory portfolio (>= 1; capped at `beam`).
  // Results are byte-identical for every value.
  int threads = DefaultSearchThreads();
  // Every audit_interval-th analytic evaluation (per trajectory) is
  // re-scored by the simulator into SearchStats::audit_max_rel_err; <= 0
  // disables auditing. The audit is a safety net, not a correction — Tier A
  // is bit-exact against the simulator and the analytic score is always
  // the one used and cached — so a sparse sample suffices and keeps Tier-B
  // time off the search's critical path.
  int audit_interval = 256;
};

// Bookkeeping of one search run, aggregated across trajectories.
struct SearchStats {
  int64_t sim_evals = 0;        // Tier-B scores: baseline, finals, audits
  int64_t analytic_evals = 0;   // Tier-A scores (one per distinct candidate)
  uint64_t cache_hits = 0;      // candidate-cache hits
  uint64_t cache_misses = 0;    // candidate-cache misses
  int64_t memory_rejections = 0;  // distinct candidates over the cap
  int64_t audit_samples = 0;    // Tier-B audits of analytic scores
  double audit_max_rel_err = 0.0;  // worst |analytic - sim| / sim audited

  friend bool operator==(const SearchStats&, const SearchStats&) = default;
};

// One (slot, stream) placement of a parameterized layer's dW+U pair.
struct WgradGene {
  int layer = 0;
  int slot = 0;    // backbone index the pair is issued after
  int stream = kMainStream;

  friend bool operator==(const WgradGene&, const WgradGene&) = default;
};

// Genes in descending layer order (the decoder's tie-break order).
using Genotype = std::vector<WgradGene>;

// The genotype that decodes to ConventionalIteration(graph) exactly.
Genotype ConventionalGenotype(const TrainGraph& graph);

// Decodes a genotype into an issue schedule: backbone ops in order, each
// slot's genes appended after their backbone op in descending layer order,
// U_i directly after dW_i on the same stream. Slots are clamped to the
// dependency window, so any genotype decodes to a valid schedule.
IterationSchedule DecodeGenotype(const TrainGraph& graph,
                                 const Genotype& genotype);

// Inclusive slot window for layer `layer` (see header comment).
int MinSlot(const TrainGraph& graph, int layer);
int MaxSlot(const TrainGraph& graph, int layer);

struct SearchResult {
  IterationSchedule schedule;    // best schedule found
  Genotype genotype;             // its genotype
  TimeNs best_time = 0;          // simulated iteration time of `schedule`
  TimeNs conventional_time = 0;  // simulated time of the in-order baseline
  int64_t peak_memory = 0;       // activation peak of `schedule`
  SearchStats stats;             // per-run evaluation pipeline bookkeeping
};

// Pure greedy coordinate descent (trajectory 0 only; `options.beam` and
// `options.seed` are ignored). SearchSchedule with beam=1 returns the same
// schedule byte-for-byte.
SearchResult GreedySchedule(const TrainGraph& graph, const GpuSpec& gpu,
                            const SystemProfile& profile,
                            const SearchOptions& options = {});

// The full portfolio search (see header comment).
SearchResult SearchSchedule(const TrainGraph& graph, const GpuSpec& gpu,
                            const SystemProfile& profile,
                            const SearchOptions& options = {});

}  // namespace oobp

#endif  // OOBP_SRC_SEARCH_SEARCH_H_
