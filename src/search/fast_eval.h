// Incremental analytic schedule evaluator — the Tier-A scorer of the
// two-tier search evaluation pipeline (DESIGN.md §14).
//
// FastScheduleEvaluator computes the same steady-state iteration time as
// ScheduleEvaluator (src/search/evaluator.h) without instantiating a
// SimEngine per candidate. The insight is that the trimmed evaluation
// workload is a closed two-stream system: in kPrecompiled mode the launcher
// enqueues every kernel at one instant (graph_launch_latency), so the full
// discrete-event simulation collapses to a tiny state machine — at most one
// running and one dispatched-but-not-started kernel per stream plus the
// single fluid wake-up timer. Replaying exactly the floating-point
// operations the FluidProcessor performs (rate = min(max_rate, free) in
// priority order, remaining = max(0, remaining - rate*dt) at every event
// boundary, completion at remaining <= 1e-6, wake at now + max(1,
// ceil(min remaining/rate))) makes the analytic makespan BIT-IDENTICAL to
// the simulator's — not an approximation — while running one to two orders
// of magnitude faster.
//
// Incrementality: the local-search mutators flip one WgradGene at a time,
// so consecutive candidates share a long schedule prefix. The evaluator
// keeps, per instance:
//   * role-cursor snapshots (SchedulePrefixState, src/core/schedule.h)
//     every few positions, so per-position dependency metadata — the same
//     wiring BuildTrainIssuePlan derives — is rebuilt only from the first
//     differing position onward;
//   * sweep checkpoints: complete machine states captured whenever a
//     first-iteration item with a new maximum index is dispatched. At that
//     instant the machine state provably depends only on earlier schedule
//     positions, so a later candidate that differs first at position p can
//     resume from the latest checkpoint with key <= p and re-simulate only
//     the suffix;
//   * an incremental activation-memory walk replaying
//     EstimateBackpropMemory (src/core/memory_model.h) bit-for-bit with
//     position-keyed liveness checkpoints, so the memory-cap test the
//     search applies to every candidate is also prefix-incremental.
//
// Instances are not thread-safe (each search trajectory owns one); the
// process-wide analytic-evaluation counter is atomic and feeds the perf
// harness (bench/perf_baseline.json evals/sec floor).

#ifndef OOBP_SRC_SEARCH_FAST_EVAL_H_
#define OOBP_SRC_SEARCH_FAST_EVAL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/time.h"
#include "src/core/schedule.h"
#include "src/hw/gpu_spec.h"
#include "src/nn/cost_model.h"
#include "src/nn/layer.h"

namespace oobp {

class FastScheduleEvaluator {
 public:
  // `model` must outlive the evaluator; the cost model comes from the
  // process-wide cache, shared with the engines and ScheduleEvaluator.
  FastScheduleEvaluator(const NnModel* model, const GpuSpec& gpu,
                        const SystemProfile& profile);

  // Steady-state time of one training iteration: bit-identical to
  // ScheduleEvaluator::IterationTime on the same (model, gpu, profile,
  // schedule). Incremental against the previously evaluated schedule.
  TimeNs IterationTime(const IterationSchedule& schedule);

  // Activation-memory peak of the schedule's merged order: bit-identical to
  // EstimateBackpropMemory(model, schedule.MergedOrder()).peak, incremental
  // against the previously measured schedule.
  int64_t PeakMemory(const IterationSchedule& schedule);

  // Analytic evaluations performed by this instance.
  int64_t evaluations() const { return evaluations_; }

  // Process-wide analytic evaluation count (all instances, all threads);
  // the perf harness samples deltas of this the way it samples simulator
  // event counts.
  static uint64_t TotalAnalyticEvals();

  const NnModel& model() const { return *model_; }

 private:
  // Per-position issue metadata: the dependency wiring BuildTrainIssuePlan
  // derives, expressed in schedule positions (iteration-invariant; item
  // index of position p in iteration t is t*n + p).
  struct PosMeta {
    TimeNs dur = 0;            // solo duration
    double occ = 0.0;          // EffectiveOccupancy(thread_blocks, capacity)
    double work = 0.0;         // dur * occ: initial fluid `remaining`
    int32_t dep[2] = {-1, -1};  // same-iteration dependency positions
    uint8_t stream = 0;        // kMainStream / kSubStream
    bool dep_prev_fwd = false;  // also depends on prior iteration's last F
  };

  // Complete machine state of the analytic sweep; small enough to snapshot.
  struct SweepState {
    TimeNs now = 0;
    // Dispatched item count per stream (flat index into the per-stream
    // issue sequence across iterations). The dispatched/completed tests
    // derive from these cursors plus the in-flight slots below, so no
    // per-item done flags need checkpointing.
    uint64_t ptr[2] = {0, 0};
    int32_t pend[2] = {-1, -1};   // dispatched, paying exec overhead
    TimeNs pend_at[2] = {0, 0};   // its execution start time
    int32_t run[2] = {-1, -1};    // occupying fluid slots
    double rem[2] = {0.0, 0.0};   // remaining work (rate*ns)
    double occ[2] = {0.0, 0.0};   // max_rate of the running kernel
    uint64_t started_seq[2] = {0, 0};  // fluid job seq (completion order)
    uint64_t next_seq = 1;        // mirrors FluidProcessor::next_id_
    uint32_t completed = 0;
    int32_t max_disp = -1;        // highest item index dispatched so far
    TimeNs iter_end[3] = {0, 0, 0};  // per-iteration completion maxima
  };
  struct SweepCkpt {
    int32_t next_item = 0;  // the item about to be dispatched (the key)
    SweepState state;
  };

  // Activation-memory liveness at a schedule position, packed: per layer
  // 6 bits (act_consumers+1, grad_consumers, grad_alloc, stash_live).
  struct MemCkpt {
    int32_t pos = 0;  // state before consuming ops[pos]
    int64_t live = 0;
    int64_t peak = 0;
    std::vector<uint8_t> packed;
  };

  // Lazily memoized kernel cost per (layer, op type): position metadata is
  // position-independent apart from dependency wiring, so the cost model is
  // consulted once per pair instead of once per rebuilt position.
  struct CostEntry {
    TimeNs dur = 0;
    double occ = 0.0;
    double work = 0.0;
    bool init = false;
  };

  void RebuildMeta(const IterationSchedule& schedule, size_t p_diff);
  TimeNs RunSweep(size_t n);
  int64_t ColdInitMemState(std::vector<uint8_t>* packed) const;

  const NnModel* model_;
  std::shared_ptr<const CostModel> cost_;
  std::vector<CostEntry> cost_table_;  // [layer * 4 + op type]
  double capacity_ = 0.0;
  TimeNs exec_overhead_ = 0;
  TimeNs t0_ = 0;  // graph launch latency: the instant all items enqueue
  int64_t evaluations_ = 0;

  // --- iteration-time path state (diffed against time_ops_) ---
  std::vector<ScheduledOp> time_ops_;
  TimeNs last_time_ = -1;
  std::vector<PosMeta> meta_;
  std::vector<SchedulePrefixState> meta_ckpts_;  // every kMetaStride positions
  int32_t fwd_last_pos_ = -1;  // position of F_{L-1} (cross-iteration dep)
  std::vector<int32_t> seq_[2];       // per-stream issue order (positions)
  std::vector<int32_t> rank_;         // position -> index within its stream
  std::vector<SweepCkpt> sweep_ckpts_;
  // Steady-state anchor (RunSweep): machine state right after iteration 0's
  // last forward completed. At that instant every in-flight item is still in
  // iteration 0 and both cursors are in their first pass, so the state plus
  // the maximum schedule position read so far fully describes it; like the
  // sweep checkpoints it stays valid across candidates whose first differing
  // position lies beyond that key.
  SweepState anchor_st_;
  bool anchor_valid_ = false;
  int32_t anchor_key_ = -1;

  // --- memory path state (diffed against mem_ops_) ---
  std::vector<ScheduledOp> mem_ops_;
  int64_t last_peak_ = -1;
  int64_t mem_initial_ = 0;  // schedule-independent initial live bytes
  std::vector<uint8_t> mem_init_packed_;
  std::vector<MemCkpt> mem_ckpts_;
};

}  // namespace oobp

#endif  // OOBP_SRC_SEARCH_FAST_EVAL_H_
