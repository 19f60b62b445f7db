// Process-wide snapshot integration: activation (mmap + validate + install
// model-cache hooks), recording (collect contents during a scenario sweep
// for `oobp snapshot build`), content-addressed keys, and the
// snapshot-aware MakeOooSchedule front door.
//
// Staleness model (DESIGN.md §12):
//  * The registry hash (scenario names + kSnapshotSchemaVersion, computed
//    by the runner) guards whole-file relevance: a binary whose scenario
//    registry differs from the builder's silently falls back to in-process
//    construction (ActivateSnapshot returns kStale and installs nothing).
//  * Model hits are guarded per-entry by ModelContentHash: the CLI's
//    `snapshot verify` recomputes hashes, and schedules reference models by
//    content, so a zoo change can orphan stored schedules but never serve a
//    wrong one.
//  * Schedule hits are content-addressed by ScheduleKeyHash = XXH64 over
//    (model content hash, cost-model cache key, raw memory-cap factor):
//    any change to the model, hardware point, profile, or cap misses.
//
// Thread-safety: Activate/Deactivate/StartRecording are startup/teardown
// operations; once installed, the reader is immutable and hook lookups take
// a shared_ptr under a mutex (cheap, off the simulation hot path — hits
// land in the model_cache maps and are never re-fetched).

#ifndef OOBP_SRC_STORE_SNAPSHOT_H_
#define OOBP_SRC_STORE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/core/joint_scheduler.h"
#include "src/nn/train_graph.h"
#include "src/store/reader.h"
#include "src/store/writer.h"

namespace oobp {

// Default artifact location relative to the repo root (gitignored).
inline constexpr const char* kDefaultSnapshotPath = "bench/oobp.snapshot";

// Hash over every field of the model that scheduling depends on (name,
// batch, all per-layer fields). Two models with equal hashes are — up to
// hash collision — the same scheduling problem.
uint64_t ModelContentHash(const NnModel& model);

// Content-addressed identity of one MakeOooSchedule call.
uint64_t ScheduleKeyHash(const NnModel& model, const GpuSpec& gpu,
                         const SystemProfile& profile,
                         double memory_cap_factor);

// Content-addressed identity of one SearchSchedule call (src/search): the
// scheduling problem plus every knob the search result depends on. Lives in
// the same key space as ScheduleKeyHash (distinct hash seed), so searched
// schedules share the snapshot's kSchedules section. `evaluator_version`
// (the analytic evaluator's version constant) and `free_cache_hits` (the
// budget unit) identify the candidate-scoring pipeline — a pipeline
// revision makes previously stored searches stale (silent re-search)
// rather than replaying results the new pipeline would not produce.
// Thread count is deliberately absent: results are byte-identical at any
// `threads`.
uint64_t SearchKeyHash(const NnModel& model, const GpuSpec& gpu,
                       const SystemProfile& profile, int beam, uint64_t seed,
                       int budget, double memory_cap_factor,
                       int evaluator_version, bool free_cache_hits);

enum class SnapshotActivation {
  kActive,  // validated, hooks installed
  kStale,   // valid file, registry hash differs — silent fallback
  kError,   // unreadable / corrupt / version mismatch
};

// Maps + validates `path` and, on success, installs the model-cache hooks
// so CachedModel misses consult the snapshot before building. With
// `check_registry`, a registry-hash mismatch yields kStale and leaves the
// process exactly as before the call (the caller decides whether to warn).
// kError fills *error with the reader's diagnostic.
SnapshotActivation ActivateSnapshot(const std::string& path,
                                    uint64_t expected_registry_hash,
                                    bool check_registry = true,
                                    std::string* error = nullptr);
void DeactivateSnapshot();
bool SnapshotActive();
// The active reader (nullptr when inactive). The shared_ptr keeps the
// mapping alive across a concurrent Deactivate.
std::shared_ptr<const SnapshotReader> ActiveSnapshot();

// MakeOooSchedule with snapshot fall-through: a stored schedule whose
// content key matches is materialized from the mapping; otherwise the
// scheduler runs as today (and the result is captured when recording).
// Value-identical to MakeOooSchedule by construction — the stored record
// holds every field of JointScheduleResult exactly.
JointScheduleResult SnapshotOooSchedule(const TrainGraph& graph,
                                        const GpuSpec& gpu,
                                        const SystemProfile& profile,
                                        double memory_cap_factor = 1.1);

// Captures an externally computed schedule under `key` when recording (the
// hook SnapshotOooSchedule uses internally, exposed for higher layers such
// as src/search that compute their own JointScheduleResult-shaped records).
// Also pins the (gpu, profile) cost-model point. No-op when not recording.
void RecordSnapshotSchedule(uint64_t key, const JointScheduleResult& result,
                            const GpuSpec& gpu, const SystemProfile& profile);

// Recording: between Start and Take, every model built through CachedModel,
// every cost-model point built through CachedCostModel, and every schedule
// computed through SnapshotOooSchedule is collected into a
// SnapshotContents. Used by `oobp snapshot build`, which replays the golden
// scenario sweep with recording on and serializes the result.
void StartSnapshotRecording(uint64_t registry_hash);
bool SnapshotRecording();
// Stops recording and returns everything collected.
SnapshotContents TakeSnapshotRecording();

}  // namespace oobp

#endif  // OOBP_SRC_STORE_SNAPSHOT_H_
