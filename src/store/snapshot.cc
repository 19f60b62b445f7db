#include "src/store/snapshot.h"

#include <mutex>
#include <utility>

#include "src/nn/model_cache.h"
#include "src/store/hash.h"

namespace oobp {
namespace {

struct SnapshotState {
  std::mutex mu;
  std::shared_ptr<const SnapshotReader> reader;  // null = inactive
  bool recording = false;
  SnapshotContents recorded;
};

SnapshotState& State() {
  static auto* state = new SnapshotState();
  return *state;
}

// One hooks installation serves both roles: find consults the active
// reader, record feeds the recording contents. Installed whenever either is
// live, removed when both are gone.
void ReinstallHooks() {
  SnapshotState& state = State();  // caller holds state.mu
  if (state.reader == nullptr && !state.recording) {
    ClearModelCacheHooks();
    return;
  }
  ModelCacheHooks hooks;
  hooks.find_model =
      [](const std::string& key) -> std::shared_ptr<const NnModel> {
    std::shared_ptr<const SnapshotReader> reader = ActiveSnapshot();
    if (reader == nullptr) return nullptr;
    std::optional<NnModel> model = reader->FindModel(key);
    if (!model.has_value()) return nullptr;
    return std::make_shared<const NnModel>(*std::move(model));
  };
  hooks.record_model = [](const std::string& key, const NnModel& model) {
    SnapshotState& s = State();
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.recording) s.recorded.models.emplace(key, model);
  };
  hooks.record_cost_model = [](const std::string& key, const GpuSpec& gpu,
                               const SystemProfile& profile) {
    SnapshotState& s = State();
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.recording) s.recorded.cost_models.emplace(key,
                                                    SnapshotCostEntry{gpu, profile});
  };
  SetModelCacheHooks(std::move(hooks));
}

}  // namespace

uint64_t ModelContentHash(const NnModel& model) {
  HashAccumulator acc(/*seed=*/0x6F6F6270u);  // "oobp"
  acc.Str(model.name);
  acc.I32(model.batch);
  acc.U64(model.layers.size());
  for (const Layer& layer : model.layers) {
    acc.Str(layer.name);
    acc.Str(layer.block);
    acc.I64(layer.fwd_flops);
    acc.I64(layer.dgrad_flops);
    acc.I64(layer.wgrad_flops);
    acc.I64(layer.fwd_bytes);
    acc.I64(layer.dgrad_bytes);
    acc.I64(layer.wgrad_bytes);
    acc.F64(layer.fwd_blocks);
    acc.F64(layer.dgrad_blocks);
    acc.F64(layer.wgrad_blocks);
    acc.I64(layer.param_bytes);
    acc.I64(layer.output_bytes);
    acc.I64(layer.stash_bytes);
    acc.I64(layer.workspace_bytes);
    acc.I32(layer.fused_ops);
  }
  return acc.Digest();
}

uint64_t ScheduleKeyHash(const NnModel& model, const GpuSpec& gpu,
                         const SystemProfile& profile,
                         double memory_cap_factor) {
  HashAccumulator acc(/*seed=*/0x73636864u);  // "schd"
  acc.U64(ModelContentHash(model));
  acc.Str(CostModelCacheKey(gpu, profile));
  acc.F64(memory_cap_factor);
  return acc.Digest();
}

uint64_t SearchKeyHash(const NnModel& model, const GpuSpec& gpu,
                       const SystemProfile& profile, int beam, uint64_t seed,
                       int budget, double memory_cap_factor,
                       int evaluator_version, bool free_cache_hits) {
  HashAccumulator acc(/*seed=*/0x73726368u);  // "srch"
  acc.U64(ModelContentHash(model));
  acc.Str(CostModelCacheKey(gpu, profile));
  acc.I32(beam);
  acc.U64(seed);
  acc.I32(budget);
  acc.F64(memory_cap_factor);
  acc.I32(evaluator_version);
  acc.I32(free_cache_hits ? 1 : 0);
  return acc.Digest();
}

SnapshotActivation ActivateSnapshot(const std::string& path,
                                    uint64_t expected_registry_hash,
                                    bool check_registry, std::string* error) {
  std::string open_error;
  std::unique_ptr<SnapshotReader> reader =
      SnapshotReader::Open(path, &open_error);
  if (reader == nullptr) {
    if (error) *error = open_error;
    return SnapshotActivation::kError;
  }
  if (check_registry && reader->registry_hash() != expected_registry_hash) {
    if (error) {
      *error = "snapshot " + path +
               " was built for a different scenario registry; falling back "
               "to in-process build (rerun `oobp snapshot build`)";
    }
    return SnapshotActivation::kStale;
  }
  SnapshotState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  state.reader = std::shared_ptr<const SnapshotReader>(std::move(reader));
  ReinstallHooks();
  return SnapshotActivation::kActive;
}

void DeactivateSnapshot() {
  SnapshotState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  state.reader = nullptr;
  ReinstallHooks();
}

bool SnapshotActive() { return ActiveSnapshot() != nullptr; }

std::shared_ptr<const SnapshotReader> ActiveSnapshot() {
  SnapshotState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.reader;
}

JointScheduleResult SnapshotOooSchedule(const TrainGraph& graph,
                                        const GpuSpec& gpu,
                                        const SystemProfile& profile,
                                        double memory_cap_factor) {
  const uint64_t key =
      ScheduleKeyHash(graph.model(), gpu, profile, memory_cap_factor);
  if (std::shared_ptr<const SnapshotReader> reader = ActiveSnapshot()) {
    if (std::optional<JointScheduleResult> hit = reader->FindSchedule(key)) {
      return *std::move(hit);
    }
  }
  JointScheduleResult result =
      MakeOooSchedule(graph, gpu, profile, memory_cap_factor);
  SnapshotState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.recording) {
    state.recorded.schedules.emplace(key, result);
    // The scheduling call pins a (gpu, profile) point even when the cost
    // model was built outside CachedCostModel; capture it for the
    // kCostModels section.
    state.recorded.cost_models.emplace(CostModelCacheKey(gpu, profile),
                                       SnapshotCostEntry{gpu, profile});
  }
  return result;
}

void RecordSnapshotSchedule(uint64_t key, const JointScheduleResult& result,
                            const GpuSpec& gpu, const SystemProfile& profile) {
  SnapshotState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  if (!state.recording) return;
  state.recorded.schedules.emplace(key, result);
  state.recorded.cost_models.emplace(CostModelCacheKey(gpu, profile),
                                     SnapshotCostEntry{gpu, profile});
}

void StartSnapshotRecording(uint64_t registry_hash) {
  SnapshotState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  state.recording = true;
  state.recorded = SnapshotContents{};
  state.recorded.registry_hash = registry_hash;
  ReinstallHooks();
}

bool SnapshotRecording() {
  SnapshotState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.recording;
}

SnapshotContents TakeSnapshotRecording() {
  SnapshotState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  state.recording = false;
  SnapshotContents out = std::move(state.recorded);
  state.recorded = SnapshotContents{};
  ReinstallHooks();
  return out;
}

}  // namespace oobp
