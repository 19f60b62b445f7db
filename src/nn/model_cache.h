// Immutable model-zoo / cost-model cache.
//
// Registry-hosted sweeps (src/runner/sweep_scenarios.cc) evaluate the same
// (model, GPU, profile) points many times — once per strategy per scaling
// point, and again under the validator replay and the perf suite. NnModel
// construction walks the whole layer table and CostModel is rebuilt per
// engine run; both are pure values, so repeated points can share one
// immutable instance instead of rebuilding it.
//
// Thread-safety: a single mutex-guarded map, safe under the scenario
// runner's `--jobs` thread pool. Entries are shared_ptr<const T>; a caller
// keeps its reference alive independently of the cache, so the bounded
// clear-on-overflow eviction can never invalidate an object in use.
//
// Build hooks: ModelCacheHooks lets an observer (the benchmark's build
// tracer) see every cache miss — `find_model` is consulted before the
// builder runs and may supply the model, and the `record_*` hooks observe
// every build. With no hooks installed the cache only builds and stores.

#ifndef OOBP_SRC_NN_MODEL_CACHE_H_
#define OOBP_SRC_NN_MODEL_CACHE_H_

#include <functional>
#include <memory>
#include <string>

#include "src/nn/cost_model.h"
#include "src/nn/layer.h"

namespace oobp {

// Returns the cached model for `key`, building it with `builder` on the
// first request. `key` must uniquely describe the built model (e.g.
// "bert:L48:B16"); two callers using the same key MUST build identical
// models.
std::shared_ptr<const NnModel> CachedModel(
    const std::string& key, const std::function<NnModel()>& builder);

// Returns the cached cost model for (gpu, profile). The cache key serializes
// every field of both structs, so distinct configurations never collide.
std::shared_ptr<const CostModel> CachedCostModel(const GpuSpec& gpu,
                                                 const SystemProfile& profile);

// Testing hooks: entry counts and explicit reset.
size_t ModelCacheSize();
size_t CostModelCacheSize();
void ClearModelCaches();

// Build hooks (see header comment). All members optional; an
// unset member is simply skipped. Hooks are invoked with no cache lock
// held, so they may themselves call back into the cache.
struct ModelCacheHooks {
  // Consulted on a CachedModel miss before `builder` runs. Returning
  // nullptr means "not found, build as usual".
  std::function<std::shared_ptr<const NnModel>(const std::string& key)>
      find_model;
  // Observes every model the builder produced (cache misses only).
  std::function<void(const std::string& key, const NnModel& model)>
      record_model;
  // Observes every cost-model point built (cache misses only); `key`
  // serializes every field of (gpu, profile).
  std::function<void(const std::string& key, const GpuSpec& gpu,
                     const SystemProfile& profile)>
      record_cost_model;
};

void SetModelCacheHooks(ModelCacheHooks hooks);
void ClearModelCacheHooks();

}  // namespace oobp

#endif  // OOBP_SRC_NN_MODEL_CACHE_H_
