// Registration of the scaling sweeps and analysis experiments as runner
// scenarios (label "sweep"), plus the long-horizon steady-state training
// scenarios (label "steady") that exercise the iteration-replay fast path.
//
// The former standalone bench binaries for Figure 13 and the Section 8
// analyses are thin wrappers over these registrations; hosting the sweep
// loops here lets `oobp bench --jobs N` spread the scaling points over the
// thread pool, puts them under the golden gate and the validator replay,
// and shares model/cost-model construction through src/nn/model_cache.h.

#ifndef OOBP_SRC_RUNNER_SWEEP_SCENARIOS_H_
#define OOBP_SRC_RUNNER_SWEEP_SCENARIOS_H_

#include <memory>

#include "src/nn/layer.h"

namespace oobp {

// Registers all sweep and steady-state scenarios into
// ScenarioRegistry::Global(); idempotent (safe from multiple entry points).
void RegisterSweepScenarios();

// The Figure 13 pre-training models (BERT / GPT-3-medium with the embedding
// GEMMs sharded across a tensor-parallel group), memoized under the same
// zoo keys the fig13 sweeps use so scenarios elsewhere (e.g. the search_gap
// suite) share one cached entry per point.
std::shared_ptr<const NnModel> Fig13ShardedBert(int layers, int micro_batch);
std::shared_ptr<const NnModel> Fig13ShardedGpt3(int micro_batch);

}  // namespace oobp

#endif  // OOBP_SRC_RUNNER_SWEEP_SCENARIOS_H_
