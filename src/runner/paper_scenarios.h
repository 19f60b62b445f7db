// Registration of the paper's figure experiments and ablations as runner
// scenarios (label "train").
//
// Every figure of the evaluation except Figure 13 (see sweep_scenarios.h)
// and every ablation registers here; `oobp bench` runs any subset of them
// and gates each against its bench/golden file. Heavyweight figures are
// split into several scenarios (Figure 7 per model, Figure 10 per cluster)
// so the thread pool can spread them.

#ifndef OOBP_SRC_RUNNER_PAPER_SCENARIOS_H_
#define OOBP_SRC_RUNNER_PAPER_SCENARIOS_H_

namespace oobp {

// Registers all paper scenarios into ScenarioRegistry::Global(); idempotent
// (safe to call from multiple entry points).
void RegisterPaperScenarios();

}  // namespace oobp

#endif  // OOBP_SRC_RUNNER_PAPER_SCENARIOS_H_
