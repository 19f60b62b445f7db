// Layer probes: direct, timed calls into one layer's public functions,
// each mirroring a registered scenario. A probe recomputes some of that
// scenario's result keys from its own calls and must reproduce them
// exactly, so a probe cannot quietly time a different program.
//
//   core.ooo_schedule_ms      MakeOooSchedule on the five fig07 models at
//                             batch 32 and 64 (mirrors fig07_*)
//   runtime.single_gpu_run_ms SingleGpuEngine::Run, conventional and ooo, on
//                             the same ten points (mirrors fig07_*)
//   core.reverse_k_ms         ReverseFirstK over every k on the fig10
//                             ResNet-50 graph (mirrors fig10_priva's 8-GPU
//                             k search)
//   search.eval_us            FastScheduleEvaluator::IterationTime per call
//                             over a seeded genotype stream on DenseNet-121
//                             (mirrors steady_densenet121's iteration times)
//   runtime.replayed_iters    iterations the steady-state replay
//                             extrapolated instead of simulating, on the
//                             single-GPU steady_* runs (mirrors their
//                             replayed/simulated_iterations keys)
//
// Timings are the median over `reps` repetitions after one warm-up
// repetition (which builds any model the cache lacks).

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct ProbeResult {
  std::string metric;
  std::string unit;
  double value = 0.0;
  std::string mirrors;                  // scenario(s) it reproduces
  std::vector<std::string> mismatches;  // empty = reproduced exactly
};

// Runs every probe. The scenario registry must be populated. `seed` seeds
// the search.eval_us genotype stream.
std::vector<ProbeResult> RunProbes(int64_t seed, int reps);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
