// The repo benchmark's workloads and the correctness checks every op passes.
//
// An op is one call into the scenario registry for one named scenario. A
// workload is a fixed, ordered list of op names; a pass runs each op once,
// serially, on the calling thread. Ops are named explicitly (never by glob)
// so a scenario registered later never changes a workload.
//
// Every op result is checked three ways: against its golden file in
// bench/golden (when the op ran with default parameters, the inputs the
// goldens describe), against the XXH64 digest of its canonical result JSON
// pinned in perfbench/digests.json, and against the digest of the same op
// in the previous pass of the same process. A failed check, or an exception
// out of the op, marks that op failed; it never aborts the run.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/runner/registry.h"
#include "src/runner/result.h"

namespace perfbench {

struct Workload {
  std::string name;
  std::vector<std::string> ops;
};

// train_paper, fleet_serve, search — in that order.
const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

// The seed the goldens pin. A run at this seed calls every op with default
// ScenarioParams.
constexpr int64_t kDefaultSeed = 1;
// The search_* ops read a `seed` parameter. The benchmark seed maps onto
// this many search seeds (1..kSearchSeedVariants), each with its own pinned
// digests, so any benchmark seed yields checkable outputs.
constexpr int kSearchSeedVariants = 8;

bool OpTakesSeed(const std::string& op);
// The search seed benchmark seed `seed` selects, in 1..kSearchSeedVariants.
int SearchSeedFor(int64_t seed);
// "default" when the op runs with default parameters, else "seed=<n>".
std::string VariantKey(const std::string& op, int64_t seed);
oobp::ScenarioParams ParamsFor(const std::string& op, int64_t seed);

// XXH64 (src/store/hash.h) of the op's canonical result JSON: scenario
// name, values in insertion order, notes. Registry metadata (figure,
// description) is not part of the result and is left out.
uint64_t ResultDigest(const std::string& op, const oobp::ScenarioResult& r);
std::string DigestHex(uint64_t digest);

// What a correct op produces: goldens, pinned digests, and the repo's own
// per-scenario event counts from bench/perf_baseline.json.
class Expectations {
 public:
  // `root` is the checkout root; `digests_path` overrides
  // perfbench/digests.json (the self-test points it at a corrupted copy).
  static std::optional<Expectations> Load(const std::string& root,
                                          const std::string& digests_path,
                                          std::string* error);

  const std::string& golden_dir() const { return golden_dir_; }
  // nullopt when no digest is pinned for (op, variant).
  std::optional<uint64_t> PinnedDigest(const std::string& op,
                                       const std::string& variant) const;
  // nullopt when bench/perf_baseline.json does not list the op.
  std::optional<uint64_t> BaselineEvents(const std::string& op) const;

 private:
  std::string golden_dir_;
  std::map<std::string, uint64_t> digests_;  // "<op>/<variant>" -> digest
  std::map<std::string, uint64_t> baseline_events_;
};

struct OpRun {
  const oobp::Scenario* scenario = nullptr;
  oobp::ScenarioResult result;
  double ms = 0.0;  // host time of the registry call alone
  uint64_t digest = 0;
  std::vector<std::string> errors;  // empty = the op passed every check
  bool ok() const { return errors.empty(); }
};

// Calls the op through the registry, timing only that call. An exception
// becomes an error entry.
OpRun RunOp(const oobp::Scenario& scenario,
            const oobp::ScenarioParams& params);

// Runs the checks listed at the top of this file; appends to run->errors.
// `previous` is the op's digest in an earlier pass of this process.
void CheckOp(const Expectations& expect, int64_t seed,
             std::optional<uint64_t> previous, OpRun* run);

// Resolves every op name of `workload` in the global registry (which the
// caller has populated); unresolved names go to *missing.
std::vector<const oobp::Scenario*> ResolveOps(
    const Workload& workload, std::vector<std::string>* missing);

// Registers every scenario family the workloads draw from.
void RegisterAllScenarios();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
