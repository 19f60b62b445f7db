// perfbench: one process of the repo benchmark (perfbench/run.py drives it).
//
//   perfbench --mode run   --workload W --seed N --seconds S [--digests F]
//       Untraced: a cold first pass (setup), then warm passes for S seconds
//       (at least two; none when S is 0).
//       Prints one JSON object: setup_s, pass_s samples, op_ms samples,
//       peak_rss_mb, attempted/failed ops and the failure messages.
//   perfbench --mode trace --workload W --seed N --seconds S [--trace-out F]
//       Traced: a cold pass with every instrument on, then alternating
//       untraced and traced passes for S seconds, then the layer probes.
//       Prints one JSON object with the per-layer metrics.
//   perfbench --mode pin
//       Runs every op of every workload at every search seed and prints the
//       digest table that perfbench/digests.json holds.
//   perfbench --mode check-registry
//       Exit 0 iff every op name resolves and no op is in two workloads.
//
// --root (default ".") is the checkout root holding bench/golden,
// bench/perf_baseline.json and perfbench/digests.json. Human-readable
// progress goes to stderr; stdout carries only the JSON object.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "perfbench/layers.h"
#include "perfbench/probes.h"
#include "perfbench/workloads.h"
#include "src/hw/validation_hooks.h"
#include "src/nn/model_cache.h"
#include "src/runner/golden.h"
#include "src/runner/json.h"
#include "src/search/fast_eval.h"
#include "src/sim/engine.h"
#include "src/store/snapshot.h"

namespace perfbench {
namespace {

using oobp::JsonValue;

struct Args {
  std::string mode;
  std::string workload;
  int64_t seed = kDefaultSeed;
  double seconds = 10.0;
  std::string root = ".";
  std::string digests;    // empty: <root>/perfbench/digests.json
  std::string trace_out;  // empty: no span file
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return std::nullopt;
    }
    const std::string value = argv[++i];
    if (flag == "--mode") {
      a.mode = value;
    } else if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoll(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--root") {
      a.root = value;
    } else if (flag == "--digests") {
      a.digests = value;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return std::nullopt;
    }
  }
  return a;
}

double SecondsSince(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

JsonValue NumberArray(const std::vector<double>& v) {
  JsonValue a = JsonValue::Array();
  for (const double x : v) {
    a.Append(JsonValue::Number(x));
  }
  return a;
}

JsonValue StringArray(const std::vector<std::string>& v) {
  JsonValue a = JsonValue::Array();
  for (const std::string& s : v) {
    a.Append(JsonValue::Str(s));
  }
  return a;
}

// Counts and failures shared by both modes.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;

  void Record(int pass, const OpRun& run) {
    ++attempted;
    if (!run.ok()) {
      ++failed;
      for (const std::string& e : run.errors) {
        failures.push_back("pass " + std::to_string(pass) + " " +
                           run.scenario->name + ": " + e);
      }
    }
  }
};

// Checks a finished pass in op order, against the previous pass's digests.
void CheckPass(const Expectations& expect, int64_t seed, int pass,
               std::vector<OpRun>* runs, std::vector<uint64_t>* digests,
               Tally* tally) {
  for (size_t i = 0; i < runs->size(); ++i) {
    OpRun& run = (*runs)[i];
    CheckOp(expect, seed,
            digests->empty() ? std::nullopt
                             : std::optional<uint64_t>((*digests)[i]),
            &run);
    tally->Record(pass, run);
  }
  digests->clear();
  for (const OpRun& run : *runs) {
    digests->push_back(run.digest);
  }
}

std::vector<OpRun> RunPass(const std::vector<const oobp::Scenario*>& ops,
                           int64_t seed) {
  std::vector<OpRun> runs;
  runs.reserve(ops.size());
  for (const oobp::Scenario* s : ops) {
    runs.push_back(RunOp(*s, ParamsFor(s->name, seed)));
  }
  return runs;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Untraced run: the end-to-end metrics.

int RunUntraced(const Args& args, std::chrono::steady_clock::time_point t0,
                const std::vector<const oobp::Scenario*>& ops) {
  // End-to-end numbers are taken with nothing attached to the program.
  if (oobp::ActiveHwValidationHooks() != nullptr ||
      ModelCacheHooksInstalled() || oobp::SnapshotActive()) {
    std::fprintf(stderr, "perfbench: instrumentation installed before an "
                         "untraced run\n");
    return 3;
  }
  std::vector<OpRun> cold = RunPass(ops, args.seed);
  const double setup_s = SecondsSince(t0);

  std::string error;
  const std::optional<Expectations> expect =
      Expectations::Load(args.root, args.digests, &error);
  if (!expect.has_value()) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  Tally tally;
  std::vector<uint64_t> digests;
  CheckPass(*expect, args.seed, 0, &cold, &digests, &tally);

  std::vector<double> pass_s;
  std::map<std::string, std::vector<double>> op_ms;
  const auto window = std::chrono::steady_clock::now();
  // At least two warm passes, so a slow workload still yields a median.
  for (int pass = 1; args.seconds > 0 &&
                     (pass <= 2 || SecondsSince(window) < args.seconds);
       ++pass) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<OpRun> runs = RunPass(ops, args.seed);
    pass_s.push_back(SecondsSince(start));
    for (const OpRun& run : runs) {
      op_ms[run.scenario->name].push_back(run.ms);
    }
    CheckPass(*expect, args.seed, pass, &runs, &digests, &tally);
  }

  JsonValue out = JsonValue::Object();
  out.Set("workload", JsonValue::Str(args.workload));
  out.Set("seed", JsonValue::Number(static_cast<double>(args.seed)));
  out.Set("ops", JsonValue::Number(static_cast<double>(ops.size())));
  out.Set("setup_s", JsonValue::Number(setup_s));
  out.Set("pass_s", NumberArray(pass_s));
  JsonValue ops_json = JsonValue::Object();
  for (const auto& [name, ms] : op_ms) {
    ops_json.Set(name, NumberArray(ms));
  }
  out.Set("op_ms", std::move(ops_json));
  out.Set("peak_rss_mb", JsonValue::Number(PeakRssMb()));
  out.Set("attempted", JsonValue::Number(static_cast<double>(tally.attempted)));
  out.Set("failed", JsonValue::Number(static_cast<double>(tally.failed)));
  out.Set("failures", StringArray(tally.failures));
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Traced run: the per-layer metrics.

// Deterministic counts of one op in one traced pass.
struct OpCounts {
  uint64_t events = 0;
  uint64_t analytic_evals = 0;
  HwTotals hw;

  bool operator==(const OpCounts&) const = default;
};

struct TracedPass {
  std::vector<OpRun> runs;
  std::vector<OpCounts> counts;
  double seconds = 0.0;
};

TracedPass RunTracedPass(const std::vector<const oobp::Scenario*>& ops,
                         int64_t seed, HwCounter* hw, SpanLog* log,
                         ModelBuildTracer* nn, int64_t* next_op_id) {
  TracedPass pass;
  const HwHooksScope scope(hw);
  const auto start = std::chrono::steady_clock::now();
  for (const oobp::Scenario* s : ops) {
    const int64_t op_id = (*next_op_id)++;
    const int span = log->Begin("runner.op", s->name, op_id, -1);
    if (nn != nullptr) {
      nn->SetCurrentOp(op_id, span);
    }
    const uint64_t events0 = oobp::SimEngine::TotalProcessedEvents();
    const uint64_t evals0 = oobp::FastScheduleEvaluator::TotalAnalyticEvals();
    pass.runs.push_back(RunOp(*s, ParamsFor(s->name, seed)));
    log->End(span);
    OpCounts c;
    c.events = oobp::SimEngine::TotalProcessedEvents() - events0;
    c.analytic_evals =
        oobp::FastScheduleEvaluator::TotalAnalyticEvals() - evals0;
    c.hw = hw->Take();
    pass.counts.push_back(c);
  }
  pass.seconds = SecondsSince(start);
  return pass;
}

// Sum of result values whose key is `name` or ends in ".<name>".
double SumKey(const std::vector<OpRun>& runs, const std::string& name) {
  double total = 0.0;
  for (const OpRun& run : runs) {
    for (const oobp::MetricKv& kv : run.result.values) {
      const std::string& k = kv.key;
      if (k == name || (k.size() > name.size() &&
                        k.compare(k.size() - name.size() - 1,
                                  std::string::npos, "." + name) == 0)) {
        total += kv.value;
      }
    }
  }
  return total;
}

int RunTraced(const Args& args,
              const std::vector<const oobp::Scenario*>& ops) {
  std::string error;
  const std::optional<Expectations> expect =
      Expectations::Load(args.root, args.digests, &error);
  if (!expect.has_value()) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  SpanLog log;
  HwCounter hw;
  ModelBuildTracer nn(&log);
  Tally tally;
  std::vector<uint64_t> digests;
  int64_t next_op_id = 0;

  // Cold pass: model-cache hooks on (they only see cold builds).
  nn.Install();
  TracedPass cold = RunTracedPass(ops, args.seed, &hw, &log, &nn, &next_op_id);
  nn.Uninstall();
  const double nn_build_ms = log.TotalUs("nn.build") / 1000.0;
  const double runner_self_ms = log.SelfUs("runner.op") / 1000.0;
  const double cache_entries = static_cast<double>(
      oobp::ModelCacheSize() + oobp::CostModelCacheSize());
  CheckPass(*expect, args.seed, 0, &cold.runs, &digests, &tally);

  // Cross-checks against counts the repo already pins. A failing op counts
  // once however many of its checks fail.
  std::vector<std::string> cross;
  std::set<std::string> cross_failed_ops;
  for (size_t i = 0; i < ops.size(); ++i) {
    const std::string& name = ops[i]->name;
    if (const std::optional<uint64_t> events = expect->BaselineEvents(name);
        events.has_value() && *events != cold.counts[i].events) {
      cross_failed_ops.insert(name);
      cross.push_back(name + ": sim.events " +
                      std::to_string(cold.counts[i].events) +
                      " != bench/perf_baseline.json " +
                      std::to_string(*events));
    }
    if (const double* evals = cold.runs[i].result.Find("analytic_evals");
        evals != nullptr && name == "search_deep_fig07" &&
        *evals != static_cast<double>(cold.counts[i].analytic_evals)) {
      cross_failed_ops.insert(name);
      cross.push_back(name + ": analytic-eval delta " +
                      std::to_string(cold.counts[i].analytic_evals) +
                      " != its analytic_evals key");
    }
  }

  // Warm rounds: an untraced pass, then a traced one, until time is up.
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::map<std::string, std::vector<double>> op_ms;
  const auto window = std::chrono::steady_clock::now();
  for (int round = 1; round == 1 || SecondsSince(window) < args.seconds;
       ++round) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<OpRun> runs = RunPass(ops, args.seed);
    untraced_s.push_back(SecondsSince(start));
    for (const OpRun& run : runs) {
      op_ms[run.scenario->name].push_back(run.ms);
    }
    CheckPass(*expect, args.seed, 2 * round - 1, &runs, &digests, &tally);

    TracedPass traced =
        RunTracedPass(ops, args.seed, &hw, &log, nullptr, &next_op_id);
    traced_s.push_back(traced.seconds);
    CheckPass(*expect, args.seed, 2 * round, &traced.runs, &digests, &tally);
    for (size_t i = 0; i < ops.size(); ++i) {
      if (traced.counts[i] != cold.counts[i]) {
        cross_failed_ops.insert(ops[i]->name);
        cross.push_back(ops[i]->name + ": counts differ between traced "
                                       "passes (round " +
                        std::to_string(round) + ")");
      }
    }
  }

  const int probe_span = log.Begin("probes", "", next_op_id++, -1);
  const std::vector<ProbeResult> probes = RunProbes(args.seed, 5);
  log.End(probe_span);
  int64_t failed_probes = 0;
  for (const ProbeResult& p : probes) {
    failed_probes += p.mismatches.empty() ? 0 : 1;
    for (const std::string& m : p.mismatches) {
      cross.push_back("probe " + p.metric + " (mirrors " + p.mirrors +
                      "): " + m);
    }
  }
  if (!args.trace_out.empty() && !log.WriteChromeTrace(args.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.trace_out.c_str());
  }

  // Per-layer metrics.
  JsonValue metrics = JsonValue::Object();
  const auto put = [&metrics](const std::string& name, double value,
                              const char* unit) {
    JsonValue m = JsonValue::Object();
    m.Set("value", JsonValue::Number(value));
    m.Set("unit", JsonValue::Str(unit));
    metrics.Set(name, std::move(m));
  };
  double untraced_ms = 0.0;
  for (const Workload& w : Workloads()) {
    for (const std::string& op : w.ops) {
      const auto it = op_ms.find(op);
      const double ms = it == op_ms.end() ? 0.0 : Median(it->second);
      untraced_ms += ms;
      put("runner.op_ms." + op, ms, "ms");
    }
  }
  uint64_t events = 0;
  uint64_t analytic = 0;
  HwTotals hw_total;
  for (const OpCounts& c : cold.counts) {
    events += c.events;
    analytic += c.analytic_evals;
    hw_total.Add(c.hw);
  }
  const auto per = [](double ms, uint64_t n) {
    return n > 0 ? ms * 1e6 / static_cast<double>(n) : 0.0;
  };
  put("sim.events", static_cast<double>(events), "count");
  put("sim.ns_per_event", per(untraced_ms, events), "ns");
  put("hw.gpus", static_cast<double>(hw_total.gpus), "count");
  put("hw.kernels", static_cast<double>(hw_total.kernels), "count");
  put("hw.kernel_deps", static_cast<double>(hw_total.kernel_deps), "count");
  put("hw.kernels_per_gpu_max",
      static_cast<double>(hw_total.kernels_per_gpu_max), "count");
  put("hw.ns_per_kernel", per(untraced_ms, hw_total.kernels), "ns");
  put("hw.sm_busy_frac", hw_total.sm_busy_frac(), "ratio");
  put("hw.links", static_cast<double>(hw_total.links), "count");
  put("hw.transfers", static_cast<double>(hw_total.transfers), "count");
  put("hw.transfer_bytes", static_cast<double>(hw_total.transfer_bytes),
      "bytes");
  put("hw.link_busy_frac", hw_total.link_busy_frac(), "ratio");
  put("nn.model_builds", static_cast<double>(nn.model_builds()), "count");
  put("nn.cost_model_builds", static_cast<double>(nn.cost_model_builds()),
      "count");
  put("nn.build_ms", nn_build_ms, "ms");
  put("nn.cache_entries", cache_entries, "count");
  for (const ProbeResult& p : probes) {
    put(p.metric, p.value, p.unit.c_str());
  }
  put("serve.batches", SumKey(cold.runs, "num_batches"), "count");
  put("serve.router_decisions", SumKey(cold.runs, "router_decisions"),
      "count");
  put("search.analytic_evals", static_cast<double>(analytic), "count");
  double sim_evals = 0.0;  // top-level totals only, not per-config keys
  for (const OpRun& run : cold.runs) {
    if (const double* v = run.result.Find("sim_evals")) {
      sim_evals += *v;
    }
  }
  put("search.sim_evals", sim_evals, "count");
  // Pooled over the ops that report a hit rate: hits / (hits + misses).
  double hits = 0.0;
  double lookups = 0.0;
  for (const OpRun& run : cold.runs) {
    const double* h = run.result.Find("cache_hits");
    const double* rate = run.result.Find("cache_hit_rate");
    if (h != nullptr && rate != nullptr && *rate > 0) {
      hits += *h;
      lookups += *h / *rate;
    }
  }
  put("search.cache_hit_rate", lookups > 0 ? hits / lookups : 0.0, "ratio");
  put("trace.overhead_frac", Median(traced_s) / Median(untraced_s) - 1.0,
      "ratio");

  JsonValue out = JsonValue::Object();
  // Attempted: every op run plus every probe.
  const int64_t attempted =
      tally.attempted + static_cast<int64_t>(probes.size());
  const int64_t failed = std::min<int64_t>(
      attempted, tally.failed + failed_probes +
                     static_cast<int64_t>(cross_failed_ops.size()));
  out.Set("attempted", JsonValue::Number(static_cast<double>(attempted)));
  out.Set("failed", JsonValue::Number(static_cast<double>(failed)));
  std::vector<std::string> failures = tally.failures;
  failures.insert(failures.end(), cross.begin(), cross.end());
  out.Set("failures", StringArray(failures));
  out.Set("self_ms_runner_cold", JsonValue::Number(runner_self_ms));
  out.Set("metrics", std::move(metrics));
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

// ---------------------------------------------------------------------------

int Pin(const Args& args) {
  JsonValue ops_json = JsonValue::Object();
  int failures = 0;
  for (const Workload& w : Workloads()) {
    std::vector<std::string> missing;
    const std::vector<const oobp::Scenario*> ops = ResolveOps(w, &missing);
    for (const oobp::Scenario* s : ops) {
      JsonValue variants = JsonValue::Object();
      const int n = OpTakesSeed(s->name) ? kSearchSeedVariants : 1;
      for (int seed = 1; seed <= n; ++seed) {
        OpRun run = RunOp(*s, ParamsFor(s->name, seed));
        const std::string variant = VariantKey(s->name, seed);
        if (!run.ok()) {
          std::fprintf(stderr, "perfbench: %s/%s failed: %s\n",
                       s->name.c_str(), variant.c_str(),
                       run.errors.front().c_str());
          ++failures;
          continue;
        }
        if (variant == "default") {
          // Pin only results that meet their goldens.
          std::string error;
          const std::optional<oobp::GoldenSpec> spec = oobp::LoadGoldenSpec(
              args.root + "/bench/golden", s->name, &error);
          const std::vector<std::string> mismatches =
              spec.has_value() ? oobp::CheckAgainstGolden(*spec, run.result)
                               : std::vector<std::string>{"golden: " + error};
          if (!mismatches.empty()) {
            std::fprintf(stderr, "perfbench: %s fails its golden: %s\n",
                         s->name.c_str(), mismatches.front().c_str());
            ++failures;
            continue;
          }
        }
        std::fprintf(stderr, "pinned %-34s %-8s %s\n", s->name.c_str(),
                     variant.c_str(), DigestHex(run.digest).c_str());
        variants.Set(variant, JsonValue::Str(DigestHex(run.digest)));
      }
      ops_json.Set(s->name, std::move(variants));
    }
  }
  JsonValue doc = JsonValue::Object();
  doc.Set("comment",
          JsonValue::Str("XXH64 (src/store/hash.h) of each op's canonical "
                         "result JSON: 'default' at the golden seed, "
                         "'seed=<n>' for the search seeds the benchmark seed "
                         "maps onto. Regenerate with `perfbench --mode pin` "
                         "only when a result changes on purpose."));
  doc.Set("ops", std::move(ops_json));
  std::printf("%s\n", doc.Dump().c_str());
  return failures == 0 ? 0 : 1;
}

int CheckRegistry() {
  int problems = 0;
  std::set<std::string> seen;
  for (const Workload& w : Workloads()) {
    std::vector<std::string> missing;
    ResolveOps(w, &missing);
    for (const std::string& m : missing) {
      std::fprintf(stderr, "%s: op %s is not a registered scenario\n",
                   w.name.c_str(), m.c_str());
      ++problems;
    }
    for (const std::string& op : w.ops) {
      if (!seen.insert(op).second) {
        std::fprintf(stderr, "op %s is in two workloads\n", op.c_str());
        ++problems;
      }
    }
  }
  return problems == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto t0 = std::chrono::steady_clock::now();
  using namespace perfbench;
  const std::optional<Args> args = ParseArgs(argc, argv);
  if (!args.has_value()) {
    return 2;
  }
  RegisterAllScenarios();
  if (args->mode == "pin") {
    return Pin(*args);
  }
  if (args->mode == "check-registry") {
    return CheckRegistry();
  }
  const Workload* workload = FindWorkload(args->workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args->workload.c_str());
    return 2;
  }
  std::vector<std::string> missing;
  const std::vector<const oobp::Scenario*> ops =
      ResolveOps(*workload, &missing);
  if (!missing.empty()) {
    std::fprintf(stderr, "perfbench: op %s is not registered\n",
                 missing.front().c_str());
    return 2;
  }
  if (args->mode == "run") {
    return RunUntraced(*args, t0, ops);
  }
  if (args->mode == "trace") {
    return RunTraced(*args, ops);
  }
  std::fprintf(stderr, "perfbench: unknown mode '%s'\n", args->mode.c_str());
  return 2;
}
