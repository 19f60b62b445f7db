#include "perfbench/workloads.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>

#include "src/runner/cluster_scenarios.h"
#include "src/runner/fleet_scenarios.h"
#include "src/runner/golden.h"
#include "src/runner/json.h"
#include "src/runner/paper_scenarios.h"
#include "src/runner/search_scenarios.h"
#include "src/runner/serve_scenarios.h"
#include "src/runner/sweep_scenarios.h"
#include "src/store/hash.h"

namespace perfbench {
namespace {

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::optional<oobp::JsonValue> ReadJson(const std::string& path,
                                        std::string* error) {
  const std::optional<std::string> text = ReadFile(path);
  if (!text.has_value()) {
    *error = "cannot read " + path;
    return std::nullopt;
  }
  std::string parse_error;
  std::optional<oobp::JsonValue> doc =
      oobp::JsonValue::Parse(*text, &parse_error);
  if (!doc.has_value() || !doc->is_object()) {
    *error = path + ": " + (doc.has_value() ? "not an object" : parse_error);
    return std::nullopt;
  }
  return doc;
}

std::optional<uint64_t> ParseHex64(const std::string& hex) {
  if (hex.empty() || hex.size() > 16) {
    return std::nullopt;
  }
  uint64_t v = 0;
  for (const char c : hex) {
    int d = 0;
    if (c >= '0' && c <= '9') {
      d = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      d = c - 'a' + 10;
    } else {
      return std::nullopt;
    }
    v = (v << 4) | static_cast<uint64_t>(d);
  }
  return v;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"train_paper",
       {"fig04_dp_unit", "fig05_mp_unit", "fig06_pipe_unit",
        "fig07_densenet121", "fig07_densenet169", "fig07_mobilenet",
        "fig07_resnet50", "fig07_resnet101", "fig07_max_gain", "fig10_priva",
        "fig10_privb", "fig10_puba", "fig13_weak_scaling", "fig13_strong_bert",
        "fig13_strong_gpt3", "ana_megatron", "ana_reverse_k", "ana_corun",
        "steady_resnet50", "steady_densenet121", "steady_pipedream_bert12",
        "cluster_ps_conv_16", "cluster_ps_ooo_16"}},
      {"fleet_serve",
       {"serve_only_mobilenet", "serve_only_resnet50",
        "serve_corun_baseline_resnet50", "serve_corun_ooo_resnet50",
        "serve_corun_baseline_densenet121", "serve_corun_ooo_densenet121",
        "fleet_rr_64", "fleet_ll_64", "fleet_p2c_64",
        "fleet_corun_baseline_64", "fleet_corun_ooo_64"}},
      {"search",
       {"search_gap_fig07", "search_gap_fig10", "search_gap_fig13",
        "search_deep_fig07", "search_eval_fidelity"}},
  };
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

bool OpTakesSeed(const std::string& op) { return op.rfind("search_", 0) == 0; }

int SearchSeedFor(int64_t seed) {
  const int64_t m = ((seed - 1) % kSearchSeedVariants + kSearchSeedVariants) %
                    kSearchSeedVariants;
  return static_cast<int>(m) + 1;
}

std::string VariantKey(const std::string& op, int64_t seed) {
  const int s = SearchSeedFor(seed);
  if (!OpTakesSeed(op) || s == SearchSeedFor(kDefaultSeed)) {
    return "default";
  }
  return "seed=" + std::to_string(s);
}

oobp::ScenarioParams ParamsFor(const std::string& op, int64_t seed) {
  oobp::ScenarioParams params;
  if (VariantKey(op, seed) != "default") {
    params.Set("seed", std::to_string(SearchSeedFor(seed)));
  }
  return params;
}

uint64_t ResultDigest(const std::string& op, const oobp::ScenarioResult& r) {
  oobp::JsonValue doc = oobp::JsonValue::Object();
  doc.Set("scenario", oobp::JsonValue::Str(op));
  oobp::JsonValue values = oobp::JsonValue::Object();
  for (const oobp::MetricKv& kv : r.values) {
    values.Set(kv.key, oobp::JsonValue::Number(kv.value));
  }
  doc.Set("values", std::move(values));
  oobp::JsonValue notes = oobp::JsonValue::Array();
  for (const std::string& note : r.notes) {
    notes.Append(oobp::JsonValue::Str(note));
  }
  doc.Set("notes", std::move(notes));
  return oobp::SnapshotHash64(doc.Dump());
}

std::string DigestHex(uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, digest);
  return buf;
}

std::optional<Expectations> Expectations::Load(const std::string& root,
                                               const std::string& digests_path,
                                               std::string* error) {
  Expectations e;
  e.golden_dir_ = root + "/bench/golden";
  const std::optional<oobp::JsonValue> digests = ReadJson(
      digests_path.empty() ? root + "/perfbench/digests.json" : digests_path,
      error);
  if (!digests.has_value()) {
    return std::nullopt;
  }
  const oobp::JsonValue* ops = digests->Find("ops");
  if (ops == nullptr || !ops->is_object()) {
    *error = "digests: missing \"ops\" object";
    return std::nullopt;
  }
  for (const auto& [op, variants] : ops->object_items()) {
    for (const auto& [variant, hex] : variants.object_items()) {
      const std::optional<uint64_t> d =
          hex.is_string() ? ParseHex64(hex.string_value()) : std::nullopt;
      if (!d.has_value()) {
        *error = "digests: bad digest for " + op + "/" + variant;
        return std::nullopt;
      }
      e.digests_[op + "/" + variant] = *d;
    }
  }
  const std::optional<oobp::JsonValue> baseline =
      ReadJson(root + "/bench/perf_baseline.json", error);
  if (!baseline.has_value()) {
    return std::nullopt;
  }
  if (const oobp::JsonValue* scenarios = baseline->Find("scenarios")) {
    for (const auto& [op, entry] : scenarios->object_items()) {
      if (const oobp::JsonValue* events = entry.Find("events");
          events != nullptr && events->is_number()) {
        e.baseline_events_[op] =
            static_cast<uint64_t>(events->number_value());
      }
    }
  }
  return e;
}

std::optional<uint64_t> Expectations::PinnedDigest(
    const std::string& op, const std::string& variant) const {
  const auto it = digests_.find(op + "/" + variant);
  if (it == digests_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::optional<uint64_t> Expectations::BaselineEvents(
    const std::string& op) const {
  const auto it = baseline_events_.find(op);
  if (it == baseline_events_.end()) {
    return std::nullopt;
  }
  return it->second;
}

OpRun RunOp(const oobp::Scenario& scenario,
            const oobp::ScenarioParams& params) {
  OpRun run;
  run.scenario = &scenario;
  const auto start = std::chrono::steady_clock::now();
  try {
    run.result = scenario.run(params);
  } catch (const std::exception& e) {
    run.errors.push_back(std::string("exception: ") + e.what());
  } catch (...) {
    run.errors.push_back("unknown exception");
  }
  run.ms = std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
               .count();
  run.digest = ResultDigest(scenario.name, run.result);
  return run;
}

void CheckOp(const Expectations& expect, int64_t seed,
             std::optional<uint64_t> previous, OpRun* run) {
  if (!run->ok()) {
    return;  // the op threw; its result is empty
  }
  const std::string& op = run->scenario->name;
  const std::string variant = VariantKey(op, seed);
  // Goldens describe the default parameters only.
  if (variant == "default") {
    std::string error;
    const std::optional<oobp::GoldenSpec> spec =
        oobp::LoadGoldenSpec(expect.golden_dir(), op, &error);
    if (!spec.has_value()) {
      run->errors.push_back("golden: " + error);
    } else {
      for (const std::string& f : oobp::CheckAgainstGolden(*spec, run->result)) {
        run->errors.push_back("golden: " + f);
      }
    }
  }
  const std::optional<uint64_t> pinned = expect.PinnedDigest(op, variant);
  if (!pinned.has_value()) {
    run->errors.push_back("no digest pinned for " + variant);
  } else if (*pinned != run->digest) {
    run->errors.push_back("digest " + DigestHex(run->digest) + " != pinned " +
                          DigestHex(*pinned) + " (" + variant + ")");
  }
  if (previous.has_value() && *previous != run->digest) {
    run->errors.push_back("result bytes changed between passes");
  }
}

std::vector<const oobp::Scenario*> ResolveOps(
    const Workload& workload, std::vector<std::string>* missing) {
  std::vector<const oobp::Scenario*> ops;
  for (const std::string& name : workload.ops) {
    if (const oobp::Scenario* s = oobp::ScenarioRegistry::Global().Find(name)) {
      ops.push_back(s);
    } else {
      missing->push_back(name);
    }
  }
  return ops;
}

void RegisterAllScenarios() {
  oobp::RegisterPaperScenarios();
  oobp::RegisterServeScenarios();
  oobp::RegisterSweepScenarios();
  oobp::RegisterFleetScenarios();
  oobp::RegisterClusterScenarios();
  oobp::RegisterSearchScenarios();
}

}  // namespace perfbench
