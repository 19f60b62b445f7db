// Outside-in instruments for the traced run: everything here observes the
// program through its public hooks and accessors, never from inside.
//
//   HwCounter    HwValidationHooks that attach a GpuObserver/LinkObserver
//                to every device a scenario builds on this thread and tally
//                kernels, dependencies, transfers and busy time.
//   SpanLog      in-memory spans (name, start, end, parent, op id), written
//                as a Chrome/Perfetto trace when the run ends.
//   ModelBuildTracer
//                ModelCacheHooks that record one nn.build span per model
//                the cache builds (from find_model to record_model) and
//                count cost-model builds.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/time.h"
#include "src/hw/gpu.h"
#include "src/hw/link.h"
#include "src/hw/validation_hooks.h"

namespace perfbench {

// Simulated hardware work seen by HwCounter. Busy fractions are ratios of
// sums: SM slot-ns busy over slot-ns available up to each GPU's last kernel
// completion, and link busy ns over ns up to each link's last completion.
struct HwTotals {
  uint64_t gpus = 0;
  uint64_t kernels = 0;
  uint64_t kernel_deps = 0;
  uint64_t kernels_per_gpu_max = 0;
  double sm_busy = 0.0;       // slot-ns
  double sm_available = 0.0;  // slot-ns
  uint64_t links = 0;
  uint64_t transfers = 0;
  uint64_t transfer_bytes = 0;
  double link_busy_ns = 0.0;
  double link_span_ns = 0.0;

  void Add(const HwTotals& o);
  bool operator==(const HwTotals&) const = default;
  double sm_busy_frac() const {
    return sm_available > 0 ? sm_busy / sm_available : 0.0;
  }
  double link_busy_frac() const {
    return link_span_ns > 0 ? link_busy_ns / link_span_ns : 0.0;
  }
};

class HwCounter : public oobp::HwValidationHooks,
                  public oobp::GpuObserver,
                  public oobp::LinkObserver {
 public:
  HwCounter() = default;
  HwCounter(const HwCounter&) = delete;
  HwCounter& operator=(const HwCounter&) = delete;

  // Returns the totals of every device destroyed since the last call and
  // starts a new tally. Devices still alive are not included.
  HwTotals Take();

  void OnGpuCreated(oobp::Gpu* gpu) override;
  void OnLinkCreated(oobp::Link* link) override;
  void OnKernelEnqueued(const oobp::Gpu& gpu, oobp::KernelId id,
                        const oobp::KernelId* deps, size_t num_deps) override;
  void OnKernelFinished(const oobp::Gpu& gpu, oobp::KernelId id) override;
  void OnGpuDestroyed(const oobp::Gpu& gpu) override;
  void OnTransferSubmitted(const oobp::Link& link, int64_t id, int64_t bytes,
                           int priority) override;
  void OnTransferCompleted(const oobp::Link& link, int64_t id) override;
  void OnLinkDestroyed(const oobp::Link& link) override;

 private:
  // Sampled at each completion while the device's engine is certainly
  // alive; destruction callbacks then read only the device itself.
  struct GpuSample {
    double busy = 0.0;
    oobp::TimeNs last_finish = 0;
  };
  HwTotals totals_;
  std::unordered_map<const oobp::Gpu*, GpuSample> gpus_;
  std::unordered_map<const oobp::Link*, oobp::TimeNs> links_;
};

// Installs `hooks` on this thread for the object's lifetime.
class HwHooksScope {
 public:
  explicit HwHooksScope(oobp::HwValidationHooks* hooks)
      : previous_(oobp::SetHwValidationHooks(hooks)) {}
  ~HwHooksScope() { oobp::SetHwValidationHooks(previous_); }
  HwHooksScope(const HwHooksScope&) = delete;
  HwHooksScope& operator=(const HwHooksScope&) = delete;

 private:
  oobp::HwValidationHooks* previous_;
};

// Microseconds on the steady clock since the first call in this process.
double NowUs();

struct Span {
  std::string name;    // the layer boundary, e.g. "runner.op", "nn.build"
  std::string label;   // what ran inside it, e.g. the scenario name
  int64_t op_id = -1;  // every span of one op shares its id
  int parent = -1;     // index into the log, -1 for a root span
  double start_us = 0.0;
  double end_us = 0.0;
};

class SpanLog {
 public:
  // Opens a span now; returns its index for End().
  int Begin(std::string name, std::string label, int64_t op_id, int parent);
  void End(int index);
  // Adds a span whose times are already known.
  int Add(Span span);

  const std::vector<Span>& spans() const { return spans_; }
  // Sum of the durations of spans named `name`.
  double TotalUs(const std::string& name) const;
  // Sum over spans named `name` of their duration minus their children's.
  double SelfUs(const std::string& name) const;
  // Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// Records model-cache builds as nn.build spans under the current op span.
// Install() replaces any model-cache hooks, Uninstall() clears them.
class ModelBuildTracer {
 public:
  explicit ModelBuildTracer(SpanLog* log) : log_(log) {}
  ModelBuildTracer(const ModelBuildTracer&) = delete;
  ModelBuildTracer& operator=(const ModelBuildTracer&) = delete;
  ~ModelBuildTracer() { Uninstall(); }

  void Install();
  void Uninstall();
  void SetCurrentOp(int64_t op_id, int span) {
    std::lock_guard<std::mutex> lock(mu_);
    op_id_ = op_id;
    op_span_ = span;
  }
  uint64_t model_builds() const { return model_builds_; }
  uint64_t cost_model_builds() const { return cost_model_builds_; }

 private:
  SpanLog* log_;
  bool installed_ = false;
  std::mutex mu_;  // guards everything below; hooks may run on any thread
  int64_t op_id_ = -1;
  int op_span_ = -1;
  std::unordered_map<std::string, double> build_start_us_;
  uint64_t model_builds_ = 0;
  uint64_t cost_model_builds_ = 0;
};

// True while any ModelBuildTracer is installed. The untraced run asserts
// this is false, together with ActiveHwValidationHooks() == nullptr and no
// active snapshot (the only other installer of model-cache hooks).
bool ModelCacheHooksInstalled();

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
