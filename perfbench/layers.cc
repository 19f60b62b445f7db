#include "perfbench/layers.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>

#include "src/nn/model_cache.h"
#include "src/runner/json.h"

namespace perfbench {

void HwTotals::Add(const HwTotals& o) {
  gpus += o.gpus;
  kernels += o.kernels;
  kernel_deps += o.kernel_deps;
  kernels_per_gpu_max = std::max(kernels_per_gpu_max, o.kernels_per_gpu_max);
  sm_busy += o.sm_busy;
  sm_available += o.sm_available;
  links += o.links;
  transfers += o.transfers;
  transfer_bytes += o.transfer_bytes;
  link_busy_ns += o.link_busy_ns;
  link_span_ns += o.link_span_ns;
}

HwTotals HwCounter::Take() {
  HwTotals out = totals_;
  totals_ = HwTotals{};
  return out;
}

void HwCounter::OnGpuCreated(oobp::Gpu* gpu) {
  gpu->SetObserver(this);
  gpus_[gpu] = GpuSample{};
}

void HwCounter::OnLinkCreated(oobp::Link* link) {
  link->SetObserver(this);
  links_[link] = 0;
}

void HwCounter::OnKernelEnqueued(const oobp::Gpu&, oobp::KernelId,
                                 const oobp::KernelId*, size_t num_deps) {
  ++totals_.kernels;
  totals_.kernel_deps += num_deps;
}

void HwCounter::OnKernelFinished(const oobp::Gpu& gpu, oobp::KernelId) {
  GpuSample& s = gpus_[&gpu];
  s.busy = gpu.SmBusyIntegral();
  s.last_finish = gpu.engine().now();
}

void HwCounter::OnGpuDestroyed(const oobp::Gpu& gpu) {
  const auto it = gpus_.find(&gpu);
  if (it == gpus_.end()) {
    return;
  }
  ++totals_.gpus;
  totals_.kernels_per_gpu_max =
      std::max<uint64_t>(totals_.kernels_per_gpu_max, gpu.kernels_enqueued());
  totals_.sm_busy += it->second.busy;
  totals_.sm_available +=
      gpu.slots().capacity() * static_cast<double>(it->second.last_finish);
  gpus_.erase(it);
}

void HwCounter::OnTransferSubmitted(const oobp::Link&, int64_t, int64_t bytes,
                                    int) {
  ++totals_.transfers;
  totals_.transfer_bytes += static_cast<uint64_t>(bytes);
}

void HwCounter::OnTransferCompleted(const oobp::Link& link, int64_t) {
  links_[&link] = link.engine().now();
}

void HwCounter::OnLinkDestroyed(const oobp::Link& link) {
  const auto it = links_.find(&link);
  if (it == links_.end()) {
    return;
  }
  ++totals_.links;
  totals_.link_busy_ns += static_cast<double>(link.busy_time());
  totals_.link_span_ns += static_cast<double>(it->second);
  links_.erase(it);
}

double NowUs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

int SpanLog::Begin(std::string name, std::string label, int64_t op_id,
                   int parent) {
  const double now = NowUs();
  return Add({std::move(name), std::move(label), op_id, parent, now, now});
}

void SpanLog::End(int index) { spans_[static_cast<size_t>(index)].end_us = NowUs(); }

int SpanLog::Add(Span span) {
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::TotalUs(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) {
      total += s.end_us - s.start_us;
    }
  }
  return total;
}

double SpanLog::SelfUs(const std::string& name) const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  double total = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      total += spans_[i].end_us - spans_[i].start_us - child_us[i];
    }
  }
  return total;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  oobp::JsonValue events = oobp::JsonValue::Array();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    oobp::JsonValue ev = oobp::JsonValue::Object();
    ev.Set("name", oobp::JsonValue::Str(s.label.empty() ? s.name : s.label));
    ev.Set("cat", oobp::JsonValue::Str(s.name));
    ev.Set("ph", oobp::JsonValue::Str("X"));
    ev.Set("ts", oobp::JsonValue::Number(s.start_us));
    ev.Set("dur", oobp::JsonValue::Number(s.end_us - s.start_us));
    ev.Set("pid", oobp::JsonValue::Number(1));
    ev.Set("tid", oobp::JsonValue::Number(1));
    oobp::JsonValue args = oobp::JsonValue::Object();
    args.Set("span", oobp::JsonValue::Number(static_cast<double>(i)));
    args.Set("op_id", oobp::JsonValue::Number(static_cast<double>(s.op_id)));
    args.Set("parent", oobp::JsonValue::Number(s.parent));
    ev.Set("args", std::move(args));
    events.Append(std::move(ev));
  }
  oobp::JsonValue doc = oobp::JsonValue::Object();
  doc.Set("traceEvents", std::move(events));
  std::ofstream out(path, std::ios::binary);
  out << doc.Dump();
  return static_cast<bool>(out);
}

namespace {
std::atomic<int> g_installed_tracers{0};
}  // namespace

bool ModelCacheHooksInstalled() { return g_installed_tracers.load() > 0; }

void ModelBuildTracer::Install() {
  if (installed_) {
    return;
  }
  oobp::ModelCacheHooks hooks;
  hooks.find_model = [this](const std::string& key)
      -> std::shared_ptr<const oobp::NnModel> {
    std::lock_guard<std::mutex> lock(mu_);
    build_start_us_[key] = NowUs();
    return nullptr;  // never a hit: the model is built as it is untraced
  };
  hooks.record_model = [this](const std::string& key, const oobp::NnModel&) {
    const double end = NowUs();
    std::lock_guard<std::mutex> lock(mu_);
    ++model_builds_;
    const auto it = build_start_us_.find(key);
    if (it != build_start_us_.end()) {
      log_->Add({"nn.build", key, op_id_, op_span_, it->second, end});
      build_start_us_.erase(it);
    }
  };
  hooks.record_cost_model = [this](const std::string&, const oobp::GpuSpec&,
                                   const oobp::SystemProfile&) {
    std::lock_guard<std::mutex> lock(mu_);
    ++cost_model_builds_;
  };
  oobp::SetModelCacheHooks(std::move(hooks));
  installed_ = true;
  ++g_installed_tracers;
}

void ModelBuildTracer::Uninstall() {
  if (!installed_) {
    return;
  }
  oobp::ClearModelCacheHooks();
  installed_ = false;
  --g_installed_tracers;
}

}  // namespace perfbench
