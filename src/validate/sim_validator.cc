#include "src/validate/sim_validator.h"

#include <cmath>
#include <utility>

#include "src/common/str_util.h"

namespace oobp {

namespace {
// Slack for floating-point rate sums; capacities are integers in the
// hundreds-to-thousands range, so absolute 1e-6 is far below half an ulp of
// any legal sum.
constexpr double kRateEpsilon = 1e-6;
}  // namespace

void SimValidator::AddViolation(std::string message) {
  ++total_violations_;
  if (static_cast<int>(violations_.size()) < kMaxStoredViolations) {
    violations_.push_back(std::move(message));
  }
}

std::string SimValidator::Summary() const {
  std::string out = StrFormat(
      "%lld violation(s) across %lld gpu(s), %lld link(s), "
      "%lld kernel(s), %lld transfer(s)",
      static_cast<long long>(total_violations_),
      static_cast<long long>(gpus_observed_),
      static_cast<long long>(links_observed_),
      static_cast<long long>(kernels_finished_),
      static_cast<long long>(transfers_completed_));
  for (const std::string& v : violations_) {
    out += "\n  ";
    out += v;
  }
  return out;
}

void SimValidator::OnGpuCreated(Gpu* gpu) {
  gpu->SetObserver(this);
  GpuState& state = gpus_[gpu];
  state.capacity = static_cast<double>(gpu->spec().slot_capacity());
  state.exec_overhead = gpu->spec().kernel_exec_overhead;
  state.last_event = gpu->engine().now();
  ++gpus_observed_;
}

void SimValidator::OnLinkCreated(Link* link) {
  link->SetObserver(this);
  LinkState& state = links_[link];
  state.last_event = link->engine().now();
  ++links_observed_;
}

SimValidator::GpuState* SimValidator::CommonGpuChecks(const Gpu& gpu,
                                                      const char* event) {
  auto it = gpus_.find(&gpu);
  if (it == gpus_.end()) {
    AddViolation(StrFormat("gpu %s: %s from an unregistered device",
                           gpu.spec().name.c_str(), event));
    return nullptr;
  }
  GpuState& state = it->second;
  const TimeNs now = gpu.engine().now();
  if (now < state.last_event) {
    AddViolation(StrFormat("gpu %s: %s at t=%lld before t=%lld (time moved "
                           "backwards)",
                           gpu.spec().name.c_str(), event,
                           static_cast<long long>(now),
                           static_cast<long long>(state.last_event)));
  }
  state.last_event = now;
  const double allocated = gpu.slots().allocated_rate();
  if (allocated > state.capacity + kRateEpsilon) {
    AddViolation(StrFormat("gpu %s: %s at t=%lld allocated SM rate %.9f "
                           "exceeds capacity %.0f",
                           gpu.spec().name.c_str(), event,
                           static_cast<long long>(now), allocated,
                           state.capacity));
  }
  return &state;
}

void SimValidator::OnKernelEnqueued(const Gpu& gpu, KernelId id,
                                    const KernelId* deps, size_t num_deps) {
  GpuState* state = CommonGpuChecks(gpu, "enqueue");
  if (state == nullptr) {
    return;
  }
  if (id != static_cast<KernelId>(state->kernels.size())) {
    AddViolation(StrFormat("gpu %s: kernel ids not dense (got %lld, expected "
                           "%zu)",
                           gpu.spec().name.c_str(),
                           static_cast<long long>(id), state->kernels.size()));
    return;
  }
  KernelRecord rec;
  rec.enqueue = gpu.engine().now();
  rec.stream = gpu.KernelStream(id);
  rec.solo_duration = gpu.KernelSoloDuration(id);
  for (size_t d = 0; d < num_deps; ++d) {
    if (deps[d] < 0 || deps[d] >= id) {
      AddViolation(StrFormat("gpu %s: kernel %lld depends on %lld, which is "
                             "not an earlier kernel",
                             gpu.spec().name.c_str(),
                             static_cast<long long>(id),
                             static_cast<long long>(deps[d])));
      continue;
    }
    rec.deps.push_back(deps[d]);
  }
  if (rec.stream >= 0) {
    if (static_cast<size_t>(rec.stream) >= state->streams.size()) {
      state->streams.resize(static_cast<size_t>(rec.stream) + 1);
    }
    state->streams[static_cast<size_t>(rec.stream)].order.push_back(id);
  }
  state->kernels.push_back(std::move(rec));
}

void SimValidator::OnKernelStarted(const Gpu& gpu, KernelId id) {
  GpuState* state = CommonGpuChecks(gpu, "kernel start");
  if (state == nullptr ||
      id < 0 || id >= static_cast<KernelId>(state->kernels.size())) {
    return;
  }
  const char* name = gpu.spec().name.c_str();
  KernelRecord& rec = state->kernels[static_cast<size_t>(id)];
  const TimeNs now = gpu.engine().now();
  if (rec.start >= 0) {
    AddViolation(StrFormat("gpu %s: kernel %lld started twice", name,
                           static_cast<long long>(id)));
    return;
  }
  rec.start = now;
  if (now < rec.enqueue + state->exec_overhead) {
    AddViolation(StrFormat("gpu %s: kernel %lld started at t=%lld, before "
                           "enqueue t=%lld + setup overhead %lld",
                           name, static_cast<long long>(id),
                           static_cast<long long>(now),
                           static_cast<long long>(rec.enqueue),
                           static_cast<long long>(state->exec_overhead)));
  }
  // Happens-before: every declared dependency finished no later than this
  // kernel's execution start.
  for (KernelId dep : rec.deps) {
    const KernelRecord& d = state->kernels[static_cast<size_t>(dep)];
    if (d.done < 0 || d.done > now) {
      AddViolation(StrFormat("gpu %s: kernel %lld started at t=%lld but "
                             "dependency %lld %s",
                             name, static_cast<long long>(id),
                             static_cast<long long>(now),
                             static_cast<long long>(dep),
                             d.done < 0 ? "has not finished"
                                        : "finished after the start"));
    }
  }
  // Streams start their kernels strictly in enqueue order.
  StreamState& stream = state->streams[static_cast<size_t>(rec.stream)];
  if (stream.next_start >= stream.order.size() ||
      stream.order[stream.next_start] != id) {
    AddViolation(StrFormat("gpu %s: kernel %lld started out of stream %d's "
                           "enqueue order",
                           name, static_cast<long long>(id), rec.stream));
  } else {
    ++stream.next_start;
  }
}

void SimValidator::OnKernelFinished(const Gpu& gpu, KernelId id) {
  GpuState* state = CommonGpuChecks(gpu, "kernel finish");
  if (state == nullptr ||
      id < 0 || id >= static_cast<KernelId>(state->kernels.size())) {
    return;
  }
  const char* name = gpu.spec().name.c_str();
  KernelRecord& rec = state->kernels[static_cast<size_t>(id)];
  const TimeNs now = gpu.engine().now();
  if (rec.done >= 0) {
    AddViolation(StrFormat("gpu %s: kernel %lld finished twice", name,
                           static_cast<long long>(id)));
    return;
  }
  rec.done = now;
  ++kernels_finished_;
  if (rec.start < 0) {
    AddViolation(StrFormat("gpu %s: kernel %lld finished without starting",
                           name, static_cast<long long>(id)));
    return;
  }
  // Contention can only stretch a kernel: its span is never shorter than its
  // solo duration. The fluid processor's integer-ns wake-ups can shave at
  // most 1 ns off the ideal span, hence the -1.
  if (now - rec.start < rec.solo_duration - 1) {
    AddViolation(StrFormat("gpu %s: kernel %lld ran %lld ns, shorter than "
                           "its solo duration %lld ns",
                           name, static_cast<long long>(id),
                           static_cast<long long>(now - rec.start),
                           static_cast<long long>(rec.solo_duration)));
  }
  // Streams complete their kernels strictly in enqueue order.
  StreamState& stream = state->streams[static_cast<size_t>(rec.stream)];
  if (stream.next_finish >= stream.order.size() ||
      stream.order[stream.next_finish] != id) {
    AddViolation(StrFormat("gpu %s: kernel %lld finished out of stream %d's "
                           "enqueue order",
                           name, static_cast<long long>(id), rec.stream));
  } else {
    ++stream.next_finish;
  }
}

void SimValidator::OnGpuDestroyed(const Gpu& gpu) {
  auto it = gpus_.find(&gpu);
  if (it == gpus_.end()) {
    return;
  }
  const GpuState& state = it->second;
  const TimeNs now = gpu.engine().now();
  // Capacity conservation over the whole run: the busy integral cannot
  // exceed capacity x elapsed time (relative slack for the float sum).
  const double bound = state.capacity * static_cast<double>(now);
  const double busy = gpu.SmBusyIntegral();
  if (busy > bound * (1.0 + 1e-9) + kRateEpsilon) {
    AddViolation(StrFormat("gpu %s: SM busy integral %.3f exceeds capacity x "
                           "elapsed = %.3f",
                           gpu.spec().name.c_str(), busy, bound));
  }
  // Scenario loops destroy and recreate devices; drop the state so a reused
  // address starts fresh.
  gpus_.erase(it);
}

void SimValidator::OnTransferSubmitted(const Link& link, int64_t id,
                                       int64_t bytes, int priority) {
  (void)priority;
  LinkState* state = CommonLinkChecks(link, "transfer submit");
  if (state == nullptr) {
    return;
  }
  const TimeNs now = link.engine().now();
  TransferRecord rec;
  rec.submit = now;
  rec.bytes = bytes;
  if (bytes <= 0) {
    AddViolation(StrFormat("link %s: transfer %lld submitted with %lld bytes",
                           link.spec().name.c_str(),
                           static_cast<long long>(id),
                           static_cast<long long>(bytes)));
  }
  if (state->first_submit < 0) {
    state->first_submit = now;
  }
  if (!state->transfers.emplace(id, rec).second) {
    AddViolation(StrFormat("link %s: transfer id %lld reused",
                           link.spec().name.c_str(),
                           static_cast<long long>(id)));
  }
}

void SimValidator::OnTransferCompleted(const Link& link, int64_t id) {
  LinkState* state = CommonLinkChecks(link, "transfer complete");
  if (state == nullptr) {
    return;
  }
  const char* name = link.spec().name.c_str();
  auto it = state->transfers.find(id);
  if (it == state->transfers.end()) {
    AddViolation(StrFormat("link %s: unknown transfer %lld completed", name,
                           static_cast<long long>(id)));
    return;
  }
  TransferRecord& rec = it->second;
  if (rec.done) {
    AddViolation(StrFormat("link %s: transfer %lld completed twice", name,
                           static_cast<long long>(id)));
    return;
  }
  rec.done = true;
  ++transfers_completed_;
  const TimeNs now = link.engine().now();
  // A message pays its propagation latency once plus at least the full
  // serialization time of its bytes (chunk ceils only round up).
  const TimeNs floor = link.spec().latency + link.SerializationTime(rec.bytes);
  if (now - rec.submit < floor) {
    AddViolation(StrFormat("link %s: transfer %lld took %lld ns, below the "
                           "latency + serialization floor %lld ns",
                           name, static_cast<long long>(id),
                           static_cast<long long>(now - rec.submit),
                           static_cast<long long>(floor)));
  }
  state->completed_bytes += rec.bytes;
  // Bandwidth conservation: all completed bytes fit in the elapsed window at
  // link bandwidth (bandwidth_gbps is bytes per ns).
  const double elapsed = static_cast<double>(now - state->first_submit);
  const double byte_budget = link.spec().bandwidth_gbps * elapsed;
  if (static_cast<double>(state->completed_bytes) >
      byte_budget * (1.0 + 1e-9) + kRateEpsilon) {
    AddViolation(StrFormat("link %s: %lld bytes completed in a window that "
                           "fits only %.0f at %.3f GB/s",
                           name,
                           static_cast<long long>(state->completed_bytes),
                           byte_budget, link.spec().bandwidth_gbps));
  }
  // The link's busy intervals are disjoint and within the window.
  if (link.busy_time() > now - state->first_submit) {
    AddViolation(StrFormat("link %s: busy time %lld ns exceeds the %lld ns "
                           "since the first submit",
                           name, static_cast<long long>(link.busy_time()),
                           static_cast<long long>(now - state->first_submit)));
  }
}

void SimValidator::OnLinkDestroyed(const Link& link) { links_.erase(&link); }

SimValidator::LinkState* SimValidator::CommonLinkChecks(const Link& link,
                                                        const char* event) {
  auto it = links_.find(&link);
  if (it == links_.end()) {
    AddViolation(StrFormat("link %s: %s from an unregistered device",
                           link.spec().name.c_str(), event));
    return nullptr;
  }
  LinkState& state = it->second;
  const TimeNs now = link.engine().now();
  if (now < state.last_event) {
    AddViolation(StrFormat("link %s: %s at t=%lld before t=%lld (time moved "
                           "backwards)",
                           link.spec().name.c_str(), event,
                           static_cast<long long>(now),
                           static_cast<long long>(state.last_event)));
  }
  state.last_event = now;
  return &state;
}

}  // namespace oobp
