#include "src/sim/fluid.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace oobp {

namespace {
// Work below this many rate*ns counts as drained; absorbs the rounding that
// integer-nanosecond completion times introduce.
constexpr double kWorkEpsilon = 1e-6;

// Insertion sort ascending by .first; the inputs are concatenations of a few
// already-ascending runs (jobs are stored in (priority, seq) order), so this
// is near-linear and allocation-free for the tiny active sets we see.
template <typename Pair>
void SortBySeq(std::vector<Pair>* v) {
  for (size_t i = 1; i < v->size(); ++i) {
    size_t j = i;
    while (j > 0 && (*v)[j].first < (*v)[j - 1].first) {
      std::swap((*v)[j], (*v)[j - 1]);
      --j;
    }
  }
}
}  // namespace

FluidProcessor::FluidProcessor(SimEngine* engine, double capacity)
    : engine_(engine), capacity_(capacity) {
  OOBP_CHECK(engine != nullptr);
  OOBP_CHECK_GT(capacity, 0.0);
  last_update_ = engine->now();
}

FluidJobId FluidProcessor::Add(double work, double max_rate, int priority,
                               SimEngine::Callback on_complete) {
  OOBP_CHECK_GE(work, 0.0);
  OOBP_CHECK_GT(max_rate, 0.0);
  Advance();
  const FluidJobId id = next_id_++;
  Job job;
  job.remaining = work;
  job.max_rate = max_rate;
  job.priority = priority;
  job.seq = id;
  job.on_complete = std::move(on_complete);
  // Insert after every job with priority <= `priority`: seq grows
  // monotonically, so this keeps (priority, seq) order with one shift.
  const auto pos = std::upper_bound(
      jobs_.begin(), jobs_.end(), priority,
      [](int p, const Job& j) { return p < j.priority; });
  jobs_.insert(pos, std::move(job));
  Reallocate();
  return id;
}

bool FluidProcessor::Cancel(FluidJobId id) {
  Advance();
  const auto it = std::find_if(jobs_.begin(), jobs_.end(),
                               [id](const Job& j) { return j.seq == id; });
  if (it == jobs_.end()) {
    return false;
  }
  jobs_.erase(it);
  Reallocate();
  return true;
}

double FluidProcessor::busy_integral() const {
  double total = busy_integral_;
  const double dt = static_cast<double>(engine_->now() - last_update_);
  // Ascending-seq accumulation keeps the floating-point sum identical to the
  // former per-job-id map iteration, bit for bit.
  std::vector<std::pair<uint64_t, double>>& contrib = contrib_scratch_;
  contrib.clear();
  for (const Job& job : jobs_) {
    contrib.emplace_back(job.seq, job.rate * dt);
  }
  SortBySeq(&contrib);
  for (const auto& [seq, c] : contrib) {
    total += c;
  }
  return total;
}

double FluidProcessor::RateOf(FluidJobId id) const {
  const auto it = std::find_if(jobs_.begin(), jobs_.end(),
                               [id](const Job& j) { return j.seq == id; });
  return it == jobs_.end() ? 0.0 : it->rate;
}

double FluidProcessor::allocated_rate() const {
  double total = 0.0;
  for (const Job& job : jobs_) {
    total += job.rate;
  }
  return total;
}

void FluidProcessor::Advance() {
  const TimeNs now = engine_->now();
  OOBP_CHECK_GE(now, last_update_);
  const double dt = static_cast<double>(now - last_update_);
  last_update_ = now;

  if (dt > 0.0) {
    // Integer-ns wake-ups can overshoot a completion by a fraction of a
    // nanosecond; only count work that actually existed. The busy integral
    // is accumulated in ascending job-id order so the floating-point sum is
    // bit-identical to the original map-ordered implementation. No user code
    // runs in this phase, so the shared scratch needs no reentrancy guard.
    std::vector<std::pair<uint64_t, double>>& contrib = contrib_scratch_;
    contrib.clear();
    for (Job& job : jobs_) {
      contrib.emplace_back(job.seq, std::min(job.rate * dt, job.remaining));
      job.remaining = std::max(0.0, job.remaining - job.rate * dt);
    }
    SortBySeq(&contrib);
    for (const auto& [seq, c] : contrib) {
      busy_integral_ += c;
      if (busy_recorder_ != nullptr && c != 0.0) {
        busy_recorder_->push_back({now, c});
      }
    }
  }

  // Completion order is deterministic: ascending job id. Take the scratch
  // buffer by value (swap idiom): completion callbacks may re-enter Add()
  // and thus Advance(), which must not clobber the list being iterated — a
  // nested call starts from a fresh (empty) scratch instead.
  std::vector<std::pair<uint64_t, SimEngine::Callback>> completions =
      std::move(completions_scratch_);
  completions.clear();
  for (Job& job : jobs_) {
    if (job.remaining <= kWorkEpsilon) {
      completions.emplace_back(job.seq, std::move(job.on_complete));
    }
  }
  if (completions.empty()) {
    completions_scratch_ = std::move(completions);
    return;
  }
  jobs_.erase(std::remove_if(jobs_.begin(), jobs_.end(),
                             [](const Job& j) {
                               return j.remaining <= kWorkEpsilon;
                             }),
              jobs_.end());
  SortBySeq(&completions);
  // Callbacks run after the job table is consistent: they may re-enter Add().
  for (auto& [seq, cb] : completions) {
    if (cb) {
      cb();
    }
  }
  completions.clear();
  completions_scratch_ = std::move(completions);
}

void FluidProcessor::Reallocate() {
  // Retract the superseded wake-up (no-op if it already fired).
  engine_->Cancel(wake_);
  wake_ = SimEngine::TimerHandle();
  if (jobs_.empty()) {
    return;
  }

  // Priority-ordered greedy allocation (lower priority value first, FIFO
  // within a level) — this is the GPU stream-priority semantics. jobs_ is
  // already in that order; find the next completion in the same pass.
  // A drained job (zero work, e.g. a zero-duration kernel) completes at this
  // instant whatever its rate; every other job needs at least 1 ns. So a
  // wake-up at the current instant always completes a job and cannot loop.
  double free = capacity_;
  double min_tta = -1.0;
  for (Job& job : jobs_) {
    job.rate = std::min(job.max_rate, free);
    free -= job.rate;
    double tta = -1.0;
    if (job.remaining <= kWorkEpsilon) {
      tta = 0.0;
    } else if (job.rate > 0.0) {
      tta = job.remaining / job.rate;
    }
    if (tta >= 0.0 && (min_tta < 0.0 || tta < min_tta)) {
      min_tta = tta;
    }
  }
  if (min_tta < 0.0) {
    return;  // every active job is starved; a future Add/Cancel re-triggers
  }
  // A starved-then-fed job with a tiny rate can make min_tta exceed the
  // TimeNs range; the float->int conversion would be undefined. Clamp the
  // wake-up to the end of simulated time (the job cannot finish anyway).
  const TimeNs max_delay =
      std::numeric_limits<TimeNs>::max() - engine_->now();
  TimeNs delay;
  if (min_tta == 0.0) {
    delay = 0;
  } else if (min_tta >= static_cast<double>(max_delay)) {
    delay = max_delay;
  } else {
    delay = std::max<TimeNs>(1, static_cast<TimeNs>(std::ceil(min_tta)));
  }
  wake_ = engine_->ScheduleAt(engine_->now() + delay, [this] {
    wake_ = SimEngine::TimerHandle();  // consumed; nothing left to cancel
    Advance();
    Reallocate();
  });
}

}  // namespace oobp
