// Micro-tests for the indexed event heap behind SimEngine and for the
// SmallCallback storage it schedules: ordering under stress, O(log n)
// cancellation via TimerHandle, move-out-on-pop semantics, and the inline
// vs heap callback storage split.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/small_callback.h"

namespace oobp {
namespace {

// Deterministic LCG so the stress tests need no global RNG state.
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 33;
  }

 private:
  uint64_t state_;
};

TEST(EventHeapTest, StressOrderingMatchesStableSortByTime) {
  SimEngine engine;
  Lcg rng(42);
  constexpr int kEvents = 500;
  std::vector<TimeNs> times(kEvents);
  std::vector<int> fired;
  fired.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    times[i] = static_cast<TimeNs>(rng.Next() % 50);  // many collisions
    engine.ScheduleAt(times[i], [&fired, i] { fired.push_back(i); });
  }
  engine.Run();

  // Expected: ascending time, schedule order within a timestamp (seq).
  std::vector<int> expected(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    expected[i] = i;
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [&](int a, int b) { return times[a] < times[b]; });
  EXPECT_EQ(fired, expected);
}

TEST(EventHeapTest, CancelRemovesArbitraryPendingEvents) {
  SimEngine engine;
  Lcg rng(7);
  constexpr int kEvents = 300;
  std::vector<TimeNs> times(kEvents);
  std::vector<SimEngine::TimerHandle> handles(kEvents);
  std::vector<int> fired;
  for (int i = 0; i < kEvents; ++i) {
    times[i] = static_cast<TimeNs>(rng.Next() % 40);
    handles[i] = engine.ScheduleAt(times[i], [&fired, i] { fired.push_back(i); });
  }
  for (int i = 0; i < kEvents; i += 3) {
    EXPECT_TRUE(engine.Cancel(handles[i]));
    EXPECT_FALSE(engine.Cancel(handles[i]));  // second cancel is a no-op
  }
  EXPECT_EQ(engine.pending_events(), static_cast<size_t>(kEvents - 100));
  engine.Run();

  std::vector<int> expected;
  for (int i = 0; i < kEvents; ++i) {
    if (i % 3 != 0) {
      expected.push_back(i);
    }
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [&](int a, int b) { return times[a] < times[b]; });
  EXPECT_EQ(fired, expected);
}

TEST(EventHeapTest, CancelAfterFireAndNullHandleReturnFalse) {
  SimEngine engine;
  bool ran = false;
  SimEngine::TimerHandle h = engine.ScheduleAt(5, [&] { ran = true; });
  EXPECT_FALSE(engine.Cancel(SimEngine::TimerHandle()));  // default handle
  engine.Run();
  EXPECT_TRUE(ran);
  EXPECT_FALSE(engine.Cancel(h));  // already fired
}

TEST(EventHeapTest, StaleHandleDoesNotCancelSlotReuser) {
  SimEngine engine;
  bool first = false, second = false;
  SimEngine::TimerHandle h = engine.ScheduleAt(1, [&] { first = true; });
  engine.Run();
  EXPECT_TRUE(first);
  // The freed slot is reused by the next event; the old handle must not be
  // able to cancel it (seq acts as a validity token).
  engine.ScheduleAt(2, [&] { second = true; });
  EXPECT_FALSE(engine.Cancel(h));
  engine.Run();
  EXPECT_TRUE(second);
}

TEST(EventHeapTest, CancelThenRescheduleIsSafe) {
  SimEngine engine;
  int fired = -1;
  SimEngine::TimerHandle h = engine.ScheduleAt(10, [&] { fired = 1; });
  EXPECT_TRUE(engine.Cancel(h));
  // The freed slot may be handed to the replacement; the stale handle must
  // stay dead through both the reschedule and the run.
  SimEngine::TimerHandle h2 = engine.ScheduleAt(10, [&] { fired = 2; });
  EXPECT_FALSE(engine.Cancel(h));
  engine.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(engine.Cancel(h2));  // fired already
  EXPECT_FALSE(engine.Cancel(h));   // still dead after the slot cycled again
}

TEST(EventHeapTest, SlabSlotsAreRecycledNotLeaked) {
  SimEngine engine;
  constexpr int kBatch = 64;
  for (int i = 0; i < kBatch; ++i) {
    engine.ScheduleAt(i, [] {});
  }
  engine.Run();
  const size_t high_water = engine.slab_slots();
  // Repeated schedule/cancel and schedule/fire churn must reuse freed slots:
  // the slab never grows past the high-water mark set by the first batch.
  Lcg rng(3);
  for (int round = 0; round < 200; ++round) {
    std::vector<SimEngine::TimerHandle> handles;
    for (int i = 0; i < kBatch; ++i) {
      handles.push_back(
          engine.ScheduleAfter(static_cast<TimeNs>(rng.Next() % 16), [] {}));
    }
    for (int i = 0; i < kBatch; i += 2) {
      EXPECT_TRUE(engine.Cancel(handles[static_cast<size_t>(i)]));
    }
    engine.Run();
    EXPECT_LE(engine.slab_slots(), high_water) << "round " << round;
  }
  EXPECT_EQ(engine.pending_events(), 0u);
}

TEST(EventHeapTest, CancelledSlotReuseKeepsHandlesIndependent) {
  SimEngine engine;
  int a_fired = 0, b_fired = 0;
  SimEngine::TimerHandle a = engine.ScheduleAt(5, [&] { ++a_fired; });
  EXPECT_TRUE(engine.Cancel(a));
  SimEngine::TimerHandle b = engine.ScheduleAt(6, [&] { ++b_fired; });
  // Cancelling the stale handle again must not kill the slot's new tenant.
  EXPECT_FALSE(engine.Cancel(a));
  EXPECT_EQ(engine.pending_events(), 1u);
  engine.Run();
  EXPECT_EQ(a_fired, 0);
  EXPECT_EQ(b_fired, 1);
  EXPECT_FALSE(engine.Cancel(b));
}

TEST(EventHeapTest, MoveOnlyCaptureSchedulesAndRuns) {
  SimEngine engine;
  int out = 0;
  auto p = std::make_unique<int>(7);
  // std::function could not hold this callback at all; SmallCallback moves
  // it into the slab and out again exactly once on pop.
  engine.ScheduleAt(3, [p = std::move(p), &out] { out = *p; });
  engine.Run();
  EXPECT_EQ(out, 7);
}

TEST(EventHeapTest, CallbackMayGrowSlabWhileRunning) {
  SimEngine engine;
  int fired = 0;
  // Each event schedules two more (bounded): the slab and heap grow while a
  // moved-out callback is executing, which must not invalidate it.
  std::function<void(int)> fan = [&](int depth) {
    ++fired;
    if (depth < 5) {
      engine.ScheduleAfter(1, [&fan, depth] { fan(depth + 1); });
      engine.ScheduleAfter(2, [&fan, depth] { fan(depth + 1); });
    }
  };
  engine.ScheduleAt(0, [&fan] { fan(0); });
  engine.Run();
  EXPECT_EQ(fired, 63);  // 2^6 - 1 nodes of the binary fan-out
}

TEST(EventHeapTest, RunLimitAdvancesClockWhenQueueDrains) {
  SimEngine engine;
  bool ran = false;
  engine.ScheduleAt(10, [&] { ran = true; });
  // The queue drains below the limit: the clock must still end at the limit
  // so back-to-back windows observe contiguous simulated intervals.
  EXPECT_EQ(engine.Run(/*limit=*/100), 1u);
  EXPECT_TRUE(ran);
  EXPECT_EQ(engine.now(), 100);
}

TEST(EventHeapTest, RunLimitAdvancesClockOnEmptyQueue) {
  SimEngine engine;
  EXPECT_EQ(engine.Run(/*limit=*/50), 0u);
  EXPECT_EQ(engine.now(), 50);
}

TEST(EventHeapTest, InfiniteRunRestsAtLastEventTime) {
  SimEngine engine;
  engine.ScheduleAt(17, [] {});
  engine.Run();
  EXPECT_EQ(engine.now(), 17);
}

TEST(EventHeapTest, ProcessedEventsCountsSteps) {
  SimEngine engine;
  for (int i = 0; i < 4; ++i) {
    engine.ScheduleAt(i, [] {});
  }
  engine.Run();
  EXPECT_EQ(engine.processed_events(), 4u);
  EXPECT_EQ(engine.pending_events(), 0u);
}

TEST(EventHeapTest, TotalProcessedEventsFlushesOnDestruction) {
  const uint64_t before = SimEngine::TotalProcessedEvents();
  {
    SimEngine engine;
    for (int i = 0; i < 10; ++i) {
      engine.ScheduleAt(i, [] {});
    }
    engine.Run();
    // Not flushed yet: the engine is still alive.
  }
  EXPECT_GE(SimEngine::TotalProcessedEvents(), before + 10);
}

// The process-wide counter is a relaxed atomic; hammer it from concurrent
// engines while reading it. Primarily a ThreadSanitizer target.
TEST(EventHeapTest, TotalProcessedEventsIsThreadSafe) {
  const uint64_t before = SimEngine::TotalProcessedEvents();
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)SimEngine::TotalProcessedEvents();
    }
  });
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([] {
      SimEngine e;
      for (int i = 0; i < 500; ++i) {
        e.ScheduleAt(i, [] {});
      }
      e.Run();
    });
  }
  for (std::thread& t : workers) {
    t.join();
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_GE(SimEngine::TotalProcessedEvents(), before + 2000);
}

TEST(EventHeapTest, ReserveIsBehaviorNeutral) {
  SimEngine plain;
  SimEngine reserved;
  reserved.Reserve(4096);
  std::vector<TimeNs> log_plain, log_reserved;
  for (int i = 0; i < 100; ++i) {
    const TimeNs t = (i * 37) % 101;
    plain.ScheduleAt(t, [&log_plain, &plain] {
      log_plain.push_back(plain.now());
    });
    reserved.ScheduleAt(t, [&log_reserved, &reserved] {
      log_reserved.push_back(reserved.now());
    });
  }
  plain.Run();
  reserved.Run();
  EXPECT_EQ(log_plain, log_reserved);
  EXPECT_EQ(plain.processed_events(), reserved.processed_events());
}

// ---- SmallCallback storage semantics ----

TEST(SmallCallbackTest, SmallCaptureStoredInline) {
  int x = 0;
  SmallCallback cb([&x] { x = 1; });
  EXPECT_TRUE(cb.stored_inline());
  cb();
  EXPECT_EQ(x, 1);
}

TEST(SmallCallbackTest, OversizedCaptureFallsBackToHeap) {
  std::array<char, 128> big{};
  big[0] = 42;
  int out = 0;
  SmallCallback cb([big, &out] { out = big[0]; });
  EXPECT_FALSE(cb.stored_inline());
  cb();
  EXPECT_EQ(out, 42);
}

struct ThrowingMove {
  ThrowingMove() = default;
  ThrowingMove(ThrowingMove&&) noexcept(false) {}
  void operator()() const {}
};

TEST(SmallCallbackTest, ThrowingMoveTargetFallsBackToHeap) {
  // The slab relocates callbacks with a noexcept move; a target whose move
  // may throw must live behind a pointer even though it fits the buffer.
  SmallCallback cb(ThrowingMove{});
  EXPECT_FALSE(cb.stored_inline());
  cb();  // still invocable
}

struct CountsLifetime {
  static int live;
  int* hits;
  explicit CountsLifetime(int* h) : hits(h) { ++live; }
  CountsLifetime(CountsLifetime&& o) noexcept : hits(o.hits) { ++live; }
  ~CountsLifetime() { --live; }
  void operator()() const { ++*hits; }
};
int CountsLifetime::live = 0;

TEST(SmallCallbackTest, MoveTransfersOwnershipAndResetDestroys) {
  int hits = 0;
  {
    SmallCallback a{CountsLifetime(&hits)};
    EXPECT_TRUE(a.stored_inline());
    SmallCallback b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));  // NOLINT: moved-from is empty
    EXPECT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(hits, 1);
    SmallCallback c;
    c = std::move(b);
    c();
    EXPECT_EQ(hits, 2);
  }
  EXPECT_EQ(CountsLifetime::live, 0);  // every relocation destroyed its source
}

TEST(SmallCallbackTest, EngineDestroysCancelledCallback) {
  int hits = 0;
  CountsLifetime::live = 0;
  {
    SimEngine engine;
    SimEngine::TimerHandle h = engine.ScheduleAt(5, CountsLifetime(&hits));
    EXPECT_GT(CountsLifetime::live, 0);
    EXPECT_TRUE(engine.Cancel(h));
    EXPECT_EQ(CountsLifetime::live, 0);  // destroyed without running
    engine.Run();
  }
  EXPECT_EQ(hits, 0);
}

}  // namespace
}  // namespace oobp
