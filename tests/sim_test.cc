#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/fluid.h"
#include "src/sim/worker_pool.h"

namespace oobp {
namespace {

TEST(SimEngineTest, ProcessesInTimeOrder) {
  SimEngine engine;
  std::vector<int> order;
  engine.ScheduleAt(30, [&] { order.push_back(3); });
  engine.ScheduleAt(10, [&] { order.push_back(1); });
  engine.ScheduleAt(20, [&] { order.push_back(2); });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), 30);
}

TEST(SimEngineTest, SameTimestampFifoBySequence) {
  SimEngine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  engine.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SimEngineTest, EventsMayScheduleMoreEvents) {
  SimEngine engine;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) {
      engine.ScheduleAfter(10, chain);
    }
  };
  engine.ScheduleAfter(10, chain);
  engine.Run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(engine.now(), 50);
}

TEST(SimEngineTest, RunRespectsLimit) {
  SimEngine engine;
  int fired = 0;
  engine.ScheduleAt(10, [&] { ++fired; });
  engine.ScheduleAt(100, [&] { ++fired; });
  engine.Run(/*limit=*/50);
  EXPECT_EQ(fired, 1);
  engine.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimEngineTest, StepReturnsFalseWhenEmpty) {
  SimEngine engine;
  EXPECT_FALSE(engine.Step());
  engine.ScheduleAt(1, [] {});
  EXPECT_TRUE(engine.Step());
  EXPECT_FALSE(engine.Step());
}

TEST(FluidTest, SingleJobRunsAtItsRate) {
  SimEngine engine;
  FluidProcessor proc(&engine, 100.0);
  TimeNs done_at = -1;
  // 1000 units of work at max rate 10 -> 100 ns.
  proc.Add(1000.0, 10.0, 0, [&] { done_at = engine.now(); });
  engine.Run();
  EXPECT_EQ(done_at, 100);
}

TEST(FluidTest, JobCappedByCapacity) {
  SimEngine engine;
  FluidProcessor proc(&engine, 50.0);
  TimeNs done_at = -1;
  // max_rate 200 exceeds capacity 50 -> effective rate 50 -> 20 ns.
  proc.Add(1000.0, 200.0, 0, [&] { done_at = engine.now(); });
  engine.Run();
  EXPECT_EQ(done_at, 20);
}

TEST(FluidTest, EqualPriorityShareByArrivalOrder) {
  SimEngine engine;
  FluidProcessor proc(&engine, 100.0);
  TimeNs a_done = -1, b_done = -1;
  // Job A takes 60 slots, leaving 40 for B (greedy in arrival order).
  proc.Add(600.0, 60.0, 0, [&] { a_done = engine.now(); });
  proc.Add(400.0, 100.0, 0, [&] { b_done = engine.now(); });
  engine.Run();
  EXPECT_EQ(a_done, 10);  // 600 / 60
  // B: 40 slots for 10 ns (400 done) -> finishes with A.
  EXPECT_EQ(b_done, 10);
}

TEST(FluidTest, HighPriorityStarvesLowWhenSaturated) {
  SimEngine engine;
  FluidProcessor proc(&engine, 100.0);
  TimeNs hi_done = -1, lo_done = -1;
  proc.Add(1000.0, 100.0, /*priority=*/1, [&] { lo_done = engine.now(); });
  proc.Add(1000.0, 100.0, /*priority=*/0, [&] { hi_done = engine.now(); });
  engine.Run();
  EXPECT_EQ(hi_done, 10);
  EXPECT_EQ(lo_done, 20);  // runs only after the high-priority job drains
}

TEST(FluidTest, LowPriorityUsesLeftoverCapacity) {
  SimEngine engine;
  FluidProcessor proc(&engine, 100.0);
  TimeNs hi_done = -1, lo_done = -1;
  // High-priority job occupies 70 slots, leaving 30 for the low-priority
  // job, which needs only 30 -> both progress concurrently.
  proc.Add(700.0, 70.0, 0, [&] { hi_done = engine.now(); });
  proc.Add(300.0, 30.0, 1, [&] { lo_done = engine.now(); });
  engine.Run();
  EXPECT_EQ(hi_done, 10);
  EXPECT_EQ(lo_done, 10);  // fully hidden: co-run costs nothing
}

TEST(FluidTest, WorkConservation) {
  SimEngine engine;
  FluidProcessor proc(&engine, 64.0);
  double total_work = 0;
  int remaining = 5;
  for (int i = 0; i < 5; ++i) {
    const double work = 100.0 * (i + 1);
    total_work += work;
    proc.Add(work, 16.0 * (i + 1), i % 2, [&] { --remaining; });
  }
  engine.Run();
  EXPECT_EQ(remaining, 0);
  // Busy integral equals the total work executed.
  EXPECT_NEAR(proc.busy_integral(), total_work, total_work * 1e-6 + 64.0);
}

TEST(FluidTest, CancelRemovesJob) {
  SimEngine engine;
  FluidProcessor proc(&engine, 10.0);
  bool fired = false;
  const FluidJobId id = proc.Add(1e9, 10.0, 0, [&] { fired = true; });
  EXPECT_TRUE(proc.Cancel(id));
  EXPECT_FALSE(proc.Cancel(id));
  engine.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(proc.active_jobs(), 0u);
}

TEST(FluidTest, ReallocationOnCompletion) {
  SimEngine engine;
  FluidProcessor proc(&engine, 100.0);
  TimeNs second_done = -1;
  proc.Add(1000.0, 100.0, 0, [] {});
  // Starved at first (0 leftover); gets the full device at t=10.
  proc.Add(500.0, 100.0, 1, [&] { second_done = engine.now(); });
  engine.Run();
  EXPECT_EQ(second_done, 15);
}

TEST(FluidTest, ZeroWorkCompletesPromptly) {
  SimEngine engine;
  FluidProcessor proc(&engine, 10.0);
  bool fired = false;
  proc.Add(0.0, 1.0, 0, [&] { fired = true; });
  engine.Run();
  EXPECT_TRUE(fired);
  EXPECT_LE(engine.now(), 1);  // drains within one wake-up tick
}

// Pooled execution must match the inline reference; an inert pool runs
// every task on the caller's thread (worker == -1).
TEST(WorkerPoolTest, PooledRunMatchesInlineReference) {
  auto run = [](int threads) {
    WorkerPool pool(threads);
    std::vector<uint64_t> out(64);
    std::vector<int> worker_of(out.size());
    pool.Run(out.size(), [&](size_t i, int worker) {
      out[i] = i * i + 7;
      worker_of[i] = worker;
    });
    return std::make_pair(out, worker_of);
  };
  const auto [reference, inline_workers] = run(1);
  EXPECT_EQ(reference[63], 63u * 63u + 7u);
  EXPECT_EQ(inline_workers, std::vector<int>(64, -1));
  EXPECT_EQ(run(4).first, reference);
}

}  // namespace
}  // namespace oobp
