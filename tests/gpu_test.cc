#include <gtest/gtest.h>

#include <vector>

#include "src/hw/gpu.h"
#include "src/sim/engine.h"
#include "src/trace/trace.h"

namespace oobp {
namespace {

GpuSpec TestSpec() {
  GpuSpec spec;
  spec.name = "test";
  spec.num_sms = 10;
  spec.blocks_per_sm = 10;  // capacity 100
  spec.fp32_tflops = 1.0;
  spec.mem_bandwidth_gbps = 100.0;
  spec.mem_bytes = 1LL << 30;
  spec.kernel_exec_overhead = 0;
  return spec;
}

KernelDesc Desc(const char* name, TimeNs dur, double blocks) {
  KernelDesc d;
  d.name = name;
  d.category = "test";
  d.solo_duration = dur;
  d.thread_blocks = blocks;
  return d;
}

// Records the order in which kernels begin executing.
class StartOrderObserver : public GpuObserver {
 public:
  void OnKernelStarted(const Gpu&, KernelId id) override {
    started.push_back(id);
  }
  std::vector<KernelId> started;
};

TEST(EffectiveOccupancyTest, TailUnderutilization) {
  // Fewer blocks than capacity: all resident at once.
  EXPECT_DOUBLE_EQ(EffectiveOccupancy(50, 100), 50.0);
  EXPECT_DOUBLE_EQ(EffectiveOccupancy(100, 100), 100.0);
  // Just over capacity: two waves, the second nearly empty.
  EXPECT_DOUBLE_EQ(EffectiveOccupancy(101, 100), 50.5);
  // Exact multiples have no tail.
  EXPECT_DOUBLE_EQ(EffectiveOccupancy(300, 100), 100.0);
  // The paper's example: 1,600 blocks on a 1,520-slot V100.
  EXPECT_DOUBLE_EQ(EffectiveOccupancy(1600, 1520), 800.0);
}

TEST(GpuTest, SingleKernelTakesSoloDuration) {
  SimEngine engine;
  Gpu gpu(&engine, TestSpec());
  const StreamId s = gpu.CreateStream(0);
  const KernelId k = gpu.Enqueue(s, Desc("k", 1000, 100));
  engine.Run();
  EXPECT_TRUE(gpu.Done(k));
  EXPECT_EQ(gpu.CompletionTime(k), 1000);
}

TEST(GpuTest, StreamSerializesKernels) {
  SimEngine engine;
  Gpu gpu(&engine, TestSpec());
  const StreamId s = gpu.CreateStream(0);
  const KernelId a = gpu.Enqueue(s, Desc("a", 1000, 100));
  const KernelId b = gpu.Enqueue(s, Desc("b", 500, 100));
  engine.Run();
  EXPECT_EQ(gpu.CompletionTime(a), 1000);
  EXPECT_EQ(gpu.CompletionTime(b), 1500);
}

// A zero-work kernel completes at the instant it starts: it holds its
// stream for no time, even when a higher-priority stream fills every slot.
TEST(GpuTest, ZeroDurationKernelCompletesAtItsStart) {
  SimEngine engine;
  Gpu gpu(&engine, TestSpec());
  const StreamId s = gpu.CreateStream(0);
  const KernelId a = gpu.Enqueue(s, Desc("a", 1234, 100));
  const KernelId z = gpu.Enqueue(s, Desc("z", 0, 100));
  const KernelId b = gpu.Enqueue(s, Desc("b", 100, 100));
  const StreamId low = gpu.CreateStream(1);
  const KernelId starved = gpu.Enqueue(low, Desc("starved", 0, 100));
  engine.Run();
  EXPECT_EQ(gpu.CompletionTime(a), 1234);
  EXPECT_EQ(gpu.CompletionTime(z), 1234);
  EXPECT_EQ(gpu.CompletionTime(b), 1334);
  EXPECT_EQ(gpu.CompletionTime(starved), 0);
}

TEST(GpuTest, ExecOverheadSeparatesKernels) {
  GpuSpec spec = TestSpec();
  spec.kernel_exec_overhead = 100;
  SimEngine engine;
  Gpu gpu(&engine, spec);
  const StreamId s = gpu.CreateStream(0);
  const KernelId a = gpu.Enqueue(s, Desc("a", 1000, 100));
  const KernelId b = gpu.Enqueue(s, Desc("b", 1000, 100));
  engine.Run();
  EXPECT_EQ(gpu.CompletionTime(a), 1100);
  EXPECT_EQ(gpu.CompletionTime(b), 2200);
}

TEST(GpuTest, CrossStreamDependencyHonored) {
  SimEngine engine;
  Gpu gpu(&engine, TestSpec());
  const StreamId s0 = gpu.CreateStream(0);
  const StreamId s1 = gpu.CreateStream(1);
  const KernelId a = gpu.Enqueue(s0, Desc("a", 1000, 100));
  KernelDesc db = Desc("b", 100, 100);
  db.deps.push_back(a);
  const KernelId b = gpu.Enqueue(s1, db);
  engine.Run();
  EXPECT_EQ(gpu.CompletionTime(b), 1100);
}

TEST(GpuTest, LowOccupancyKernelsCoRunForFree) {
  // Main kernel uses 60/100 slots; sub kernel needs 40 -> fully hidden.
  SimEngine engine;
  Gpu gpu(&engine, TestSpec());
  const StreamId main = gpu.CreateStream(0);
  const StreamId sub = gpu.CreateStream(1);
  const KernelId a = gpu.Enqueue(main, Desc("main", 1000, 60));
  const KernelId b = gpu.Enqueue(sub, Desc("sub", 1000, 40));
  engine.Run();
  EXPECT_EQ(gpu.CompletionTime(a), 1000);  // priority stream unperturbed
  EXPECT_EQ(gpu.CompletionTime(b), 1000);  // hidden in leftover slots
}

TEST(GpuTest, FullOccupancyMainStarvesSubUntilDone) {
  SimEngine engine;
  Gpu gpu(&engine, TestSpec());
  const StreamId main = gpu.CreateStream(0);
  const StreamId sub = gpu.CreateStream(1);
  const KernelId a = gpu.Enqueue(main, Desc("main", 1000, 100));
  const KernelId b = gpu.Enqueue(sub, Desc("sub", 500, 100));
  engine.Run();
  EXPECT_EQ(gpu.CompletionTime(a), 1000);
  EXPECT_EQ(gpu.CompletionTime(b), 1500);
}

TEST(GpuTest, TailOccupancyLeavesRoomForSubStream) {
  // Main kernel: 150 blocks on a 100-slot device -> 2 waves, avg 75 slots.
  // Sub kernel with 25 blocks co-runs for free.
  SimEngine engine;
  Gpu gpu(&engine, TestSpec());
  const StreamId main = gpu.CreateStream(0);
  const StreamId sub = gpu.CreateStream(1);
  const KernelId a = gpu.Enqueue(main, Desc("main", 1000, 150));
  const KernelId b = gpu.Enqueue(sub, Desc("sub", 1000, 25));
  engine.Run();
  EXPECT_EQ(gpu.CompletionTime(a), 1000);
  EXPECT_EQ(gpu.CompletionTime(b), 1000);
}

TEST(GpuTest, DependentsWakeInOrder) {
  SimEngine engine;
  Gpu gpu(&engine, TestSpec());
  const StreamId s0 = gpu.CreateStream(0);
  const StreamId s1 = gpu.CreateStream(1);
  const KernelId a = gpu.Enqueue(s0, Desc("a", 100, 100));
  KernelDesc dc = Desc("c", 100, 50);
  dc.deps.push_back(a);
  const KernelId c = gpu.Enqueue(s1, dc);
  KernelDesc dd = Desc("d", 100, 50);
  dd.deps.push_back(c);
  const KernelId d = gpu.Enqueue(s0, dd);
  engine.Run();
  EXPECT_EQ(gpu.CompletionTime(a), 100);
  EXPECT_EQ(gpu.CompletionTime(c), 200);
  EXPECT_EQ(gpu.CompletionTime(d), 300);
}

TEST(GpuTest, KernelDoneListenersFireOncePerKernel) {
  SimEngine engine;
  Gpu gpu(&engine, TestSpec());
  const StreamId s = gpu.CreateStream(0);
  int count = 0;
  gpu.AddKernelDoneListener([&](KernelId) { ++count; });
  gpu.AddKernelDoneListener([&](KernelId) { ++count; });
  gpu.Enqueue(s, Desc("a", 100, 10));
  gpu.Enqueue(s, Desc("b", 100, 10));
  engine.Run();
  EXPECT_EQ(count, 4);  // 2 listeners x 2 kernels
  EXPECT_EQ(gpu.kernels_completed(), 2u);
}

TEST(GpuTest, TraceRecordsKernelSpans) {
  SimEngine engine;
  TraceRecorder trace;
  Gpu gpu(&engine, TestSpec(), &trace, /*trace_track_base=*/5);
  const StreamId s = gpu.CreateStream(0);
  gpu.Enqueue(s, Desc("k1", 1000, 100));
  gpu.Enqueue(s, Desc("k2", 500, 100));
  engine.Run();
  ASSERT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(trace.events()[0].name, "k1");
  EXPECT_EQ(trace.events()[0].track, 5);
  EXPECT_EQ(trace.events()[0].duration, 1000);
  EXPECT_EQ(trace.events()[1].start, 1000);
}

TEST(GpuTest, SmBusyIntegralMatchesWork) {
  SimEngine engine;
  Gpu gpu(&engine, TestSpec());
  const StreamId s = gpu.CreateStream(0);
  gpu.Enqueue(s, Desc("a", 1000, 50));  // work = 1000 * 50
  engine.Run();
  EXPECT_NEAR(gpu.SmBusyIntegral(), 50000.0, 100.0);
}

TEST(GpuTest, CrossStreamDependentsStartInEnqueueOrder) {
  // One kernel with four cross-stream dependents: the first is stored in the
  // record, the other three in the extra-dependent arena. All four become
  // ready at the same instant, so their start order is the wake order, which
  // must be the order they were enqueued in. Streams are used out of
  // creation order so stream index and priority disagree with that order.
  StartOrderObserver observer;
  SimEngine engine;
  Gpu gpu(&engine, TestSpec());
  gpu.SetObserver(&observer);
  std::vector<StreamId> streams;
  for (int p = 0; p < 5; ++p) {
    streams.push_back(gpu.CreateStream(p));
  }
  const KernelId a = gpu.Enqueue(streams[0], Desc("a", 100, 100));
  std::vector<KernelId> dependents;
  for (int s : {4, 2, 3, 1}) {
    KernelDesc d = Desc("d", 100, 10);
    d.deps.push_back(a);
    dependents.push_back(gpu.Enqueue(streams[s], d));
  }
  engine.Run();
  ASSERT_EQ(observer.started.size(), 5u);
  EXPECT_EQ(observer.started[0], a);
  EXPECT_EQ(std::vector<KernelId>(observer.started.begin() + 1,
                                  observer.started.end()),
            dependents);
  for (KernelId d : dependents) {
    EXPECT_EQ(gpu.StartTime(d), gpu.CompletionTime(a));
  }
  gpu.SetObserver(nullptr);
}

TEST(GpuTest, DoneListenerGrowsDependentArenaDuringFinish) {
  // `a` finishes first and has arena-held dependents; its done listener
  // enqueues many kernels that wait on the still-running `slow`, which
  // appends to the arena and regrows the kernel table and the arena while
  // FinishKernel(a) is on the stack. Everything must still complete, with
  // every `slow` dependent woken only once `slow` is done.
  SimEngine engine;
  Gpu gpu(&engine, TestSpec());
  std::vector<StreamId> streams;
  for (int p = 0; p < 4; ++p) {
    streams.push_back(gpu.CreateStream(p));
  }
  const KernelId slow = gpu.Enqueue(streams[0], Desc("slow", 1000, 10));
  const KernelId a = gpu.Enqueue(streams[1], Desc("a", 100, 10));
  std::vector<KernelId> a_dependents;
  for (int s : {2, 3, 2}) {
    KernelDesc d = Desc("after_a", 50, 10);
    d.deps.push_back(a);
    a_dependents.push_back(gpu.Enqueue(streams[s], d));
  }
  std::vector<KernelId> slow_dependents;
  gpu.AddKernelDoneListener([&](KernelId id) {
    if (id != a) {
      return;
    }
    for (int i = 0; i < 256; ++i) {
      KernelDesc d = Desc("after_slow", 10, 10);
      d.deps.push_back(slow);
      slow_dependents.push_back(gpu.Enqueue(streams[1 + i % 3], d));
    }
  });
  engine.Run();
  EXPECT_EQ(gpu.CompletionTime(a), 100);
  EXPECT_EQ(gpu.StartTime(a_dependents[0]), 100);
  EXPECT_EQ(gpu.StartTime(a_dependents[1]), 100);
  EXPECT_EQ(gpu.CompletionTime(slow), 1000);
  ASSERT_EQ(slow_dependents.size(), 256u);
  for (KernelId d : slow_dependents) {
    ASSERT_TRUE(gpu.Done(d));
    EXPECT_GE(gpu.StartTime(d), gpu.CompletionTime(slow));
  }
  EXPECT_EQ(gpu.kernels_completed(), gpu.kernels_enqueued());
  EXPECT_EQ(gpu.kernels_enqueued(), 2u + 3u + 256u);
}

TEST(GpuTest, KernelSoloDurationOfEnqueuedKernel) {
  SimEngine engine;
  Gpu gpu(&engine, TestSpec());
  const StreamId s = gpu.CreateStream(0);
  const KernelId a = gpu.Enqueue(s, Desc("a", 1234, 100));
  const KernelId b = gpu.Enqueue(s, Desc("b", 0, 100));
  // Readable while the kernel is still queued, and unchanged once it ran.
  EXPECT_FALSE(gpu.Started(a));
  EXPECT_EQ(gpu.KernelSoloDuration(a), 1234);
  EXPECT_EQ(gpu.KernelSoloDuration(b), 0);
  engine.Run();
  EXPECT_EQ(gpu.KernelSoloDuration(a), 1234);
  EXPECT_EQ(gpu.CompletionTime(a), 1234);
}

}  // namespace
}  // namespace oobp
