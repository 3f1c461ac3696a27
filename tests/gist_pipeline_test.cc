// End-to-end pipeline test: a miniature pbzip2-style use-after-free
// concurrency bug, diagnosed by the full Gist loop (failure report → static
// slice → instrumentation → monitored runs → refinement → sketch).

#include <gtest/gtest.h>

#include "src/core/gist.h"
#include "src/ir/parser.h"

namespace gist {
namespace {

// main() allocates a queue whose slot 0 holds a pointer to a mutex, spawns a
// consumer, does some work, then frees the mutex and nulls the pointer. The
// consumer loads the pointer and unlocks it. If main's free/null wins the
// race, the consumer dereferences NULL: a segfault — the pbzip2 #1 structure.
constexpr const char* kPbzip2Like = R"(
global work 1 0
func cons(1) {
entry:
  r2 = const 0
  jmp ^head
head:
  r3 = const 2
  r4 = lt r2, r3
  br r4, ^body, ^done
body:
  r5 = const 1
  r2 = add r2, r5
  jmp ^head
done:
  r1 = load r0      ; mut = f->mut
  lock r1
  unlock r1
  ret
}
func main() {
entry:
  r0 = const 2
  r1 = alloc r0     ; queue* f
  r2 = const 1
  r3 = alloc r2     ; f->mut
  store r1, r3      ; f->mut = mut
  r4 = spawn @cons(r1)
  r5 = const 0
  jmp ^work_head
work_head:
  r6 = const 2
  r7 = lt r5, r6
  br r7, ^work_body, ^teardown
work_body:
  r8 = addrof work
  r9 = load r8
  r10 = add r9, r2
  store r8, r10
  r5 = add r5, r2
  jmp ^work_head
teardown:
  r11 = load r1
  free r11          ; free(f->mut)
  r12 = const 0
  store r1, r12     ; f->mut = NULL
  join r4
  ret
}
)";

// Finds a workload seed whose run fails (consumer loses the race).
bool FindOutcomeSeeds(const Module& module, uint64_t* failing_seed, uint64_t* passing_seed) {
  bool have_fail = false;
  bool have_pass = false;
  for (uint64_t seed = 1; seed <= 400 && !(have_fail && have_pass); ++seed) {
    Workload workload;
    workload.schedule_seed = seed;
    Vm vm(module, workload, VmOptions{});
    RunResult result = vm.Run();
    if (!result.ok() && !have_fail) {
      *failing_seed = seed;
      have_fail = true;
    }
    if (result.ok() && !have_pass) {
      *passing_seed = seed;
      have_pass = true;
    }
  }
  return have_fail && have_pass;
}

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto parsed = ParseModule(kPbzip2Like);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message();
    module_ = std::move(*parsed);
    ASSERT_TRUE(FindOutcomeSeeds(*module_, &failing_seed_, &passing_seed_));
  }

  FailureReport FailingReport() {
    Workload workload;
    workload.schedule_seed = failing_seed_;
    Vm vm(*module_, workload, VmOptions{});
    RunResult result = vm.Run();
    EXPECT_FALSE(result.ok());
    return result.failure;
  }

  std::unique_ptr<Module> module_;
  uint64_t failing_seed_ = 0;
  uint64_t passing_seed_ = 0;
};

TEST_F(PipelineTest, RaceManifestsForSomeSeedsOnly) {
  EXPECT_NE(failing_seed_, passing_seed_);
}

TEST_F(PipelineTest, FailureReportPointsIntoConsumer) {
  const FailureReport report = FailingReport();
  // Failure may be the NULL lock/unlock (segfault) or a use-after-free
  // depending on interleaving; both manifest inside cons().
  EXPECT_TRUE(report.type == FailureType::kSegFault ||
              report.type == FailureType::kUseAfterFree);
  const InstrLocation& loc = module_->location(report.failing_instr);
  EXPECT_EQ(module_->function(loc.function).name(), "cons");
}

TEST_F(PipelineTest, SliceContainsSpawnAndThreadArg) {
  GistServer server(*module_);
  server.ReportFailure(FailingReport());
  const StaticSlice& slice = server.slice();
  // The slice must cross the thread-creation edge back into main.
  bool has_spawn = false;
  for (InstrId id : slice.instrs) {
    if (module_->instr(id).op == Opcode::kThreadCreate) {
      has_spawn = true;
    }
  }
  EXPECT_TRUE(has_spawn);
}

TEST_F(PipelineTest, FullLoopProducesSketchWithRootCause) {
  GistServer server(*module_);
  server.ReportFailure(FailingReport());

  // Simulate a small production fleet: run many seeds under instrumentation,
  // growing the window until the sketch contains the racing store from main.
  const FunctionId main_id = module_->FindFunction("main");
  InstrId null_store = kNoInstr;  // "f->mut = NULL"
  const Function& main_fn = module_->function(main_id);
  const BlockId teardown = main_fn.FindBlock("teardown");
  for (const Instruction& instr : main_fn.block(teardown).instructions()) {
    if (instr.op == Opcode::kStore) {
      null_store = instr.id;
    }
  }
  ASSERT_NE(null_store, kNoInstr);

  FailureSketch sketch;
  bool found = false;
  for (int iteration = 0; iteration < 6 && !found; ++iteration) {
    for (uint64_t seed = 1; seed <= 60; ++seed) {
      Workload workload;
      workload.schedule_seed = seed;
      MonitoredRun run =
          RunMonitored(*module_, server.Snapshot(), 0, workload, GistOptions{}, seed);
      server.AddTrace(std::move(run.trace));
    }
    ASSERT_GT(server.failure_recurrences(), 0u);
    Result<FailureSketch> built = server.BuildSketch();
    ASSERT_TRUE(built.ok()) << built.error().message();
    sketch = *built;
    // The developer checks whether the root cause is visible: the write side
    // of the race (discovered via watchpoints) and the failing statement.
    found = sketch.Contains(null_store) && sketch.Contains(sketch.failing_instr);
    if (!found) {
      server.AdvanceAst();
    }
  }
  ASSERT_TRUE(found) << "sketch never captured the racing store";

  // The racing store was NOT in the static slice (no alias analysis): it must
  // have been discovered at runtime.
  EXPECT_FALSE(server.slice().Contains(null_store));

  // The sketch spans both threads.
  EXPECT_GE(sketch.threads.size(), 2u);

  // There must be a concurrency predictor, and it should involve the store
  // and/or the consumer's load of f->mut.
  ASSERT_TRUE(sketch.best_concurrency.has_value());
  EXPECT_GT(sketch.best_concurrency->f_measure, 0.0);

  // The failure point is the last step.
  ASSERT_FALSE(sketch.statements.empty());
  EXPECT_TRUE(sketch.statements.back().is_failure_point);

  // Rendering mentions both threads and the failure.
  const std::string rendered = RenderFailureSketch(*module_, sketch);
  EXPECT_NE(rendered.find("Thread T0"), std::string::npos);
  EXPECT_NE(rendered.find("FAILURE"), std::string::npos);
}

TEST_F(PipelineTest, SuccessfulRunsLowerNonDiscriminatingPredictors) {
  GistServer server(*module_);
  server.ReportFailure(FailingReport());
  // Collect a mixed batch.
  for (uint64_t seed = 1; seed <= 80; ++seed) {
    Workload workload;
    workload.schedule_seed = seed;
    MonitoredRun run = RunMonitored(*module_, server.Snapshot(), 0, workload, GistOptions{}, seed);
    server.AddTrace(std::move(run.trace));
  }
  Result<FailureSketch> sketch = server.BuildSketch();
  ASSERT_TRUE(sketch.ok()) << sketch.error().message();
  ASSERT_TRUE(sketch->best_concurrency.has_value());
  // The top concurrency predictor must have decent precision: it should not
  // fire in most successful runs.
  EXPECT_GE(sketch->best_concurrency->precision, 0.5);
}

TEST_F(PipelineTest, TraceMatchingRejectsOtherFailures) {
  GistServer server(*module_);
  server.ReportFailure(FailingReport());
  RunTrace bogus;
  bogus.failed = true;
  bogus.failure.type = FailureType::kAssertViolation;
  bogus.failure.failing_instr = 0;
  server.AddTrace(std::move(bogus));
  EXPECT_EQ(server.failure_recurrences(), 0u);
  EXPECT_EQ(server.trace_count(), 0u);
}

TEST_F(PipelineTest, AdvanceAstDoublesSigma) {
  GistServer server(*module_);
  server.ReportFailure(FailingReport());
  const uint32_t sigma0 = server.sigma();
  server.AdvanceAst();
  EXPECT_EQ(server.sigma(), sigma0 * 2);
  server.AdvanceAst();
  EXPECT_EQ(server.sigma(), sigma0 * 4);
}

TEST_F(PipelineTest, MonitoredRunOverheadIsSmall) {
  GistServer server(*module_);
  server.ReportFailure(FailingReport());
  Workload workload;
  workload.schedule_seed = passing_seed_;
  MonitoredRun run = RunMonitored(*module_, server.Snapshot(), 0, workload, GistOptions{}, 1);
  ASSERT_GT(run.trace.baseline_instructions, 0u);
  const double overhead = GistClientOverheadPercent(CostModel{}, run.trace.baseline_instructions,
                                                    run.trace.activity);
  // The program is ~60 instructions, so fixed toggle costs dominate and the
  // percentage is meaningless in absolute terms; assert structure only. The
  // realistic overhead numbers come from the benches over the app workloads.
  EXPECT_GT(overhead, 0.0);
  EXPECT_GT(run.trace.activity.pt_toggles, 0u);
}

}  // namespace
}  // namespace gist
