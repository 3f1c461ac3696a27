// Failure-sketch construction tests: refinement semantics (execution
// filtering + data-flow discovery), layout invariants, value annotation,
// predictor highlighting, trace summaries, and error handling.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "src/core/gist.h"
#include "src/core/renderer.h"
#include "src/ir/parser.h"
#include "src/pt/decoder.h"

namespace gist {
namespace {

// One thread writes a global the failing thread reads; the failing branch
// side contains dead code that must be filtered out of the sketch.
constexpr const char* kProgram = R"(
global flag 1 0
func setter(1) {
entry:
  r1 = addrof flag
  store r1, r0
  ret
}
func main() {
entry:
  r0 = const 1
  r1 = spawn @setter(r0)
  join r1
  r2 = addrof flag
  r3 = load r2
  br r3, ^boom, ^fine
boom:
  r4 = const 0
  r5 = load r4            ; segfault
  ret
fine:
  r6 = const 7
  print r6
  ret
}
)";

class SketchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto parsed = ParseModule(kProgram);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message();
    module_ = std::move(*parsed);

    // This program fails deterministically (setter joins before the read).
    Vm vm(*module_, Workload{}, VmOptions{});
    RunResult result = vm.Run();
    ASSERT_FALSE(result.ok());
    report_ = result.failure;

    server_ = std::make_unique<GistServer>(*module_);
    server_->ReportFailure(report_);
    // Grow the window to cover the whole (small) slice.
    while (!server_->ExhaustedSlice()) {
      server_->AdvanceAst();
    }
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      Workload workload;
      workload.schedule_seed = seed;
      MonitoredRun run =
          RunMonitored(*module_, server_->Snapshot(), 0, workload, GistOptions{}, seed);
      server_->AddTrace(std::move(run.trace));
    }
  }

  InstrId FindInstr(const std::string& function, Opcode op, int occurrence = 0) {
    const FunctionId f = module_->FindFunction(function);
    int seen = 0;
    for (BlockId b = 0; b < module_->function(f).num_blocks(); ++b) {
      for (const Instruction& instr : module_->function(f).block(b).instructions()) {
        if (instr.op == op && seen++ == occurrence) {
          return instr.id;
        }
      }
    }
    return kNoInstr;
  }

  std::unique_ptr<Module> module_;
  FailureReport report_;
  std::unique_ptr<GistServer> server_;
};

TEST_F(SketchTest, BuildSucceedsWithFailingTraces) {
  Result<FailureSketch> sketch = server_->BuildSketch();
  ASSERT_TRUE(sketch.ok()) << sketch.error().message();
  EXPECT_GT(sketch->statements.size(), 0u);
  EXPECT_EQ(sketch->failure_type, FailureType::kSegFault);
}

TEST_F(SketchTest, FailurePointIsLastStep) {
  Result<FailureSketch> sketch = server_->BuildSketch();
  ASSERT_TRUE(sketch.ok());
  ASSERT_FALSE(sketch->statements.empty());
  const SketchStatement& last = sketch->statements.back();
  EXPECT_TRUE(last.is_failure_point);
  EXPECT_EQ(last.instr, report_.failing_instr);
  // Steps are dense and 1-based.
  for (size_t i = 0; i < sketch->statements.size(); ++i) {
    EXPECT_EQ(sketch->statements[i].step, i + 1);
  }
}

TEST_F(SketchTest, DeadBranchSideFilteredOut) {
  Result<FailureSketch> sketch = server_->BuildSketch();
  ASSERT_TRUE(sketch.ok());
  // The `fine` side never executes in failing runs: its statements are in
  // the static slice (path-insensitive) but control-flow refinement removes
  // them.
  const InstrId print_instr = FindInstr("main", Opcode::kPrint);
  const InstrId fine_const = FindInstr("main", Opcode::kConst, 2);  // const 7
  EXPECT_FALSE(sketch->Contains(print_instr));
  EXPECT_FALSE(sketch->Contains(fine_const));
}

TEST_F(SketchTest, DataFlowDiscoversTheRemoteStore) {
  Result<FailureSketch> sketch = server_->BuildSketch();
  ASSERT_TRUE(sketch.ok());
  // setter's store is invisible to the alias-free slicer but the watchpoint
  // on `flag` catches it; it must be in the sketch, marked as discovered.
  const InstrId store = FindInstr("setter", Opcode::kStore);
  ASSERT_TRUE(sketch->Contains(store));
  EXPECT_FALSE(server_->slice().Contains(store));
  bool discovered = false;
  for (const SketchStatement& statement : sketch->statements) {
    if (statement.instr == store) {
      discovered = statement.discovered_at_runtime;
    }
  }
  EXPECT_TRUE(discovered);
}

TEST_F(SketchTest, WatchedStatementsCarryValues) {
  Result<FailureSketch> sketch = server_->BuildSketch();
  ASSERT_TRUE(sketch.ok());
  const InstrId load = FindInstr("main", Opcode::kLoad, 0);  // load of flag
  bool found = false;
  for (const SketchStatement& statement : sketch->statements) {
    if (statement.instr == load) {
      found = true;
      ASSERT_TRUE(statement.value.has_value());
      EXPECT_EQ(*statement.value, 1);  // the setter stored 1
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(SketchTest, StoreBeforeLoadInStepOrder) {
  Result<FailureSketch> sketch = server_->BuildSketch();
  ASSERT_TRUE(sketch.ok());
  const InstrId store = FindInstr("setter", Opcode::kStore);
  const InstrId load = FindInstr("main", Opcode::kLoad, 0);
  size_t store_step = 0;
  size_t load_step = 0;
  for (const SketchStatement& statement : sketch->statements) {
    if (statement.instr == store) {
      store_step = statement.step;
    }
    if (statement.instr == load) {
      load_step = statement.step;
    }
  }
  ASSERT_GT(store_step, 0u);
  ASSERT_GT(load_step, 0u);
  EXPECT_LT(store_step, load_step) << "watchpoint total order must place the store first";
}

TEST_F(SketchTest, ThreadsColumnsCoverBothThreads) {
  Result<FailureSketch> sketch = server_->BuildSketch();
  ASSERT_TRUE(sketch.ok());
  EXPECT_GE(sketch->threads.size(), 2u);
}

TEST_F(SketchTest, TopValuePredictorHighlighted) {
  Result<FailureSketch> sketch = server_->BuildSketch();
  ASSERT_TRUE(sketch.ok());
  ASSERT_TRUE(sketch->best_value.has_value());
  const InstrId predicted = sketch->best_value->predictor.a;
  bool highlighted = false;
  for (const SketchStatement& statement : sketch->statements) {
    if (statement.instr == predicted && statement.highlighted) {
      highlighted = true;
    }
  }
  EXPECT_TRUE(highlighted);
}

TEST_F(SketchTest, SharedAccessOrderListsWatchedInstrsInStepOrder) {
  Result<FailureSketch> sketch = server_->BuildSketch();
  ASSERT_TRUE(sketch.ok());
  const std::vector<InstrId> order = sketch->SharedAccessOrder(*module_);
  EXPECT_FALSE(order.empty());
  // Must be a subset of the sketch's statements.
  for (InstrId id : order) {
    EXPECT_TRUE(sketch->Contains(id));
    EXPECT_TRUE(module_->instr(id).IsSharedAccess());
  }
}

TEST_F(SketchTest, SummariesAloneRebuildTheSketch) {
  // The build reads no PT buffer: from the server's summaries and streaming
  // statistics, stripping every buffer changes nothing.
  std::vector<RunTrace> stripped = server_->traces();
  for (RunTrace& trace : stripped) {
    trace.pt_buffers.clear();
  }
  SketchOptions options;
  options.title = "failure";
  options.discovered = &server_->discovered_instrs();
  Result<FailureSketch> from_summaries =
      BuildFailureSketch(server_->plan().window, stripped, server_->behavior(),
                         server_->failure_summaries(), options);
  Result<FailureSketch> served = server_->BuildSketch();
  ASSERT_TRUE(from_summaries.ok()) << from_summaries.error().message();
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(RenderFailureSketch(*module_, *from_summaries), RenderFailureSketch(*module_, *served));
}

TEST_F(SketchTest, SummarizeAllSkipsAndCountsUndecodableTraces) {
  // The batch path over the server's traces recomputes its ingest state...
  const BatchSummary clean = SummarizeAll(*module_, server_->traces(), kDefaultBeta);
  EXPECT_EQ(clean.undecodable, 0u);
  EXPECT_EQ(clean.summaries, server_->failure_summaries());
  EXPECT_EQ(clean.behavior.Fingerprint(), server_->behavior().Fingerprint());

  // ...and skips a failing trace whose PT no longer decodes: it is left out
  // of the statistics and the summaries, and counted — never fatal.
  std::vector<RunTrace> traces = server_->traces();
  const auto first_failing = std::find_if(traces.begin(), traces.end(),
                                          [](const RunTrace& trace) { return trace.failed; });
  ASSERT_NE(first_failing, traces.end());
  ASSERT_FALSE(first_failing->pt_buffers.empty());
  first_failing->pt_buffers[0] = {0xff};  // not a packet header
  const BatchSummary batch = SummarizeAll(*module_, traces, kDefaultBeta);
  EXPECT_EQ(batch.undecodable, 1u);
  EXPECT_EQ(batch.behavior.runs_recorded(), clean.behavior.runs_recorded() - 1);
  const std::vector<TraceSummary> expected(clean.summaries.begin() + 1, clean.summaries.end());
  EXPECT_EQ(batch.summaries, expected);
  EXPECT_EQ(batch.failing.size(), expected.size());
}

// SummarizeTrace over hand-built decodes of kProgram's entry blocks.
class SummarizeTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto parsed = ParseModule(kProgram);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message();
    module_ = std::move(*parsed);
    main_ = module_->FindFunction("main");
    setter_ = module_->FindFunction("setter");
  }

  static DecodedCoreTrace Decode(CoreId core, std::vector<PtVisit> visits) {
    DecodedCoreTrace trace;
    trace.core = core;
    trace.visits = std::move(visits);
    return trace;
  }

  InstrId Entry(FunctionId function, uint32_t index) const {
    return module_->function(function).block(0).instructions()[index].id;
  }

  std::unique_ptr<Module> module_;
  FunctionId main_ = kNoFunction;
  FunctionId setter_ = kNoFunction;
};

TEST_F(SummarizeTraceTest, PositionsCountPerThreadAcrossCoresInCoreOrder) {
  const TraceSummary summary = SummarizeTrace(
      *module_, {Decode(0, {{0, main_, 0, 0, 2}, {1, setter_, 0, 0, 2}}),
                 Decode(1, {{0, main_, 0, 3, 5}})});
  std::vector<TraceSummary::Position> expected;
  for (uint32_t i = 0; i <= 5; ++i) {
    expected.push_back({0, Entry(main_, i), i});
  }
  for (uint32_t i = 0; i <= 2; ++i) {
    expected.push_back({1, Entry(setter_, i), i});
  }
  std::sort(expected.begin(), expected.end(), [](const auto& a, const auto& b) {
    return std::tie(a.tid, a.instr) < std::tie(b.tid, b.instr);
  });
  EXPECT_EQ(summary.positions, expected);
  ASSERT_EQ(summary.executed.size(), 9u);
  EXPECT_TRUE(std::is_sorted(summary.executed.begin(), summary.executed.end()));
  EXPECT_TRUE(summary.Executed(Entry(main_, 5)));
  EXPECT_TRUE(summary.Executed(Entry(setter_, 1)));
}

TEST_F(SummarizeTraceTest, TruncatedVisitIsSkipped) {
  const TraceSummary summary = SummarizeTrace(
      *module_, {Decode(0, {{0, main_, 0, 0, 1}, {0, main_, 0, 4, 2}, {0, main_, 0, 2, 2}})});
  const std::vector<TraceSummary::Position> expected = {
      {0, Entry(main_, 0), 0}, {0, Entry(main_, 1), 1}, {0, Entry(main_, 2), 2}};
  EXPECT_EQ(summary.positions, expected);
  EXPECT_FALSE(summary.Executed(Entry(main_, 3)));
  EXPECT_FALSE(summary.Executed(Entry(main_, 4)));
}

TEST_F(SummarizeTraceTest, LastOccurrenceWins) {
  const TraceSummary summary =
      SummarizeTrace(*module_, {Decode(0, {{0, main_, 0, 0, 1}}), Decode(1, {{0, main_, 0, 0, 0}})});
  const std::vector<TraceSummary::Position> expected = {{0, Entry(main_, 0), 2},
                                                        {0, Entry(main_, 1), 1}};
  EXPECT_EQ(summary.positions, expected);
  EXPECT_EQ(summary.executed, (std::vector<InstrId>{Entry(main_, 0), Entry(main_, 1)}));
}

// Builds a sketch of `traces` through SummarizeAll, the batch path.
Result<FailureSketch> BuildFromRawTraces(const std::vector<RunTrace>& traces) {
  auto module = ParseModule("func main() {\nentry:\n  ret\n}\n");
  GIST_CHECK(module.ok());
  const BatchSummary batch = SummarizeAll(**module, traces, kDefaultBeta);
  return BuildFailureSketch({}, batch.failing, batch.behavior, batch.summaries);
}

TEST(SketchErrorsTest, NoFailingRunIsAnError) {
  RunTrace successful;
  successful.failed = false;
  EXPECT_FALSE(BuildFromRawTraces({successful}).ok());
}

TEST(SketchErrorsTest, EmptyTraceListIsAnError) {
  EXPECT_FALSE(BuildFromRawTraces({}).ok());
}

}  // namespace
}  // namespace gist
