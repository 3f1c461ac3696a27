// Per-app validation: every reproduced bug builds a verifiable module, shows
// both failing and successful production runs, and is diagnosable end-to-end
// by the cooperative fleet (sketch covering the known root cause).

#include <gtest/gtest.h>

#include <set>

#include "src/apps/app.h"
#include "src/coop/fleet.h"
#include "src/ir/parser.h"
#include "src/ir/verifier.h"

namespace gist {
namespace {

class AppSweep : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    app_ = MakeAppByName(GetParam());
    ASSERT_NE(app_, nullptr) << "unknown app " << GetParam();
  }

  std::unique_ptr<BugApp> app_;
};

TEST_P(AppSweep, ModuleVerifies) {
  EXPECT_TRUE(VerifyModule(app_->module()).ok());
}

TEST_P(AppSweep, MetadataPopulated) {
  const BugInfo& info = app_->info();
  EXPECT_FALSE(info.name.empty());
  EXPECT_FALSE(info.software.empty());
  EXPECT_FALSE(info.kind.empty());
  EXPECT_GT(info.original_loc, 0u);
  EXPECT_FALSE(app_->ideal_sketch().instrs.empty());
  EXPECT_FALSE(app_->root_cause_instrs().empty());
}

TEST_P(AppSweep, RootCauseIsSubsetOfIdeal) {
  const std::set<InstrId> ideal(app_->ideal_sketch().instrs.begin(),
                                app_->ideal_sketch().instrs.end());
  for (InstrId id : app_->root_cause_instrs()) {
    EXPECT_TRUE(ideal.count(id)) << "root-cause instr " << id << " missing from ideal sketch";
  }
}

TEST_P(AppSweep, IdealInstrsAreValid) {
  for (InstrId id : app_->ideal_sketch().instrs) {
    ASSERT_LT(id, app_->module().num_instructions());
  }
  for (InstrId id : app_->ideal_sketch().access_order) {
    EXPECT_TRUE(app_->module().instr(id).IsSharedAccess())
        << "access-order entry " << id << " is not a load/store";
  }
}

TEST_P(AppSweep, WorkloadsProduceBothOutcomes) {
  Rng rng(2024);
  int failing = 0;
  int successful = 0;
  for (uint64_t run = 0; run < 300 && (failing == 0 || successful == 0); ++run) {
    const Workload workload = app_->MakeWorkload(run, rng);
    Vm vm(app_->module(), workload, VmOptions{});
    const RunResult result = vm.Run();
    if (result.ok()) {
      ++successful;
    } else {
      ++failing;
      EXPECT_NE(result.failure.failing_instr, kNoInstr);
    }
  }
  EXPECT_GT(failing, 0) << app_->info().name << ": bug never manifested";
  EXPECT_GT(successful, 0) << app_->info().name << ": bug manifested always";
}

TEST_P(AppSweep, WorkloadsAreDeterministic) {
  Rng rng1(7);
  Rng rng2(7);
  for (uint64_t run = 0; run < 10; ++run) {
    const Workload a = app_->MakeWorkload(run, rng1);
    const Workload b = app_->MakeWorkload(run, rng2);
    EXPECT_EQ(a.schedule_seed, b.schedule_seed);
    EXPECT_EQ(a.inputs, b.inputs);
  }
}

TEST_P(AppSweep, FleetDiagnosesRootCause) {
  FleetOptions options;
  options.runs_per_iteration = 400;
  options.max_iterations = 8;
  options.fleet_seed = 11;
  Fleet fleet(
      app_->module(),
      [this](uint64_t run_index, Rng& rng) { return app_->MakeWorkload(run_index, rng); },
      options);

  const std::vector<InstrId>& root_cause = app_->root_cause_instrs();
  FleetResult result = fleet.Run([&](const FailureSketch& sketch) {
    return sketch.ContainsAll(root_cause);
  });

  ASSERT_TRUE(result.first_failure_found) << app_->info().name;
  EXPECT_TRUE(result.root_cause_found)
      << app_->info().name << ": sketch missed the root cause after "
      << result.iterations.size() << " AsT iterations (sigma " << result.sigma_final << ")";
  EXPECT_GT(result.failure_recurrences, 0u);
  EXPECT_FALSE(result.sketch.statements.empty());
  EXPECT_TRUE(result.sketch.statements.back().is_failure_point);
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppSweep,
                         ::testing::Values("apache-1", "apache-2", "apache-3", "apache-4",
                                           "cppcheck-1", "cppcheck-2", "curl", "transmission",
                                           "sqlite", "memcached", "pbzip2"));

TEST_P(AppSweep, ModulePrintsAndReparses) {
  // The textual printer round-trips every app module: same shape, verified,
  // and a second print is a fixpoint. This stress-tests the parser/printer
  // pair on the largest real modules in the repository.
  const std::string printed = app_->module().ToString();
  auto reparsed = ParseModule(printed);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().message();
  EXPECT_EQ((*reparsed)->num_functions(), app_->module().num_functions());
  EXPECT_EQ((*reparsed)->num_globals(), app_->module().num_globals());
  EXPECT_EQ((*reparsed)->num_instructions(), app_->module().num_instructions());
  EXPECT_TRUE(VerifyModule(**reparsed).ok());
  EXPECT_EQ((*reparsed)->ToString(), printed);
}

TEST_P(AppSweep, ReparsedModuleBehavesIdentically) {
  auto reparsed = ParseModule(app_->module().ToString());
  ASSERT_TRUE(reparsed.ok());
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    const Workload workload = app_->MakeWorkload(static_cast<uint64_t>(i), rng);
    Vm original(app_->module(), workload, VmOptions{});
    Vm clone(**reparsed, workload, VmOptions{});
    const RunResult a = original.Run();
    const RunResult b = clone.Run();
    EXPECT_EQ(a.ok(), b.ok());
    EXPECT_EQ(a.outputs, b.outputs);
    if (!a.ok() && !b.ok()) {
      // Instruction ids renumber across a print/reparse round trip (text is
      // in block order, the builder emitted in insertion order), so compare
      // the failing statement by opcode + source position instead.
      EXPECT_EQ(a.failure.type, b.failure.type);
      const Instruction& fa = app_->module().instr(a.failure.failing_instr);
      const Instruction& fb = (*reparsed)->instr(b.failure.failing_instr);
      EXPECT_EQ(fa.op, fb.op);
      EXPECT_EQ(fa.loc.function, fb.loc.function);
    }
  }
}

TEST(AppsRegistryTest, AllAppsPresent) {
  auto apps = MakeAllApps();
  EXPECT_EQ(apps.size(), 11u);
  std::set<std::string> names;
  for (const auto& app : apps) {
    names.insert(app->info().name);
  }
  EXPECT_EQ(names.size(), 11u);
}

TEST(AppsRegistryTest, UnknownNameReturnsNull) {
  EXPECT_EQ(MakeAppByName("no-such-bug"), nullptr);
}

}  // namespace
}  // namespace gist
