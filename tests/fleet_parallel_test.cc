// The execution engine's determinism contract (DESIGN.md, "Execution
// engine"): a fleet's result is a pure function of (module, options,
// fleet_seed). Worker count must not leak into anything observable — not the
// sketch, not recurrence counts, not even the simulated clock — because every
// run's workload comes from its own DeriveSeed stream and traces merge in
// run-index order.

#include <gtest/gtest.h>

#include "src/apps/app.h"
#include "src/coop/fleet.h"

namespace gist {
namespace {

FleetResult RunFleet(const BugApp& app, uint64_t fleet_seed, uint32_t jobs) {
  FleetOptions options;
  options.runs_per_iteration = 400;
  options.max_iterations = 8;
  options.fleet_seed = fleet_seed;
  options.jobs = jobs;
  Fleet fleet(
      app.module(),
      [&app](uint64_t run_index, Rng& rng) { return app.MakeWorkload(run_index, rng); },
      options);
  const std::vector<InstrId>& root_cause = app.root_cause_instrs();
  return fleet.Run([&](const FailureSketch& sketch) {
    return sketch.ContainsAll(root_cause);
  });
}

void ExpectIdentical(const FleetResult& a, const FleetResult& b) {
  EXPECT_EQ(a.first_failure_found, b.first_failure_found);
  EXPECT_EQ(a.root_cause_found, b.root_cause_found);
  EXPECT_EQ(a.first_failure.failing_instr, b.first_failure.failing_instr);
  EXPECT_EQ(a.first_failure.MatchHash(), b.first_failure.MatchHash());
  EXPECT_EQ(a.failure_recurrences, b.failure_recurrences);
  EXPECT_EQ(a.sigma_final, b.sigma_final);
  // Bit-identical, not approximately equal: the merge order fixes the exact
  // sequence of floating-point additions.
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.avg_overhead_percent, b.avg_overhead_percent);

  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (size_t i = 0; i < a.iterations.size(); ++i) {
    const FleetIterationStats& ia = a.iterations[i];
    const FleetIterationStats& ib = b.iterations[i];
    EXPECT_EQ(ia.iteration, ib.iteration);
    EXPECT_EQ(ia.sigma, ib.sigma);
    EXPECT_EQ(ia.failing_runs, ib.failing_runs);
    EXPECT_EQ(ia.successful_runs, ib.successful_runs);
    EXPECT_EQ(ia.avg_overhead_percent, ib.avg_overhead_percent);
    EXPECT_EQ(ia.root_cause_found, ib.root_cause_found);
  }

  ASSERT_EQ(a.sketch.statements.size(), b.sketch.statements.size());
  for (size_t i = 0; i < a.sketch.statements.size(); ++i) {
    const SketchStatement& sa = a.sketch.statements[i];
    const SketchStatement& sb = b.sketch.statements[i];
    EXPECT_EQ(sa.instr, sb.instr);
    EXPECT_EQ(sa.tid, sb.tid);
    EXPECT_EQ(sa.step, sb.step);
    EXPECT_EQ(sa.value, sb.value);
    EXPECT_EQ(sa.is_failure_point, sb.is_failure_point);
    EXPECT_EQ(sa.highlighted, sb.highlighted);
    EXPECT_EQ(sa.discovered_at_runtime, sb.discovered_at_runtime);
  }
  EXPECT_EQ(a.sketch.threads, b.sketch.threads);
  EXPECT_EQ(a.sketch.failing_instr, b.sketch.failing_instr);
  EXPECT_EQ(a.sketch.failing_runs_used, b.sketch.failing_runs_used);
  EXPECT_EQ(a.sketch.successful_runs_used, b.sketch.successful_runs_used);
}

// apache-2 exercises mid-iteration refinement replans (the snapshot
// re-freeze path); transmission exercises the watchpoint rotation.
class FleetParallelTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FleetParallelTest, SequentialAndParallelResultsAreBitIdentical) {
  std::unique_ptr<BugApp> app = MakeAppByName(GetParam());
  ASSERT_NE(app, nullptr);
  for (uint64_t seed : {3u, 11u, 2015u}) {
    const FleetResult sequential = RunFleet(*app, seed, /*jobs=*/1);
    const FleetResult parallel = RunFleet(*app, seed, /*jobs=*/8);
    ASSERT_TRUE(sequential.first_failure_found) << "seed " << seed;
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectIdentical(sequential, parallel);
  }
}

TEST_P(FleetParallelTest, HardwareConcurrencyMatchesSequential) {
  std::unique_ptr<BugApp> app = MakeAppByName(GetParam());
  ASSERT_NE(app, nullptr);
  const FleetResult sequential = RunFleet(*app, 7, /*jobs=*/1);
  const FleetResult parallel = RunFleet(*app, 7, /*jobs=*/0);  // 0 = all cores
  ExpectIdentical(sequential, parallel);
}

INSTANTIATE_TEST_SUITE_P(Engine, FleetParallelTest,
                         ::testing::Values("apache-2", "transmission"));

}  // namespace
}  // namespace gist
