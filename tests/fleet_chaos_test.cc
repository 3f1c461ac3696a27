// Chaos contract of the fault-injection layer (DESIGN.md §8):
//   1. faults OFF and faults ON-at-rate-zero are byte-identical — the layer
//      is invisible until it injects;
//   2. an injected fleet is still a pure function of (module, options,
//      fleet_seed): bit-identical at every worker count;
//   3. sketch equivalence under quorum: any fault plan that leaves at least
//      the configured quorum of runs intact preserves the diagnosis — every
//      Table 1 app still produces a sketch containing its root cause;
//   4. when attrition breaks quorum, AsT holds σ instead of advancing.

#include <gtest/gtest.h>

#include <string>

#include "src/apps/app.h"
#include "src/coop/fleet.h"
#include "src/obs/flight_recorder.h"

namespace gist {
namespace {

FleetOptions BaseOptions(uint64_t fleet_seed, uint32_t jobs) {
  FleetOptions options;
  options.runs_per_iteration = 400;
  options.max_iterations = 8;
  options.fleet_seed = fleet_seed;
  options.jobs = jobs;
  return options;
}

// Moderate production attrition: every fault class fires, but well inside the
// 50% quorum — the regime the degradation machinery must shrug off.
FaultOptions ModerateFaults() {
  FaultOptions faults;
  faults.enabled = true;
  faults.kill_permille = 40;
  faults.truncate_pt_permille = 30;
  faults.corrupt_pt_permille = 30;
  faults.drop_wire_permille = 30;
  faults.reorder_wire_permille = 150;
  faults.exhaust_watchpoints_permille = 40;
  faults.delay_result_permille = 50;
  faults.wire_mtu_bytes = 512;  // small MTU: real multi-chunk uploads
  return faults;
}

FleetResult RunFleet(const BugApp& app, const FleetOptions& options,
                     FlightRecorder* recorder = nullptr) {
  FleetOptions fleet_options = options;
  fleet_options.recorder = recorder;
  Fleet fleet(
      app.module(),
      [&app](uint64_t run_index, Rng& rng) { return app.MakeWorkload(run_index, rng); },
      fleet_options);
  const std::vector<InstrId>& root_cause = app.root_cause_instrs();
  return fleet.Run([&](const FailureSketch& sketch) {
    return sketch.ContainsAll(root_cause);
  });
}

void ExpectIdentical(const FleetResult& a, const FleetResult& b) {
  EXPECT_EQ(a.first_failure_found, b.first_failure_found);
  EXPECT_EQ(a.root_cause_found, b.root_cause_found);
  EXPECT_EQ(a.first_failure.failing_instr, b.first_failure.failing_instr);
  EXPECT_EQ(a.failure_recurrences, b.failure_recurrences);
  EXPECT_EQ(a.sigma_final, b.sigma_final);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.avg_overhead_percent, b.avg_overhead_percent);
  EXPECT_EQ(a.lost_runs, b.lost_runs);
  EXPECT_EQ(a.quarantined_runs, b.quarantined_runs);
  EXPECT_EQ(a.retries, b.retries);

  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (size_t i = 0; i < a.iterations.size(); ++i) {
    const FleetIterationStats& ia = a.iterations[i];
    const FleetIterationStats& ib = b.iterations[i];
    EXPECT_EQ(ia.sigma, ib.sigma);
    EXPECT_EQ(ia.failing_runs, ib.failing_runs);
    EXPECT_EQ(ia.successful_runs, ib.successful_runs);
    EXPECT_EQ(ia.lost_runs, ib.lost_runs);
    EXPECT_EQ(ia.quarantined_runs, ib.quarantined_runs);
    EXPECT_EQ(ia.retries, ib.retries);
    EXPECT_EQ(ia.quorum_met, ib.quorum_met);
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
  }
  EXPECT_EQ(a.sketch.quarantined_traces, b.sketch.quarantined_traces);
}

TEST(FleetChaosTest, RateZeroFaultsAreByteIdenticalToDisabled) {
  // Enabling the layer without rates must not perturb a single bit: the fault
  // stream is salted away from the workload/pacing streams, and the healthy
  // transport path is the identity.
  for (const char* name : {"apache-2", "pbzip2"}) {
    std::unique_ptr<BugApp> app = MakeAppByName(name);
    ASSERT_NE(app, nullptr);
    FleetOptions off = BaseOptions(11, /*jobs=*/2);
    FleetOptions zero = off;
    zero.faults.enabled = true;  // all rates stay zero
    SCOPED_TRACE(name);
    ExpectIdentical(RunFleet(*app, off), RunFleet(*app, zero));
  }
}

TEST(FleetChaosTest, FaultedFleetIsBitIdenticalAcrossWorkerCounts) {
  for (const char* name : {"apache-2", "transmission"}) {
    std::unique_ptr<BugApp> app = MakeAppByName(name);
    ASSERT_NE(app, nullptr);
    FleetOptions sequential = BaseOptions(2015, /*jobs=*/1);
    sequential.faults = ModerateFaults();
    FleetOptions parallel = BaseOptions(2015, /*jobs=*/8);
    parallel.faults = ModerateFaults();
    SCOPED_TRACE(name);
    FlightRecorder seq_recorder;
    FlightRecorder par_recorder;
    ExpectIdentical(RunFleet(*app, sequential, &seq_recorder),
                    RunFleet(*app, parallel, &par_recorder));
    // Determinism extends to the flight recorder: the merged metrics snapshot
    // and the virtual-time trace must be the same bytes under faults, too.
    EXPECT_EQ(seq_recorder.MetricsJson(), par_recorder.MetricsJson());
    EXPECT_EQ(seq_recorder.TraceJson(), par_recorder.TraceJson());
  }
}

TEST(FleetChaosTest, AllAppsSurviveQuorumPreservingFaults) {
  // The §8 invariant: under any fault plan that keeps a quorum of runs
  // intact, the sketch still contains the root cause for every Table 1 app.
  for (const std::unique_ptr<BugApp>& app : MakeAllApps()) {
    FleetOptions options = BaseOptions(7, /*jobs=*/0);
    options.faults = ModerateFaults();
    const FleetResult result = RunFleet(*app, options);
    SCOPED_TRACE(app->info().name);
    ASSERT_TRUE(result.first_failure_found);
    EXPECT_TRUE(result.root_cause_found);
    for (InstrId id : app->root_cause_instrs()) {
      EXPECT_TRUE(result.sketch.Contains(id)) << "missing root-cause instr " << id;
    }
    for (const FleetIterationStats& stats : result.iterations) {
      EXPECT_TRUE(stats.quorum_met);
    }
  }
}

TEST(FleetChaosTest, FaultsActuallyFireAndAreAccounted) {
  // Sanity against a silently disabled layer: at moderate rates across the
  // whole fleet, some runs must be lost and retried somewhere. The tallies
  // live in the flight recorder's registry (the single accounting surface,
  // DESIGN.md §9); per-fleet they must agree with the FleetResult totals.
  MetricsRegistry totals;
  for (const char* name : {"apache-2", "pbzip2", "memcached"}) {
    std::unique_ptr<BugApp> app = MakeAppByName(name);
    ASSERT_NE(app, nullptr);
    FleetOptions options = BaseOptions(13, /*jobs=*/4);
    options.faults = ModerateFaults();
    FlightRecorder recorder;
    const FleetResult result = RunFleet(*app, options, &recorder);
    SCOPED_TRACE(name);
    EXPECT_EQ(recorder.metrics().counter("fleet.runs.lost"), result.lost_runs);
    EXPECT_EQ(recorder.metrics().counter("fleet.runs.quarantined"), result.quarantined_runs);
    EXPECT_EQ(recorder.metrics().counter("fleet.retries"), result.retries);
    totals.Merge(recorder.metrics());
  }
  EXPECT_GT(totals.counter("fleet.runs.lost"), 0u);
  EXPECT_GT(totals.counter("fleet.retries"), 0u);
  // Every configured fault class must actually land somewhere in the sweep.
  for (const char* fault_class :
       {"kill", "truncate_pt", "corrupt_pt", "drop_wire", "reorder_wire",
        "exhaust_watchpoints", "delay_result"}) {
    EXPECT_GT(totals.counter(std::string("fleet.faults.injected.") + fault_class), 0u)
        << fault_class << " never fired";
  }
  EXPECT_GT(totals.counter("fleet.faults.survived"), 0u);
}

TEST(FleetChaosTest, BrokenQuorumHoldsSigma) {
  // Losses heavy enough to break the 50% quorum: whenever an iteration saw
  // new recurrences but failed quorum, the next iteration must re-monitor at
  // the SAME σ (AsT held), and heavy attrition must show up as lost runs.
  std::unique_ptr<BugApp> app = MakeAppByName("apache-2");
  ASSERT_NE(app, nullptr);
  FleetOptions options = BaseOptions(5, /*jobs=*/4);
  options.faults.enabled = true;
  options.faults.kill_permille = 700;
  // Kill on the very first step so every planned kill actually lands inside
  // the run, whatever its length.
  options.faults.min_kill_steps = 1;
  options.faults.max_kill_steps = 1;
  const FleetResult result = RunFleet(*app, options);
  ASSERT_TRUE(result.first_failure_found);
  EXPECT_GT(result.lost_runs, 0u);
  for (size_t i = 0; i + 1 < result.iterations.size(); ++i) {
    if (!result.iterations[i].quorum_met) {
      EXPECT_EQ(result.iterations[i + 1].sigma, result.iterations[i].sigma)
          << "AsT advanced past a broken quorum at iteration " << i;
    }
  }
}

}  // namespace
}  // namespace gist
