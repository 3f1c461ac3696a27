// Fleet-level tier contract: the execution tier (GistOptions::tier) is a
// pure throughput knob. An all-reference-dispatch fleet must produce the same
// FleetResult and byte-identical metrics / trace / profile exports as an
// all-fast fleet, faults on and off, and a reference fleet must be
// byte-identical at every worker count. The TSan stage runs this suite too:
// every worker reads the server's shared DecodedModule concurrently.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/coop/fleet.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/profiler.h"
#include "src/vm/vm.h"

namespace gist {
namespace {

// Same moderate attrition profile as the chaos suite: every fault class
// fires, quorum holds.
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
  faults.wire_mtu_bytes = 512;
  return faults;
}

struct TieredFleet {
  FleetResult result;
  std::string metrics_json;
  std::string trace_json;
  std::string profile_json;
};

TieredFleet RunTieredFleet(const BugApp& app, uint64_t fleet_seed, uint32_t jobs,
                           ExecTier tier, bool faulted) {
  FlightRecorder recorder;
  HotPathProfiler profiler;
  FleetOptions options;
  options.runs_per_iteration = 400;
  options.max_iterations = 8;
  options.fleet_seed = fleet_seed;
  options.jobs = jobs;
  options.recorder = &recorder;
  options.profiler = &profiler;
  options.gist.tier = tier;
  if (faulted) {
    options.faults = ModerateFaults();
  }
  Fleet fleet(
      app.module(),
      [&app](uint64_t run_index, Rng& rng) { return app.MakeWorkload(run_index, rng); },
      options);
  const std::vector<InstrId>& root_cause = app.root_cause_instrs();
  TieredFleet tiered;
  tiered.result = fleet.Run([&](const FailureSketch& sketch) {
    return sketch.ContainsAll(root_cause);
  });
  tiered.metrics_json = recorder.MetricsJson();
  tiered.trace_json = recorder.TraceJson();
  tiered.profile_json = profiler.ProfileJson();
  return tiered;
}

void ExpectIdentical(const TieredFleet& a, const TieredFleet& b) {
  EXPECT_EQ(a.result.first_failure_found, b.result.first_failure_found);
  EXPECT_EQ(a.result.root_cause_found, b.result.root_cause_found);
  EXPECT_EQ(a.result.first_failure.failing_instr, b.result.first_failure.failing_instr);
  EXPECT_EQ(a.result.first_failure.MatchHash(), b.result.first_failure.MatchHash());
  EXPECT_EQ(a.result.failure_recurrences, b.result.failure_recurrences);
  EXPECT_EQ(a.result.sigma_final, b.result.sigma_final);
  EXPECT_EQ(a.result.sim_seconds, b.result.sim_seconds);
  EXPECT_EQ(a.result.avg_overhead_percent, b.result.avg_overhead_percent);
  ASSERT_EQ(a.result.sketch.statements.size(), b.result.sketch.statements.size());
  for (size_t i = 0; i < a.result.sketch.statements.size(); ++i) {
    const SketchStatement& sa = a.result.sketch.statements[i];
    const SketchStatement& sb = b.result.sketch.statements[i];
    EXPECT_EQ(sa.instr, sb.instr);
    EXPECT_EQ(sa.tid, sb.tid);
    EXPECT_EQ(sa.step, sb.step);
    EXPECT_EQ(sa.value, sb.value);
    EXPECT_EQ(sa.highlighted, sb.highlighted);
  }
  // Byte-identical exports, not field-wise similarity: any divergence in
  // counter values, span timing, or profile counts shows up here.
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.profile_json, b.profile_json);
}

// apache-2 exercises mid-iteration refinement replans; transmission the
// watchpoint rotation — both under both tiers.
class FleetTierTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FleetTierTest, AllRefFleetMatchesAllFastByteForByte) {
  std::unique_ptr<BugApp> app = MakeAppByName(GetParam());
  ASSERT_NE(app, nullptr);
  // Every namespace of the metrics export — vm.*, profile.*, pt.*, hw.*,
  // fleet.*, server.* — must match byte for byte, as must the span trace and
  // the profile export.
  for (const bool faulted : {false, true}) {
    SCOPED_TRACE(faulted ? "faulted" : "healthy");
    const TieredFleet all_fast =
        RunTieredFleet(*app, 2015, /*jobs=*/4, ExecTier::kFast, faulted);
    ASSERT_TRUE(all_fast.result.first_failure_found);
    const TieredFleet all_ref =
        RunTieredFleet(*app, 2015, /*jobs=*/4, ExecTier::kReference, faulted);
    ExpectIdentical(all_fast, all_ref);
  }
}

TEST_P(FleetTierTest, RefFleetIsWorkerCountInvariant) {
  std::unique_ptr<BugApp> app = MakeAppByName(GetParam());
  ASSERT_NE(app, nullptr);
  const TieredFleet sequential =
      RunTieredFleet(*app, 11, /*jobs=*/1, ExecTier::kReference, /*faulted=*/true);
  for (const uint32_t jobs : {2u, 8u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const TieredFleet parallel =
        RunTieredFleet(*app, 11, jobs, ExecTier::kReference, /*faulted=*/true);
    ExpectIdentical(sequential, parallel);
  }
}

INSTANTIATE_TEST_SUITE_P(Engine, FleetTierTest, ::testing::Values("apache-2", "transmission"));

}  // namespace
}  // namespace gist
