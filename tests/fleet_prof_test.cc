// Fleet-level determinism contract of the hot-path profiler (DESIGN.md §10):
//   1. the aggregated profile's JSON and collapsed-stack exports are
//      byte-identical for every worker count, with and without fault
//      injection — the coordinator folds only the consumed prefix of runs,
//      in run-index order, exactly like the flight recorder;
//   2. the profile is not a parallel bookkeeping world: its retired total
//      equals the recorder's vm.instructions_retired counter and its run
//      count the recorder's probe + consumed tallies.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/coop/fleet.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/profiler.h"

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

struct ProfiledFleet {
  FleetResult result;
  std::string profile_json;
  std::string profile_collapsed;
  uint64_t retired = 0;
  uint64_t runs = 0;
};

ProfiledFleet RunProfiledFleet(const BugApp& app, FleetOptions options) {
  HotPathProfiler profiler;
  options.profiler = &profiler;
  Fleet fleet(
      app.module(),
      [&app](uint64_t run_index, Rng& rng) { return app.MakeWorkload(run_index, rng); },
      options);
  const std::vector<InstrId>& root_cause = app.root_cause_instrs();
  ProfiledFleet profiled;
  profiled.result = fleet.Run([&](const FailureSketch& sketch) {
    return sketch.ContainsAll(root_cause);
  });
  profiled.profile_json = profiler.ProfileJson();
  profiled.profile_collapsed = profiler.ProfileCollapsed();
  profiled.retired = profiler.totals().total_retired();
  profiled.runs = profiler.runs();
  return profiled;
}

TEST(FleetProfTest, ExportsAreBitIdenticalAcrossWorkerCounts) {
  // The acceptance bar: --jobs must never change a bit of either export,
  // faults off and faults on.
  std::unique_ptr<BugApp> app = MakeAppByName("apache-2");
  ASSERT_NE(app, nullptr);
  for (const bool faulted : {false, true}) {
    FleetOptions base = BaseOptions(2015, /*jobs=*/1);
    if (faulted) {
      base.faults = ModerateFaults();
    }
    const ProfiledFleet sequential = RunProfiledFleet(*app, base);
    EXPECT_GT(sequential.retired, 0u);
    EXPECT_GT(sequential.runs, 0u);
    EXPECT_NE(sequential.profile_json.find("\"schema\": \"gist.profile.v1\""),
              std::string::npos);
    EXPECT_FALSE(sequential.profile_collapsed.empty());
    for (const uint32_t jobs : {2u, 8u}) {
      FleetOptions parallel = base;
      parallel.jobs = jobs;
      const ProfiledFleet other = RunProfiledFleet(*app, parallel);
      SCOPED_TRACE(std::string(faulted ? "faulted" : "healthy") + " jobs=" +
                   std::to_string(jobs));
      EXPECT_EQ(sequential.profile_json, other.profile_json);
      EXPECT_EQ(sequential.profile_collapsed, other.profile_collapsed);
      EXPECT_EQ(sequential.result.root_cause_found, other.result.root_cause_found);
    }
  }
}

TEST(FleetProfTest, ProfileAgreesWithRecorderCounters) {
  // Run recorder and profiler side by side under attrition: both account the
  // same consumed prefix, so their totals must match exactly — every probe
  // and every consumed monitored run (lost and quarantined included).
  std::unique_ptr<BugApp> app = MakeAppByName("apache-2");
  ASSERT_NE(app, nullptr);
  FlightRecorder recorder;
  HotPathProfiler profiler;
  FleetOptions options = BaseOptions(13, /*jobs=*/4);
  options.faults = ModerateFaults();
  options.recorder = &recorder;
  options.profiler = &profiler;
  Fleet fleet(
      app->module(),
      [&app](uint64_t run_index, Rng& rng) { return app->MakeWorkload(run_index, rng); },
      options);
  const std::vector<InstrId>& root_cause = app->root_cause_instrs();
  fleet.Run([&](const FailureSketch& sketch) { return sketch.ContainsAll(root_cause); });

  const MetricsRegistry& metrics = recorder.metrics();
  EXPECT_EQ(profiler.totals().total_retired(), metrics.counter("vm.instructions_retired"));
  EXPECT_EQ(profiler.runs(),
            metrics.counter("fleet.runs.probes") + metrics.counter("fleet.runs.consumed"));
  // PublishSummary ran on the coordinator: the recorder snapshot carries the
  // profile.* namespace.
  EXPECT_EQ(metrics.counter("profile.runs"), profiler.runs());
  EXPECT_EQ(metrics.counter("profile.retired_total"), profiler.totals().total_retired());
  EXPECT_NE(recorder.MetricsJson().find("profile.retired_total"), std::string::npos);
}

}  // namespace
}  // namespace gist
