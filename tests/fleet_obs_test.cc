// Fleet-level determinism contract of the flight recorder (DESIGN.md §9):
//   1. the merged metrics snapshot AND the virtual-time span trace are
//      byte-identical for every worker count, with and without fault
//      injection — the recorder only accounts the consumed prefix of runs,
//      on the coordinator, in run-index order;
//   2. a run publishes byte-identical metrics under the fast-path
//      interpreter and the reference dispatch for every Table 1 app.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

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

struct RecordedFleet {
  FleetResult result;
  std::string metrics_json;
  std::string trace_json;
};

RecordedFleet RunRecordedFleet(const BugApp& app, FleetOptions options) {
  FlightRecorder recorder;
  options.recorder = &recorder;
  Fleet fleet(
      app.module(),
      [&app](uint64_t run_index, Rng& rng) { return app.MakeWorkload(run_index, rng); },
      options);
  const std::vector<InstrId>& root_cause = app.root_cause_instrs();
  RecordedFleet recorded;
  recorded.result = fleet.Run([&](const FailureSketch& sketch) {
    return sketch.ContainsAll(root_cause);
  });
  recorded.metrics_json = recorder.MetricsJson();
  recorded.trace_json = recorder.TraceJson();
  return recorded;
}

TEST(FleetObsTest, ArtifactsAreBitIdenticalAcrossWorkerCounts) {
  // The acceptance bar: --jobs must never change a bit of either export,
  // faults off and faults on.
  std::unique_ptr<BugApp> app = MakeAppByName("apache-2");
  ASSERT_NE(app, nullptr);
  for (const bool faulted : {false, true}) {
    FleetOptions base = BaseOptions(2015, /*jobs=*/1);
    if (faulted) {
      base.faults = ModerateFaults();
    }
    const RecordedFleet sequential = RunRecordedFleet(*app, base);
    EXPECT_FALSE(sequential.metrics_json.empty());
    EXPECT_FALSE(sequential.trace_json.empty());
    for (const uint32_t jobs : {2u, 8u}) {
      FleetOptions parallel = base;
      parallel.jobs = jobs;
      const RecordedFleet other = RunRecordedFleet(*app, parallel);
      SCOPED_TRACE(std::string(faulted ? "faulted" : "healthy") + " jobs=" +
                   std::to_string(jobs));
      EXPECT_EQ(sequential.metrics_json, other.metrics_json);
      EXPECT_EQ(sequential.trace_json, other.trace_json);
      EXPECT_EQ(sequential.result.root_cause_found, other.result.root_cause_found);
    }
  }
}

TEST(FleetObsTest, RegistryAgreesWithFleetResultTallies) {
  // The registry is not a parallel bookkeeping world: its fleet.* counters
  // must equal the FleetResult tallies the merge loop maintains.
  std::unique_ptr<BugApp> app = MakeAppByName("apache-2");
  ASSERT_NE(app, nullptr);
  FlightRecorder recorder;
  FleetOptions options = BaseOptions(13, /*jobs=*/4);
  options.faults = ModerateFaults();
  options.recorder = &recorder;
  Fleet fleet(
      app->module(),
      [&app](uint64_t run_index, Rng& rng) { return app->MakeWorkload(run_index, rng); },
      options);
  const std::vector<InstrId>& root_cause = app->root_cause_instrs();
  const FleetResult result = fleet.Run([&](const FailureSketch& sketch) {
    return sketch.ContainsAll(root_cause);
  });

  const MetricsRegistry& metrics = recorder.metrics();
  EXPECT_EQ(metrics.counter("fleet.runs.lost"), result.lost_runs);
  EXPECT_EQ(metrics.counter("fleet.runs.quarantined"), result.quarantined_runs);
  EXPECT_EQ(metrics.counter("fleet.retries"), result.retries);
  EXPECT_EQ(metrics.counter("fleet.iterations"), result.iterations.size());
  EXPECT_EQ(metrics.counter("server.failure_recurrences"), result.failure_recurrences);
  uint64_t failing = 0;
  uint64_t successful = 0;
  for (const FleetIterationStats& stats : result.iterations) {
    failing += stats.failing_runs;
    successful += stats.successful_runs;
  }
  EXPECT_EQ(metrics.counter("fleet.runs.failing"), failing);
  EXPECT_EQ(metrics.counter("fleet.runs.successful"), successful);
  // The virtual clock only moves forward through consumed work, and every
  // consumed monitored run leaves a span on the run lane.
  EXPECT_GT(recorder.now(), 0u);
  uint64_t run_spans = 0;
  for (const TraceSpan& span : recorder.spans()) {
    run_spans += span.name == "run" ? 1 : 0;
  }
  EXPECT_EQ(run_spans, metrics.counter("fleet.runs.consumed"));
}

// --- interpreter identity ---------------------------------------------------

TEST(FleetObsTest, FastPathAndReferencePublishIdenticalMetricsOnAllApps) {
  // Everything a run contributes to the merged snapshot — vm.*, pt.encode.*,
  // hw.watch.* — must be dispatch-mode independent, byte for byte.
  for (const std::unique_ptr<BugApp>& app : MakeAllApps()) {
    SCOPED_TRACE(app->info().name);
    const Module& module = app->module();

    // Find a failing workload with cheap unmonitored fast-path probes.
    bool have_failure = false;
    FailureReport first_failure;
    Workload failing_workload;
    for (uint64_t run = 0; run < 400 && !have_failure; ++run) {
      Rng rng(0x9e3779b97f4a7c15ull ^ (run * 0x45d9f3b5ull));
      const Workload workload = app->MakeWorkload(run, rng);
      Vm vm(module, workload, VmOptions{});
      const RunResult result = vm.Run();
      if (!result.ok() && result.failure.failing_instr != kNoInstr) {
        have_failure = true;
        first_failure = result.failure;
        failing_workload = workload;
      }
    }
    ASSERT_TRUE(have_failure) << "no failing workload among probes";

    GistOptions options;
    GistServer server(module, options);
    server.ReportFailure(first_failure);
    const PlanSnapshot snapshot = server.Snapshot();
    ASSERT_NE(snapshot.decoded(), nullptr);

    std::vector<Workload> workloads = {failing_workload};
    for (uint64_t run = 0; run < 2; ++run) {
      Rng rng(0x9e3779b97f4a7c15ull ^ (run * 0x45d9f3b5ull));
      workloads.push_back(app->MakeWorkload(run, rng));
    }

    // Each workload runs once on the pre-decoded fast path and once under
    // one-virtual-call-per-event reference dispatch.
    GistOptions reference = options;
    reference.tier = ExecTier::kReference;
    MetricsRegistry fast_metrics;
    MetricsRegistry ref_metrics;
    RunMetricsPublisher fast_publisher(&fast_metrics);
    RunMetricsPublisher ref_publisher(&ref_metrics);
    for (const Workload& workload : workloads) {
      fast_publisher.Publish(RunMonitored(module, snapshot, /*client_index=*/0, workload, options));
      ref_publisher.Publish(
          RunMonitored(module, snapshot, /*client_index=*/0, workload, reference));
    }
    EXPECT_EQ(fast_metrics.ToJson(), ref_metrics.ToJson());
    EXPECT_GT(fast_metrics.counter("vm.instructions_retired"), 0u);
    EXPECT_EQ(fast_metrics.counter("vm.instructions_retired"),
              ref_metrics.counter("vm.instructions_retired"));
  }
}

}  // namespace
}  // namespace gist
