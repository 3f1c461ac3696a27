// Unit-level contract of the deterministic hot-path profiler (DESIGN.md §10):
//   1. the JSON and collapsed-stack exports are byte-identical between the
//      pre-decoded fast path and the reference dispatch on every Table 1 app;
//   2. the per-block retired histogram accounts every retired instruction and
//      the edge profile every conditional branch;
//   3. DiffProfiles accepts byte-equal exports, flags drifted blocks, and
//      rejects malformed input — hostile nesting, overflowing counts and
//      mistyped names included — with an error instead of a crash;
//   4. PublishSummary mirrors the aggregate into the metrics registry.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/core/gist.h"
#include "src/obs/profiler.h"
#include "src/support/metrics.h"
#include "src/vm/vm.h"

namespace gist {
namespace {

// Finds a failing workload for `app` with cheap unmonitored probes (the
// fleet_obs_test probe stream), or fails the test.
bool FindFailingWorkload(const BugApp& app, FailureReport* report, Workload* workload) {
  for (uint64_t run = 0; run < 400; ++run) {
    Rng rng(0x9e3779b97f4a7c15ull ^ (run * 0x45d9f3b5ull));
    const Workload probe = app.MakeWorkload(run, rng);
    Vm vm(app.module(), probe, VmOptions{});
    const RunResult result = vm.Run();
    if (!result.ok() && result.failure.failing_instr != kNoInstr) {
      *report = result.failure;
      *workload = probe;
      return true;
    }
  }
  return false;
}

TEST(ProfilerTest, FastPathAndReferenceExportIdenticalProfilesOnAllApps) {
  // Block counts and watchpoint attribution do not depend on the dispatch
  // mode, so both exports must be byte-equal.
  for (const std::unique_ptr<BugApp>& app : MakeAllApps()) {
    SCOPED_TRACE(app->info().name);
    const Module& module = app->module();
    FailureReport first_failure;
    Workload failing_workload;
    ASSERT_TRUE(FindFailingWorkload(*app, &first_failure, &failing_workload))
        << "no failing workload among probes";

    GistOptions options;
    options.collect_profile = true;
    GistServer server(module, options);
    server.ReportFailure(first_failure);
    const PlanSnapshot snapshot = server.Snapshot();
    ASSERT_NE(snapshot.decoded(), nullptr);

    std::vector<Workload> workloads = {failing_workload};
    for (uint64_t run = 0; run < 2; ++run) {
      Rng rng(0x9e3779b97f4a7c15ull ^ (run * 0x45d9f3b5ull));
      workloads.push_back(app->MakeWorkload(run, rng));
    }

    HotPathProfiler fast;
    HotPathProfiler reference;
    fast.Attach(*snapshot.decoded(), app->info().name);
    reference.Attach(*snapshot.decoded(), app->info().name);
    // Each workload runs once on the pre-decoded fast path and once under
    // one-virtual-call-per-event reference dispatch.
    GistOptions reference_options = options;
    reference_options.tier = ExecTier::kReference;
    for (const Workload& workload : workloads) {
      const MonitoredRun fast_run = RunMonitored(module, snapshot, 0, workload, options);
      const MonitoredRun ref_run = RunMonitored(module, snapshot, 0, workload, reference_options);
      fast.AddRun(fast_run.profile, fast_run.obs);
      reference.AddRun(ref_run.profile, ref_run.obs);
    }
    EXPECT_GT(fast.totals().total_retired(), 0u);
    EXPECT_EQ(fast.ProfileJson(), reference.ProfileJson());
    EXPECT_EQ(fast.ProfileCollapsed(), reference.ProfileCollapsed());
  }
}

TEST(ProfilerTest, RetiredHistogramAccountsEveryInstruction) {
  // The per-block histogram is not a sample: summed over blocks it equals the
  // interpreter's retired-instruction count exactly, run by run.
  std::unique_ptr<BugApp> app = MakeAppByName("memcached");
  ASSERT_NE(app, nullptr);
  DecodedModule decoded(app->module());
  HotPathProfiler profiler;
  profiler.Attach(decoded, app->info().name);
  uint64_t steps = 0;
  uint64_t branches = 0;
  for (uint64_t run = 0; run < 4; ++run) {
    Rng rng(run + 1);
    const Workload workload = app->MakeWorkload(run, rng);
    BlockProfile shard;
    VmOptions options;
    options.decoded = &decoded;
    options.profile = &shard;
    Vm vm(app->module(), workload, options);
    const RunResult result = vm.Run();
    EXPECT_EQ(shard.total_retired(), result.stats.steps);
    steps += result.stats.steps;
    branches += result.stats.branches;
    profiler.AddRun(shard);
  }
  ASSERT_GT(steps, 0u);
  EXPECT_EQ(profiler.totals().total_retired(), steps);
  EXPECT_EQ(profiler.runs(), 4u);
  // Every conditional branch lands in exactly one of taken/not_taken.
  uint64_t edges = 0;
  for (size_t i = 0; i < profiler.totals().taken.size(); ++i) {
    edges += profiler.totals().taken[i] + profiler.totals().not_taken[i];
  }
  EXPECT_EQ(edges, branches);
  const std::string json = profiler.ProfileJson();
  EXPECT_NE(json.find("\"schema\": \"gist.profile.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"hot_chains\""), std::string::npos);
  const std::string collapsed = profiler.ProfileCollapsed();
  EXPECT_EQ(collapsed.compare(0, app->info().name.size() + 1, app->info().name + ";"), 0);
}

TEST(ProfilerTest, DiffAcceptsEqualProfilesAndFlagsDrift) {
  std::unique_ptr<BugApp> app = MakeAppByName("memcached");
  ASSERT_NE(app, nullptr);
  DecodedModule decoded(app->module());
  auto run_into = [&](HotPathProfiler& profiler, uint64_t runs) {
    profiler.Attach(decoded, app->info().name);
    for (uint64_t run = 0; run < runs; ++run) {
      Rng rng(run + 1);
      const Workload workload = app->MakeWorkload(run, rng);
      BlockProfile shard;
      VmOptions options;
      options.decoded = &decoded;
      options.profile = &shard;
      Vm vm(app->module(), workload, options);
      vm.Run();
      profiler.AddRun(shard);
    }
  };
  HotPathProfiler baseline;
  HotPathProfiler more_runs;
  run_into(baseline, 2);
  run_into(more_runs, 3);

  const ProfileDiffResult same = DiffProfiles(baseline.ProfileJson(), baseline.ProfileJson());
  EXPECT_TRUE(same.parsed);
  EXPECT_TRUE(same.ok) << same.report;

  const ProfileDiffResult drift = DiffProfiles(baseline.ProfileJson(), more_runs.ProfileJson());
  EXPECT_TRUE(drift.parsed);
  EXPECT_FALSE(drift.ok);
  EXPECT_NE(drift.report.find("regressed"), std::string::npos);

  // A generous drift allowance turns the same delta into a pass.
  ProfileDiffOptions loose;
  loose.max_drift_permille = 1000;
  const ProfileDiffResult tolerated =
      DiffProfiles(baseline.ProfileJson(), more_runs.ProfileJson(), loose);
  EXPECT_TRUE(tolerated.parsed);
  EXPECT_TRUE(tolerated.ok) << tolerated.report;

  const ProfileDiffResult garbage = DiffProfiles("not json at all", baseline.ProfileJson());
  EXPECT_FALSE(garbage.parsed);
  EXPECT_FALSE(garbage.ok);
  EXPECT_FALSE(garbage.error.empty());

  const ProfileDiffResult wrong_schema =
      DiffProfiles("{\"schema\": \"something.else\"}", baseline.ProfileJson());
  EXPECT_FALSE(wrong_schema.parsed);
  EXPECT_FALSE(wrong_schema.ok);
}

TEST(ProfilerTest, DiffRejectsDeepNestingOverflowAndMistypedNames) {
  auto profile = [](const std::string& block) {
    return "{\"schema\": \"gist.profile.v1\", \"totals\": {\"retired\": 5}, \"blocks\": [" +
           block + "]}";
  };
  const std::string good =
      profile("{\"function\": \"main\", \"block\": \"entry\", \"retired\": 5}");
  ASSERT_TRUE(DiffProfiles(good, good).parsed);

  // Drift must not wrap: 1 -> 18446744073709553 retired is a ~1.8e19-permille
  // regression, and `delta * 1000` in 64 bits would wrap it to 384.
  const std::string before = profile(
      "{\"function\": \"main\", \"block\": \"entry\", \"retired\": 1}, "
      "{\"function\": \"main\", \"block\": \"exit\", \"retired\": 4}");
  const std::string after = profile(
      "{\"function\": \"main\", \"block\": \"entry\", \"retired\": 18446744073709553}, "
      "{\"function\": \"main\", \"block\": \"exit\", \"retired\": 4}");
  ProfileDiffOptions lenient;
  lenient.max_drift_permille = 500;
  const ProfileDiffResult huge = DiffProfiles(before, after, lenient);
  EXPECT_TRUE(huge.parsed) << huge.error;
  EXPECT_FALSE(huge.ok) << huge.report;

  const std::string bad[] = {
      std::string(100000, '['),
      profile("{\"function\": \"main\", \"block\": \"entry\", \"retired\": 99999999999999999999}"),
      profile("{\"function\": \"main\", \"block\": \"entry\", \"retired\": -5}"),
      profile("{\"function\": 7, \"block\": \"entry\", \"retired\": 5}"),
      profile("{\"function\": \"main\", \"block\": null, \"retired\": 5}"),
      good.substr(0, good.size() - 1),
  };
  for (const std::string& json : bad) {
    for (const ProfileDiffResult& diff : {DiffProfiles(json, good), DiffProfiles(good, json)}) {
      EXPECT_FALSE(diff.parsed) << json.substr(0, 120);
      EXPECT_FALSE(diff.ok);
      EXPECT_FALSE(diff.error.empty());
    }
  }
}

TEST(ProfilerTest, PublishSummaryMirrorsAggregateIntoRegistry) {
  std::unique_ptr<BugApp> app = MakeAppByName("memcached");
  ASSERT_NE(app, nullptr);
  DecodedModule decoded(app->module());
  HotPathProfiler profiler;
  profiler.Attach(decoded, app->info().name);
  Rng rng(7);
  const Workload workload = app->MakeWorkload(0, rng);
  BlockProfile shard;
  VmOptions options;
  options.decoded = &decoded;
  options.profile = &shard;
  Vm vm(app->module(), workload, options);
  const RunResult result = vm.Run();
  profiler.AddRun(shard);

  MetricsRegistry metrics;
  profiler.PublishSummary(&metrics);
  EXPECT_EQ(metrics.counter("profile.runs"), profiler.runs());
  EXPECT_EQ(metrics.counter("profile.retired_total"), profiler.totals().total_retired());
  EXPECT_EQ(metrics.counter("profile.retired_total"), result.stats.steps);
}

}  // namespace
}  // namespace gist
