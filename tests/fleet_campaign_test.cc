// Campaign-observatory determinism contract (DESIGN.md §14):
//   1. the gist.campaign.v1 journal is byte-identical for every worker
//      count and execution tier, chaos on or off — the tracker
//      only sees coordinator-merged, run-index-ordered state;
//   2. the streaming (incremental) BehaviorStats aggregation is byte-
//      identical to a batch recompute over the stored traces, on every
//      bundled app and on a synthesized corpus subset — checked both by
//      shadow mode (the in-build CHECK) and by direct fingerprint equality;
//   3. sketch builds read no PT: the server's trace summaries alone rebuild
//      the final sketch from traces whose PT buffers were cleared, byte-equal
//      to the served and the batch-decoded sketch;
//   4. the journal reads back: ParseCampaignJournal recovers every rendered
//      field of a real journal and rejects every strict prefix of it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/coop/fleet.h"
#include "src/corpus/corpus.h"
#include "src/corpus/score.h"
#include "src/obs/campaign.h"

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

struct CampaignFleet {
  FleetResult result;
  std::string journal;
  std::string sketch_render;
  std::string behavior_fingerprint;
  std::string batch_fingerprint;
  std::string served_render;
  std::string summary_render;
  std::string batch_render;
};

// Rebuilds the server's final sketch three ways into `out`: as served, from
// the server's summaries and streaming statistics over copies of the traces
// with every PT buffer cleared (so no decode can contribute), and from
// SummarizeAll's batch recompute over the full buffers, which bypasses the
// server's streaming state entirely. Also fingerprints that batch recompute.
void RebuildFinalSketch(const Module& module, const GistServer& server, const std::string& title,
                        CampaignFleet* out) {
  Result<FailureSketch> served = server.BuildSketch();
  if (served.ok()) {
    out->served_render = RenderFailureSketch(module, *served);
  }
  SketchOptions options;
  options.title = title;
  options.discovered = &server.discovered_instrs();
  options.quarantined = server.quarantined_traces();
  std::vector<RunTrace> stripped = server.traces();
  for (RunTrace& trace : stripped) {
    for (std::vector<uint8_t>& buffer : trace.pt_buffers) {
      buffer.clear();
    }
  }
  Result<FailureSketch> from_summaries = BuildFailureSketch(
      server.plan().window, stripped, server.behavior(), server.failure_summaries(), options);
  if (from_summaries.ok()) {
    out->summary_render = RenderFailureSketch(module, *from_summaries);
  }
  const BatchSummary batch = SummarizeAll(module, server.traces(), kDefaultBeta);
  out->batch_fingerprint = batch.behavior.Fingerprint();
  options.quarantined += batch.undecodable;
  Result<FailureSketch> rebuilt = BuildFailureSketch(server.plan().window, batch.failing,
                                                     batch.behavior, batch.summaries, options);
  if (rebuilt.ok()) {
    out->batch_render = RenderFailureSketch(module, *rebuilt);
  }
}

CampaignFleet RunCampaignFleet(const BugApp& app, FleetOptions options) {
  CampaignTracker tracker(app.info().name);
  options.campaign = &tracker;
  options.gist.title = app.info().name;
  Fleet fleet(
      app.module(),
      [&app](uint64_t run_index, Rng& rng) { return app.MakeWorkload(run_index, rng); },
      options);
  const std::vector<InstrId>& root_cause = app.root_cause_instrs();
  CampaignFleet out;
  out.result = fleet.Run([&](const FailureSketch& sketch) {
    return sketch.ContainsAll(root_cause);
  });
  out.journal = tracker.JournalJson();
  out.sketch_render = RenderFailureSketch(app.module(), out.result.sketch);
  out.behavior_fingerprint = fleet.server().behavior().Fingerprint();

  // Batch recompute, bypassing the server's streaming aggregation entirely.
  // Must agree with the incremental result byte for byte.
  RebuildFinalSketch(app.module(), fleet.server(), app.info().name, &out);
  return out;
}

TEST(FleetCampaignTest, JournalBitIdenticalAcrossJobsAndTiers) {
  std::unique_ptr<BugApp> app = MakeAppByName("apache-2");
  ASSERT_NE(app, nullptr);
  for (const bool faulted : {false, true}) {
    SCOPED_TRACE(faulted ? "chaos on" : "chaos off");
    FleetOptions base = BaseOptions(2015, /*jobs=*/1);
    if (faulted) {
      base.faults = ModerateFaults();
    }
    const CampaignFleet sequential = RunCampaignFleet(*app, base);
    ASSERT_FALSE(sequential.journal.empty());
    EXPECT_NE(sequential.journal.find("\"schema\": \"gist.campaign.v1\""), std::string::npos);

    for (const uint32_t jobs : {2u, 8u}) {
      for (const ExecTier tier : {ExecTier::kFast, ExecTier::kReference}) {
        FleetOptions variant = base;
        variant.jobs = jobs;
        variant.gist.tier = tier;
        SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                     " tier=" + std::to_string(static_cast<int>(tier)));
        const CampaignFleet other = RunCampaignFleet(*app, variant);
        EXPECT_EQ(sequential.journal, other.journal);
        EXPECT_EQ(sequential.sketch_render, other.sketch_render);
      }
    }
  }
}

TEST(FleetCampaignTest, JournalCarriesConvergenceSignals) {
  std::unique_ptr<BugApp> app = MakeAppByName("apache-2");
  ASSERT_NE(app, nullptr);
  CampaignTracker tracker(app->info().name);
  FleetOptions options = BaseOptions(2015, /*jobs=*/2);
  options.campaign = &tracker;
  Fleet fleet(
      app->module(),
      [&app](uint64_t run_index, Rng& rng) { return app->MakeWorkload(run_index, rng); },
      options);
  const std::vector<InstrId>& root_cause = app->root_cause_instrs();
  const FleetResult result = fleet.Run([&](const FailureSketch& sketch) {
    return sketch.ContainsAll(root_cause);
  });
  ASSERT_TRUE(result.root_cause_found);
  ASSERT_EQ(tracker.iterations(), result.iterations.size());
  EXPECT_GT(tracker.now(), 0u);
  EXPECT_EQ(tracker.trend(), "converged");
  EXPECT_EQ(tracker.eta_bucket(), "done");
  const CampaignTracker::Record& last = tracker.records().back();
  EXPECT_TRUE(last.sample.root_cause_found);
  EXPECT_FALSE(last.sample.sketch_statements.empty());
  EXPECT_FALSE(last.sample.top_predictors.empty());
  EXPECT_GT(last.runs_consumed, 0u);
  // Virtual clocks are cumulative and monotone across iterations.
  uint64_t previous_end = 0;
  for (const CampaignTracker::Record& record : tracker.records()) {
    EXPECT_GE(record.sample.virtual_end, previous_end);
    previous_end = record.sample.virtual_end;
  }
  const std::string journal = tracker.JournalJson();
  EXPECT_NE(journal.find("\"trend\": \"converged\""), std::string::npos);
  EXPECT_NE(journal.find("\"eta_bucket\": \"done\""), std::string::npos);
}

TEST(FleetCampaignTest, JournalReaderRoundTripsAndRejectsEveryPrefix) {
  // The journal `gist diagnose-app sqlite --fleet-seed 3 --campaign-json` writes.
  std::unique_ptr<BugApp> app = MakeAppByName("sqlite");
  ASSERT_NE(app, nullptr);
  CampaignTracker tracker(app->info().name);
  FleetOptions options;
  options.fleet_seed = 3;
  options.gist.title = app->info().name;
  options.campaign = &tracker;
  Fleet fleet(
      app->module(),
      [&app](uint64_t run_index, Rng& rng) { return app->MakeWorkload(run_index, rng); },
      options);
  const std::vector<InstrId>& root_cause = app->root_cause_instrs();
  fleet.Run([&](const FailureSketch& sketch) { return sketch.ContainsAll(root_cause); });
  ASSERT_GT(tracker.iterations(), 0u);
  const std::string text = tracker.JournalJson();

  const Result<JsonValue> journal = ParseCampaignJournal(text);
  ASSERT_TRUE(journal.ok()) << journal.error().message();
  EXPECT_EQ(*(*journal)["title"].AsString(), tracker.title());
  const std::vector<JsonValue>& rows = (*journal)["iterations"].items;
  ASSERT_EQ(rows.size(), tracker.iterations());
  uint64_t runs_consumed = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const CampaignTracker::Record& record = tracker.records()[i];
    const JsonValue& row = rows[i];
    EXPECT_EQ(row["iteration"].AsU64(), record.sample.iteration);
    EXPECT_EQ(row["sigma"].AsU64(), record.sample.sigma);
    EXPECT_EQ(row["virtual_end"].AsU64(), record.sample.virtual_end);
    EXPECT_EQ(row["runs_consumed"].AsU64(), record.runs_consumed);
    EXPECT_EQ(row["failing"].AsU64(), record.sample.failing_runs);
    EXPECT_EQ(row["successful"].AsU64(), record.sample.successful_runs);
    EXPECT_EQ(row["lost"].AsU64(), record.sample.lost_runs);
    EXPECT_EQ(row["quarantined"].AsU64(), record.sample.quarantined_runs);
    EXPECT_EQ(row["sketch_statements"].AsU64(), record.sample.sketch_statements.size());
    EXPECT_EQ(row["sketch_edit_distance"].AsU64(), record.sketch_edit_distance);
    EXPECT_EQ(row["predictor_rank_churn"].AsU64(), record.predictor_rank_churn);
    EXPECT_EQ(row["watch_coverage_permille"].AsU64(), record.watch_coverage_permille);
    EXPECT_EQ(row["survivor_permille"].AsU64(), record.survivor_permille);
    ASSERT_FALSE(record.sample.top_predictors.empty());
    // Predictor text quotes source lines, so this exercises the escaper too.
    EXPECT_EQ(*row["top_predictor"].AsString(), record.sample.top_predictors.front());
    runs_consumed += record.runs_consumed;
  }
  const CampaignIterationSample& last = tracker.records().back().sample;
  const JsonValue& status = (*journal)["status"];
  EXPECT_EQ(status["iterations"].AsU64(), tracker.iterations());
  EXPECT_EQ(status["sigma"].AsU64(), last.sigma);
  EXPECT_EQ(status["virtual_now"].AsU64(), tracker.now());
  EXPECT_EQ(status["runs_consumed"].AsU64(), runs_consumed);
  EXPECT_EQ(status["recurrences"].AsU64(), last.recurrences);
  EXPECT_EQ(status["root_cause_found"].AsU64(), last.root_cause_found ? 1u : 0u);
  EXPECT_EQ(status["slice_statements"].AsU64(), last.slice_statements);
  EXPECT_EQ(status["window_statements"].AsU64(), last.window_statements);
  EXPECT_EQ(status["slice_exhausted"].AsU64(), last.slice_exhausted ? 1u : 0u);
  EXPECT_EQ(*status["trend"].AsString(), tracker.trend());
  EXPECT_EQ(*status["eta_bucket"].AsString(), tracker.eta_bucket());

  // Every prefix that cuts into the document is rejected; only the trailing
  // newline after the closing brace is optional.
  const size_t close = text.find_last_of('}');
  ASSERT_TRUE(ParseCampaignJournal(std::string_view(text).substr(0, close + 1)).ok());
  for (size_t length = 0; length <= close; ++length) {
    EXPECT_FALSE(ParseCampaignJournal(std::string_view(text).substr(0, length)).ok())
        << "accepted a " << length << "-byte prefix";
  }
  // A wrong schema tag, or a field of the wrong kind, is an error too.
  std::string other_schema = text;
  other_schema.replace(other_schema.find("gist.campaign.v1"), 16, "gist.campaign.v2");
  EXPECT_FALSE(ParseCampaignJournal(other_schema).ok());
  std::string mistyped = text;
  const size_t sigma = mistyped.find("\"sigma\": ") + 9;
  mistyped.insert(sigma, "-");
  const Result<JsonValue> bad = ParseCampaignJournal(mistyped);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().message().find("sigma"), std::string::npos) << bad.error().message();
}

TEST(FleetCampaignTest, IncrementalMatchesBatchOnAllApps) {
  // Shadow mode re-runs the batch aggregation inside every sketch build and
  // CHECK-fails on any divergence; on top of that, compare the streaming
  // fingerprint and final sketch against an out-of-band batch rebuild.
  for (const auto& app : MakeAllApps()) {
    SCOPED_TRACE(app->info().name);
    FleetOptions options = BaseOptions(7, /*jobs=*/4);
    options.gist.stats_shadow = true;
    const CampaignFleet fleet = RunCampaignFleet(*app, options);
    if (!fleet.result.first_failure_found) {
      continue;  // nothing aggregated; nothing to compare
    }
    EXPECT_EQ(fleet.behavior_fingerprint, fleet.batch_fingerprint);
    EXPECT_EQ(fleet.sketch_render, fleet.batch_render);
    EXPECT_EQ(fleet.served_render, fleet.batch_render);
    EXPECT_EQ(fleet.summary_render, fleet.batch_render);
  }
}

TEST(FleetCampaignTest, IncrementalMatchesBatchUnderChaos) {
  // Retries and duplicate wire deliveries must not double-count runs: the
  // run-identity dedup keeps the incremental aggregation equal to the batch
  // replay even under the full fault regime.
  std::unique_ptr<BugApp> app = MakeAppByName("apache-2");
  ASSERT_NE(app, nullptr);
  FleetOptions options = BaseOptions(2015, /*jobs=*/8);
  options.faults = ModerateFaults();
  options.gist.stats_shadow = true;
  const CampaignFleet fleet = RunCampaignFleet(*app, options);
  ASSERT_TRUE(fleet.result.first_failure_found);
  EXPECT_EQ(fleet.behavior_fingerprint, fleet.batch_fingerprint);
  EXPECT_EQ(fleet.sketch_render, fleet.batch_render);
}

TEST(FleetCampaignTest, CorpusSubsetShadowIdenticalAcrossJobs) {
  // A 20-program synthesized subset under shadow mode (via the environment
  // knob, the way CI turns it on), scored at two worker counts: every fleet's
  // incremental aggregation must match its batch recompute, and the corpus
  // report must stay byte-identical across jobs.
  CorpusOptions gen;
  gen.seed = 2015;
  gen.count = 20;
  const std::vector<GeneratedProgram> programs = GenerateCorpus(gen);
  ASSERT_EQ(programs.size(), 20u);
  ASSERT_EQ(setenv("GIST_STATS_SHADOW", "1", /*overwrite=*/1), 0);
  CorpusScoreOptions options;
  options.jobs = 1;
  options.runs_per_iteration = 200;
  options.max_iterations = 4;
  const CorpusScore sequential = ScoreCorpus(programs, options);
  options.jobs = 4;
  const CorpusScore parallel = ScoreCorpus(programs, options);
  ASSERT_EQ(unsetenv("GIST_STATS_SHADOW"), 0);
  EXPECT_EQ(sequential.ReportJson(), parallel.ReportJson());
}

TEST(FleetCampaignTest, SummariesRebuildSketchWithoutPtOnCorpusSubset) {
  // Two programs of every family, double-free and deadlock included: the
  // families with the most recurrences, so the most stored failing traces.
  CorpusOptions gen;
  gen.seed = 2015;
  gen.count = 2 * kNumBugFamilies;
  const std::vector<GeneratedProgram> programs = GenerateCorpus(gen);
  for (const GeneratedProgram& program : programs) {
    const CorpusManifest& manifest = program.manifest;
    SCOPED_TRACE(manifest.name);
    FleetOptions options = BaseOptions(DeriveSeed(2015, program.index), /*jobs=*/2);
    options.runs_per_iteration = 200;
    options.max_iterations = 4;
    options.gist.title = manifest.name;
    Fleet fleet(
        *program.module,
        [&manifest](uint64_t run_index, Rng& rng) {
          return CorpusWorkload(manifest, run_index, rng);
        },
        options);
    const FleetResult result = fleet.Run([&manifest](const FailureSketch& sketch) {
      return sketch.ContainsAll(manifest.root_cause);
    });
    ASSERT_TRUE(result.first_failure_found);
    CampaignFleet out;
    RebuildFinalSketch(*program.module, fleet.server(), manifest.name, &out);
    ASSERT_FALSE(out.served_render.empty());
    EXPECT_EQ(out.summary_render, out.served_render);
    EXPECT_EQ(out.summary_render, out.batch_render);
  }
}

}  // namespace
}  // namespace gist
