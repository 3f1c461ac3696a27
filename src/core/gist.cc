#include "src/core/gist.h"

#include <algorithm>
#include <cstdlib>

#include "src/pt/decoder.h"

namespace gist {
namespace {

bool StatsShadowFromEnv() {
  const char* env = std::getenv("GIST_STATS_SHADOW");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

}  // namespace

GistServer::IngestSlots::IngestSlots(MetricsRegistry* metrics)
    : decode_packets(metrics->CounterSlot("pt.decode.packets")),
      decode_bytes(metrics->CounterSlot("pt.decode.bytes")),
      decode_tnt_bits(metrics->CounterSlot("pt.decode.tnt_bits")),
      rejected_foreign(metrics->CounterSlot("server.traces.rejected_foreign")),
      quarantined(metrics->CounterSlot("server.traces.quarantined")),
      accepted(metrics->CounterSlot("server.traces.accepted")),
      recurrences(metrics->CounterSlot("server.failure_recurrences")),
      upload_bytes(metrics->HistogramSlot("pt.upload_bytes")) {
  for (size_t fault = 0; fault < kNumPtDecodeFaults; ++fault) {
    decode_errors[fault] = metrics->CounterSlot(
        std::string("pt.decode.errors.") + PtDecodeFaultKey(static_cast<PtDecodeFault>(fault)));
  }
}

GistServer::GistServer(const Module& module, GistOptions options)
    : module_(module),
      options_(std::move(options)),
      ticfg_(std::make_shared<const Ticfg>(module)),
      decoded_(std::make_shared<const DecodedModule>(module)),
      behavior_(options_.beta),
      stats_shadow_(options_.stats_shadow || StatsShadowFromEnv()),
      ingest_(&metrics_) {}

void GistServer::ReportFailure(const FailureReport& report) {
  GIST_CHECK_NE(report.failing_instr, kNoInstr) << "failure report lacks a failing statement";
  has_target_ = true;
  target_hash_ = report.MatchHash();
  slice_ = ComputeBackwardSlice(*ticfg_, report.failing_instr);
  ast_ = std::make_unique<AstController>(slice_, options_.initial_sigma, options_.ast_growth);
  traces_.clear();
  failure_summaries_.clear();
  behavior_.Reset();
  discovered_.clear();
  failure_recurrences_ = 0;
  quarantined_traces_ = 0;
  metrics_.Add("server.failures_reported");
  metrics_.Set("ast.slice_statements", static_cast<int64_t>(slice_.size()));
  Replan();
}

void GistServer::Replan() {
  std::vector<InstrId> window = ast_->Window();
  for (InstrId id : discovered_) {
    if (std::find(window.begin(), window.end(), id) == window.end()) {
      window.push_back(id);
    }
  }
  plan_ = PlanInstrumentation(*ticfg_, window);
  ++plan_version_;
  metrics_.Add("ast.replans");
  metrics_.Set("ast.sigma", static_cast<int64_t>(ast_->sigma()));
  metrics_.Set("ast.window_statements", static_cast<int64_t>(window.size()));
  metrics_.Set("ast.discovered_statements", static_cast<int64_t>(discovered_.size()));
}

GistServer::TraceIngest GistServer::AddTrace(RunTrace trace) {
  GIST_CHECK(has_target_);
  if (trace.failed && trace.failure.MatchHash() != target_hash_) {
    *ingest_.rejected_foreign += 1;
    return TraceIngest::kRejectedForeign;  // a different bug; not our target
  }

  // Validate every PT stream before the trace influences anything. Uploads
  // are production data that crossed a wire — a stream the hardened decoder
  // rejects quarantines the whole trace (DESIGN.md §8). All cores are decoded
  // even after the first rejection: the decode-shape and error-class counters
  // must account every stream of the upload, or chaos fleets under-report
  // exactly the traffic they were injected to produce.
  uint64_t upload_bytes = 0;
  bool quarantine = false;
  std::vector<DecodedCoreTrace> decoded;
  decoded.reserve(trace.pt_buffers.size());
  for (size_t core = 0; core < trace.pt_buffers.size(); ++core) {
    upload_bytes += trace.pt_buffers[core].size();
    PtDecodeResult decode = DecodePt(module_, static_cast<CoreId>(core), trace.pt_buffers[core]);
    *ingest_.decode_packets += decode.stats.packets;
    *ingest_.decode_bytes += decode.stats.bytes;
    *ingest_.decode_tnt_bits += decode.stats.tnt_bits;
    if (!decode.ok()) {
      quarantine = true;
      *ingest_.decode_errors[static_cast<size_t>(decode.error->fault)] += 1;
    } else {
      decoded.push_back(std::move(decode.trace));
    }
  }
  if (quarantine) {
    ++quarantined_traces_;
    *ingest_.quarantined += 1;
    return TraceIngest::kQuarantined;
  }
  *ingest_.accepted += 1;
  ingest_.upload_bytes->Observe(upload_bytes);

  // Streaming statistics (DESIGN.md §14): the accepted run's predictor set
  // is extracted once right here — O(this run's events), reusing the decodes
  // above — and folded into the running BehaviorStats keyed by run identity,
  // so a retried upload of an already-counted run cannot double-count.
  behavior_.RecordRun(trace.run_id, ExtractPredictors(decoded, trace.watch_events), trace.failed);

  if (trace.failed) {
    ++failure_recurrences_;
    *ingest_.recurrences += 1;
    failure_summaries_.push_back(SummarizeTrace(module_, decoded));
  }

  // Data-flow refinement: watchpoint-caught statements outside the static
  // slice are added to it (the alias-analysis replacement, §3.2.3). Future
  // plans give them PT coverage and watchpoints of their own.
  bool grew = false;
  for (const WatchEvent& event : trace.watch_events) {
    if (!slice_.Contains(event.instr) &&
        std::find(discovered_.begin(), discovered_.end(), event.instr) == discovered_.end()) {
      discovered_.push_back(event.instr);
      grew = true;
    }
  }
  traces_.push_back(std::move(trace));
  if (grew) {
    Replan();
  }
  return TraceIngest::kAccepted;
}

PlanSnapshot GistServer::Snapshot() const {
  GIST_CHECK(has_target_);
  return PlanSnapshot(plan_, options_.watchpoint_slots, plan_version_, sigma(), decoded_);
}

Result<FailureSketch> GistServer::BuildSketch() const {
  GIST_CHECK(has_target_);
  SketchOptions sketch_options;
  sketch_options.title = options_.title;
  sketch_options.discovered = &discovered_;
  sketch_options.quarantined = quarantined_traces_;
  Result<FailureSketch> sketch = BuildFailureSketch(plan_.window, traces_, behavior_,
                                                    failure_summaries_, sketch_options);
  if (stats_shadow_) {
    // Shadow mode (DESIGN.md §14): recompute the streaming state from the
    // stored traces' raw PT and require the same aggregation, the same
    // summaries, and — built from that batch state — the same sketch, which
    // implies the same reference run.
    BatchSummary batch = SummarizeAll(module_, traces_, options_.beta);
    GIST_CHECK(batch.behavior.Fingerprint() == behavior_.Fingerprint())
        << "shadow mode: incremental BehaviorStats diverged from batch recompute\n--- batch:\n"
        << batch.behavior.Fingerprint() << "--- incremental:\n"
        << behavior_.Fingerprint();
    GIST_CHECK(batch.summaries == failure_summaries_)
        << "shadow mode: stored trace summaries diverged from a fresh decode";
    sketch_options.quarantined += batch.undecodable;
    Result<FailureSketch> rebuilt = BuildFailureSketch(plan_.window, batch.failing,
                                                       batch.behavior, batch.summaries,
                                                       sketch_options);
    GIST_CHECK(sketch.ok() == rebuilt.ok() && (!sketch.ok() || *sketch == *rebuilt))
        << "shadow mode: sketch from stored summaries diverged from the batch rebuild";
  }
  metrics_.Add("stats.sketch_builds");
  if (sketch.ok()) {
    metrics_.Add("stats.predictor_evaluations",
                 static_cast<uint64_t>(sketch->predictors_evaluated));
  }
  return sketch;
}

GistCampaignState GistServer::CampaignState() const {
  GIST_CHECK(has_target_);
  GistCampaignState state;
  state.iteration = ast_->iteration();
  state.sigma = ast_->sigma();
  state.slice_statements = static_cast<uint32_t>(ast_->slice_size());
  state.window_statements = static_cast<uint32_t>(ast_->WindowSize());
  state.slice_exhausted = ast_->ExhaustedSlice();
  state.recurrences = failure_recurrences_;
  state.quarantined = quarantined_traces_;
  state.behavior_runs = behavior_.runs_recorded();
  state.duplicate_uploads = behavior_.duplicates_ignored();
  state.predictor_count = behavior_.stats().predictor_count();
  return state;
}

void GistServer::AdvanceAst() {
  GIST_CHECK(has_target_);
  ast_->Advance();
  metrics_.Add("ast.advances");
  Replan();
}

MonitoredRun RunMonitored(const Module& module, const PlanSnapshot& snapshot,
                          uint64_t client_index, const Workload& workload,
                          const GistOptions& options, uint64_t run_id, uint64_t max_steps,
                          const RunDegradation& degradation) {
  ClientRuntime runtime(module, snapshot, client_index, options.num_cores,
                        options.pt_buffer_bytes, degradation.watchpoint_slots);
  MonitoredRun run;
  VmOptions vm_options;
  vm_options.num_cores = options.num_cores;
  vm_options.max_steps = max_steps;
  vm_options.kill_after_steps = degradation.kill_after_steps;
  vm_options.decoded = snapshot.decoded().get();  // shared fleet-wide cache
  vm_options.observers = {&runtime};
  vm_options.hook = &runtime;
  GIST_CHECK(options.tier != ExecTier::kSuper) << "ExecTier::kSuper is retired";
  if (options.tier == ExecTier::kReference) {
    vm_options.reference_dispatch = true;  // the always-dispatch oracle
  }
  if (options.collect_profile) {
    vm_options.profile = &run.profile;
  }
  Vm vm(module, workload, vm_options);
  run.result = vm.Run();
  run.trace = runtime.TakeTrace(run_id, run.result);
  run.obs = runtime.Sample();
  return run;
}

}  // namespace gist
