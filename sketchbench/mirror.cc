#include "sketchbench/mirror.h"

#include <algorithm>
#include <optional>

#include "src/coop/wire.h"
#include "src/support/check.h"

namespace gist::bench {
namespace {

// Both constants follow src/coop/fleet.cc; the benchmark's outcome check
// catches any drift.
constexpr uint64_t kPacingSalt = 0x70616365'70616365ULL;

uint32_t BatchSize(const ThreadPool& pool) {
  return pool.size() == 1 ? 1 : pool.size() * 2;
}

size_t PtBytes(const RunTrace& trace) {
  size_t bytes = 0;
  for (const std::vector<uint8_t>& buffer : trace.pt_buffers) {
    bytes += buffer.size();
  }
  return bytes;
}

class MirrorLoop {
 public:
  MirrorLoop(const Module& module, const WorkloadGenerator& generator,
             const FleetOptions& options, Tracer* tracer)
      : module_(module), generator_(generator), options_(options), tracer_(tracer) {}

  FleetResult Run(const RootCauseCheck& root_cause_check);

 private:
  Workload WorkloadFor(uint64_t run_index) const {
    Rng rng(DeriveSeed(options_.fleet_seed, run_index));
    return generator_(run_index, rng);
  }

  double PacingSecondsFor(uint64_t run_index) const {
    Rng rng(DeriveSeed(options_.fleet_seed ^ kPacingSalt, run_index));
    return options_.mean_run_spacing_seconds * rng.NextDouble() * 2.0;
  }

  void Count(const char* name, double delta) {
    if (tracer_ != nullptr) {
      tracer_->Count(name, delta);
    }
  }

  void FindFirstFailure(ThreadPool& pool, FleetResult* result, uint64_t* next_run_index);
  Result<FailureSketch> BuildSketch() {
    Count("core.sketch.traces_scanned", static_cast<double>(server_->trace_count()));
    Tracer::Scope span(tracer_, "core.sketch");
    return server_->BuildSketch();
  }

  const Module& module_;
  const WorkloadGenerator& generator_;
  const FleetOptions& options_;
  Tracer* tracer_;
  std::optional<GistServer> server_;
};

void MirrorLoop::FindFirstFailure(ThreadPool& pool, FleetResult* result,
                                  uint64_t* next_run_index) {
  const uint32_t batch_size = BatchSize(pool);
  uint64_t base = 0;
  while (base < options_.max_first_failure_runs && !result->first_failure_found) {
    const uint32_t batch = static_cast<uint32_t>(
        std::min<uint64_t>(batch_size, options_.max_first_failure_runs - base));
    std::vector<FailureReport> failures(batch);
    std::vector<uint64_t> steps(batch);
    {
      Tracer::Scope wait(tracer_, "coop.fanout_wait");
      pool.ParallelFor(batch, [&](uint64_t k) {
        const Workload workload = WorkloadFor(base + k);
        VmOptions vm_options;
        vm_options.num_cores = options_.gist.num_cores;
        vm_options.max_steps = options_.max_steps_per_run;
        vm_options.decoded = server_->decoded().get();
        Tracer::Scope span(tracer_, "vm.probe");
        Vm vm(module_, workload, vm_options);
        const RunResult run = vm.Run();
        steps[k] = run.stats.steps;
        if (!run.ok() && run.failure.failing_instr != kNoInstr) {
          failures[k] = run.failure;
        }
      });
    }
    uint32_t winner = batch;
    for (uint32_t k = 0; k < batch; ++k) {
      if (failures[k].failing_instr != kNoInstr) {
        winner = k;
        break;
      }
    }
    for (uint32_t k = 0; k < batch; ++k) {
      Count("vm.steps", static_cast<double>(steps[k]));
    }
    Count("coop.runs_executed", batch);
    Count("coop.runs_consumed", winner == batch ? batch : winner + 1);
    if (winner != batch) {
      result->first_failure_found = true;
      result->first_failure = failures[winner];
      *next_run_index = base + winner + 1;
    }
    base += batch;
  }
}

FleetResult MirrorLoop::Run(const RootCauseCheck& root_cause_check) {
  GIST_CHECK(options_.recorder == nullptr && options_.profiler == nullptr &&
             options_.campaign == nullptr && options_.gist.store == nullptr &&
             options_.tier_for_run == nullptr && options_.gist.tier != ExecTier::kSuper &&
             !options_.anonymize_traces)
      << "the traced mirror does not follow this fleet configuration";
  Tracer::Scope loop_span(tracer_, "coop.loop");
  FleetResult result;
  std::optional<ThreadPool> owned_pool;
  if (options_.shared_pool == nullptr) {
    owned_pool.emplace(options_.jobs);
  }
  ThreadPool& pool = options_.shared_pool != nullptr ? *options_.shared_pool : *owned_pool;
  const uint32_t batch_size = BatchSize(pool);
  {
    Tracer::Scope span(tracer_, "core.server_init");
    server_.emplace(module_, options_.gist);
  }
  GistServer& server = *server_;

  // --- Phase 1 ---------------------------------------------------------------
  uint64_t run_index = 0;
  FindFirstFailure(pool, &result, &run_index);
  if (!result.first_failure_found) {
    return result;
  }
  {
    Tracer::Scope span(tracer_, "core.report_failure");
    server.ReportFailure(result.first_failure);
  }

  // --- Phase 2 ---------------------------------------------------------------
  double overhead_sum = 0.0;
  uint64_t overhead_samples = 0;
  const CostModel cost_model;
  auto freeze = [&] {
    Tracer::Scope span(tracer_, "core.snapshot");
    return server.Snapshot();
  };

  for (uint32_t iteration = 0; iteration < options_.max_iterations; ++iteration) {
    FleetIterationStats stats;
    stats.iteration = iteration;
    stats.sigma = server.sigma();
    const uint32_t recurrences_at_start = server.failure_recurrences();
    PlanSnapshot snapshot = freeze();

    bool iteration_done = false;
    uint32_t client = 0;
    uint32_t retries_used = 0;
    uint32_t consecutive_losses = 0;
    while (client < options_.runs_per_iteration && !iteration_done) {
      if (snapshot.version() != server.plan_version()) {
        snapshot = freeze();
      }
      const uint32_t batch = std::min(batch_size, options_.runs_per_iteration - client);

      std::vector<MonitoredRun> runs(batch);
      {
        Tracer::Scope wait(tracer_, "coop.fanout_wait");
        pool.ParallelFor(batch, [&](uint64_t k) {
          const uint64_t index = run_index + k;
          RunDegradation degradation;
          if (options_.faults.enabled) {
            const FaultPlan fault =
                FaultPlan::ForRun(options_.faults, options_.fleet_seed, index);
            if (fault.kill_run) {
              degradation.kill_after_steps = fault.kill_after_steps;
            }
            if (fault.exhaust_watchpoints) {
              degradation.watchpoint_slots = fault.granted_watchpoint_slots;
            }
          }
          const Workload workload = WorkloadFor(index);
          Tracer::Scope span(tracer_, "core.monitored_run");
          runs[k] = RunMonitored(module_, snapshot, client + k, workload, options_.gist,
                                 index + 1, options_.max_steps_per_run, degradation);
        });
      }
      for (const MonitoredRun& run : runs) {
        Count("vm.steps", static_cast<double>(run.result.stats.steps));
      }
      Count("coop.runs_executed", batch);

      uint32_t consumed = 0;
      for (uint32_t k = 0;
           k < batch && !iteration_done && snapshot.version() == server.plan_version(); ++k) {
        MonitoredRun& run = runs[k];
        const uint64_t index = run_index + k;
        ++consumed;
        Count("pt.encode_bytes", static_cast<double>(PtBytes(run.trace)));

        result.sim_seconds += PacingSecondsFor(index);
        result.sim_seconds +=
            static_cast<double>(run.trace.baseline_instructions) / (options_.clock_ghz * 1e9);

        const FaultPlan fault = FaultPlan::ForRun(options_.faults, options_.fleet_seed, index);
        bool lost = run.result.killed;
        double arrival_delay = 0.0;
        if (!lost && fault.delay_result) {
          if (fault.result_delay_seconds > options_.faults.result_timeout_seconds) {
            lost = true;
          } else {
            arrival_delay = fault.result_delay_seconds;
          }
        }
        std::vector<uint8_t> shipped_bytes;
        if (!lost) {
          {
            Tracer::Scope span(tracer_, "faultsim.apply");
            ApplyPtFaults(fault, &run.trace.pt_buffers);
          }
          {
            Tracer::Scope span(tracer_, "coop.wire_encode");
            shipped_bytes = SerializeRunTrace(run.trace);
          }
          Count("coop.wire_bytes", static_cast<double>(shipped_bytes.size()));
          if (options_.faults.enabled) {
            std::vector<WireMessage> chunks;
            {
              Tracer::Scope span(tracer_, "coop.wire_encode");
              chunks = SplitWireMessages(shipped_bytes, options_.faults.wire_mtu_bytes);
            }
            std::vector<uint32_t> order;
            {
              Tracer::Scope span(tracer_, "faultsim.apply");
              order = DeliveredChunkOrder(fault, static_cast<uint32_t>(chunks.size()));
            }
            std::vector<WireMessage> delivered;
            for (uint32_t chunk : order) {
              delivered.push_back(std::move(chunks[chunk]));
            }
            Tracer::Scope span(tracer_, "coop.wire_decode");
            Result<std::vector<uint8_t>> reassembled =
                ReassembleWireMessages(std::move(delivered));
            if (reassembled.ok()) {
              shipped_bytes = std::move(*reassembled);
            } else {
              lost = true;
            }
          }
        }

        if (lost) {
          ++stats.lost_runs;
          Count("coop.runs_lost", 1);
          if (options_.faults.enabled &&
              retries_used < options_.faults.retry_budget_per_iteration) {
            const uint32_t exponent = std::min(consecutive_losses, 6u);
            result.sim_seconds +=
                options_.faults.retry_backoff_seconds * static_cast<double>(1u << exponent);
            ++retries_used;
            ++stats.retries;
          }
          ++consecutive_losses;
          continue;
        }
        consecutive_losses = 0;
        result.sim_seconds += arrival_delay;

        if (run.trace.baseline_instructions > 0) {
          overhead_sum += GistClientOverheadPercent(cost_model, run.trace.baseline_instructions,
                                                    run.trace.activity);
          ++overhead_samples;
        }
        const uint32_t recurrences_before = server.failure_recurrences();
        std::optional<Result<RunTrace>> shipped;
        {
          Tracer::Scope span(tracer_, "coop.wire_decode");
          shipped.emplace(DeserializeRunTrace(shipped_bytes));
        }
        GIST_CHECK(shipped->ok()) << shipped->error().message();
        GistServer::TraceIngest ingest;
        {
          Tracer::Scope span(tracer_, "core.ingest");
          ingest = server.AddTrace(std::move(**shipped));
        }
        if (ingest == GistServer::TraceIngest::kQuarantined) {
          ++stats.quarantined_runs;
          Count("core.ingest.quarantined", 1);
          continue;
        }
        if (run.result.ok()) {
          ++stats.successful_runs;
        } else {
          ++stats.failing_runs;
        }

        if (server.failure_recurrences() > recurrences_before) {
          Result<FailureSketch> sketch = BuildSketch();
          if (sketch.ok()) {
            result.sketch = *sketch;
            if (root_cause_check(*sketch)) {
              stats.root_cause_found = true;
              iteration_done = true;
              continue;
            }
          }
        }

        const uint32_t iteration_matching = server.failure_recurrences() - recurrences_at_start;
        if (iteration_matching >= options_.min_matching_failures &&
            stats.successful_runs >= options_.min_successful_runs) {
          iteration_done = true;
        }
      }
      Count("coop.runs_consumed", consumed);
      run_index += consumed;
      client += consumed;
    }

    stats.avg_overhead_percent =
        overhead_samples == 0 ? 0.0 : overhead_sum / static_cast<double>(overhead_samples);
    const uint32_t survivors = stats.successful_runs + stats.failing_runs;
    const uint32_t consumed_runs = survivors + stats.lost_runs + stats.quarantined_runs;
    stats.quorum_met =
        !options_.faults.enabled || consumed_runs == 0 ||
        static_cast<double>(survivors) >=
            options_.faults.quorum_fraction * static_cast<double>(consumed_runs);
    const bool saw_new_recurrence = server.failure_recurrences() > recurrences_at_start;
    result.failure_recurrences = server.failure_recurrences();
    result.lost_runs += stats.lost_runs;
    result.quarantined_runs += stats.quarantined_runs;
    result.retries += stats.retries;
    result.iterations.push_back(stats);

    if (stats.root_cause_found) {
      result.root_cause_found = true;
      break;
    }
    if (!saw_new_recurrence || !stats.quorum_met) {
      continue;
    }
    if (server.ExhaustedSlice()) {
      break;
    }
    Tracer::Scope span(tracer_, "core.advance_ast");
    server.AdvanceAst();
  }

  if (!result.root_cause_found && server.failure_recurrences() > 0) {
    Result<FailureSketch> sketch = BuildSketch();
    if (sketch.ok()) {
      result.sketch = *sketch;
    }
  }

  result.failure_recurrences = server.failure_recurrences();
  result.avg_overhead_percent =
      overhead_samples == 0 ? 0.0 : overhead_sum / static_cast<double>(overhead_samples);
  result.sigma_final = server.sigma();
  Count("pt.decode_packets", static_cast<double>(server.metrics().counter("pt.decode.packets")));
  Count("pt.decode_bytes", static_cast<double>(server.metrics().counter("pt.decode.bytes")));
  return result;
}

}  // namespace

FleetResult MirrorFleetRun(const Module& module, const WorkloadGenerator& generator,
                           const FleetOptions& options, const RootCauseCheck& root_cause_check,
                           Tracer* tracer) {
  MirrorLoop loop(module, generator, options, tracer);
  return loop.Run(root_cause_check);
}

}  // namespace gist::bench
