// Micro benchmarks for the substrate layers: PT packet encode/decode
// throughput, backward-slicer and dominator-analysis speed, and raw VM
// interpretation speed. These bound the cost of the offline (server-side)
// stages of Gist.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string_view>

#include "bench/bench_util.h"
#include "src/analysis/slicer.h"
#include "src/apps/app.h"
#include "src/cfg/ticfg.h"
#include "src/core/gist.h"
#include "src/core/statistics.h"
#include "src/obs/campaign.h"
#include "src/pt/decoder.h"
#include "src/pt/tracer.h"
#include "src/support/json.h"
#include "src/support/rng.h"
#include "src/vm/vm.h"

namespace gist {
namespace {

void BM_PtEncodeBranches(benchmark::State& state) {
  Rng rng(1);
  std::vector<bool> outcomes;
  for (int i = 0; i < 4096; ++i) {
    outcomes.push_back(rng.NextChance(1, 2));
  }
  for (auto _ : state) {
    PtBuffer buffer(1 << 20);
    uint8_t bits = 0;
    uint8_t count = 0;
    for (bool taken : outcomes) {
      bits = static_cast<uint8_t>(bits | ((taken ? 1u : 0u) << count));
      if (++count == 6) {
        buffer.AppendTnt(bits, count);
        bits = 0;
        count = 0;
      }
    }
    benchmark::DoNotOptimize(buffer.bytes().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(outcomes.size()));
}
BENCHMARK(BM_PtEncodeBranches);

void BM_PtFullTraceAndDecode(benchmark::State& state) {
  auto app = MakeAppByName("memcached");
  Rng rng(3);
  const Workload workload = app->MakeWorkload(0, rng);
  for (auto _ : state) {
    PtTracer tracer(4, kDefaultPtBufferBytes, /*always_on=*/true);
    VmOptions options;
    options.observers = {&tracer};
    Vm(app->module(), workload, options).Run();
    size_t visits = 0;
    for (CoreId core = 0; core < 4; ++core) {
      auto decoded = DecodePtStream(app->module(), core, tracer.buffer(core).bytes());
      visits += decoded.ok() ? decoded->visits.size() : 0;
    }
    benchmark::DoNotOptimize(visits);
  }
}
BENCHMARK(BM_PtFullTraceAndDecode);

void BM_BackwardSlice(benchmark::State& state) {
  // cppcheck-1 has the deepest interprocedural chain (24 passes).
  auto app = MakeAppByName("cppcheck-1");
  Ticfg ticfg(app->module());
  // Slice from the app's failure point (the deref in the bounds check).
  const InstrId failure = app->ideal_sketch().instrs.back();
  for (auto _ : state) {
    StaticSlice slice = ComputeBackwardSlice(ticfg, failure);
    benchmark::DoNotOptimize(slice.instrs.data());
  }
}
BENCHMARK(BM_BackwardSlice);

void BM_TicfgConstruction(benchmark::State& state) {
  auto app = MakeAppByName("cppcheck-1");
  for (auto _ : state) {
    Ticfg ticfg(app->module());
    benchmark::DoNotOptimize(ticfg.num_nodes());
  }
}
BENCHMARK(BM_TicfgConstruction);

void BM_VmInterpretation(benchmark::State& state) {
  auto app = MakeAppByName("pbzip2");
  Rng rng(5);
  Workload workload = app->MakeWorkload(0, rng);
  workload.inputs[kWorkScaleInput] = 2000;  // ~16k busy-loop instructions
  uint64_t steps = 0;
  for (auto _ : state) {
    Vm vm(app->module(), workload, VmOptions{});
    RunResult result = vm.Run();
    steps += result.stats.steps;
    benchmark::DoNotOptimize(result.stats.steps);
  }
  state.SetItemsProcessed(static_cast<int64_t>(steps));
}
BENCHMARK(BM_VmInterpretation);

void BM_VmInterpretationSharedDecode(benchmark::State& state) {
  // The fleet's configuration: one DecodedModule built up front, every run
  // interprets from it. Isolates per-run decode cost vs BM_VmInterpretation.
  auto app = MakeAppByName("pbzip2");
  DecodedModule decoded(app->module());
  Rng rng(5);
  Workload workload = app->MakeWorkload(0, rng);
  workload.inputs[kWorkScaleInput] = 2000;
  uint64_t steps = 0;
  for (auto _ : state) {
    VmOptions options;
    options.decoded = &decoded;
    Vm vm(app->module(), workload, options);
    RunResult result = vm.Run();
    steps += result.stats.steps;
    benchmark::DoNotOptimize(result.stats.steps);
  }
  state.SetItemsProcessed(static_cast<int64_t>(steps));
}
BENCHMARK(BM_VmInterpretationSharedDecode);

void BM_VmInterpretationProfiled(benchmark::State& state) {
  // BM_VmInterpretationSharedDecode plus a BlockProfile shard attached: the
  // marginal cost of hot-path profiling (DESIGN.md §10, target <= 10%).
  auto app = MakeAppByName("pbzip2");
  DecodedModule decoded(app->module());
  BlockProfile profile;
  Rng rng(5);
  Workload workload = app->MakeWorkload(0, rng);
  workload.inputs[kWorkScaleInput] = 2000;
  uint64_t steps = 0;
  for (auto _ : state) {
    VmOptions options;
    options.decoded = &decoded;
    options.profile = &profile;
    Vm vm(app->module(), workload, options);
    RunResult result = vm.Run();
    steps += result.stats.steps;
    benchmark::DoNotOptimize(result.stats.steps);
  }
  state.SetItemsProcessed(static_cast<int64_t>(steps));
}
BENCHMARK(BM_VmInterpretationProfiled);

void BM_VmWithClientRuntimeAttached(benchmark::State& state) {
  auto app = MakeAppByName("pbzip2");
  Rng rng(5);
  // Find a failure to seed the server, then measure monitored-run speed.
  FailureReport report;
  for (uint64_t run = 0; run < 500; ++run) {
    Workload probe = app->MakeWorkload(run, rng);
    Vm vm(app->module(), probe, VmOptions{});
    RunResult result = vm.Run();
    if (!result.ok()) {
      report = result.failure;
      break;
    }
  }
  GistServer server(app->module());
  server.ReportFailure(report);
  Workload workload = app->MakeWorkload(0, rng);
  workload.inputs[kWorkScaleInput] = 2000;
  const PlanSnapshot snapshot = server.Snapshot();
  uint64_t steps = 0;
  for (auto _ : state) {
    MonitoredRun run = RunMonitored(app->module(), snapshot, 0, workload);
    steps += run.result.stats.steps;
    benchmark::DoNotOptimize(run.trace.baseline_instructions);
  }
  state.SetItemsProcessed(static_cast<int64_t>(steps));
}
BENCHMARK(BM_VmWithClientRuntimeAttached);

// Synthetic predictor stream shaped like a real campaign: each run carries a
// few dozen predictors drawn from a few hundred recurring candidates, the way
// monitored runs keep revisiting the same slice statements. Shared by the
// interactive benchmark and the JSON/perf-smoke measurement below.
std::vector<std::vector<Predictor>> MakePredictorStream() {
  Rng rng(11);
  std::vector<std::vector<Predictor>> runs;
  for (int run = 0; run < 512; ++run) {
    std::vector<Predictor> predictors;
    for (int j = 0; j < 32; ++j) {
      Predictor p;
      if (rng.NextChance(1, 3)) {
        p.kind = PredictorKind::kValue;
        p.a = static_cast<InstrId>(rng.NextBelow(128));
        p.value = static_cast<Word>(rng.NextBelow(4));
      } else {
        p.kind = PredictorKind::kBranch;
        p.a = static_cast<InstrId>(rng.NextBelow(256));
        p.taken = rng.NextChance(1, 2);
      }
      predictors.push_back(p);
    }
    runs.push_back(std::move(predictors));
  }
  return runs;
}

void BM_StatsIncrementalUpdate(benchmark::State& state) {
  // Per-run cost of the streaming aggregation (DESIGN.md §14): one
  // BehaviorStats::RecordRun per landed run, identity dedup included.
  const std::vector<std::vector<Predictor>> runs = MakePredictorStream();
  uint64_t updates = 0;
  for (auto _ : state) {
    BehaviorStats stats;
    uint64_t run_id = 0;
    for (const std::vector<Predictor>& predictors : runs) {
      ++run_id;
      stats.RecordRun(run_id, predictors, (run_id % 5) == 0);
    }
    updates += runs.size();
    benchmark::DoNotOptimize(stats.runs_recorded());
  }
  state.SetItemsProcessed(static_cast<int64_t>(updates));
}
BENCHMARK(BM_StatsIncrementalUpdate);

// Nanoseconds per BehaviorStats::RecordRun on the synthetic stream, for the
// JSON artifact and the CI perf smoke. The streaming path exists so the
// coordinator can absorb every run as it lands (DESIGN.md §14), so its gate
// is a cushioned ceiling against the committed baseline: a per-update cost
// blow-up — say an accidental full rescan of the tally map per run — fails
// while timer jitter on loaded CI boxes does not.
double MeasureStatsIncrementalUpdateNs(double min_seconds = 0.5) {
  const std::vector<std::vector<Predictor>> runs = MakePredictorStream();
  uint64_t updates = 0;
  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    BehaviorStats stats;
    uint64_t run_id = 0;
    for (const std::vector<Predictor>& predictors : runs) {
      ++run_id;
      stats.RecordRun(run_id, predictors, (run_id % 5) == 0);
    }
    benchmark::DoNotOptimize(stats.runs_recorded());
    updates += runs.size();
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  } while (elapsed < min_seconds);
  return elapsed * 1e9 / static_cast<double>(updates);
}

// Measures raw interpreter throughput (the BM_VmInterpretationSharedDecode
// configuration) outside the google-benchmark harness, for the JSON artifact
// and the CI perf smoke: repeated runs until at least `min_seconds` of work.
// `with_profiler` attaches a reused BlockProfile shard, the hot-path
// profiler's per-run cost (DESIGN.md §10).
double MeasureVmStepsPerSecond(bool with_profiler = false, double min_seconds = 1.0) {
  auto app = MakeAppByName("pbzip2");
  DecodedModule decoded(app->module());
  BlockProfile profile;
  Rng rng(5);
  Workload workload = app->MakeWorkload(0, rng);
  workload.inputs[kWorkScaleInput] = 2000;
  // Warm-up run (page in code, fault in the module).
  {
    VmOptions options;
    options.decoded = &decoded;
    if (with_profiler) {
      options.profile = &profile;
    }
    Vm(app->module(), workload, options).Run();
  }
  uint64_t steps = 0;
  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    VmOptions options;
    options.decoded = &decoded;
    if (with_profiler) {
      options.profile = &profile;
    }
    Vm vm(app->module(), workload, options);
    steps += vm.Run().stats.steps;
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  } while (elapsed < min_seconds);
  return static_cast<double>(steps) / elapsed;
}

// Profiler cost as a ratio: profiled cost over unprofiled cost, i.e.
// unprofiled throughput / profiled throughput (1.0 = free, 1.10 = 10%
// slower). By definition the true ratio is >= 1.0 — profiling adds work,
// never removes it — so the measurement clamps there: on a noisy box the
// profiled pass can win the timer lottery and the raw quotient dip below
// 1.0, which would read as a nonsensical "speedup" in the committed artifact
// (an earlier baseline recorded 0.909). The acceptance bound for DESIGN.md
// §10 is <= 10%; the perf smoke enforces a cushioned ceiling (1.25, see the
// gate) so a genuinely regressed hot path fails while timer jitter on loaded
// CI boxes does not. The gate direction is one-sided: only ratios ABOVE the
// ceiling fail.
double MeasureProfilerOverheadRatio() {
  const double off = MeasureVmStepsPerSecond(/*with_profiler=*/false, 0.5);
  const double on = MeasureVmStepsPerSecond(/*with_profiler=*/true, 0.5);
  return on > 0.0 ? std::max(1.0, off / on) : 1.0;
}

// Invariant fleet counters for the CI perf gate: a small recorder-attached
// fleet whose merged metrics are a pure function of (module, options, seed).
// Unlike steps/second these must match the committed baseline EXACTLY — any
// drift means the pipeline's semantics changed, not the machine's speed.
struct InvariantCounters {
  uint64_t instructions_retired = 0;
  uint64_t pt_packets_decoded = 0;
  uint64_t watch_traps = 0;
  // Size of the gist.campaign.v1 journal emitted by the same fleet. The
  // journal is virtual-time clocked and a pure function of (module, options,
  // seed), so its byte count must match the baseline exactly: drift means
  // the observatory's schema or the campaign's convergence trajectory
  // changed, not the machine's speed (DESIGN.md §14).
  uint64_t campaign_journal_bytes = 0;
};

InvariantCounters MeasureInvariantCounters() {
  FlightRecorder recorder;
  CampaignTracker campaign("apache-2");
  FleetOptions options = DefaultBenchFleetOptions();
  options.runs_per_iteration = 80;
  options.max_iterations = 4;
  options.recorder = &recorder;
  options.campaign = &campaign;
  RunAppFleet("apache-2", options);
  InvariantCounters counters;
  counters.instructions_retired = recorder.metrics().counter("vm.instructions_retired");
  counters.pt_packets_decoded = recorder.metrics().counter("pt.decode.packets");
  counters.watch_traps = recorder.metrics().counter("hw.watch.traps");
  counters.campaign_journal_bytes = campaign.JournalJson().size();
  return counters;
}

int Main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);  // consumes the --benchmark_* flags
  std::string emit_path;
  std::string smoke_path;
  bool smoke_strict = false;
  ParseBenchFlags(argc, argv,
                  {{.name = "--emit-json", .text = &emit_path, .bare = "BENCH_interp.json"},
                   {.name = "--perf-smoke", .text = &smoke_path},
                   {.name = "--perf-smoke-strict", .on = &smoke_strict}});

  if (!emit_path.empty()) {
    const double steps_per_sec = MeasureVmStepsPerSecond();
    const double profiler_overhead = MeasureProfilerOverheadRatio();
    const double stats_update_ns = MeasureStatsIncrementalUpdateNs();
    const InvariantCounters counters = MeasureInvariantCounters();
    if (!UpdateBenchJson(
            emit_path,
            {{"vm_interp_steps_per_sec", steps_per_sec},
             {"vm_profiler_overhead_ratio", profiler_overhead},
             {"stats_incremental_update_ns", stats_update_ns},
             {"obs_instructions_retired", static_cast<double>(counters.instructions_retired)},
             {"obs_pt_packets_decoded", static_cast<double>(counters.pt_packets_decoded)},
             {"obs_watch_traps", static_cast<double>(counters.watch_traps)},
             {"campaign_journal_bytes", static_cast<double>(counters.campaign_journal_bytes)}})) {
      std::fprintf(stderr, "cannot write %s\n", emit_path.c_str());
      return 1;
    }
    std::printf("vm_interp_steps_per_sec: %.3g -> %s\n", steps_per_sec, emit_path.c_str());
    std::printf("vm_profiler_overhead_ratio: %.3f -> %s\n", profiler_overhead, emit_path.c_str());
    std::printf("stats_incremental_update_ns: %.1f -> %s\n", stats_update_ns, emit_path.c_str());
    std::printf("obs counters: retired=%llu pt_packets=%llu watch_traps=%llu "
                "campaign_journal=%lluB -> %s\n",
                static_cast<unsigned long long>(counters.instructions_retired),
                static_cast<unsigned long long>(counters.pt_packets_decoded),
                static_cast<unsigned long long>(counters.watch_traps),
                static_cast<unsigned long long>(counters.campaign_journal_bytes),
                emit_path.c_str());
    return 0;
  }

  if (!smoke_path.empty()) {
    // CI perf gate: fail when interpreter throughput regresses more than 30%
    // against the committed baseline artifact.
    const std::map<std::string, double> baseline = ReadFlatJson(smoke_path);
    const auto it = baseline.find("vm_interp_steps_per_sec");
    if (it == baseline.end()) {
      // Default: tolerate a missing baseline so fresh checkouts stay green.
      // --perf-smoke-strict turns the soft skip into a hard failure: CI uses
      // it so a deleted or corrupted baseline artifact cannot silently turn
      // the perf gate off.
      if (smoke_strict) {
        std::fprintf(stderr,
                     "perf smoke FAILED: no vm_interp_steps_per_sec baseline in %s "
                     "(--perf-smoke-strict)\n",
                     smoke_path.c_str());
        return 1;
      }
      std::fprintf(stderr, "perf smoke: no vm_interp_steps_per_sec in %s; skipping gate\n",
                   smoke_path.c_str());
      return 0;
    }
    const double measured = MeasureVmStepsPerSecond();
    const double floor = it->second * 0.7;
    std::printf("perf smoke: %.3g steps/s measured vs %.3g baseline (floor %.3g)\n", measured,
                it->second, floor);
    if (measured < floor) {
      std::fprintf(stderr, "perf smoke FAILED: interpreter regressed more than 30%%\n");
      return 1;
    }

    // Profiler-overhead gate: the hot-path profiler's design target is <= 10%
    // interpreter slowdown (DESIGN.md §10); the gate allows 25% so timer
    // jitter on loaded CI boxes cannot flake it while a real regression —
    // e.g. an un-hoisted per-instruction counter lookup — still fails. The
    // ratio is profiled/unprofiled cost, clamped to >= 1.0 at measurement,
    // so the gate is one-sided by construction: only slowdowns past the
    // ceiling fail; there is no lower bound to flake on.
    const double overhead = MeasureProfilerOverheadRatio();
    std::printf("perf smoke: profiler overhead ratio %.3f (>= 1.0 by definition, ceiling 1.25)\n",
                overhead);
    if (overhead > 1.25) {
      std::fprintf(stderr, "perf smoke FAILED: profiler overhead ratio %.3f exceeds 1.25\n",
                   overhead);
      return 1;
    }

    // Streaming-statistics gate (DESIGN.md §14): per-update cost of the
    // incremental aggregation against a cushioned ceiling (2x the committed
    // baseline). One-sided — only a cost blow-up fails; a faster box never
    // flakes. A 2x cushion absorbs scheduler noise on a sub-microsecond
    // measurement while an asymptotic regression (per-run work scaling with
    // accumulated state) still overshoots by orders of magnitude.
    const auto stats_it = baseline.find("stats_incremental_update_ns");
    if (stats_it == baseline.end()) {
      if (smoke_strict) {
        std::fprintf(stderr,
                     "perf smoke FAILED: no stats_incremental_update_ns baseline in %s "
                     "(--perf-smoke-strict)\n",
                     smoke_path.c_str());
        return 1;
      }
      std::fprintf(stderr, "perf smoke: no stats_incremental_update_ns in %s; skipping gate\n",
                   smoke_path.c_str());
    } else {
      const double stats_update_ns = MeasureStatsIncrementalUpdateNs();
      const double stats_ceiling = stats_it->second * 2.0;
      std::printf("perf smoke: stats incremental update %.1f ns vs %.1f baseline (ceiling %.1f)\n",
                  stats_update_ns, stats_it->second, stats_ceiling);
      if (stats_update_ns > stats_ceiling) {
        std::fprintf(stderr,
                     "perf smoke FAILED: stats incremental update %.1f ns exceeds ceiling %.1f\n",
                     stats_update_ns, stats_ceiling);
        return 1;
      }
    }

    // Invariant-counter gate: the recorder's deterministic fleet counters
    // must equal the committed baseline bit-for-bit. A mismatch is a
    // semantic change (different instructions executed, packets decoded, or
    // traps taken), which a throughput floor would never catch.
    const InvariantCounters counters = MeasureInvariantCounters();
    const std::pair<const char*, uint64_t> invariants[] = {
        {"obs_instructions_retired", counters.instructions_retired},
        {"obs_pt_packets_decoded", counters.pt_packets_decoded},
        {"obs_watch_traps", counters.watch_traps},
        {"campaign_journal_bytes", counters.campaign_journal_bytes},
    };
    bool counters_ok = true;
    for (const auto& [key, measured_count] : invariants) {
      const auto baseline_it = baseline.find(key);
      if (baseline_it == baseline.end()) {
        if (smoke_strict) {
          std::fprintf(stderr, "perf smoke FAILED: no %s baseline in %s (--perf-smoke-strict)\n",
                       key, smoke_path.c_str());
          counters_ok = false;
        } else {
          std::fprintf(stderr, "perf smoke: no %s in %s; skipping counter\n", key,
                       smoke_path.c_str());
        }
        continue;
      }
      const uint64_t expected = static_cast<uint64_t>(baseline_it->second);
      if (measured_count != expected) {
        std::fprintf(stderr, "perf smoke FAILED: %s = %llu, baseline %llu (must match exactly)\n",
                     key, static_cast<unsigned long long>(measured_count),
                     static_cast<unsigned long long>(expected));
        counters_ok = false;
      }
    }
    if (!counters_ok) {
      return 1;
    }
    std::printf("perf smoke OK\n");
    return 0;
  }

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace
}  // namespace gist

int main(int argc, char** argv) { return gist::Main(argc, argv); }
