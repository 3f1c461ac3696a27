#include "bench/bench_util.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "src/analysis/slicer.h"
#include "src/core/instrumentation.h"
#include "src/support/json.h"
#include "src/support/str.h"

namespace gist {

FleetOptions DefaultBenchFleetOptions() {
  FleetOptions options;
  options.runs_per_iteration = 400;
  options.max_iterations = 8;
  options.fleet_seed = 2015;  // SOSP'15
  return options;
}

namespace {

[[noreturn]] void UsageExit(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  std::exit(2);
}

}  // namespace

void ParseBenchFlags(int argc, char** argv, std::initializer_list<BenchFlag> flags,
                     TelemetryExportOptions* telemetry) {
  for (int i = 1; i < argc; ++i) {
    if (telemetry != nullptr) {
      switch (ParseTelemetryExportFlag(argc, argv, &i, telemetry)) {
        case TelemetryFlagParse::kConsumed:
          continue;
        case TelemetryFlagParse::kMissingValue:
          UsageExit(std::string(argv[i]) + " needs a value");
        case TelemetryFlagParse::kNotTelemetry:
          break;
      }
    }
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const BenchFlag* flag = std::find_if(flags.begin(), flags.end(),
                                         [&name](const BenchFlag& f) { return f.name == name; });
    if (flag == flags.end()) {
      UsageExit("unknown flag '" + arg + "'");
    }
    if (flag->on != nullptr) {
      if (eq != std::string::npos) {
        UsageExit(name + " takes no value");
      }
      *flag->on = true;
      continue;
    }
    std::string value;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (flag->bare != nullptr) {
      value = flag->bare;
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      UsageExit(name + " needs a value");
    }
    if (flag->number != nullptr) {
      if (!ParseUint(value, flag->number, flag->max)) {
        UsageExit(StrFormat("%s wants an integer in [0, %llu], got '%s'", name.c_str(),
                            static_cast<unsigned long long>(flag->max), value.c_str()));
      }
    } else {
      *flag->text = value;
    }
  }
}

std::string FormatMinSec(double seconds) {
  const int total = static_cast<int>(seconds + 0.5);
  return StrFormat("%dm:%02ds", total / 60, total % 60);
}

AppFleetOutcome RunAppFleet(const std::string& name, const FleetOptions& options) {
  std::unique_ptr<BugApp> owned = MakeAppByName(name);
  GIST_CHECK(owned != nullptr) << "unknown app " << name;
  BugApp& app = *owned;
  AppFleetOutcome outcome;

  FleetOptions fleet_options = options;
  fleet_options.gist.title =
      app.info().name + " (" + app.info().software + " bug #" + app.info().bug_id + ")";

  Fleet fleet(
      app.module(),
      [&app](uint64_t run_index, Rng& rng) { return app.MakeWorkload(run_index, rng); },
      fleet_options);

  const std::vector<InstrId>& root_cause = app.root_cause_instrs();
  outcome.fleet = fleet.Run([&](const FailureSketch& sketch) {
    return sketch.ContainsAll(root_cause);
  });

  if (fleet.server().HasTarget()) {
    outcome.slice = fleet.server().slice();
    outcome.final_plan = fleet.server().plan();
    outcome.traces = fleet.server().traces();
  }

  // Offline analysis cost: slicing + instrumentation planning from scratch,
  // wall-clock (the paper's parenthesized per-bug time).
  if (outcome.fleet.first_failure_found) {
    const auto start = std::chrono::steady_clock::now();
    Ticfg ticfg(app.module());
    const StaticSlice slice =
        ComputeBackwardSlice(ticfg, outcome.fleet.first_failure.failing_instr);
    const InstrumentationPlan plan = PlanInstrumentation(ticfg, slice.instrs);
    (void)plan;
    const auto end = std::chrono::steady_clock::now();
    outcome.offline_seconds = std::chrono::duration<double>(end - start).count();
  }

  const Module& module = app.module();
  outcome.accuracy = MeasureAccuracy(module, outcome.fleet.sketch, app.ideal_sketch());
  outcome.slice_source_loc = module.CountSourceLines(outcome.slice.instrs);
  outcome.ideal_instrs = app.ideal_sketch().instrs.size();
  outcome.ideal_source_loc = module.CountSourceLines(app.ideal_sketch().instrs);
  const std::vector<InstrId> sketch_instrs = outcome.fleet.sketch.InstrSet();
  outcome.sketch_instrs = sketch_instrs.size();
  outcome.sketch_source_loc = module.CountSourceLines(sketch_instrs);
  outcome.app = std::move(owned);
  return outcome;
}

const std::vector<std::string>& Table1Apps() {
  static const std::vector<std::string> kApps = {
      "apache-1", "apache-2", "apache-3",    "apache-4", "cppcheck-1", "cppcheck-2",
      "curl",     "transmission", "sqlite",  "memcached", "pbzip2"};
  return kApps;
}

BreakdownResult MeasureBreakdown(const std::string& name, const FleetOptions& options,
                                 FlightRecorder* recorder) {
  BreakdownResult breakdown;
  FleetOptions fleet_options = options;
  fleet_options.recorder = recorder;
  AppFleetOutcome outcome = RunAppFleet(name, fleet_options);
  const BugApp& app = *outcome.app;
  const Module& module = app.module();
  const IdealSketch& ideal = app.ideal_sketch();

  // Full pipeline.
  breakdown.with_data_flow = outcome.accuracy.overall;

  // Static slicing only: the sketch is the tracked window of the static
  // slice, in program-toward-failure order (no runtime information at all).
  {
    const size_t count =
        std::min<size_t>(outcome.fleet.sigma_final, outcome.slice.instrs.size());
    std::vector<InstrId> window(outcome.slice.instrs.begin(),
                                outcome.slice.instrs.begin() + static_cast<long>(count));
    std::vector<InstrId> ordered(window.rbegin(), window.rend());
    std::vector<InstrId> accesses;
    for (InstrId id : ordered) {
      if (module.instr(id).IsSharedAccess()) {
        accesses.push_back(id);
      }
    }
    breakdown.static_only = MeasureAccuracyRaw(ordered, accesses, ideal).overall;
  }

  // + control-flow tracking: rebuild the sketch with the watchpoint log
  // stripped from every collected trace — execution-filtered, but no
  // data-flow discovery, no values, no inter-thread order anchors.
  {
    std::vector<RunTrace> stripped = outcome.traces;
    for (RunTrace& trace : stripped) {
      trace.watch_events.clear();
    }
    const BatchSummary batch = SummarizeAll(module, stripped, options.gist.beta);
    SketchOptions sketch_options;
    sketch_options.quarantined = batch.undecodable;
    Result<FailureSketch> sketch = BuildFailureSketch(
        outcome.final_plan.window, batch.failing, batch.behavior, batch.summaries, sketch_options);
    if (sketch.ok()) {
      breakdown.with_control_flow = MeasureAccuracy(module, *sketch, ideal).overall;
    } else {
      breakdown.with_control_flow = breakdown.static_only;
    }
  }

  // Publish stage attribution through the recorder: accuracies are derived
  // (floating-point) data, so they ride the annotation side channel; the
  // instant marks the breakdown on the control lane of the span trace.
  if (recorder != nullptr) {
    recorder->Annotate("fig10." + name + ".static_only", breakdown.static_only);
    recorder->Annotate("fig10." + name + ".with_control_flow", breakdown.with_control_flow);
    recorder->Annotate("fig10." + name + ".with_data_flow", breakdown.with_data_flow);
    recorder->AddInstant("breakdown", "bench", FlightRecorder::kControlTrack,
                         {StrArg("app", name)});
  }
  return breakdown;
}

bool UpdateBenchJson(const std::string& path, const std::map<std::string, double>& values) {
  std::map<std::string, double> merged = ReadFlatJson(path);
  for (const auto& [key, value] : values) {
    merged[key] = value;
  }
  return WriteFlatJson(path, merged);
}

}  // namespace gist
