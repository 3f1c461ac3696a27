// Regenerates paper Table 1: per bug, the static slice size, ideal and
// Gist-computed failure sketch sizes (source LOC and MiniIR instructions),
// the number of failure recurrences consumed, the simulated sketch-
// computation time, and the offline analysis time. Also prints the three
// example failure sketches the paper shows in full (Figs. 1, 7, 8).

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/renderer.h"
#include "src/support/logging.h"
#include "src/support/str.h"
#include "src/support/thread_pool.h"

namespace gist {
namespace {

// The bugs whose sketches the paper renders as figures.
bool RendersFigure(const std::string& name) {
  return name == "pbzip2" || name == "curl" || name == "apache-3";
}

// Runs every app's fleet with `jobs` workers; returns the outcomes and the
// wall-clock the sweep took.
std::vector<AppFleetOutcome> RunAllFleets(uint32_t jobs, double* seconds) {
  FleetOptions options = DefaultBenchFleetOptions();
  options.jobs = jobs;
  std::vector<AppFleetOutcome> outcomes;
  const auto start = std::chrono::steady_clock::now();
  for (const std::string& name : Table1Apps()) {
    outcomes.push_back(RunAppFleet(name, options));
  }
  const auto end = std::chrono::steady_clock::now();
  *seconds = std::chrono::duration<double>(end - start).count();
  return outcomes;
}

int Main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  uint64_t jobs_flag = 1;
  std::string emit_path;
  ParseBenchFlags(argc, argv,
                  {{.name = "--jobs", .number = &jobs_flag, .max = UINT32_MAX},
                   {.name = "--emit-json", .text = &emit_path, .bare = "BENCH_interp.json"}});
  uint32_t jobs = static_cast<uint32_t>(jobs_flag);
  if (jobs == 0) {
    jobs = ThreadPool::HardwareThreads();
  }

  double elapsed = 0.0;
  std::vector<AppFleetOutcome> outcomes = RunAllFleets(jobs, &elapsed);
  std::printf("Table 1: bugs used to evaluate Gist (reproduction)\n");
  std::printf(
      "%-13s %-13s %-9s %-8s | %-18s %-18s %-18s %-6s %-10s %-10s\n", "Bug", "Software",
      "Version", "Bug ID", "Static slice", "Ideal sketch", "Gist sketch", "#Rec",
      "<time>", "(offline)");
  std::printf("%-13s %-13s %-9s %-8s | %-18s %-18s %-18s %-6s %-10s %-10s\n", "", "", "", "",
              "LOC (instrs)", "LOC (instrs)", "LOC (instrs)", "", "", "");
  std::printf("%s\n", std::string(140, '-').c_str());

  std::string figures;
  uint64_t total_runs = 0;
  int diagnosed = 0;
  for (const AppFleetOutcome& outcome : outcomes) {
    const BugInfo& info = outcome.app->info();
    for (const FleetIterationStats& it : outcome.fleet.iterations) {
      total_runs += it.failing_runs + it.successful_runs;
    }
    if (outcome.fleet.root_cause_found) {
      ++diagnosed;
    }
    std::printf(
        "%-13s %-13s %-9s %-8s | %5zu (%6zu)     %4zu (%6zu)      %4zu (%6zu)      %-6u %-10s "
        "(%.2fs)%s\n",
        info.name.c_str(), info.software.c_str(), info.version.c_str(), info.bug_id.c_str(),
        outcome.slice_source_loc, outcome.slice.instrs.size(), outcome.ideal_source_loc,
        outcome.ideal_instrs, outcome.sketch_source_loc, outcome.sketch_instrs,
        outcome.fleet.failure_recurrences, FormatMinSec(outcome.fleet.sim_seconds).c_str(),
        outcome.offline_seconds, outcome.fleet.root_cause_found ? "" : "  [NOT DIAGNOSED]");

    if (RendersFigure(info.name)) {
      RenderOptions render;
      render.ideal = &outcome.app->ideal_sketch();
      figures += "\n" + std::string(78, '=') + "\n";
      figures += RenderFailureSketch(outcome.app->module(), outcome.fleet.sketch, render);
    }
  }

  std::printf("%s\n", std::string(140, '-').c_str());
  std::printf("Diagnosed %d/11 bugs; %llu monitored production runs in total.\n", diagnosed,
              static_cast<unsigned long long>(total_runs));
  std::printf("Fleet sweep wall-clock: %.2fs with --jobs=%u.\n", elapsed, jobs);

  if (!emit_path.empty()) {
    UpdateBenchJson(emit_path, {{"fleet_table1_wall_seconds", elapsed},
                                {"fleet_table1_jobs", static_cast<double>(jobs)}});
    std::printf("fleet_table1_wall_seconds: %.3g -> %s\n", elapsed, emit_path.c_str());
  }

  // The execution engine's promise is parallel speedup at identical results:
  // with more than one worker, run the sequential baseline too and compare
  // both, numbers and wall-clock.
  if (jobs > 1) {
    double sequential_elapsed = 0.0;
    std::vector<AppFleetOutcome> sequential = RunAllFleets(1, &sequential_elapsed);
    bool identical = true;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      identical = identical &&
                  sequential[i].fleet.failure_recurrences ==
                      outcomes[i].fleet.failure_recurrences &&
                  sequential[i].fleet.root_cause_found == outcomes[i].fleet.root_cause_found &&
                  sequential[i].fleet.sim_seconds == outcomes[i].fleet.sim_seconds;
    }
    std::printf("Sequential baseline (--jobs=1): %.2fs — speedup %.2fx, results %s.\n",
                sequential_elapsed, sequential_elapsed / elapsed,
                identical ? "bit-identical" : "DIVERGED (engine bug!)");
    if (!identical) {
      return 1;
    }
  }
  std::printf("Legend: [*] top-ranked failure predictor (paper's dotted boxes), '·' extraneous\n"
              "vs the ideal sketch (paper's gray prefix), '+' discovered by data-flow\n"
              "refinement (absent from the alias-free static slice), {=v} observed value.\n");
  std::printf("%s\n", figures.c_str());
  return diagnosed == 11 ? 0 : 1;
}

}  // namespace
}  // namespace gist

int main(int argc, char** argv) { return gist::Main(argc, argv); }
