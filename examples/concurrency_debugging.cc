// Concurrency debugging walkthrough: the paper's flagship Pbzip2 bug (Fig. 1)
// diagnosed step by step, with commentary on what each stage of the pipeline
// contributes — watch how Adaptive Slice Tracking grows the window and how
// the hardware watchpoints discover the racing store that the alias-free
// static slice cannot see.
//
// Build & run:   ./build/examples/concurrency_debugging

#include <cstdio>

#include "src/apps/app.h"
#include "src/core/gist.h"

int main() {
  using namespace gist;

  auto app = MakeAppByName("pbzip2");
  const Module& module = app->module();

  std::printf("== Pbzip2 bug #1: use-after-free of the queue mutex ==\n");
  std::printf("%s, version %s (original size: %llu LOC)\n\n", app->info().kind.c_str(),
              app->info().version.c_str(),
              static_cast<unsigned long long>(app->info().original_loc));

  // Production until the first crash.
  Rng rng(7);
  FailureReport report;
  bool found = false;
  uint64_t runs_until_failure = 0;
  while (!found && runs_until_failure < 5000) {
    Workload workload = app->MakeWorkload(runs_until_failure++, rng);
    Vm vm(module, workload, VmOptions{});
    RunResult result = vm.Run();
    if (!result.ok()) {
      report = result.failure;
      found = true;
    }
  }
  if (!found) {
    std::fprintf(stderr, "race never manifested\n");
    return 1;
  }
  std::printf("Crash after %llu production runs: %s\n",
              static_cast<unsigned long long>(runs_until_failure), report.message.c_str());
  std::printf("Failing statement: \"%s\" in %s()\n\n",
              module.instr(report.failing_instr).loc.text.c_str(),
              module.instr(report.failing_instr).loc.function.c_str());

  GistOptions options;
  options.title = "pbzip2 bug #1 (paper Fig. 1)";
  GistServer server(module, options);
  server.ReportFailure(report);

  std::printf("Static backward slice: %zu statements. Note what is MISSING:\n",
              server.slice().instrs.size());
  std::printf("the racing store `f->mut = NULL` — Gist's slicer deliberately has no\n");
  std::printf("alias analysis, so stores reaching a load through memory are invisible\n");
  std::printf("statically. The hardware watchpoints will discover it at runtime.\n\n");

  // AsT iterations.
  for (int iteration = 0; iteration < 4; ++iteration) {
    std::printf("-- AsT iteration %d: tracking sigma=%u statements, %zu PT start blocks, "
                "%zu watch sites --\n",
                iteration, server.sigma(), server.plan().pt_start_blocks.size(),
                server.plan().watch_instrs.size());
    for (int i = 0; i < 120; ++i) {
      Workload workload = app->MakeWorkload(runs_until_failure++, rng);
      MonitoredRun run =
          RunMonitored(module, server.Snapshot(), 0, workload, options, runs_until_failure);
      server.AddTrace(std::move(run.trace));
    }
    Result<FailureSketch> sketch = server.BuildSketch();
    if (sketch.ok()) {
      const bool complete = sketch->ContainsAll(app->root_cause_instrs());
      std::printf("   sketch: %zu statements, %u failing / %u successful runs used%s\n",
                  sketch->InstrSet().size(), sketch->failing_runs_used,
                  sketch->successful_runs_used,
                  complete ? "  -> root cause visible, stopping" : "");
      if (complete) {
        RenderOptions render;
        render.ideal = &app->ideal_sketch();
        std::printf("\n%s\n", RenderFailureSketch(module, *sketch, render).c_str());
        std::printf("Fix (what the pbzip2 developers did): synchronize so cons() finishes\n"
                    "before main() frees f->mut — i.e. eliminate the [*] RW race above.\n");
        return 0;
      }
    }
    server.AdvanceAst();
  }
  std::printf("root cause not isolated within the iteration budget\n");
  return 1;
}
