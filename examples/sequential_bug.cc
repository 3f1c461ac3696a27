// Sequential (input-dependent) bug walkthrough: the Curl #965 unbalanced-
// brace glob crash (paper Fig. 7). Shows how Gist's value predictors isolate
// a bad input even though no thread interleaving is involved: the statistics
// over failing vs successful runs single out `urls->current == NULL`.
//
// Build & run:   ./build/examples/sequential_bug

#include <cstdio>

#include "src/apps/app.h"
#include "src/core/gist.h"

int main() {
  using namespace gist;

  auto app = MakeAppByName("curl");
  const Module& module = app->module();

  std::printf("== Curl bug #965: crash on URL \"{}{\" ==\n\n");

  Rng rng(21);
  FailureReport report;
  uint64_t run_index = 0;
  bool found = false;
  while (!found && run_index < 5000) {
    Workload workload = app->MakeWorkload(run_index++, rng);
    Vm vm(module, workload, VmOptions{});
    RunResult result = vm.Run();
    if (!result.ok()) {
      report = result.failure;
      found = true;
    }
  }
  if (!found) {
    std::fprintf(stderr, "no malformed URL arrived\n");
    return 1;
  }
  std::printf("Crash: %s\n\n", report.message.c_str());

  GistOptions options;
  options.title = "curl bug #965 (paper Fig. 7)";
  GistServer server(module, options);
  server.ReportFailure(report);

  // One batch of monitored runs suffices for sequential bugs: the failing
  // input recurs, and the value predictor discriminates perfectly.
  for (int i = 0; i < 200; ++i) {
    Workload workload = app->MakeWorkload(run_index++, rng);
    MonitoredRun run = RunMonitored(module, server.Snapshot(), 0, workload, options, run_index);
    server.AddTrace(std::move(run.trace));
  }

  Result<FailureSketch> sketch = server.BuildSketch();
  if (!sketch.ok()) {
    std::fprintf(stderr, "no sketch: %s\n", sketch.error().message().c_str());
    return 1;
  }

  std::printf("%s\n", RenderFailureSketch(module, *sketch).c_str());

  if (sketch->best_value.has_value()) {
    std::printf("The top value predictor (P=%.2f, R=%.2f) says urls->current was 0 in\n"
                "every failing run and never in a successful one — exactly the paper's\n"
                "Fig. 7 dotted box. The fix rejects unbalanced braces in the glob parser.\n",
                sketch->best_value->precision, sketch->best_value->recall);
  }
  return 0;
}
