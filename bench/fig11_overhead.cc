// Regenerates paper Fig. 11: Gist's average client-side runtime overhead as
// a function of the tracked slice size, plus the §5.3 split into control-flow
// (Intel PT) and data-flow (watchpoints) cost. Uses production-scale
// workloads (the work-scale input) so fixed toggling costs amortize as they
// do on real servers.
//
// Monitored runs are pure functions of (module, plan, workload), so each
// sigma's app×run grid fans out onto a ThreadPool (--jobs N) and accumulates
// in index order — the printed numbers are identical for every job count.

#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/support/logging.h"
#include "src/support/thread_pool.h"

namespace gist {
namespace {

const char* kApps[] = {"apache-1",   "apache-2",  "apache-3", "apache-4",
                       "cppcheck-1", "cppcheck-2", "curl",     "transmission",
                       "sqlite",     "memcached",  "pbzip2"};

constexpr uint32_t kSigmas[] = {2, 4, 8, 12, 16, 22, 32};
constexpr int kRunsPerPoint = 8;
constexpr Word kProductionScale = 20000;  // ~160k busy-loop instructions

struct OverheadSample {
  uint32_t sigma = 0;
  double total = 0.0;
  double control_flow = 0.0;
  double data_flow = 0.0;
  int count = 0;
};

// Finds one failing run to seed the server.
bool FindFailure(const BugApp& app, FailureReport* report) {
  Rng rng(77);
  for (uint64_t run = 0; run < 1000; ++run) {
    Workload workload = app.MakeWorkload(run, rng);
    Vm vm(app.module(), workload, VmOptions{});
    const RunResult result = vm.Run();
    if (!result.ok() && result.failure.failing_instr != kNoInstr) {
      *report = result.failure;
      return true;
    }
  }
  return false;
}

std::vector<OverheadSample> RunSweep(ThreadPool& pool, double* seconds) {
  const CostModel cost_model;
  const auto start = std::chrono::steady_clock::now();

  // One failure report per app, shared by every sigma point.
  std::vector<std::unique_ptr<BugApp>> apps;
  std::vector<FailureReport> reports;
  for (const char* name : kApps) {
    auto app = MakeAppByName(name);
    FailureReport report;
    if (!FindFailure(*app, &report)) {
      continue;
    }
    apps.push_back(std::move(app));
    reports.push_back(report);
  }

  std::vector<OverheadSample> samples;
  for (uint32_t sigma : kSigmas) {
    GistOptions gist_options;
    gist_options.initial_sigma = sigma;

    // Plan per app, then flatten the app×run grid into one task list.
    struct Task {
      const BugApp* app = nullptr;
      const PlanSnapshot* snapshot = nullptr;
      Workload workload;
    };
    std::vector<PlanSnapshot> snapshots;
    snapshots.reserve(apps.size());  // tasks point into it
    std::vector<Task> tasks;
    for (size_t a = 0; a < apps.size(); ++a) {
      GistServer server(apps[a]->module(), gist_options);
      server.ReportFailure(reports[a]);
      snapshots.push_back(server.Snapshot());
      Rng rng(4242);
      for (int i = 0; i < kRunsPerPoint; ++i) {
        Task task;
        task.app = apps[a].get();
        task.snapshot = &snapshots.back();
        task.workload = apps[a]->MakeWorkload(static_cast<uint64_t>(i), rng);
        if (task.workload.inputs.size() > kWorkScaleInput) {
          task.workload.inputs[kWorkScaleInput] = kProductionScale;
        }
        tasks.push_back(std::move(task));
      }
    }

    std::vector<MonitoredRun> runs(tasks.size());
    pool.ParallelFor(tasks.size(), [&](uint64_t k) {
      const Task& task = tasks[k];
      runs[k] = RunMonitored(task.app->module(), *task.snapshot, 0, task.workload, gist_options,
                             k, 10'000'000);
    });

    OverheadSample sample;
    sample.sigma = sigma;
    for (const MonitoredRun& run : runs) {
      if (run.trace.baseline_instructions == 0) {
        continue;
      }
      TracingActivity control_only = run.trace.activity;
      control_only.watch_traps = 0;
      control_only.watch_arms = 0;
      TracingActivity data_only = run.trace.activity;
      data_only.pt_bytes = 0;
      data_only.pt_toggles = 0;
      sample.total += GistClientOverheadPercent(cost_model, run.trace.baseline_instructions,
                                                run.trace.activity);
      sample.control_flow +=
          GistClientOverheadPercent(cost_model, run.trace.baseline_instructions, control_only);
      sample.data_flow +=
          GistClientOverheadPercent(cost_model, run.trace.baseline_instructions, data_only);
      ++sample.count;
    }
    if (sample.count > 0) {
      samples.push_back(sample);
    }
  }

  const auto end = std::chrono::steady_clock::now();
  *seconds = std::chrono::duration<double>(end - start).count();
  return samples;
}

int Main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  uint64_t jobs_flag = 1;
  ParseBenchFlags(argc, argv, {{.name = "--jobs", .number = &jobs_flag, .max = UINT32_MAX}});
  uint32_t jobs = static_cast<uint32_t>(jobs_flag);
  if (jobs == 0) {
    jobs = ThreadPool::HardwareThreads();
  }
  ThreadPool pool(jobs);

  double elapsed = 0.0;
  const std::vector<OverheadSample> samples = RunSweep(pool, &elapsed);

  std::printf("Fig. 11: Gist runtime overhead vs tracked slice size sigma\n");
  std::printf("(averaged over all 11 programs, %d production-scale runs each)\n\n",
              kRunsPerPoint);
  std::printf("%-8s %12s %16s %14s\n", "sigma", "overhead", "control flow", "data flow");
  std::printf("%s\n", std::string(54, '-').c_str());

  double sigma2_total = 0.0;
  for (const OverheadSample& sample : samples) {
    const double total = sample.total / sample.count;
    if (sample.sigma == 2) {
      sigma2_total = total;
    }
    std::printf("%-8u %11.2f%% %15.2f%% %13.2f%%\n", sample.sigma, total,
                sample.control_flow / sample.count, sample.data_flow / sample.count);
  }
  std::printf("%s\n", std::string(54, '-').c_str());
  std::printf("\nAverage overhead at sigma=2: %.2f%% (paper: 3.74%%).\n", sigma2_total);
  std::printf("Overhead grows monotonically with the tracked slice size (paper Fig. 11).\n");
  std::printf("Sweep wall-clock: %.2fs with --jobs=%u.\n", elapsed, jobs);

  if (jobs > 1) {
    ThreadPool baseline(1);
    double sequential_elapsed = 0.0;
    const std::vector<OverheadSample> sequential = RunSweep(baseline, &sequential_elapsed);
    bool identical = sequential.size() == samples.size();
    for (size_t i = 0; identical && i < samples.size(); ++i) {
      identical = sequential[i].sigma == samples[i].sigma &&
                  sequential[i].total == samples[i].total &&
                  sequential[i].control_flow == samples[i].control_flow &&
                  sequential[i].data_flow == samples[i].data_flow &&
                  sequential[i].count == samples[i].count;
    }
    std::printf("Sequential baseline (--jobs=1): %.2fs — speedup %.2fx, results %s.\n",
                sequential_elapsed, sequential_elapsed / elapsed,
                identical ? "bit-identical" : "DIVERGED (engine bug!)");
    if (!identical) {
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace gist

int main(int argc, char** argv) { return gist::Main(argc, argv); }
