// Time-to-sketch benchmark driver.
//
//   sketchbench --workload <table1|corpus-chaos> [--seed N] [--seconds S]
//               [--trace 0|1]
//
// Run it from the repository root: the corpus-chaos traced run reads
// BENCH_corpus.json there.
//
// --trace 0 (default) times diagnoses through the public entry points with
// tracing off and prints the end-to-end metrics, scaled to the speed of a
// reference host (calibration.h). --trace 1 alternates untraced and traced
// passes over the same inputs and prints the per-layer metrics. Either way
// every distinct diagnosis counts once in "attempted" and, when its grade
// against ground truth misses, once in "failed"; the last stdout line is one
// JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is 1 when any output check failed: a pass that differs
// from the first, a traced diagnosis that differs from the untraced one, a
// report that differs from ScoreCorpus's, a baseline floor. README.md
// describes the workloads, the metrics and the checks.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "sketchbench/calibration.h"
#include "sketchbench/stats.h"
#include "sketchbench/trace.h"
#include "sketchbench/workloads.h"
#include "src/support/logging.h"
#include "src/support/thread_pool.h"

namespace gist::bench {
namespace {

// The corpus BENCH_corpus.json scores.
constexpr uint64_t kBaselineSeed = 2015;
constexpr uint32_t kBaselinePrograms = 49;
// Workers of the traced run's jobs-invariance pass and the baseline check.
constexpr uint32_t kParallelJobs = 4;
// Set-up repeats until both limits are met; setup_s is the median.
constexpr size_t kMinSetupRepetitions = 5;
constexpr double kMinSetupSeconds = 1.0;
// Untimed calibration kernel runs before the first kept sample.
constexpr size_t kCalibrationWarmUp = 20;
constexpr char kBaselinePath[] = "BENCH_corpus.json";

struct Args {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 2015;
  double seconds = 10.0;
  bool trace = false;
};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "error: %s needs a value\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = FindWorkload(value);
      if (args->workload == nullptr) {
        std::fprintf(stderr, "error: unknown workload '%s'\n", value);
        return false;
      }
      continue;
    }
    if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = std::strtoul(value, &end, 10) != 0;
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", flag.c_str());
      return false;
    }
    if (end == value || *end != '\0') {
      std::fprintf(stderr, "error: %s expects a number, got '%s'\n", flag.c_str(), value);
      return false;
    }
  }
  if (args->workload == nullptr || !(args->seconds > 0.0)) {
    std::fprintf(stderr, "error: --workload is required and --seconds must be > 0\n");
    return false;
  }
  return true;
}

// Peak resident memory of the process, less the calibration arena, which is
// resident from the first calibration run to the end.
double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double arena_mib = static_cast<double>(kCalibrationArenaBytes) / (1 << 20);
  return static_cast<double>(usage.ru_maxrss) / 1024.0 - arena_mib;  // ru_maxrss is KiB
}

// Collects output-check results; any failure makes the run incorrect.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (!ok) {
      std::printf("CHECK FAILED: %s\n", what.c_str());
      ok_ = false;
    }
  }
  bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

// The `gist corpus score` conformance check: the 49-program corpus
// BENCH_corpus.json scores (corpus and fleet seed 2015, all seven families,
// no faults), run through ScoreCorpus at --jobs 4, must hold every floor of
// the committed baseline (read, never rewritten).
void CheckBaseline(Checks* checks) {
  CorpusOptions corpus;
  corpus.seed = kBaselineSeed;
  corpus.count = kBaselinePrograms;
  CorpusScoreOptions options;
  options.fleet_seed = kBaselineSeed;
  options.jobs = kParallelJobs;
  const CorpusScore score = ScoreCorpus(GenerateCorpus(corpus), options);
  const BaselineCheck check = CheckAgainstBaseline(score, ReadFlatJson(kBaselinePath));
  for (const std::string& violation : check.violations) {
    checks->Expect(false, std::string(kBaselinePath) + ": " + violation);
  }
  std::printf("baseline %s: %s\n", kBaselinePath, check.ok ? "ok" : "VIOLATED");
}

int Finish(const Checks& checks, uint64_t attempted, uint64_t failed,
           const std::vector<Metric>& metrics) {
  bool correct = checks.ok() && attempted > 0;
  for (const Metric& metric : metrics) {
    if (!ValidMetricName(metric.name) || !ValidUnit(metric.unit) ||
        !std::isfinite(metric.value)) {
      std::printf("CHECK FAILED: metric %s = %g %s is not reportable\n", metric.name.c_str(),
                  metric.value, metric.unit.c_str());
      correct = false;
    }
  }
  std::printf("%s\n", ResultJson(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// --- trace 0: end-to-end metrics ---------------------------------------------

// Each time in `times`, measured from the matching entry of `starts`, at
// reference-host speed: scaled by the calibration samples nearest to it.
std::vector<double> AtReferenceSpeed(const HostCalibration& calibration,
                                     const std::vector<double>& times,
                                     const std::vector<std::chrono::steady_clock::time_point>& starts) {
  std::vector<double> scaled;
  for (size_t i = 0; i < times.size(); ++i) {
    scaled.push_back(times[i] * calibration.FactorNear(starts[i]));
  }
  return scaled;
}

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double value : values) {
    sum += value;
  }
  return sum;
}

int RunEndToEnd(const Args& args) {
  HostCalibration calibration;
  calibration.WarmUp(kCalibrationWarmUp);

  // Set-up, with a calibration sample after each repetition.
  std::vector<double> setup_seconds;
  std::vector<std::chrono::steady_clock::time_point> setup_starts;
  WorkloadInputs inputs;
  const auto setup_start = std::chrono::steady_clock::now();
  while (setup_seconds.size() < kMinSetupRepetitions ||
         SecondsSince(setup_start) < kMinSetupSeconds) {
    const auto start = std::chrono::steady_clock::now();
    inputs = MakeInputs(*args.workload, args.seed);
    setup_seconds.push_back(SecondsSince(start));
    setup_starts.push_back(start);
    calibration.Sample();
  }
  ThreadPool pool(1);
  Checks checks;

  // Timed phase: passes over the inputs in order until --seconds have gone
  // by, the first pass always whole, with a calibration sample between
  // diagnoses every 100 ms. The inputs interleave the bugs (Table 1) or the
  // families (corpus), so a partial last pass has the same mix. Every repeat
  // must reproduce the first pass exactly. A distinct diagnosis counts once
  // in `attempted` and at most once in `failed`, however often it repeats.
  const size_t n = inputs.diagnoses.size();
  std::vector<Outcome> first_pass;
  std::vector<double> latency_ms;
  std::vector<std::chrono::steady_clock::time_point> starts;
  std::vector<bool> failed_flags(n, false);
  const auto timed_start = std::chrono::steady_clock::now();
  for (size_t run = 0; run < n || SecondsSince(timed_start) < args.seconds; ++run) {
    const size_t i = run % n;
    const auto start = std::chrono::steady_clock::now();
    Outcome outcome = Diagnose(inputs.diagnoses[i], &pool, nullptr);
    latency_ms.push_back(SecondsSince(start) * 1e3);
    starts.push_back(start);
    calibration.MaybeSample();
    if (run < n) {
      failed_flags[i] = !outcome.ok;
      outcome.score.sketch = {};  // fleet.sketch keeps it; stay compact
      first_pass.push_back(std::move(outcome));
    } else if (!SameDiagnosis(first_pass[i].fleet, outcome.fleet)) {
      checks.Expect(false, inputs.diagnoses[i].name + ": pass " + std::to_string(run / n) +
                               " diverged from pass 0");
      failed_flags[i] = true;
    }
  }
  const uint64_t attempted = n;
  const uint64_t failed = std::count(failed_flags.begin(), failed_flags.end(), true);

  // Deterministic metrics come from the first pass (all passes are equal).
  std::vector<double> accuracy;
  std::vector<double> recurrences;
  std::vector<double> sim_seconds;
  std::vector<double> overhead;
  for (size_t i = 0; i < first_pass.size(); ++i) {
    const Outcome& outcome = first_pass[i];
    if (!outcome.ok) {
      std::printf("diagnosis failed: %s, fleet seed %llu (manifested %d, failure match %d, "
                  "root cause %d)\n",
                  inputs.diagnoses[i].name.c_str(),
                  static_cast<unsigned long long>(inputs.diagnoses[i].fleet.fleet_seed),
                  outcome.score.manifested, outcome.score.failure_match,
                  outcome.score.root_cause_found);
    }
    accuracy.push_back(outcome.score.accuracy.overall);
    recurrences.push_back(outcome.fleet.failure_recurrences);
    sim_seconds.push_back(outcome.fleet.sim_seconds);
    overhead.push_back(outcome.fleet.avg_overhead_percent);
  }

  // Timings at reference-host speed (calibration.h); the rest as measured.
  const std::vector<double> scaled_ms = AtReferenceSpeed(calibration, latency_ms, starts);
  const TailStat tail = TailPercentile(scaled_ms, n);
  checks.Expect(tail.ok, "fewer than 10 distinct diagnoses above the median");
  const double count = static_cast<double>(scaled_ms.size());
  const std::vector<Metric> metrics = {
      {"diag_ms_p50", Median(scaled_ms), "ms"},
      {"diag_ms_tail", tail.value, "ms"},
      {"diagnoses_per_s", count / Sum(scaled_ms) * 1e3, "1/s"},
      {"setup_s", Median(AtReferenceSpeed(calibration, setup_seconds, setup_starts)), "s"},
      {"peak_rss_mb", PeakRssMiB(), "MiB"},
      {"mean_accuracy", Mean(accuracy), "%"},
      {"recurrences_mean", Mean(recurrences), "count"},
      {"sim_sketch_s_p50", Median(sim_seconds), "s"},
      {"client_overhead_pct", Mean(overhead), "%"},
  };
  // diag_failed_share is printed but left out of the result object, which
  // carries `failed` and `attempted` themselves: it is 0 on most seeds, and a
  // metric that reads 0 has no spread to bound.
  const double failed_share = static_cast<double>(failed) / static_cast<double>(attempted);

  std::printf("workload %s  seed %llu  passes %.2f  diagnoses/pass %zu\n", args.workload->name,
              static_cast<unsigned long long>(args.seed),
              static_cast<double>(latency_ms.size()) / static_cast<double>(n), n);
  for (const Metric& metric : metrics) {
    std::printf("  %-20s %14.4f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  std::printf("  %-20s %14.4f %s\n", "diag_failed_share", failed_share, "ratio");
  std::printf("  diag_ms_tail is p%.0f of n=%zu diagnoses (%zu distinct)\n", tail.percentile,
              tail.n, inputs.diagnoses.size());
  std::printf("  calibration kernel %.4f ms (median of %zu samples); as measured:\n"
              "  diag_ms_p50 %.4f ms, diag_ms_tail %.4f ms, diagnoses_per_s %.4f 1/s,"
              " setup_s %.4f s\n",
              calibration.kernel_ms(), calibration.samples_ms().size(), Median(latency_ms),
              Percentile(latency_ms, tail.percentile), count / Sum(latency_ms) * 1e3,
              Median(setup_seconds));
  return Finish(checks, attempted, failed, metrics);
}

// --- trace 1: per-layer metrics ----------------------------------------------

// Spans the traced mirror records, one per layer boundary (README.md).
const char* const kSpans[] = {
    "coop.loop",
    "core.server_init",
    "vm.probe",
    "core.report_failure",
    "core.snapshot",
    "core.monitored_run",
    "faultsim.apply",
    "coop.wire_encode",
    "coop.wire_decode",
    "core.ingest",
    "core.sketch",
    "core.advance_ast",
    "coop.fanout_wait",
    "corpus.grade",
};

// Counters the mirror accumulates, with their units.
const std::pair<const char*, const char*> kCounts[] = {
    {"vm.steps", "count"},
    {"pt.encode_bytes", "bytes"},
    {"coop.wire_bytes", "bytes"},
    {"pt.decode_packets", "count"},
    {"pt.decode_bytes", "bytes"},
    {"core.ingest.quarantined", "count"},
    {"coop.runs_lost", "count"},
    {"core.sketch.traces_scanned", "count"},
    {"coop.runs_executed", "count"},
    {"coop.runs_consumed", "count"},
};

// One traced pass over every diagnosis. Returns its wall time.
double TracedPass(const WorkloadInputs& inputs, ThreadPool* pool, Tracer* tracer,
                  std::vector<Outcome>* outcomes) {
  const auto start = std::chrono::steady_clock::now();
  outcomes->clear();
  for (size_t i = 0; i < inputs.diagnoses.size(); ++i) {
    tracer->BeginDiagnosis(i + 1);
    outcomes->push_back(Diagnose(inputs.diagnoses[i], pool, tracer));
  }
  return SecondsSince(start);
}

// The untraced reference, through the public entry point: ScoreCorpus for
// corpus workloads, Fleet::Run for Table 1.
struct Reference {
  CorpusScore corpus;
  std::vector<Outcome> table1;
};

Reference RunReference(const WorkloadInputs& inputs, ThreadPool* pool) {
  Reference reference;
  if (!inputs.programs.empty()) {
    reference.corpus = ScoreCorpus(inputs.programs, inputs.score_options);
  } else {
    for (const DiagnosisInput& input : inputs.diagnoses) {
      reference.table1.push_back(Diagnose(input, pool, nullptr));
    }
  }
  return reference;
}

int RunTraced(const Args& args) {
  const WorkloadInputs inputs = MakeInputs(*args.workload, args.seed, /*traced=*/true);
  const bool corpus = !inputs.programs.empty();
  ThreadPool pool(1);
  Tracer tracer;
  Checks checks;
  uint64_t mismatches = 0;
  // A distinct diagnosis fails when it misses or any traced pass of it
  // differs from the untraced one.
  std::vector<bool> failed_flags(inputs.diagnoses.size(), false);

  // Every traced diagnosis must match the untraced one; a corpus pass must
  // also reproduce ScoreCorpus's report byte for byte.
  const auto check_pass = [&](const Reference& reference, const std::vector<Outcome>& traced,
                              const std::string& label) {
    std::vector<ProgramScore> scores;
    for (size_t i = 0; i < traced.size(); ++i) {
      const bool same = corpus ? SameScore(reference.corpus.programs[i], traced[i].score)
                               : SameDiagnosis(reference.table1[i].fleet, traced[i].fleet);
      if (!same) {
        ++mismatches;
        checks.Expect(false, inputs.diagnoses[i].name + ": " + label + " diverged");
      }
      if (!same || !traced[i].ok) {
        failed_flags[i] = true;
      }
      scores.push_back(traced[i].score);
    }
    if (corpus) {
      checks.Expect(AssembleCorpusScore(std::move(scores)).ReportJson() ==
                        reference.corpus.ReportJson(),
                    label + " report differs from ScoreCorpus");
    }
  };

  // Pairs of untraced and traced passes, at least one, and no more than fit
  // in --seconds at the mean pair time so far.
  // The order alternates, so a machine that speeds up or slows down during
  // the run does not bias trace.overhead_ratio.
  std::vector<double> overhead_ratios;
  double traced_wall = 0.0;
  uint32_t passes = 0;
  Reference reference;
  std::vector<Outcome> traced;
  const auto run_start = std::chrono::steady_clock::now();
  do {
    const bool traced_first = passes % 2 == 1;
    double pass_wall = traced_first ? TracedPass(inputs, &pool, &tracer, &traced) : 0.0;
    const auto untraced_start = std::chrono::steady_clock::now();
    reference = RunReference(inputs, &pool);
    const double untraced_wall = SecondsSince(untraced_start);
    if (!traced_first) {
      pass_wall = TracedPass(inputs, &pool, &tracer, &traced);
    }
    traced_wall += pass_wall;
    overhead_ratios.push_back(pass_wall / untraced_wall);
    check_pass(reference, traced, "traced mirror");
    ++passes;
  } while (SecondsSince(run_start) * (passes + 1) / passes <= args.seconds);

  // Jobs invariance and the parallel fan-out: one more traced pass with
  // kParallelJobs workers (speculative batches, consumed-prefix stop) must
  // reproduce the sequential reference exactly.
  ThreadPool parallel_pool(kParallelJobs);
  Tracer parallel_tracer;
  const double parallel_wall = TracedPass(inputs, &parallel_pool, &parallel_tracer, &traced);
  check_pass(reference, traced, "--jobs 4 mirror");
  if (corpus) {
    CheckBaseline(&checks);
  }

  // Per-layer metrics, per traced pass.
  const double per_pass = 1.0 / static_cast<double>(passes);
  const std::map<std::string, SpanTotals> self = SelfTimes(tracer.spans());
  std::map<std::string, double> counts = tracer.counts();
  const auto self_s = [](const std::map<std::string, SpanTotals>& totals, const char* span) {
    const auto it = totals.find(span);
    return it == totals.end() ? 0.0 : it->second.self_s;
  };
  std::vector<Metric> metrics;
  for (const char* span : kSpans) {
    const auto it = self.find(span);
    const SpanTotals totals = it == self.end() ? SpanTotals{} : it->second;
    const std::string name = span;
    metrics.push_back({name + ".calls", static_cast<double>(totals.calls) * per_pass, "count"});
    metrics.push_back({name + ".self_s", totals.self_s * per_pass, "s"});
    metrics.push_back({name + ".share", totals.self_s / traced_wall, "ratio"});
  }
  for (const auto& [name, unit] : kCounts) {
    metrics.push_back({name, counts[name] * per_pass, unit});
  }
  const double vm_seconds = self_s(self, "vm.probe") + self_s(self, "core.monitored_run");
  metrics.push_back(
      {"vm.steps_per_s", vm_seconds > 0.0 ? counts["vm.steps"] / vm_seconds : 0.0, "1/s"});
  metrics.push_back({"trace.overhead_ratio", Median(overhead_ratios), "ratio"});

  const std::map<std::string, double>& parallel = parallel_tracer.counts();
  metrics.push_back({"jobs4.wall_ratio", parallel_wall / (traced_wall * per_pass), "ratio"});
  metrics.push_back({"jobs4.coop.fanout_wait.share",
                     self_s(SelfTimes(parallel_tracer.spans()), "coop.fanout_wait") /
                         parallel_wall,
                     "ratio"});
  metrics.push_back({"jobs4.coop.speculation_useful_ratio",
                     parallel.at("coop.runs_consumed") / parallel.at("coop.runs_executed"),
                     "ratio"});

  std::printf("workload %s  seed %llu  traced passes %u  diagnoses/pass %zu  mismatches %llu\n",
              args.workload->name, static_cast<unsigned long long>(args.seed), passes,
              inputs.diagnoses.size(), static_cast<unsigned long long>(mismatches));
  for (const Metric& metric : metrics) {
    std::printf("  %-36s %16.6f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  return Finish(checks, inputs.diagnoses.size(),
                std::count(failed_flags.begin(), failed_flags.end(), true), metrics);
}

int Main(int argc, char** argv) {
  SetLogLevel(LogLevel::kError);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return 2;
  }
  return args.trace ? RunTraced(args) : RunEndToEnd(args);
}

}  // namespace
}  // namespace gist::bench

int main(int argc, char** argv) { return gist::bench::Main(argc, argv); }
