// Flight recorder (DESIGN.md §9): the pipeline's always-on telemetry sink.
//
// One recorder rides along a diagnosis (FleetOptions::recorder) and collects
//   - a MetricsRegistry snapshot of every layer (VM, PT, watchpoints, AsT,
//     fleet, statistics), and
//   - a span trace on VIRTUAL time: timestamps and durations are retired-
//     instruction counts accumulated over the consumed runs, never wall
//     clock. src/ deliberately contains no std::chrono — a virtual-time
//     trace is a pure function of (module, options, fleet_seed) and is
//     bit-identical for every --jobs, so it can be diffed in CI like any
//     other deterministic artifact.
//
// TraceJson() emits Chrome trace-event JSON ({"traceEvents": [...]}) loadable
// in Perfetto / chrome://tracing; the "microsecond" axis there simply reads
// as instructions.
//
// Wall-clock numbers (bench measurements, derived accuracies) go into the
// annotation side channel: a plain name→double map that is NEVER part of
// MetricsJson()/TraceJson(). Benches read annotations back directly; the
// deterministic outputs stay quarantined from them by construction.
//
// Threading: the recorder is coordinator-thread only, like the GistServer.
// Workers never touch it — per-run samples travel back in MonitoredRun and
// are merged in run-index order through a RunMetricsPublisher.

#ifndef GIST_SRC_OBS_FLIGHT_RECORDER_H_
#define GIST_SRC_OBS_FLIGHT_RECORDER_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/support/metrics.h"

namespace gist {

struct MonitoredRun;
struct RunStats;

// One trace event. Args values are raw JSON fragments (use NumArg/StrArg),
// so spans can carry numbers and strings without a JSON AST.
struct TraceSpan {
  std::string name;
  std::string category;
  uint64_t begin = 0;     // virtual timestamp (retired instructions)
  uint64_t duration = 0;  // virtual duration; 0 for instants
  uint32_t track = 0;     // rendered as the trace-event "tid" (a lane)
  bool instant = false;
  std::vector<std::pair<std::string, std::string>> args;
};

using TraceArgs = std::vector<std::pair<std::string, std::string>>;

TraceArgs::value_type NumArg(std::string_view key, uint64_t value);
TraceArgs::value_type NumArg(std::string_view key, int64_t value);
TraceArgs::value_type StrArg(std::string_view key, std::string_view value);

class FlightRecorder {
 public:
  // Well-known span lanes ("tid" in the trace): lane 0 carries the fleet's
  // nested iteration/run spans, lane 1 the control-plane instants (replans,
  // retries, sketch builds) so they don't visually pile onto run spans.
  static constexpr uint32_t kRunTrack = 0;
  static constexpr uint32_t kControlTrack = 1;

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  // Virtual clock: cumulative retired instructions over consumed work.
  uint64_t now() const { return clock_; }
  void AdvanceClock(uint64_t retired_instructions) { clock_ += retired_instructions; }

  void AddSpan(std::string name, std::string category, uint64_t begin, uint64_t end,
               uint32_t track = kRunTrack, TraceArgs args = {});
  void AddInstant(std::string name, std::string category, uint32_t track = kControlTrack,
                  TraceArgs args = {});

  const std::vector<TraceSpan>& spans() const { return spans_; }

  // --- non-deterministic side channel --------------------------------------
  // Named doubles for bench-only data (wall-clock seconds, percentages).
  // Excluded from MetricsJson()/TraceJson() so the deterministic artifacts
  // can never absorb a wall-clock bit.
  void Annotate(std::string_view name, double value);
  double annotation(std::string_view name, double missing = 0.0) const;

  // Deterministic exports.
  std::string MetricsJson() const { return metrics_.ToJson(); }
  std::string TraceJson() const;  // Chrome trace-event format

 private:
  MetricsRegistry metrics_;
  std::vector<TraceSpan> spans_;
  uint64_t clock_ = 0;
  std::map<std::string, double, std::less<>> annotations_;
};

// Publishes per-run metrics into one registry. The publisher resolves every
// metric name to its storage slot once at construction (the registry's maps
// are node-based, so the slots stay valid) — the fleet coordinator publishes
// one run at a time for 10^3+ runs per diagnosis, and re-walking the sorted
// map for ~20 names per run was the hottest coordinator-side cost.
class RunMetricsPublisher {
 public:
  explicit RunMetricsPublisher(MetricsRegistry* metrics);

  // The VM counters ("vm.") of one run.
  void PublishVm(const RunStats& stats);
  // Everything a consumed monitored run contributes: PublishVm plus
  // PT-encode ("pt.encode.") and watchpoint ("hw.watch.") activity.
  void Publish(const MonitoredRun& run);

 private:
  // "vm." slots.
  uint64_t* vm_retired_;
  uint64_t* vm_mem_accesses_;
  uint64_t* vm_branches_;
  uint64_t* vm_context_switches_;
  uint64_t* vm_threads_created_;
  uint64_t* vm_block_enters_;
  uint64_t* vm_returns_;
  uint64_t* vm_thread_events_;
  Histogram* vm_run_steps_;
  // Monitored-run slots.
  uint64_t* monitored_runs_;
  uint64_t* pt_bytes_;
  uint64_t* pt_toggles_;
  uint64_t* pt_traced_branches_;
  uint64_t* watch_traps_;
  uint64_t* watch_arms_;
  uint64_t* watch_denied_arms_;
  uint64_t* watch_unarmed_accesses_;
  int64_t* watch_peak_active_;
};

}  // namespace gist

#endif  // GIST_SRC_OBS_FLIGHT_RECORDER_H_
