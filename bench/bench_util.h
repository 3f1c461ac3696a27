// Shared harness for the evaluation benches: runs an app through the full
// cooperative-fleet loop, gathers the Table 1 / Fig. 9-12 metrics, and
// provides the stage-limited pipeline variants used by the Fig. 10
// contribution breakdown.

#ifndef GIST_BENCH_BENCH_UTIL_H_
#define GIST_BENCH_BENCH_UTIL_H_

#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/apps/app.h"
#include "src/apps/app_util.h"
#include "src/coop/fleet.h"
#include "src/obs/flight_recorder.h"

namespace gist {

struct AppFleetOutcome {
  std::unique_ptr<BugApp> app;
  FleetResult fleet;
  StaticSlice slice;
  InstrumentationPlan final_plan;
  std::vector<RunTrace> traces;  // everything the server collected
  AccuracyResult accuracy;
  double offline_seconds = 0.0;  // static slice + instrumentation planning
  size_t slice_source_loc = 0;
  size_t ideal_instrs = 0;
  size_t ideal_source_loc = 0;
  size_t sketch_instrs = 0;
  size_t sketch_source_loc = 0;
};

// Default fleet options used across the benches (kept identical so numbers
// are comparable between tables).
FleetOptions DefaultBenchFleetOptions();

// One flag a bench binary accepts, bound to the variable it sets:
//   - `number`: takes a value, `--name V` or `--name=V`, parsed with the
//     CLI's strict rule (ParseUint in src/support/str.h: digits only, at
//     most `max`);
//   - `text`: takes a string value the same way; with `bare` set the value
//     is optional, only `--name=V` supplies it, and `--name` alone stores
//     `bare`;
//   - `on`: a switch that takes no value.
struct BenchFlag {
  std::string_view name;
  uint64_t* number = nullptr;
  uint64_t max = UINT64_MAX;
  std::string* text = nullptr;
  const char* bare = nullptr;
  bool* on = nullptr;
};

// Parses argv against `flags`, plus the shared telemetry export flags
// (src/apps/app_util.h) when `telemetry` is set. Follows the CLI's rule: an
// unknown flag, a stray argument, a missing value or a malformed number
// prints a message and exits with status 2. Flags left out keep their
// variables' values.
void ParseBenchFlags(int argc, char** argv, std::initializer_list<BenchFlag> flags,
                     TelemetryExportOptions* telemetry = nullptr);

// Runs `name`'s bug through the full loop and measures everything. The
// root-cause check is the app's own ground truth.
AppFleetOutcome RunAppFleet(const std::string& name, const FleetOptions& options);

// The Table 1 app list, shared by the sweep benches.
const std::vector<std::string>& Table1Apps();

// Stage-limited accuracy (Fig. 10):
//   static-only: the sketch is the raw AsT window of the static slice;
//   +control flow: window filtered by PT-decoded execution, no data flow;
//   +data flow: the full pipeline (same as RunAppFleet's accuracy).
struct BreakdownResult {
  double static_only = 0.0;
  double with_control_flow = 0.0;
  double with_data_flow = 0.0;
};

// When `recorder` is non-null the fleet runs with it attached (deterministic
// metrics + virtual-time spans) and the three stage accuracies are published
// as annotations "fig10.<name>.static_only" / ".with_control_flow" /
// ".with_data_flow" — the recorder is the source of truth the Fig. 10 table
// prints from.
BreakdownResult MeasureBreakdown(const std::string& name, const FleetOptions& options,
                                 FlightRecorder* recorder = nullptr);

// Formats seconds as the paper's "<Mm:SSs>".
std::string FormatMinSec(double seconds);

// --- machine-readable bench artifacts (BENCH_interp.json) -------------------
// The artifact is a flat JSON object mapping metric names to numbers. The
// interpreter microbench and the Table 1 sweep both merge their metrics into
// the same file; tools/ci.sh gates on the committed copy.

// Merges `values` over the file's current contents (ReadFlatJson: a missing
// or malformed file counts as empty) and rewrites it with WriteFlatJson.
// Returns false when the file cannot be written.
bool UpdateBenchJson(const std::string& path, const std::map<std::string, double>& values);

}  // namespace gist

#endif  // GIST_BENCH_BENCH_UTIL_H_
