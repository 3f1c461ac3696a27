// Deterministic hot-path profiler (DESIGN.md §10).
//
// Ticks on the virtual-time clock — retired instructions — never wall time,
// so a profile is a pure function of (module, options, fleet_seed) like every
// other pipeline artifact. Collection has two sources:
//
//   * the interpreter bumps per-basic-block retired-instruction and
//     execution counters plus taken/not-taken edge counts into a
//     BlockProfile shard the caller owns (VmOptions::profile);
//   * the watchpoint unit (src/hw) attributes debug-register slot occupancy
//     and trap cost per arming slot and per trapping instruction.
//
// Shards aggregate per run and merge on the fleet coordinator in run-index
// order over the consumed prefix only — exactly the FleetResult / flight
// recorder discipline — so the exported profile is bit-identical for every
// `--jobs`, faults on or off, and for the fast path vs reference dispatch.
//
// Exports: a stable sorted JSON schema ("gist.profile.v1") and collapsed
// stacks (app;function;block count) for flamegraph tooling, plus a profile
// diff (`gist profdiff`) that tools/ci.sh runs as a strict gate against the
// committed BENCH_profile.json baseline.
//
// BlockProfile lives with its only writer in src/vm/block_profile.h
// (header-only, so the VM never links the obs library); a run's watchpoint
// attribution comes from the RunObsSample of the client runtime
// (src/core/client_runtime.h).

#ifndef GIST_SRC_OBS_PROFILER_H_
#define GIST_SRC_OBS_PROFILER_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/client_runtime.h"
#include "src/ir/ids.h"
#include "src/vm/block_profile.h"

namespace gist {

class DecodedModule;
class MetricsRegistry;

// Coordinator-side aggregator. Attach() binds the module's block layout
// (names, sizes, CFG successors) once; AddRun() folds one consumed run's
// shard in — the fleet calls it in run-index order, making every export
// deterministic.
//
// AddRun reads the run's watchpoint attribution from `obs`. Unmonitored
// phase-1 probes have no client runtime and pass the default, empty sample.
class HotPathProfiler {
 public:
  HotPathProfiler() = default;
  HotPathProfiler(const HotPathProfiler&) = delete;
  HotPathProfiler& operator=(const HotPathProfiler&) = delete;

  // Binds the profiler to `decoded`'s block layout under display name `app`.
  // Must be called before AddRun; calling again resets all accumulated data.
  void Attach(const DecodedModule& decoded, std::string app);
  bool attached() const { return attached_; }

  void AddRun(const BlockProfile& blocks, const RunObsSample& obs = {});
  uint64_t runs() const { return runs_; }
  const BlockProfile& totals() const { return total_; }

  // Stable sorted JSON ("gist.profile.v1"): totals, per-block histograms,
  // CFG edge profile, ranked hot chains, watchpoint attribution. Integers
  // only; byte-identical across platforms.
  std::string ProfileJson() const;
  // Collapsed-stack flamegraph format: one "app;function;block count" line
  // per executed block, in block-index order.
  std::string ProfileCollapsed() const;

  // Registers the profile summary in the deterministic metrics registry
  // ("profile." namespace) so recorder snapshots carry it.
  void PublishSummary(MetricsRegistry* metrics) const;

 private:
  struct BlockStatic {
    std::string function;
    std::string label;
    uint32_t size = 0;
    // Successor profile indices (kNoSuccessor when absent): a conditional
    // terminator has taken/not_taken, an unconditional jump has jump.
    uint32_t taken = kNoSuccessor;
    uint32_t not_taken = kNoSuccessor;
    uint32_t jump = kNoSuccessor;
  };

  static constexpr uint32_t kNoSuccessor = 0xffffffffu;

  bool attached_ = false;
  std::string app_;
  std::vector<BlockStatic> info_;
  BlockProfile total_;
  uint64_t runs_ = 0;
  // Watchpoint attribution.
  uint64_t watch_denied_arms_ = 0;
  std::vector<uint64_t> watch_slot_arms_;
  std::vector<uint64_t> watch_slot_traps_;
  std::map<InstrId, uint64_t> watch_traps_by_instr_;
};

// --- profile diff (the `gist profdiff` gate) --------------------------------

struct ProfileDiffOptions {
  uint32_t top_n = 5;               // entries reported per direction
  uint64_t max_drift_permille = 0;  // allowed per-block relative drift (0 = exact)
};

struct ProfileDiffResult {
  bool parsed = false;  // both inputs were well-formed gist.profile.v1 JSON
  bool ok = false;      // parsed and every block within the drift threshold
  std::string error;    // parse/schema failure description
  std::string report;   // human-readable top-N regressions/improvements
};

// Diffs two profile JSON exports keyed by function;block. Any block whose
// retired count drifts beyond `max_drift_permille` (relative to the baseline,
// per-mille) fails the diff; new and vanished blocks count as full drift.
ProfileDiffResult DiffProfiles(const std::string& baseline_json,
                               const std::string& current_json,
                               const ProfileDiffOptions& options = {});

}  // namespace gist

#endif  // GIST_SRC_OBS_PROFILER_H_
