// Gist's client-side runtime (paper Fig. 2, "Gist-client").
//
// An ExecutionObserver that executes the InstrumentationPlan a PlanSnapshot
// assigns one client against one production run: it toggles the (simulated)
// Intel PT driver at the plan's start blocks and stop instructions, arms
// hardware watchpoints when tracked accesses first execute, and packages
// everything into a RunTrace for the server.

#ifndef GIST_SRC_CORE_CLIENT_RUNTIME_H_
#define GIST_SRC_CORE_CLIENT_RUNTIME_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/instrumentation.h"
#include "src/core/plan_snapshot.h"
#include "src/core/run_trace.h"
#include "src/hw/watchpoints.h"
#include "src/pt/tracer.h"
#include "src/vm/vm.h"

namespace gist {

// Client-side observability sample of one monitored run (ClientRuntime::
// Sample, DESIGN.md §9). Deliberately NOT part of RunTrace: the wire format a
// client ships is unchanged; these numbers travel the coordinator-local side
// channel only.
struct RunObsSample {
  uint64_t traced_branches = 0;   // branch outcomes the PT encoder compressed
  uint64_t watch_denied_arms = 0; // arm requests denied (all slots busy)
  uint32_t watch_peak_active = 0; // most debug registers simultaneously armed
  uint64_t unarmed_accesses = 0;  // tracked accesses left to fleet rotation
  // Profiler attribution (DESIGN.md §10): per-debug-register contention and
  // trap counts per trapping instruction.
  std::vector<uint64_t> watch_slot_arms;
  std::vector<uint64_t> watch_slot_traps;
  std::vector<std::pair<InstrId, uint64_t>> watch_traps_by_instr;
};

class ClientRuntime : public ExecutionObserver, public InstrumentationHook {
 public:
  // "Use the snapshot's watchpoint budget" sentinel for the ctor below.
  static constexpr uint32_t kSnapshotSlots = UINT32_MAX;

  // Runs client `client_index`'s rotation of the snapshot's plan. The
  // runtime only ever reads the snapshot, so many runtimes (one per
  // concurrent run) may share one. The snapshot must outlive the runtime.
  // `watchpoint_slots` overrides the snapshot's debug-register budget —
  // fault injection uses it to model slot contention (another tool already
  // owns some or all of DR0–DR3 on this client).
  ClientRuntime(const Module& module, const PlanSnapshot& snapshot, uint64_t client_index,
                uint32_t num_cores, size_t pt_buffer_bytes = kDefaultPtBufferBytes,
                uint32_t watchpoint_slots = kSnapshotSlots);

  // Collects the run's traces; call after the VM run completes. `run_id`
  // tags the trace; the run result supplies the outcome.
  RunTrace TakeTrace(uint64_t run_id, const RunResult& result);

  // --- ExecutionObserver ----------------------------------------------------
  // Everything except thread lifecycle. Batching is safe here: the VM's flush
  // rules deliver buffered retired events (and with them the PT stop-toggle)
  // before every control-flow event the tracer sees, and buffered accesses
  // before every hook site that could arm a watchpoint, so the PT byte
  // streams and watchpoint logs are identical to unbatched delivery.
  uint32_t SubscribedEvents() const override {
    return kEvContextSwitch | kEvBlockEnter | kEvBranch | kEvMemAccess | kEvReturn |
           kEvInstrRetired;
  }
  bool AcceptsEventBatches() const override { return true; }
  void OnContextSwitch(CoreId core, ThreadId prev, ThreadId next, FunctionId next_function,
                       BlockId next_block, uint32_t next_index) override;
  void OnBlockEnter(ThreadId tid, CoreId core, FunctionId function, BlockId block) override;
  void OnBranch(ThreadId tid, CoreId core, InstrId instr, bool taken) override;
  void OnMemAccess(const MemAccessEvent& event) override;
  void OnReturn(ThreadId tid, CoreId core, InstrId instr, FunctionId to_function,
                BlockId to_block, uint32_t to_index) override;
  void OnInstrRetired(ThreadId tid, CoreId core, InstrId instr) override;
  void OnInstrRetiredBatch(ThreadId tid, CoreId core, const InstrId* instrs,
                           size_t count) override;

  // --- InstrumentationHook (watchpoint arming with register access) --------
  // Only the plan's arm sites do anything; let the VM skip the hook (and its
  // ordering flushes) everywhere else.
  bool NeedsInstr(InstrId instr) const override {
    return plan_.arm_before.count(instr) != 0 || plan_.arm_after.count(instr) != 0;
  }
  void BeforeInstr(ThreadId tid, InstrId instr, const std::vector<Word>& regs) override;
  void AfterInstr(ThreadId tid, InstrId instr, const std::vector<Word>& regs) override;

  // The run's observability sample; call after the VM run completes.
  RunObsSample Sample() const;

  const PtTracer& tracer() const { return tracer_; }
  const WatchpointUnit& watchpoints() const { return watchpoints_; }
  // Accesses that hit the 4-watchpoint budget limit and could not be armed;
  // the cooperative fleet rotates these across other runs (§3.2.3).
  const std::vector<InstrId>& unarmed_accesses() const { return unarmed_; }

 private:
  void ArmSites(const std::vector<WatchArmSite>& sites, const std::vector<Word>& regs);

  const Module& module_;
  const InstrumentationPlan& plan_;
  PtTracer tracer_;
  WatchpointUnit watchpoints_;
  PerfCounter perf_;
  std::vector<InstrId> unarmed_;
};

}  // namespace gist

#endif  // GIST_SRC_CORE_CLIENT_RUNTIME_H_
