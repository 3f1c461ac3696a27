#include "src/core/client_runtime.h"

#include <algorithm>

namespace gist {

ClientRuntime::ClientRuntime(const Module& module, const PlanSnapshot& snapshot,
                             uint64_t client_index, uint32_t num_cores, size_t pt_buffer_bytes,
                             uint32_t watchpoint_slots)
    : module_(module),
      plan_(snapshot.ForClient(client_index)),
      tracer_(num_cores, pt_buffer_bytes, /*always_on=*/false),
      watchpoints_(watchpoint_slots == kSnapshotSlots ? snapshot.watchpoint_slots()
                                                      : watchpoint_slots) {
  // Statically-known addresses (globals) are armed before the run starts.
  for (Addr addr : plan_.static_watch_addrs) {
    watchpoints_.Arm(addr);
  }
}

void ClientRuntime::OnContextSwitch(CoreId core, ThreadId prev, ThreadId next,
                                    FunctionId next_function, BlockId next_block,
                                    uint32_t next_index) {
  tracer_.OnContextSwitch(core, prev, next, next_function, next_block, next_index);
}

void ClientRuntime::OnBlockEnter(ThreadId tid, CoreId core, FunctionId function, BlockId block) {
  if (plan_.ShouldStartAt(function, block)) {
    tracer_.Enable(core, tid, function, block);
  }
  tracer_.OnBlockEnter(tid, core, function, block);
}

void ClientRuntime::OnBranch(ThreadId tid, CoreId core, InstrId instr, bool taken) {
  tracer_.OnBranch(tid, core, instr, taken);
}

void ClientRuntime::OnMemAccess(const MemAccessEvent& event) {
  if (plan_.ShouldWatch(event.instr) && !watchpoints_.IsWatched(event.addr)) {
    // Arm on first execution of a tracked access: the runtime now knows the
    // concrete address the statically-planned watchpoint should cover.
    if (!watchpoints_.Arm(event.addr)) {
      if (std::find(unarmed_.begin(), unarmed_.end(), event.instr) == unarmed_.end()) {
        unarmed_.push_back(event.instr);
      }
    }
  }
  watchpoints_.OnMemAccess(event);
  perf_.OnMemAccess(event);
}

void ClientRuntime::OnReturn(ThreadId tid, CoreId core, InstrId instr, FunctionId to_function,
                             BlockId to_block, uint32_t to_index) {
  tracer_.OnReturn(tid, core, instr, to_function, to_block, to_index);
}

void ClientRuntime::OnInstrRetired(ThreadId tid, CoreId core, InstrId instr) {
  perf_.OnInstrRetired(tid, core, instr);
  if (plan_.ShouldStopAfter(instr)) {
    const InstrLocation& loc = module_.location(instr);
    tracer_.Disable(core, loc.function, loc.block, loc.index);
  }
}

void ClientRuntime::OnInstrRetiredBatch(ThreadId tid, CoreId core, const InstrId* instrs,
                                        size_t count) {
  perf_.OnInstrRetiredBatch(tid, core, instrs, count);
  if (plan_.pt_stop_instrs.empty()) {
    return;  // no stop sites anywhere: the whole run needs no per-instr scan
  }
  for (size_t i = 0; i < count; ++i) {
    if (plan_.ShouldStopAfter(instrs[i])) {
      const InstrLocation& loc = module_.location(instrs[i]);
      tracer_.Disable(core, loc.function, loc.block, loc.index);
    }
  }
}

void ClientRuntime::ArmSites(const std::vector<WatchArmSite>& sites,
                             const std::vector<Word>& regs) {
  for (const WatchArmSite& site : sites) {
    if (site.addr_reg >= regs.size()) {
      continue;
    }
    const Addr addr = static_cast<Addr>(regs[site.addr_reg]);
    if (addr == kNullAddr || watchpoints_.IsWatched(addr)) {
      continue;
    }
    if (!watchpoints_.Arm(addr)) {
      if (std::find(unarmed_.begin(), unarmed_.end(), site.target_access) == unarmed_.end()) {
        unarmed_.push_back(site.target_access);
      }
    }
  }
}

void ClientRuntime::BeforeInstr(ThreadId /*tid*/, InstrId instr, const std::vector<Word>& regs) {
  auto it = plan_.arm_before.find(instr);
  if (it != plan_.arm_before.end()) {
    ArmSites(it->second, regs);
  }
}

void ClientRuntime::AfterInstr(ThreadId /*tid*/, InstrId instr, const std::vector<Word>& regs) {
  auto it = plan_.arm_after.find(instr);
  if (it != plan_.arm_after.end()) {
    ArmSites(it->second, regs);
  }
}

RunObsSample ClientRuntime::Sample() const {
  RunObsSample obs;
  obs.traced_branches = tracer_.traced_branches();
  obs.watch_denied_arms = watchpoints_.denied_arms();
  obs.watch_peak_active = watchpoints_.peak_active();
  obs.unarmed_accesses = unarmed_.size();
  // Profiler attribution (DESIGN.md §10).
  obs.watch_slot_arms = watchpoints_.slot_arms();
  obs.watch_slot_traps = watchpoints_.slot_traps();
  obs.watch_traps_by_instr.assign(watchpoints_.traps_by_instr().begin(),
                                  watchpoints_.traps_by_instr().end());
  return obs;
}

RunTrace ClientRuntime::TakeTrace(uint64_t run_id, const RunResult& result) {
  tracer_.FlushAllPending();  // drain partial TNT packets (crash-ended runs)
  RunTrace trace;
  trace.run_id = run_id;
  trace.failed = !result.ok();
  trace.failure = result.failure;
  for (CoreId core = 0; core < tracer_.num_cores(); ++core) {
    trace.pt_buffers.push_back(tracer_.buffer(core).bytes());
  }
  trace.watch_events = watchpoints_.events();
  trace.activity.pt_bytes = tracer_.total_bytes_generated();
  trace.activity.pt_toggles = tracer_.toggle_count();
  trace.activity.watch_traps = watchpoints_.trap_count();
  trace.activity.watch_arms = watchpoints_.arm_operations();
  trace.baseline_instructions = perf_.instructions();
  return trace;
}

}  // namespace gist
