#include "src/vm/vm.h"

#include <algorithm>

#include "src/support/str.h"

namespace gist {

bool ParseExecTier(std::string_view text, ExecTier* tier) {
  if (text == "fast") {
    *tier = ExecTier::kFast;
    return true;
  }
  if (text == "ref" || text == "reference") {
    *tier = ExecTier::kReference;
    return true;
  }
  return false;
}

Vm::Vm(const Module& module, Workload workload, VmOptions options)
    : module_(module),
      workload_(std::move(workload)),
      options_(std::move(options)),
      memory_(module),
      rng_(workload_.schedule_seed) {
  GIST_CHECK_GT(options_.num_cores, 0u);
  if (options_.decoded != nullptr) {
    GIST_CHECK(&options_.decoded->module() == &module_)
        << "VmOptions::decoded caches a different module";
    decoded_ = options_.decoded;
  } else {
    owned_decoded_ = std::make_unique<DecodedModule>(module_);
    decoded_ = owned_decoded_.get();
  }
  if (options_.profile != nullptr) {
    // Size the shard once so StepBurst can index it unchecked.
    options_.profile->EnsureSize(decoded_->num_blocks());
  }
  core_occupant_.assign(options_.num_cores, kNoThread);
  threads_.reserve(kMaxThreads);
  BuildDispatch();
}

void Vm::BuildDispatch() {
  const bool reference = options_.reference_dispatch;
  for (ExecutionObserver* observer : options_.observers) {
    const uint32_t mask = reference ? kEvAll : observer->SubscribedEvents();
    const bool batched = !reference && observer->AcceptsEventBatches();
    if (mask & kEvContextSwitch) {
      on_context_switch_.push_back(observer);
    }
    if (mask & kEvBlockEnter) {
      on_block_enter_.push_back(observer);
    }
    if (mask & kEvBranch) {
      on_branch_.push_back(observer);
    }
    if (mask & kEvReturn) {
      on_return_.push_back(observer);
    }
    if (mask & kEvThreadLifecycle) {
      on_thread_event_.push_back(observer);
    }
    if (mask & kEvMemAccess) {
      (batched ? on_mem_batched_ : on_mem_immediate_).push_back(observer);
    }
    if (mask & kEvInstrRetired) {
      (batched ? on_retired_batched_ : on_retired_immediate_).push_back(observer);
    }
  }
  mem_observed_ = !on_mem_immediate_.empty() || !on_mem_batched_.empty();
  retired_observed_ = !on_retired_immediate_.empty() || !on_retired_batched_.empty();

  if (options_.hook != nullptr) {
    // Ask the hook once per instruction id which sites it instruments; the
    // interpreter then skips the two virtual hook calls everywhere else. The
    // reference path keeps the historical call-everywhere behavior.
    hook_everywhere_ = reference;
    if (!hook_everywhere_) {
      const size_t count = module_.num_instructions();
      hook_sites_.assign(count, 0);
      for (InstrId id = 0; id < count; ++id) {
        hook_sites_[id] = options_.hook->NeedsInstr(id) ? 1 : 0;
      }
    }
  }

}

void Vm::FlushBatches() {
  if (!mem_batch_.empty()) {
    for (ExecutionObserver* observer : on_mem_batched_) {
      observer->OnMemAccessBatch(mem_batch_.data(), mem_batch_.size());
    }
    mem_batch_.clear();
  }
  if (!retired_batch_.empty()) {
    for (ExecutionObserver* observer : on_retired_batched_) {
      observer->OnInstrRetiredBatch(batch_tid_, batch_core_, retired_batch_.data(),
                                    retired_batch_.size());
    }
    retired_batch_.clear();
  }
}

ThreadId Vm::SpawnThread(FunctionId function, const std::vector<Word>& args, bool is_main) {
  GIST_CHECK_LT(threads_.size(), kMaxThreads) << "thread limit exceeded";
  const DecodedFunction& decoded_function = decoded_->function(function);
  GIST_CHECK(!decoded_function.blocks.empty()) << "spawned function has no blocks";
  const ThreadId tid = static_cast<ThreadId>(threads_.size());
  ThreadState thread;
  thread.id = tid;
  thread.core = tid % options_.num_cores;
  Frame frame;
  frame.function = &decoded_function;
  frame.block = &decoded_function.entry();
  frame.regs.assign(decoded_function.num_regs, 0);
  for (size_t i = 0; i < args.size() && i < frame.regs.size(); ++i) {
    frame.regs[i] = args[i];
  }
  thread.stack.push_back(std::move(frame));
  threads_.push_back(std::move(thread));
  ++result_.stats.threads_created;
  if (!is_main) {
    ++result_.stats.thread_events;
    Dispatch(on_thread_event_, [&](ExecutionObserver& o) { o.OnThreadStart(tid); });
  }
  return tid;
}

void Vm::RaiseFailure(ThreadState& thread, FailureType type, InstrId instr,
                      const std::string& message) {
  result_.failure.type = type;
  result_.failure.failing_instr = instr;
  result_.failure.failing_thread = thread.id;
  result_.failure.message = message;
  result_.failure.stack_trace = StackTrace(thread, instr);
  done_ = true;
}

std::vector<InstrId> Vm::StackTrace(const ThreadState& thread, InstrId failing) const {
  std::vector<InstrId> trace;
  for (const Frame& frame : thread.stack) {
    if (frame.call_site != kNoInstr) {
      trace.push_back(frame.call_site);
    }
  }
  trace.push_back(failing);
  return trace;
}

void Vm::NotifyBlockEnter(ThreadState& thread) {
  const Frame& frame = thread.stack.back();
  Dispatch(on_block_enter_, [&](ExecutionObserver& o) {
    o.OnBlockEnter(thread.id, thread.core, frame.function->id, frame.block->id);
  });
}

void Vm::ExitThread(ThreadState& thread) {
  thread.status = ThreadStatus::kExited;
  ++result_.stats.thread_events;
  Dispatch(on_thread_event_, [&](ExecutionObserver& o) { o.OnThreadExit(thread.id); });
  // Wake joiners.
  for (ThreadState& other : threads_) {
    if (other.status == ThreadStatus::kBlockedJoin && other.join_target == thread.id) {
      other.status = ThreadStatus::kRunnable;
      other.join_target = kNoThread;
    }
  }
}

uint64_t Vm::StepBurst(ThreadState& thread, uint64_t max_count) {
  // Hoisted out of the per-instruction path: the scheduler loop in Run()
  // charges the whole burst to the step budget and the quantum at once, and
  // the observer/hook configuration cannot change mid-run.
  const bool has_hook = options_.hook != nullptr;
  const bool mem_observed = mem_observed_;
  const bool retired_observed = retired_observed_;
  const ThreadId tid = thread.id;
  const CoreId core = thread.core;

  // The interpreter's position (current block, index into it, register file)
  // lives in locals for the whole burst; the frame is written back only at
  // control transfers that need it (calls push, so the caller's resume point
  // must be durable) and at burst exits (the scheduler and the hang reporter
  // read it). Observers never inspect the running thread's frame mid-burst —
  // every event carries its payload — so this is invisible.
  Frame* frame = &thread.stack.back();
  const DecodedBlock* block = frame->block;
  const DecodedInstr* instrs = block->instrs;
  uint32_t block_size = block->size;
  uint32_t index = frame->index;
  Word* regs = frame->regs.data();

  // Profiling (src/vm/block_profile.h): the retired counter of the *current*
  // block stays in a hoisted pointer, so the per-instruction cost with
  // profiling on is one increment; it is re-aimed only at control transfers.
  // Null when no profile shard is attached.
  BlockProfile* const prof = options_.profile;
  uint64_t* prof_retired = prof != nullptr ? &prof->retired[block->profile_index] : nullptr;

  auto sync_frame = [&]() {
    frame->block = block;
    frame->index = index;
  };
  auto load_frame = [&]() {
    frame = &thread.stack.back();
    block = frame->block;
    instrs = block->instrs;
    block_size = block->size;
    index = frame->index;
    regs = frame->regs.data();
    if (prof != nullptr) {
      prof_retired = &prof->retired[block->profile_index];
    }
  };
  auto enter_block = [&](const DecodedBlock* b) {
    block = b;
    instrs = b->instrs;
    block_size = b->size;
    index = 0;
    ++result_.stats.block_enters;
    if (prof != nullptr) {
      ++prof->exec[b->profile_index];
      prof_retired = &prof->retired[b->profile_index];
    }
  };
  // Register indices were validated when the module was decoded, so access
  // is unchecked here.
  auto reg = [&](Reg r) -> Word { return regs[r]; };
  auto set_reg = [&](Reg r, Word value) {
    if (r != kNoReg) {
      regs[r] = value;
    }
  };
  auto notify_block_enter = [&]() {
    Dispatch(on_block_enter_, [&](ExecutionObserver& o) {
      o.OnBlockEnter(tid, core, frame->function->id, block->id);
    });
  };
  // With no observers at all, every Dispatch at a control transfer is a
  // no-op (all subscriber lists are empty and the batch buffers can never
  // fill), so the hot branch/jump/call/return paths skip them wholesale.
  const bool quiet = options_.observers.empty();

  uint64_t executed = 0;
  while (executed < max_count) {
    GIST_CHECK_LT(index, block_size);
    const DecodedInstr& instr = instrs[index];
    ++executed;
    if (prof_retired != nullptr) {
      ++*prof_retired;
    }

    auto mem_fault = [&](MemFault fault, Addr addr) {
      const Instruction& full = *instr.src;
      RaiseFailure(thread, MemFaultToFailure(fault), instr.id,
                   StrFormat("%s at address 0x%llx: %s", FailureTypeName(MemFaultToFailure(fault)),
                             static_cast<unsigned long long>(addr),
                             full.loc.text.empty() ? OpcodeName(instr.op) : full.loc.text.c_str()));
    };
    auto emit_access = [&](Addr addr, Word value, bool is_write) {
      ++result_.stats.mem_accesses;
      const uint64_t seq = access_seq_++;
      if (!mem_observed) {
        return;
      }
      MemAccessEvent event{seq, tid, core, instr.id, addr, value, is_write};
      if (!on_mem_immediate_.empty()) {
        for (ExecutionObserver* observer : on_mem_immediate_) {
          observer->OnMemAccess(event);
        }
      }
      if (!on_mem_batched_.empty()) {
        mem_batch_.push_back(event);
      }
    };
    auto retire = [&]() {
      if (!retired_observed) {
        return;
      }
      if (!on_retired_immediate_.empty()) {
        for (ExecutionObserver* observer : on_retired_immediate_) {
          observer->OnInstrRetired(tid, core, instr.id);
        }
      }
      if (!on_retired_batched_.empty()) {
        if (retired_batch_.empty()) {
          batch_tid_ = tid;
          batch_core_ = core;
        }
        retired_batch_.push_back(instr.id);
      }
    };

    const bool hooked = has_hook && (hook_everywhere_ || hook_sites_[instr.id] != 0);
    if (hooked) {
      // Flush so the hook (which may arm watchpoints from live registers)
      // observes every earlier access before it runs — the unbatched order.
      FlushBatches();
      options_.hook->BeforeInstr(tid, instr.id, frame->regs);
    }

    // Most instructions fall through to the next index; control flow overrides.
    ++index;

    switch (instr.exec) {
      case ExecOp::kConst:
        set_reg(instr.dst, instr.imm);
        break;
      case ExecOp::kMove:
        set_reg(instr.dst, reg(instr.op0));
        break;
      case ExecOp::kNot:
        set_reg(instr.dst, reg(instr.op0) == 0 ? 1 : 0);
        break;
      case ExecOp::kAdd:
        set_reg(instr.dst, reg(instr.op0) + reg(instr.op1));
        break;
      case ExecOp::kSub:
        set_reg(instr.dst, reg(instr.op0) - reg(instr.op1));
        break;
      case ExecOp::kMul:
        set_reg(instr.dst, reg(instr.op0) * reg(instr.op1));
        break;
      case ExecOp::kDiv:
      case ExecOp::kRem: {
        const Word lhs = reg(instr.op0);
        const Word rhs = reg(instr.op1);
        if (rhs == 0) {
          sync_frame();
          RaiseFailure(thread, FailureType::kArithmeticFault, instr.id, "division by zero");
          return executed;
        }
        set_reg(instr.dst, instr.exec == ExecOp::kDiv ? lhs / rhs : lhs % rhs);
        break;
      }
      case ExecOp::kEq:
        set_reg(instr.dst, reg(instr.op0) == reg(instr.op1));
        break;
      case ExecOp::kNe:
        set_reg(instr.dst, reg(instr.op0) != reg(instr.op1));
        break;
      case ExecOp::kLt:
        set_reg(instr.dst, reg(instr.op0) < reg(instr.op1));
        break;
      case ExecOp::kLe:
        set_reg(instr.dst, reg(instr.op0) <= reg(instr.op1));
        break;
      case ExecOp::kGt:
        set_reg(instr.dst, reg(instr.op0) > reg(instr.op1));
        break;
      case ExecOp::kGe:
        set_reg(instr.dst, reg(instr.op0) >= reg(instr.op1));
        break;
      case ExecOp::kAnd:
        set_reg(instr.dst, (reg(instr.op0) != 0) && (reg(instr.op1) != 0));
        break;
      case ExecOp::kOr:
        set_reg(instr.dst, (reg(instr.op0) != 0) || (reg(instr.op1) != 0));
        break;
      case ExecOp::kXor:
        set_reg(instr.dst, reg(instr.op0) ^ reg(instr.op1));
        break;
      case ExecOp::kShl:
        set_reg(instr.dst, static_cast<Word>(static_cast<uint64_t>(reg(instr.op0))
                                             << (reg(instr.op1) & 63)));
        break;
      case ExecOp::kShr:
        set_reg(instr.dst, static_cast<Word>(static_cast<uint64_t>(reg(instr.op0)) >>
                                             (reg(instr.op1) & 63)));
        break;
      case ExecOp::kLoad: {
        const Addr addr = static_cast<Addr>(reg(instr.op0));
        Word value = 0;
        const MemFault fault = memory_.Read(addr, &value);
        if (fault != MemFault::kOk) {
          sync_frame();
          mem_fault(fault, addr);
          return executed;
        }
        set_reg(instr.dst, value);
        emit_access(addr, value, /*is_write=*/false);
        break;
      }
      case ExecOp::kStore: {
        const Addr addr = static_cast<Addr>(reg(instr.op0));
        const Word value = reg(instr.op1);
        const MemFault fault = memory_.Write(addr, value);
        if (fault != MemFault::kOk) {
          sync_frame();
          mem_fault(fault, addr);
          return executed;
        }
        emit_access(addr, value, /*is_write=*/true);
        break;
      }
      case ExecOp::kAddrOfGlobal:
        set_reg(instr.dst, static_cast<Word>(memory_.GlobalAddr(instr.global)) + instr.imm);
        break;
      case ExecOp::kGep:
        set_reg(instr.dst, reg(instr.op0) + reg(instr.op1));
        break;
      case ExecOp::kAlloc: {
        const Word size = reg(instr.op0);
        set_reg(instr.dst, static_cast<Word>(memory_.Alloc(size > 0 ? static_cast<uint64_t>(size)
                                                                    : 1)));
        break;
      }
      case ExecOp::kFree: {
        const Addr addr = static_cast<Addr>(reg(instr.op0));
        const MemFault fault = memory_.Free(addr);
        if (fault != MemFault::kOk) {
          sync_frame();
          mem_fault(fault, addr);
          return executed;
        }
        break;
      }
      case ExecOp::kCall: {
        if (thread.stack.size() >= options_.max_call_depth) {
          sync_frame();
          RaiseFailure(thread, FailureType::kStackOverflow, instr.id,
                       "call depth exceeded the stack limit");
          return executed;
        }
        const DecodedFunction& callee_function = decoded_->function(instr.callee);
        GIST_CHECK(!callee_function.blocks.empty()) << "called function has no blocks";
        Frame callee;
        callee.function = &callee_function;
        callee.block = &callee_function.entry();
        callee.regs.assign(callee_function.num_regs, 0);
        const std::vector<Reg>& call_args = instr.src->operands;
        for (size_t i = 0; i < call_args.size(); ++i) {
          callee.regs[i] = reg(call_args[i]);
        }
        callee.ret_dst = instr.dst;
        callee.call_site = instr.id;
        retire();
        // The push may reallocate the stack and invalidate `frame`; persist
        // the caller's resume point first, then rebase onto the callee.
        sync_frame();
        thread.stack.push_back(std::move(callee));
        load_frame();
        // Entering the callee's entry block (load_frame re-aimed the retired
        // pointer; the entry still needs its execution count).
        ++result_.stats.block_enters;
        if (prof != nullptr) {
          ++prof->exec[block->profile_index];
        }
        if (!quiet) {
          notify_block_enter();
        }
        continue;
      }
      case ExecOp::kRet: {
        const Word value = instr.num_operands == 0 ? 0 : reg(instr.op0);
        const Reg ret_dst = frame->ret_dst;
        ++result_.stats.returns;
        retire();
        thread.stack.pop_back();
        if (thread.stack.empty()) {
          Dispatch(on_return_, [&](ExecutionObserver& o) {
            o.OnReturn(tid, core, instr.id, kNoFunction, kNoBlock, 0);
          });
          ExitThread(thread);
          return executed;  // thread left the runnable set: slice is over
        }
        load_frame();
        if (ret_dst != kNoReg) {
          regs[ret_dst] = value;
        }
        if (!quiet) {
          Dispatch(on_return_, [&](ExecutionObserver& o) {
            o.OnReturn(tid, core, instr.id, frame->function->id, block->id, index);
          });
        }
        continue;
      }
      case ExecOp::kBr: {
        const bool taken = reg(instr.op0) != 0;
        ++result_.stats.branches;
        if (prof != nullptr) {
          // Edge profile: charged to the branching block, before enter_block
          // re-aims the block pointer.
          ++(taken ? prof->taken : prof->not_taken)[block->profile_index];
        }
        if (quiet) {
          enter_block(taken ? instr.target0 : instr.target1);
          continue;
        }
        Dispatch(on_branch_, [&](ExecutionObserver& o) {
          o.OnBranch(tid, core, instr.id, taken);
        });
        enter_block(taken ? instr.target0 : instr.target1);
        retire();
        notify_block_enter();
        continue;
      }
      case ExecOp::kJmp:
        enter_block(instr.target0);
        if (!quiet) {
          retire();
          notify_block_enter();
        }
        continue;
      case ExecOp::kAssert:
        if (reg(instr.op0) == 0) {
          sync_frame();
          RaiseFailure(thread, FailureType::kAssertViolation, instr.id,
                       "assertion failed: " + instr.src->text);
          return executed;
        }
        break;
      case ExecOp::kThreadCreate: {
        const Word arg = instr.num_operands == 0 ? 0 : reg(instr.op0);
        const ThreadId child = SpawnThread(instr.callee, {arg}, /*is_main=*/false);
        set_reg(instr.dst, static_cast<Word>(child));
        break;
      }
      case ExecOp::kThreadJoin: {
        const Word target = reg(instr.op0);
        if (target < 0 || static_cast<size_t>(target) >= threads_.size()) {
          sync_frame();
          RaiseFailure(thread, FailureType::kSegFault, instr.id, "join of invalid thread id");
          return executed;
        }
        ThreadState& joinee = threads_[static_cast<size_t>(target)];
        if (joinee.status != ThreadStatus::kExited) {
          thread.status = ThreadStatus::kBlockedJoin;
          thread.join_target = joinee.id;
          // Re-execute the join when woken; keep the pc on this instruction.
          --index;
          retire();
          sync_frame();
          return executed;
        }
        break;
      }
      case ExecOp::kLock: {
        const Addr addr = static_cast<Addr>(reg(instr.op0));
        const MemFault fault = memory_.Check(addr);
        if (fault != MemFault::kOk) {
          sync_frame();
          mem_fault(fault, addr);
          return executed;
        }
        Mutex& mutex = mutexes_[addr];
        if (mutex.owner == kNoThread) {
          mutex.owner = tid;
        } else if (mutex.owner != tid) {
          thread.status = ThreadStatus::kBlockedLock;
          thread.lock_target = addr;
          mutex.waiters.push_back(tid);
          --index;  // retry the acquire when woken
          retire();
          sync_frame();
          return executed;
        }
        break;
      }
      case ExecOp::kUnlock: {
        const Addr addr = static_cast<Addr>(reg(instr.op0));
        const MemFault fault = memory_.Check(addr);
        if (fault != MemFault::kOk) {
          sync_frame();
          mem_fault(fault, addr);
          return executed;
        }
        auto it = mutexes_.find(addr);
        if (it != mutexes_.end() && it->second.owner == tid) {
          Mutex& mutex = it->second;
          mutex.owner = kNoThread;
          while (!mutex.waiters.empty()) {
            const ThreadId waiter = mutex.waiters.front();
            mutex.waiters.pop_front();
            if (threads_[waiter].status == ThreadStatus::kBlockedLock) {
              threads_[waiter].status = ThreadStatus::kRunnable;
              threads_[waiter].lock_target = kNullAddr;
              break;
            }
          }
        }
        break;
      }
      case ExecOp::kInput: {
        const size_t input_index = static_cast<size_t>(instr.imm);
        set_reg(instr.dst,
                input_index < workload_.inputs.size() ? workload_.inputs[input_index] : 0);
        break;
      }
      case ExecOp::kPrint:
        result_.outputs.push_back(reg(instr.op0));
        break;
      case ExecOp::kNop:
        break;
    }

    if (hooked) {
      // Deliver this instruction's own access before the hook runs (the
      // unbatched order is access, then AfterInstr arming).
      FlushBatches();
      options_.hook->AfterInstr(tid, instr.id, frame->regs);
    }
    retire();
  }
  sync_frame();
  return executed;
}

ThreadId Vm::PickNext() {
  uint32_t runnable = 0;
  ThreadId only = kNoThread;
  for (const ThreadState& thread : threads_) {
    if (thread.status == ThreadStatus::kRunnable) {
      ++runnable;
      only = thread.id;
    }
  }
  if (runnable == 0) {
    return kNoThread;
  }
  if (runnable == 1) {
    // NextBelow(1) always accepts its first sample and returns 0; consume the
    // same draw without the modulo.
    rng_.NextU64();
    return only;
  }
  // Equivalent to collecting runnable ids in order and indexing: threads_ is
  // already in thread-id order.
  uint64_t pick = rng_.NextBelow(runnable);
  for (const ThreadState& thread : threads_) {
    if (thread.status != ThreadStatus::kRunnable) {
      continue;
    }
    if (pick == 0) {
      return thread.id;
    }
    --pick;
  }
  return kNoThread;
}

RunResult Vm::Run() {
  const FunctionId main_id = module_.FindFunction("main");
  GIST_CHECK_NE(main_id, kNoFunction) << "module has no main()";
  SpawnThread(main_id, {}, /*is_main=*/true);

  ThreadId current = 0;
  core_occupant_[threads_[0].core] = 0;
  {
    const Frame& main_frame = threads_[0].stack.back();
    Dispatch(on_context_switch_, [&](ExecutionObserver& o) {
      o.OnContextSwitch(threads_[0].core, kNoThread, 0, main_frame.function->id,
                        main_frame.block->id, main_frame.index);
    });
  }

  quantum_draw_ = FixedBound(workload_.max_quantum - workload_.min_quantum + 1);
  uint64_t quantum = workload_.min_quantum + rng_.NextBelow(quantum_draw_);

  while (!done_) {
    if (options_.kill_after_steps != 0 && result_.stats.steps >= options_.kill_after_steps) {
      // Injected client death (DESIGN.md §8): stop cold at the burst
      // boundary, with no failure report — the machine is simply gone.
      result_.killed = true;
      break;
    }
    if (result_.stats.steps >= options_.max_steps) {
      ThreadState& thread = threads_[current];
      InstrId last = kNoInstr;
      if (!thread.stack.empty()) {
        const Frame& top = thread.stack.back();
        last = top.block->instrs[std::min<size_t>(top.index, top.block->size - 1)].id;
      }
      RaiseFailure(thread, FailureType::kHang, last, "step budget exhausted");
      break;
    }

    ThreadState* thread = &threads_[current];
    if (thread->status != ThreadStatus::kRunnable || quantum == 0) {
      const ThreadId next = PickNext();
      if (next == kNoThread) {
        bool any_blocked = false;
        for (const ThreadState& t : threads_) {
          if (t.status == ThreadStatus::kBlockedJoin || t.status == ThreadStatus::kBlockedLock) {
            any_blocked = true;
          }
        }
        if (any_blocked) {
          ThreadState& blocked = threads_[current];
          RaiseFailure(blocked, FailureType::kDeadlock, kNoInstr, "all live threads blocked");
        }
        break;  // every thread exited: normal termination
      }
      if (next != current) {
        ++result_.stats.context_switches;
        const CoreId core = threads_[next].core;
        const ThreadId prev = core_occupant_[core];
        core_occupant_[core] = next;
        const Frame& next_frame = threads_[next].stack.back();
        // Dispatch flushes the batch buffers first, which also closes the
        // outgoing thread's slice — batches never span a context switch.
        Dispatch(on_context_switch_, [&](ExecutionObserver& o) {
          o.OnContextSwitch(core, prev, next, next_frame.function->id, next_frame.block->id,
                            next_frame.index);
        });
      }
      current = next;
      thread = &threads_[current];
      quantum = workload_.min_quantum + rng_.NextBelow(quantum_draw_);
    }

    if (!thread->started) {
      thread->started = true;
      // First schedule of this thread: it enters its entry block now.
      ++result_.stats.block_enters;
      if (options_.profile != nullptr) {
        ++options_.profile->exec[thread->stack.back().block->profile_index];
      }
      NotifyBlockEnter(*thread);
    }
    // Execute the whole quantum as one burst. A zero quantum (possible when
    // the workload's min_quantum is 0) historically still ran one instruction
    // per scheduling decision, so the burst floor is 1; the cap keeps the
    // step-budget check exact.
    uint64_t burst = quantum == 0 ? 1 : quantum;
    const uint64_t remaining = options_.max_steps - result_.stats.steps;
    if (burst > remaining) {
      burst = remaining;
    }
    if (options_.kill_after_steps != 0) {
      // Clamp so the injected death lands on its exact instruction count,
      // independent of quantum draws — fault plans stay bit-reproducible.
      const uint64_t until_kill = options_.kill_after_steps - result_.stats.steps;
      if (burst > until_kill) {
        burst = until_kill;
      }
    }
    const uint64_t executed = StepBurst(*thread, burst);
    result_.stats.steps += executed;
    quantum -= std::min(executed, quantum);
  }
  // Deliver any trailing buffered events (failure or budget-exhaustion ends
  // mid-slice) so observers see the complete run before TakeTrace-style
  // harvesting.
  FlushBatches();
  return result_;
}

}  // namespace gist
