#include "src/core/instrumentation.h"

#include <algorithm>
#include <map>
#include <optional>

#include "src/vm/memory.h"

namespace gist {
namespace {

// Finds the closest definition of `reg` at or before `index` in `block`.
const Instruction* FindDefInBlock(const BasicBlock& block, int64_t index, Reg reg) {
  const auto& instrs = block.instructions();
  for (int64_t k = index; k >= 0; --k) {
    if (instrs[static_cast<size_t>(k)].dst == reg) {
      return &instrs[static_cast<size_t>(k)];
    }
  }
  return nullptr;
}

// Constant-folds the address computed by `def` (addrof-global chains with
// constant gep offsets). Returns nullopt for dynamic addresses (heap).
std::optional<Addr> ResolveStaticAddr(const Module& module, const BasicBlock& block,
                                      const Instruction& def, int depth) {
  if (depth > 4) {
    return std::nullopt;
  }
  switch (def.op) {
    case Opcode::kAddrOfGlobal:
      return StaticGlobalAddr(module, def.global) + static_cast<Addr>(def.imm);
    case Opcode::kGep: {
      // Both the base and the offset must fold; look their defs up within
      // the same block (the common addrof/const/gep pattern).
      const int64_t at = static_cast<int64_t>(&def - block.instructions().data()) - 1;
      const Instruction* base = FindDefInBlock(block, at, def.operands[0]);
      const Instruction* offset = FindDefInBlock(block, at, def.operands[1]);
      if (base == nullptr || offset == nullptr || offset->op != Opcode::kConst) {
        return std::nullopt;
      }
      std::optional<Addr> base_addr = ResolveStaticAddr(module, block, *base, depth + 1);
      if (!base_addr.has_value()) {
        return std::nullopt;
      }
      return *base_addr + static_cast<Addr>(offset->imm);
    }
    case Opcode::kMove: {
      const int64_t at = static_cast<int64_t>(&def - block.instructions().data()) - 1;
      const Instruction* src = FindDefInBlock(block, at, def.operands[0]);
      if (src == nullptr) {
        return std::nullopt;
      }
      return ResolveStaticAddr(module, block, *src, depth + 1);
    }
    default:
      return std::nullopt;
  }
}

// Instruction-level strict dominance: d strictly dominates n iff they are in
// the same function and either d appears earlier in the same block, or d's
// block strictly dominates n's block.
bool InstrStrictlyDominates(const Ticfg& ticfg, const InstrLocation& d, const InstrLocation& n) {
  if (d.function != n.function) {
    return false;
  }
  if (d.block == n.block) {
    return d.index < n.index;
  }
  return ticfg.dominators(d.function).StrictlyDominates(d.block, n.block);
}

}  // namespace

std::optional<Addr> StaticAccessAddr(const Module& module, InstrId access) {
  const Instruction& instr = module.instr(access);
  if (!instr.IsSharedAccess()) {
    return std::nullopt;
  }
  const InstrLocation& loc = module.location(access);
  const Function& function = module.function(loc.function);
  const Reg addr_reg = instr.operands[0];

  // Backward reaching-def search for the address operand, across blocks.
  // Every reaching definition must fold to the same global address for the
  // access to count as static — a merge of distinct addresses (or any
  // dynamic definition) is reported as dynamic.
  Cfg cfg(function);
  std::optional<Addr> resolved;
  std::set<BlockId> visited;
  std::vector<std::pair<BlockId, int64_t>> stack;
  stack.push_back({loc.block, static_cast<int64_t>(loc.index) - 1});
  bool first = true;
  while (!stack.empty()) {
    auto [block_id, from] = stack.back();
    stack.pop_back();
    if (!first && !visited.insert(block_id).second) {
      continue;
    }
    first = false;
    const BasicBlock& block = function.block(block_id);
    const Instruction* def = FindDefInBlock(block, from, addr_reg);
    if (def != nullptr) {
      std::optional<Addr> addr = ResolveStaticAddr(module, block, *def, 0);
      if (!addr.has_value() || (resolved.has_value() && *resolved != *addr)) {
        return std::nullopt;
      }
      resolved = addr;
      continue;
    }
    for (BlockId pred : cfg.preds(block_id)) {
      stack.push_back({pred, static_cast<int64_t>(function.block(pred).size()) - 1});
    }
  }
  return resolved;
}

InstrumentationPlan PlanInstrumentation(const Ticfg& ticfg, const std::vector<InstrId>& window) {
  const Module& module = ticfg.module();
  InstrumentationPlan plan;
  plan.window = window;

  // Process tracked statements in program order per function: block position
  // in reverse postorder, then index within the block. This is the order the
  // paper's planning walks the slice (Fig. 4a processes stmt1..stmt3 top to
  // bottom).
  std::vector<InstrId> ordered = window;
  std::map<FunctionId, std::map<BlockId, size_t>> rpo_index;
  for (InstrId id : ordered) {
    const InstrLocation& loc = module.location(id);
    auto& per_function = rpo_index[loc.function];
    if (per_function.empty()) {
      const auto& rpo = ticfg.cfg(loc.function).reverse_postorder();
      for (size_t i = 0; i < rpo.size(); ++i) {
        per_function[rpo[i]] = i;
      }
    }
  }
  std::sort(ordered.begin(), ordered.end(), [&](InstrId a, InstrId b) {
    const InstrLocation& la = module.location(a);
    const InstrLocation& lb = module.location(b);
    if (la.function != lb.function) {
      return la.function < lb.function;
    }
    if (la.block != lb.block) {
      // Unreachable blocks are absent from the RPO map; order them last.
      auto& per_function = rpo_index[la.function];
      auto ia = per_function.find(la.block);
      auto ib = per_function.find(lb.block);
      const size_t pa = ia == per_function.end() ? SIZE_MAX : ia->second;
      const size_t pb = ib == per_function.end() ? SIZE_MAX : ib->second;
      if (pa != pb) {
        return pa < pb;
      }
      return la.block < lb.block;
    }
    return la.index < lb.index;
  });

  for (size_t i = 0; i < ordered.size(); ++i) {
    const InstrId id = ordered[i];
    const InstrLocation& loc = module.location(id);
    const Instruction& instr = module.instr(id);

    // --- PT start points (box I) -----------------------------------------
    // Skip if the immediately preceding processed statement strictly
    // dominates this one: its stop point is elided below for exactly this
    // case, so tracing is still on when control arrives here.
    const bool covered =
        i > 0 && InstrStrictlyDominates(ticfg, module.location(ordered[i - 1]), loc);
    if (!covered) {
      const Cfg& cfg = ticfg.cfg(loc.function);
      const auto& preds = cfg.preds(loc.block);
      if (preds.empty()) {
        // Function-entry block: start tracing at the block itself (control
        // arrives via call/spawn edges the CFG does not model).
        plan.pt_start_blocks.insert({loc.function, loc.block});
      } else {
        for (BlockId pred : preds) {
          plan.pt_start_blocks.insert({loc.function, pred});
        }
      }
    }

    // --- PT stop points (box II) ------------------------------------------
    // Stop right after this statement unless it strictly dominates the next
    // tracked statement (then tracing must continue to cover it).
    const bool dominates_next =
        i + 1 < ordered.size() &&
        InstrStrictlyDominates(ticfg, loc, module.location(ordered[i + 1]));
    if (!dominates_next) {
      plan.pt_stop_instrs.insert(id);
    }

    // --- Watchpoints (Fig. 4b) --------------------------------------------
    // Track the data flow of shared accesses in the window. Stack traffic is
    // register traffic in MiniIR, so every load/store is a shared-data
    // candidate, matching Gist's "only track shared variables" rule. The
    // watchpoint is armed as early as the address is available: right after
    // the reaching definitions of the address operand ("before the access
    // and after its immediate dominator"), or at function entry when the
    // address arrives via a parameter. Arming early is what lets the
    // watchpoint observe the *other* thread's racing accesses too.
    if (instr.IsSharedAccess()) {
      plan.watch_instrs.insert(id);
      const Reg addr_reg = instr.operands[0];
      const Function& function = module.function(loc.function);
      const Cfg& cfg = ticfg.cfg(loc.function);

      // Backward reaching-def search for addr_reg from just before the access.
      bool reaches_entry = false;
      std::set<BlockId> visited;
      std::vector<std::pair<BlockId, int64_t>> stack;
      stack.push_back({loc.block, static_cast<int64_t>(loc.index) - 1});
      bool first = true;
      while (!stack.empty()) {
        auto [block, from] = stack.back();
        stack.pop_back();
        if (!first && !visited.insert(block).second) {
          continue;
        }
        first = false;
        const auto& instrs = function.block(block).instructions();
        bool killed = false;
        for (int64_t k = from; k >= 0; --k) {
          if (instrs[static_cast<size_t>(k)].dst == addr_reg) {
            const Instruction& def = instrs[static_cast<size_t>(k)];
            std::optional<Addr> static_addr =
                ResolveStaticAddr(module, function.block(block), def, 0);
            if (static_addr.has_value()) {
              if (std::find(plan.static_watch_addrs.begin(), plan.static_watch_addrs.end(),
                            *static_addr) == plan.static_watch_addrs.end()) {
                plan.static_watch_addrs.push_back(*static_addr);
              }
            } else {
              plan.arm_after[def.id].push_back(WatchArmSite{addr_reg, id});
            }
            killed = true;
            break;
          }
        }
        if (killed) {
          continue;
        }
        if (cfg.preds(block).empty() || block == 0) {
          reaches_entry = true;
        }
        for (BlockId pred : cfg.preds(block)) {
          stack.push_back({pred, static_cast<int64_t>(function.block(pred).size()) - 1});
        }
      }
      if (reaches_entry && addr_reg < function.num_params()) {
        const InstrId entry_instr = function.block(0).instructions().front().id;
        plan.arm_before[entry_instr].push_back(WatchArmSite{addr_reg, id});
      }
    }
  }

  // A stop point inside a block that also *starts* tracing (because it is a
  // predecessor of a later tracked statement's block) would kill the very
  // tracing that start is meant to provide — the enable fires at block entry,
  // before the stop's instruction retires. Tracing must survive through such
  // blocks; the stop then happens after the downstream statement instead.
  for (auto it = plan.pt_stop_instrs.begin(); it != plan.pt_stop_instrs.end();) {
    const InstrLocation& loc = module.location(*it);
    if (plan.pt_start_blocks.count({loc.function, loc.block}) != 0) {
      it = plan.pt_stop_instrs.erase(it);
    } else {
      ++it;
    }
  }

  return plan;
}

}  // namespace gist
