#include "src/vm/superinstr.h"

namespace gist {
namespace {

// The straight-line subset: ops that cannot block, switch threads, grow the
// stack, or emit per-op control-flow events. Faulting is fine (div-by-zero,
// memory faults, assert) — the fused executor syncs the frame and raises the
// identical failure.
bool IsFusableOp(const DecodedInstr& instr) {
  switch (instr.exec) {
    case ExecOp::kConst:
    case ExecOp::kMove:
    case ExecOp::kNot:
    case ExecOp::kAdd:
    case ExecOp::kSub:
    case ExecOp::kMul:
    case ExecOp::kDiv:
    case ExecOp::kRem:
    case ExecOp::kEq:
    case ExecOp::kNe:
    case ExecOp::kLt:
    case ExecOp::kLe:
    case ExecOp::kGt:
    case ExecOp::kGe:
    case ExecOp::kAnd:
    case ExecOp::kOr:
    case ExecOp::kXor:
    case ExecOp::kShl:
    case ExecOp::kShr:
    case ExecOp::kLoad:
    case ExecOp::kStore:
    case ExecOp::kAddrOfGlobal:
    case ExecOp::kGep:
    case ExecOp::kAlloc:
    case ExecOp::kFree:
    case ExecOp::kAssert:
    case ExecOp::kInput:
    case ExecOp::kPrint:
    case ExecOp::kNop:
      break;
    default:
      return false;
  }
  // Register-writing ops must have a real destination so the fused body can
  // store unconditionally (the interpreter's set_reg tolerates kNoReg; the
  // fused loop doesn't pay that branch).
  switch (instr.exec) {
    case ExecOp::kStore:
    case ExecOp::kFree:
    case ExecOp::kAssert:
    case ExecOp::kPrint:
    case ExecOp::kNop:
      return true;
    default:
      return instr.dst != kNoReg;
  }
}

}  // namespace

const char* ExecTierName(ExecTier tier) {
  switch (tier) {
    case ExecTier::kFast:
      return "fast";
    case ExecTier::kReference:
      return "ref";
    case ExecTier::kSuper:
      return "super";
  }
  return "unknown";
}

bool ParseExecTier(std::string_view text, ExecTier* tier) {
  if (text == "fast") {
    *tier = ExecTier::kFast;
    return true;
  }
  if (text == "ref" || text == "reference") {
    *tier = ExecTier::kReference;
    return true;
  }
  if (text == "super") {
    *tier = ExecTier::kSuper;
    return true;
  }
  return false;
}

bool IsFusableBlock(const DecodedBlock& block) {
  if (block.size == 0) {
    return false;
  }
  const DecodedInstr& term = block.instrs[block.size - 1];
  if (term.exec != ExecOp::kBr && term.exec != ExecOp::kJmp) {
    return false;
  }
  for (uint32_t i = 0; i + 1 < block.size; ++i) {
    if (!IsFusableOp(block.instrs[i])) {
      return false;
    }
  }
  return true;
}

std::shared_ptr<const FusedModule> FusedModule::Build(
    std::shared_ptr<const DecodedModule> decoded, const BlockProfile& profile,
    const SuperInstrOptions& options) {
  GIST_CHECK(decoded != nullptr);
  auto fused = std::shared_ptr<FusedModule>(new FusedModule());
  fused->decoded_ = std::move(decoded);
  fused->options_ = options;
  const DecodedModule& module = *fused->decoded_;

  FusedTierStats& stats = fused->stats_;
  stats.total_blocks = module.num_blocks();
  fused->entries_.assign(module.num_blocks(), nullptr);

  // First pass: selection. Deterministic — a pure function of the decoded
  // block shapes, the aggregated profile, and the threshold; never of wall
  // clock, jobs, or iteration order.
  std::vector<const DecodedBlock*> selected;
  for (size_t f = 0; f < module.num_functions(); ++f) {
    const DecodedFunction& function = module.function(static_cast<FunctionId>(f));
    for (const DecodedBlock& block : function.blocks) {
      const uint64_t retired =
          block.profile_index < profile.retired.size() ? profile.retired[block.profile_index] : 0;
      stats.total_retired += retired;
      if (!IsFusableBlock(block)) {
        continue;
      }
      ++stats.fusable_blocks;
      if (retired < options.min_block_retired) {
        continue;
      }
      selected.push_back(&block);
      stats.selected_retired += retired;
    }
  }

  // Second pass: compilation. blocks_ is sized up front so FusedBlock
  // addresses stay stable for the entry table.
  fused->blocks_.resize(selected.size());
  for (size_t i = 0; i < selected.size(); ++i) {
    const DecodedBlock& block = *selected[i];
    FusedBlock& body = fused->blocks_[i];
    body.size = block.size;
    body.profile_index = block.profile_index;
    body.block = &block;
    body.ops.reserve(block.size);
    for (uint32_t k = 0; k + 1 < block.size; ++k) {
      const DecodedInstr& instr = block.instrs[k];
      FusedOp op;
      op.exec = instr.exec;
      op.dst = instr.dst;
      op.a = instr.op0;
      op.b = instr.op1;
      op.imm = instr.imm;
      op.global = instr.global;
      op.src = &instr;
      body.ops.push_back(op);
    }
    const DecodedInstr& term = block.instrs[block.size - 1];
    body.term = term.exec;
    body.cond = term.op0;
    body.taken = term.target0;
    body.not_taken = term.target1;
    body.taken_pi = term.target0 != nullptr ? term.target0->profile_index : 0;
    body.not_taken_pi = term.target1 != nullptr ? term.target1->profile_index : 0;
    body.term_src = &term;
    // Sentinel terminator at ops[body_len]: the VM's threaded dispatcher
    // flows off the last body op straight into the kBr/kJmp handler instead
    // of exiting and re-entering the dispatch stream (src/vm/vm.cc).
    FusedOp sentinel;
    sentinel.exec = term.exec;
    sentinel.a = term.op0;
    sentinel.src = &term;
    body.ops.push_back(sentinel);
    // The flattened aliases survive FusedBlock moves: vector storage is
    // heap-allocated and blocks_ was sized up front.
    body.body = body.ops.data();
    body.body_len = static_cast<uint32_t>(body.ops.size()) - 1;
    fused->entries_[block.profile_index] = &body;
  }
  stats.fused_blocks = selected.size();
  return fused;
}

}  // namespace gist
