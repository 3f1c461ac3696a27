// Superinstruction tier (DESIGN.md §12): the third execution tier over the
// MiniIR interpreter, above reference dispatch and the pre-decoded fast path.
//
// A FusedModule is compiled from a DecodedModule plus an aggregated
// BlockProfile: every basic block whose shape permits it (straight-line ops
// only, kBr/kJmp terminator) and whose profiled retired-instruction mass
// clears the selection threshold gets a fused body — a compact FusedOp array
// the VM interprets straight-line, with no per-op bounds check, hook probe,
// profile test, or budget check, and with observer batching hoisted to the
// fusion-region boundary. Fused bodies chain: when a terminator lands on
// another fused block and the burst budget covers it, execution stays inside
// RunFusedChain; otherwise it deoptimizes back to StepBurst.
//
// Deopt contract (what keeps every export byte-identical to the fast path):
//   * blocks containing a hook site (watchpoint arm) are never fused;
//   * runs with immediate (unbatched) retired/mem subscribers or reference
//     dispatch never engage the tier;
//   * the chain renews the quantum in place at exactly the step its budget
//     runs out, replicating the fast path's boundary draw-for-draw (same rng
//     consumption, same thread-switch decisions), so scheduling — thread
//     switches, kill_after_steps, hang budgets — lands on exactly the same
//     instruction boundaries;
//   * every blocking / thread / call / return op excludes its block from
//     fusion, so a chain can only leave via branch, jump, or fault;
//   * faults inside a fused body sync the frame to the faulting op and raise
//     the identical FailureReport the reference interpreter would.
//
// A FusedModule borrows instruction pointers from its DecodedModule (shared
// ownership) and is immutable after Build, so one instance is safely shared
// by concurrent VM runs.

#ifndef GIST_SRC_VM_SUPERINSTR_H_
#define GIST_SRC_VM_SUPERINSTR_H_

#include <memory>
#include <string_view>
#include <vector>

#include "src/obs/profiler.h"  // BlockProfile (header-only POD)
#include "src/vm/decoded_module.h"

namespace gist {

// Which interpreter executes monitored runs. The tier is a pure throughput
// knob: FleetResult, PT streams, watch events, metrics, trace, and profile
// exports are byte-identical across all three (tests/vm_fastpath_test.cc,
// tests/fleet_tier_test.cc).
enum class ExecTier : uint8_t {
  kFast = 0,       // pre-decoded StepBurst (DESIGN.md §7) — the default
  kReference = 1,  // unbatched dispatch, hook everywhere — the semantics oracle
  kSuper = 2,      // profile-guided superinstructions with deopt to StepBurst
};

const char* ExecTierName(ExecTier tier);
// Accepts "fast", "ref"/"reference", "super". Returns false on anything else.
bool ParseExecTier(std::string_view text, ExecTier* tier);

// Default selection threshold: a block must carry this much aggregated
// retired-instruction mass before fusion pays for its build. Shared with the
// profiler's fused-coverage export so both report the same selection.
inline constexpr uint64_t kSuperMinBlockRetired = 256;

struct SuperInstrOptions {
  // Minimum aggregated BlockProfile::retired for a block to be selected.
  // 0 fuses every fusable block regardless of hotness — the deopt-path tests
  // use this to force cold blocks through the fused executor.
  uint64_t min_block_retired = kSuperMinBlockRetired;
};

// One straight-line op of a fused body. Hot fields copied inline; `src`
// reaches back to the DecodedInstr for ids, fault messages, and observer
// payloads (cold paths only).
struct FusedOp {
  ExecOp exec = ExecOp::kNop;
  Reg dst = kNoReg;
  Reg a = kNoReg;  // operands[0] when present
  Reg b = kNoReg;  // operands[1] when present
  int64_t imm = 0;
  GlobalId global = 0;
  const DecodedInstr* src = nullptr;
};

// One fused basic block: the non-terminator ops (1:1 with instruction
// indices 0..size-2) followed by a sentinel terminator op at ops[body_len],
// which the VM's threaded dispatcher executes in-stream — control flows off
// the last body op straight into the kBr/kJmp handler.
//
// The fields the chain touches on every block transition are flattened to
// the front: `body`/`body_len` alias ops.data()/ops.size()-1 so the hot loop
// never walks the vector header, and the successor profile indices are baked
// so the next entry-table lookup needs no detour through the DecodedBlock.
struct FusedBlock {
  const FusedOp* body = nullptr;  // == ops.data()
  uint32_t body_len = 0;          // == ops.size() - 1 (excludes the sentinel)
  ExecOp term = ExecOp::kJmp;     // kBr or kJmp only
  Reg cond = kNoReg;              // kBr: condition register
  uint32_t taken_pi = 0;          // == taken->profile_index
  uint32_t not_taken_pi = 0;      // == not_taken->profile_index (kBr only)
  const DecodedBlock* taken = nullptr;      // kBr target0 / kJmp target
  const DecodedBlock* not_taken = nullptr;  // kBr target1
  const DecodedInstr* term_src = nullptr;
  uint32_t size = 0;  // source block size == ops.size() + 1
  uint32_t profile_index = 0;
  const DecodedBlock* block = nullptr;  // source block (deopt frame sync)
  std::vector<FusedOp> ops;             // stable storage behind `body`
};

// Selection + compilation summary, exported through the flight recorder's
// annotation side channel (never the deterministic metrics).
struct FusedTierStats {
  uint64_t fused_blocks = 0;     // blocks selected and compiled
  uint64_t fusable_blocks = 0;   // blocks whose shape permits fusion
  uint64_t total_blocks = 0;     // all blocks in the module
  uint64_t selected_retired = 0; // profile retired mass inside fused blocks
  uint64_t total_retired = 0;    // profile retired mass overall

  double fused_block_fraction() const {
    return total_blocks == 0 ? 0.0
                             : static_cast<double>(fused_blocks) /
                                   static_cast<double>(total_blocks);
  }
  // Fraction of profiled retired instructions inside fused regions, in
  // integer permille — the deterministic coverage number `gist profdiff`
  // reports and the perf smoke records.
  uint64_t coverage_permille() const {
    return total_retired == 0 ? 0 : selected_retired * 1000 / total_retired;
  }
};

class FusedModule {
 public:
  // Selects and compiles fused bodies for every fusable block of `decoded`
  // whose aggregated `profile` retired count clears the threshold. `profile`
  // may be smaller than the module (unexecuted suffix) or empty; missing
  // entries count as zero.
  static std::shared_ptr<const FusedModule> Build(
      std::shared_ptr<const DecodedModule> decoded, const BlockProfile& profile,
      const SuperInstrOptions& options = {});

  FusedModule(const FusedModule&) = delete;
  FusedModule& operator=(const FusedModule&) = delete;

  const DecodedModule& decoded() const { return *decoded_; }
  const std::shared_ptr<const DecodedModule>& decoded_ptr() const { return decoded_; }

  // Entry table indexed by DecodedBlock::profile_index; null = not fused.
  const std::vector<const FusedBlock*>& entries() const { return entries_; }

  const FusedTierStats& stats() const { return stats_; }
  const SuperInstrOptions& options() const { return options_; }

 private:
  FusedModule() = default;

  std::shared_ptr<const DecodedModule> decoded_;
  std::vector<FusedBlock> blocks_;          // stable storage for entries_
  std::vector<const FusedBlock*> entries_;  // by profile_index
  FusedTierStats stats_;
  SuperInstrOptions options_;
};

// True when every instruction of `block` belongs to the fusable straight-line
// subset (no calls, returns, thread ops, locks — nothing that can block,
// switch threads, or grow the stack) and the terminator is kBr or kJmp.
// Shared with the profiler's fused-coverage export, so selection and
// reporting can never disagree.
bool IsFusableBlock(const DecodedBlock& block);

}  // namespace gist

#endif  // GIST_SRC_VM_SUPERINSTR_H_
