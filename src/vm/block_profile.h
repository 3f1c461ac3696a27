// Per-run basic-block profile shard (DESIGN.md §10).
//
// The interpreter is the only writer: when VmOptions::profile is set it bumps
// these counters directly. The hot-path profiler (src/obs/profiler.h) reads
// and merges shards on the fleet coordinator. Header-only, so the VM needs no
// link dependency on the obs library.

#ifndef GIST_SRC_VM_BLOCK_PROFILE_H_
#define GIST_SRC_VM_BLOCK_PROFILE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gist {

// Indexed by DecodedBlock::profile_index (dense over the whole module,
// function-major). All four arrays share that indexing.
struct BlockProfile {
  std::vector<uint64_t> exec;       // block entries (entry/branch/jump/call)
  std::vector<uint64_t> retired;    // instructions retired inside the block
  std::vector<uint64_t> taken;      // conditional terminator: taken count
  std::vector<uint64_t> not_taken;  // conditional terminator: fall-through

  void EnsureSize(size_t num_blocks) {
    if (exec.size() < num_blocks) {
      exec.resize(num_blocks, 0);
      retired.resize(num_blocks, 0);
      taken.resize(num_blocks, 0);
      not_taken.resize(num_blocks, 0);
    }
  }

  void Merge(const BlockProfile& other) {
    EnsureSize(other.exec.size());
    for (size_t i = 0; i < other.exec.size(); ++i) {
      exec[i] += other.exec[i];
      retired[i] += other.retired[i];
      taken[i] += other.taken[i];
      not_taken[i] += other.not_taken[i];
    }
  }

  uint64_t total_retired() const {
    uint64_t total = 0;
    for (uint64_t value : retired) {
      total += value;
    }
    return total;
  }

  bool empty() const { return exec.empty(); }
};

}  // namespace gist

#endif  // GIST_SRC_VM_BLOCK_PROFILE_H_
