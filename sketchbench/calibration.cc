#include "sketchbench/calibration.h"

#include <algorithm>
#include <memory_resource>
#include <unordered_map>

#include "sketchbench/stats.h"

namespace gist::bench {
namespace {

constexpr double kSampleIntervalS = 0.1;
constexpr int kOperations = 20000;
constexpr uint64_t kKeySpace = 50000;

}  // namespace

uint64_t CalibrationKernel() {
  // One arena for the life of the process: the kernel's allocations never
  // touch the heap the program uses, so the program's memory use cannot
  // change the kernel's time.
  static std::vector<std::byte> arena(kCalibrationArenaBytes);
  std::pmr::monotonic_buffer_resource buffer(arena.data(), arena.size(),
                                             std::pmr::null_memory_resource());
  std::pmr::unsynchronized_pool_resource pool(&buffer);
  std::pmr::unordered_map<uint64_t, uint64_t> counts(&pool);
  std::pmr::vector<std::pmr::vector<uint32_t>> lists(&pool);
  uint64_t x = 9;
  for (int i = 0; i < kOperations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    counts[x % kKeySpace] += static_cast<uint64_t>(i);
    if (i % 8 == 0) {
      lists.emplace_back(static_cast<size_t>(x % 64 + 1), static_cast<uint32_t>(i));
    }
  }
  uint64_t checksum = counts.size();
  for (const auto& list : lists) {
    checksum = checksum * 31 + list.size() + list.back();
  }
  return checksum;
}

void HostCalibration::WarmUp(size_t count) {
  for (size_t i = 0; i < count; ++i) {
    CalibrationKernel();
  }
  last_ = Clock::now();
}

void HostCalibration::Sample() {
  const Clock::time_point start = Clock::now();
  CalibrationKernel();
  last_ = Clock::now();
  samples_ms_.push_back(std::chrono::duration<double, std::milli>(last_ - start).count());
  sample_starts_.push_back(start);
}

void HostCalibration::MaybeSample() {
  if (std::chrono::duration<double>(Clock::now() - last_).count() >= kSampleIntervalS) {
    Sample();
  }
}

double HostCalibration::kernel_ms() const { return Median(samples_ms_); }

double HostCalibration::FactorNear(Clock::time_point at) const {
  if (samples_ms_.empty()) {
    return 1.0;
  }
  // The window of kNeighbours consecutive samples centred on `at`, shifted
  // inwards at either end of the run.
  const size_t count = std::min(kNeighbours, samples_ms_.size());
  const size_t at_index =
      std::lower_bound(sample_starts_.begin(), sample_starts_.end(), at) - sample_starts_.begin();
  const size_t first = std::min(at_index - std::min(at_index, count / 2),
                                samples_ms_.size() - count);
  return kReferenceKernelMs / Median(std::vector<double>(samples_ms_.begin() + first,
                                                         samples_ms_.begin() + first + count));
}

}  // namespace gist::bench
