// Host-speed calibration for the benchmark's end-to-end timings.
//
// On a shared host the same diagnoses run up to 25% faster or slower from one
// second to the next, and far more between runs, as other tenants compete for
// caches and memory. A fixed kernel that allocates and hashes the way the
// pipeline does (a pool-allocated hash map and small vectors, about 2 ms)
// slows down with it: over 5-second windows its time tracks the time of a
// fixed set of diagnoses with correlation 0.9, where a pure arithmetic loop
// tracks it with 0.5. The benchmark runs the kernel between diagnoses and
// reports each time at the speed of a reference host:
//
//   reported = measured * kReferenceKernelMs / median(nearest kernel samples)
//
// The kernel is the benchmark's own code, allocates from its own arena and
// never calls the program, so a change to the program moves the scaled times
// exactly as much as the raw ones.

#ifndef GIST_SKETCHBENCH_CALIBRATION_H_
#define GIST_SKETCHBENCH_CALIBRATION_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace gist::bench {

// A fixed reference kernel time: the fastest run median of the kernel seen on
// the reference host, a 4-vCPU Linux VM whose CPUs report 2.0 GHz (Release
// build, GCC 12), where its run medians range from 2.0 to 2.8 ms.
inline constexpr double kReferenceKernelMs = 2.0;

// The kernel's arena: allocated, and resident, from the first kernel run on.
// The kernel needs 2 MiB of it.
inline constexpr size_t kCalibrationArenaBytes = 4 << 20;

// Runs the calibration kernel once and returns its checksum, which is the same
// on every call.
uint64_t CalibrationKernel();

class HostCalibration {
 public:
  using Clock = std::chrono::steady_clock;

  // Samples nearest in time that set the speed at a moment: about two
  // seconds of them when samples come every 100 ms.
  static constexpr size_t kNeighbours = 21;

  // Runs the kernel `count` times without keeping the times: warms the arena
  // and the caches before the first kept sample.
  void WarmUp(size_t count);
  // Times one kernel run.
  void Sample();
  // Samples when 100 ms or more have passed since the last sample.
  void MaybeSample();

  const std::vector<double>& samples_ms() const { return samples_ms_; }
  double kernel_ms() const;  // median sample
  // kReferenceKernelMs / the median of the kNeighbours samples that started
  // nearest to `at` (all of them when there are fewer). Multiply a time
  // measured at `at` by it to get the time at reference-host speed. 1 without
  // samples.
  double FactorNear(Clock::time_point at) const;

 private:
  std::vector<double> samples_ms_;
  std::vector<Clock::time_point> sample_starts_;
  Clock::time_point last_{};
};

}  // namespace gist::bench

#endif  // GIST_SKETCHBENCH_CALIBRATION_H_
