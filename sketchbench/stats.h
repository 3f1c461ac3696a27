// Summary statistics and result formatting for the time-to-sketch benchmark.

#ifndef GIST_SKETCHBENCH_STATS_H_
#define GIST_SKETCHBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gist::bench {

// Nearest-rank percentile of `samples` (any order), p in (0, 100]. 0 when
// `samples` is empty.
double Percentile(std::vector<double> samples, double p);

double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

// The tail statistic: the highest percentile of the ladder
// {99, 95, 90, 75, 50} whose nearest rank among `distinct` diagnoses leaves
// at least `min_above` of them strictly above it, evaluated over `samples`.
// A run repeats the same distinct diagnoses pass after pass, and a repeat is
// no new evidence about the tail, so the choice depends on the distinct
// count alone and stays fixed however many passes fit in a run. `ok` is
// false when even the median leaves fewer, and then `value` is the maximum.
struct TailStat {
  double percentile = 0.0;
  double value = 0.0;
  size_t n = 0;  // samples
  bool ok = false;
};
TailStat TailPercentile(const std::vector<double>& samples, size_t distinct,
                        size_t min_above = 10);

// Metric and unit names the result line may carry: a name starts with a
// letter or digit and has at most 64 letters, digits, '_', '.' and '-'; a
// unit has 1 to 16 letters, digits, '_', '/', '%', '.' and '-'.
bool ValidMetricName(std::string_view name);
bool ValidUnit(std::string_view unit);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The one-line result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Values are printed with every significant digit.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace gist::bench

#endif  // GIST_SKETCHBENCH_STATS_H_
