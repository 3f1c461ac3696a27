#include "sketchbench/stats.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace gist::bench {
namespace {

// Nearest rank (1-based) of percentile p among n sorted samples.
size_t NearestRank(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

std::string FormatNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  return samples[NearestRank(samples.size(), p) - 1];
}

double Median(std::vector<double> samples) { return Percentile(std::move(samples), 50.0); }

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) {
    return 0.0;
  }
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

TailStat TailPercentile(const std::vector<double>& samples, size_t distinct,
                        size_t min_above) {
  TailStat tail;
  tail.n = samples.size();
  if (samples.empty()) {
    return tail;
  }
  for (const double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (distinct > 0 && distinct - NearestRank(distinct, p) >= min_above) {
      tail.percentile = p;
      tail.value = Percentile(samples, p);
      tail.ok = true;
      return tail;
    }
  }
  tail.percentile = 100.0;
  tail.value = *std::max_element(samples.begin(), samples.end());
  return tail;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64 ||
      !std::isalnum(static_cast<unsigned char>(name.front()))) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' || c == '-';
  });
}

bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) {
    return false;
  }
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '/' || c == '%' ||
           c == '.' || c == '-';
  });
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& metric = metrics[i];
    out += i == 0 ? "" : ", ";
    out += "\"" + metric.name + "\": {\"value\": " + FormatNumber(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace gist::bench
