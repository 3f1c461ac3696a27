// Unit tests of the benchmark's own arithmetic: the tail-percentile rule,
// self-time subtraction, metric-name validity and host-speed calibration.

#include <gtest/gtest.h>

#include <thread>

#include "sketchbench/calibration.h"
#include "sketchbench/stats.h"
#include "sketchbench/trace.h"

namespace gist::bench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> samples;
  for (int i = n; i >= 1; --i) {  // unsorted on purpose
    samples.push_back(i);
  }
  return samples;
}

TEST(PercentileTest, NearestRank) {
  EXPECT_EQ(Percentile(OneTo(100), 50.0), 50.0);
  EXPECT_EQ(Percentile(OneTo(100), 99.0), 99.0);
  EXPECT_EQ(Percentile(OneTo(5), 50.0), 3.0);
  EXPECT_EQ(Median(OneTo(4)), 2.0);
  EXPECT_EQ(Percentile({}, 50.0), 0.0);
}

TEST(TailPercentileTest, HighestPercentileWithTenAbove) {
  // 1000 distinct: p99 is rank 990, leaving exactly 10 above.
  TailStat tail = TailPercentile(OneTo(1000), 1000);
  EXPECT_TRUE(tail.ok);
  EXPECT_EQ(tail.percentile, 99.0);
  EXPECT_EQ(tail.value, 990.0);
  EXPECT_EQ(tail.n, 1000u);

  // 999 distinct: p99 is rank 990 with 9 above, so p95 (rank 950).
  tail = TailPercentile(OneTo(999), 999);
  EXPECT_EQ(tail.percentile, 95.0);
  EXPECT_EQ(tail.value, 950.0);

  // 200 distinct: p95 is rank 190, 10 above.
  tail = TailPercentile(OneTo(200), 200);
  EXPECT_EQ(tail.percentile, 95.0);
  EXPECT_EQ(tail.value, 190.0);

  // 20 distinct: only the median leaves 10 above.
  tail = TailPercentile(OneTo(20), 20);
  EXPECT_EQ(tail.percentile, 50.0);
  EXPECT_EQ(tail.value, 10.0);
}

TEST(TailPercentileTest, RepeatedPassesDoNotRaiseThePercentile) {
  // 100 distinct diagnoses measured in 12 passes: 1200 samples, but only 100
  // distinct diagnoses, so p90 — evaluated over all samples.
  std::vector<double> samples;
  for (int pass = 0; pass < 12; ++pass) {
    const std::vector<double> one = OneTo(100);
    samples.insert(samples.end(), one.begin(), one.end());
  }
  const TailStat tail = TailPercentile(samples, 100);
  EXPECT_TRUE(tail.ok);
  EXPECT_EQ(tail.percentile, 90.0);
  EXPECT_EQ(tail.value, 90.0);
  EXPECT_EQ(tail.n, 1200u);
}

TEST(TailPercentileTest, TooFewSamples) {
  const TailStat tail = TailPercentile(OneTo(19), 19);
  EXPECT_FALSE(tail.ok);
  EXPECT_EQ(tail.value, 19.0);
  EXPECT_FALSE(TailPercentile({}, 0).ok);
}

TEST(SelfTimeTest, SubtractsNestedChildren) {
  // parent [0, 100] with children [10, 30] and [20, 50] (overlapping) and a
  // grandchild [12, 14] inside the first child.
  const std::vector<SpanRecord> spans = {
      {1, kNoSpan, 1, "parent", 0, 100},
      {2, 1, 1, "child", 10, 30},
      {3, 1, 1, "child", 20, 50},
      {4, 2, 1, "grandchild", 12, 14},
  };
  const std::map<std::string, SpanTotals> self = SelfTimes(spans);
  EXPECT_EQ(self.at("parent").calls, 1u);
  EXPECT_DOUBLE_EQ(self.at("parent").self_s, 60e-9);  // 100 - |[10, 50]|
  EXPECT_EQ(self.at("child").calls, 2u);
  EXPECT_DOUBLE_EQ(self.at("child").self_s, (20 - 2 + 30) * 1e-9);
  EXPECT_DOUBLE_EQ(self.at("grandchild").self_s, 2e-9);
}

TEST(SelfTimeTest, ClipsChildrenToParent) {
  const std::vector<SpanRecord> spans = {
      {1, kNoSpan, 1, "parent", 100, 200},
      {2, 1, 1, "child", 150, 250},
  };
  EXPECT_DOUBLE_EQ(SelfTimes(spans).at("parent").self_s, 50e-9);
}

TEST(SelfTimeTest, TracerNestsPerThread) {
  Tracer tracer;
  {
    Tracer::Scope outer(&tracer, "outer");
    { Tracer::Scope inner(&tracer, "inner"); }
    // A span on another thread has no same-thread parent: it is not
    // subtracted from `outer`.
    std::thread worker([&tracer] { Tracer::Scope span(&tracer, "worker"); });
    worker.join();
  }
  const std::vector<SpanRecord> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  std::map<std::string, SpanRecord> by_name;
  for (const SpanRecord& span : spans) {
    by_name[span.name] = span;
  }
  EXPECT_EQ(by_name["inner"].parent, by_name["outer"].id);
  EXPECT_EQ(by_name["worker"].parent, kNoSpan);
  EXPECT_EQ(by_name["outer"].parent, kNoSpan);

  const std::map<std::string, SpanTotals> self = SelfTimes(spans);
  const SpanRecord& outer = by_name["outer"];
  const SpanRecord& inner = by_name["inner"];
  EXPECT_NEAR(self.at("outer").self_s,
              static_cast<double>((outer.end_ns - outer.start_ns) -
                                  (inner.end_ns - inner.start_ns)) *
                  1e-9,
              1e-12);
}

TEST(SelfTimeTest, NullTracerRecordsNothing) {
  Tracer::Scope span(nullptr, "ignored");
  SUCCEED();
}

TEST(MetricNameTest, Names) {
  EXPECT_TRUE(ValidMetricName("diag_ms_p50"));
  EXPECT_TRUE(ValidMetricName("core.sketch.self_s"));
  EXPECT_TRUE(ValidMetricName("9lives-x"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("_leading"));
  EXPECT_FALSE(ValidMetricName(".leading"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("slash/no"));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
}

TEST(MetricNameTest, Units) {
  for (const char* unit : {"ms", "s", "1/s", "count", "%", "MiB", "ratio", "bytes"}) {
    EXPECT_TRUE(ValidUnit(unit)) << unit;
  }
  EXPECT_FALSE(ValidUnit(""));
  EXPECT_FALSE(ValidUnit("m s"));
  EXPECT_FALSE(ValidUnit(std::string(17, 's')));
}

TEST(ResultJsonTest, Layout) {
  EXPECT_EQ(ResultJson(true, 3, 0, {{"latency_ms", 1.5, "ms"}, {"setup_s", 0.25, "s"}}),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, "
            "\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}");
}

TEST(CalibrationTest, KernelDoesTheSameWorkEveryRun) {
  const uint64_t first = CalibrationKernel();
  EXPECT_EQ(CalibrationKernel(), first);
  EXPECT_EQ(CalibrationKernel(), first);
}

TEST(CalibrationTest, FactorScalesToTheReferenceKernelTime) {
  HostCalibration calibration;
  EXPECT_EQ(calibration.FactorNear(HostCalibration::Clock::now()), 1.0);  // no samples
  calibration.WarmUp(2);
  EXPECT_TRUE(calibration.samples_ms().empty());
  for (int i = 0; i < 5; ++i) {
    calibration.Sample();
  }
  ASSERT_EQ(calibration.samples_ms().size(), 5u);
  EXPECT_GT(calibration.kernel_ms(), 0.0);
  // Fewer samples than kNeighbours: every moment takes all of them.
  EXPECT_DOUBLE_EQ(calibration.FactorNear(HostCalibration::Clock::now()) * calibration.kernel_ms(),
                   kReferenceKernelMs);
}

TEST(CalibrationTest, FactorComesFromTheNearestSamples) {
  HostCalibration calibration;
  const size_t total = 3 * HostCalibration::kNeighbours;
  std::vector<HostCalibration::Clock::time_point> before;
  for (size_t i = 0; i < total; ++i) {
    before.push_back(HostCalibration::Clock::now());
    calibration.Sample();
  }
  const std::vector<double>& samples = calibration.samples_ms();
  const auto factor_of = [&](size_t first) {
    return kReferenceKernelMs /
           Median(std::vector<double>(samples.begin() + first,
                                      samples.begin() + first + HostCalibration::kNeighbours));
  };
  const size_t half = HostCalibration::kNeighbours / 2;
  // Before the first sample and at the start: the first window.
  EXPECT_DOUBLE_EQ(calibration.FactorNear(before[0]), factor_of(0));
  // In the middle: the window centred on the sample that starts next.
  const size_t middle = total / 2;
  EXPECT_DOUBLE_EQ(calibration.FactorNear(before[middle]), factor_of(middle - half));
  // After the last sample: the last window.
  EXPECT_DOUBLE_EQ(calibration.FactorNear(HostCalibration::Clock::now()),
                   factor_of(total - HostCalibration::kNeighbours));
}

}  // namespace
}  // namespace gist::bench
