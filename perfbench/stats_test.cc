// Tests for the benchmark's statistics: percentile choice, ratio bases, a
// unit per metric and full-precision values.

#include "stats.h"

#include <cstdlib>

#include <gtest/gtest.h>

namespace perfbench {
namespace {

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> v = Iota(100);
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 99), 99);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile({7.0}, 99), 7);
  EXPECT_THROW(Percentile({}, 50), std::invalid_argument);
}

TEST(PercentileTest, MedianInterpolatesEvenCounts) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(TailTest, HighestPercentileWithTenSamplesBeyond) {
  // 1000 samples: p99 is rank 990, leaving exactly 10 above it.
  auto t = TailPercentile(Iota(1000));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->pct, 99);
  EXPECT_EQ(t->value, 990);
  EXPECT_EQ(t->beyond, 10u);

  // 999 samples: p99 would leave 9 above, so the tail drops to p95.
  t = TailPercentile(Iota(999));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->pct, 95);
  EXPECT_GE(t->beyond, kTailMinBeyond);

  // 20 samples support only the median (10 above it).
  t = TailPercentile(Iota(20));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->pct, 50);

  EXPECT_FALSE(TailPercentile(Iota(15)).has_value());
  EXPECT_FALSE(TailPercentile({}).has_value());
}

TEST(TailTest, NeverAboveTheCap) {
  auto t = TailPercentile(Iota(1'000'000));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->pct, 99);
  t = TailPercentile(Iota(1'000'000), 95);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->pct, 95);
  EXPECT_EQ(t->value, 950'000);
}

TEST(RatioTest, CarriesItsBase) {
  MetricSet set;
  set.AddRatio("hit_ratio", Ratio{3, 4, "cache probes"});
  set.AddRatio("idle_ratio", Ratio{5, 0, "writes"});
  ASSERT_EQ(set.metrics().size(), 2u);
  EXPECT_EQ(set.metrics()[0].value, 0.75);
  EXPECT_EQ(set.metrics()[0].base, "cache probes");
  EXPECT_EQ(set.metrics()[0].samples, 4u);
  EXPECT_EQ(set.metrics()[0].unit, "ratio");
  // No denominator work: 0, and the base still says what was counted.
  EXPECT_EQ(set.metrics()[1].value, 0);
  EXPECT_NE(set.Describe().find("base=writes"), std::string::npos);
}

TEST(MetricSetTest, EveryMetricHasItsOwnUnit) {
  MetricSet set;
  set.Add("setup_s", 1.5, "s", 3);
  set.Add("op_p50_us", 12.25, "us", 1000);
  EXPECT_EQ(set.MetricsJson(),
            "{\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}, "
            "\"op_p50_us\": {\"value\": 12.25, \"unit\": \"us\"}}");
  EXPECT_THROW(set.Add("no_unit", 1, "", 1), std::invalid_argument);
  EXPECT_THROW(set.Add("setup_s", 2, "s", 1), std::invalid_argument);
}

TEST(MetricSetTest, ValuesKeepFullPrecision) {
  EXPECT_EQ(FormatNumber(0.1 + 0.2), "0.30000000000000004");
  // A sub-millisecond p99 must not round to 0.0.
  EXPECT_EQ(FormatNumber(0.00034), "0.00034");
  for (double v : {1234.5678901234567, 1e-9, 987654321.123, 1.0 / 3.0}) {
    EXPECT_EQ(std::strtod(FormatNumber(v).c_str(), nullptr), v);
  }
  MetricSet set;
  EXPECT_THROW(set.Add("nan", std::nan(""), "s", 1), std::invalid_argument);
}

TEST(MetricSetTest, LatencyTailNotesItsPercentile) {
  MetricSet set;
  AddLatency(&set, "lat_p50", "lat_p99", Iota(999), "us");
  ASSERT_EQ(set.metrics().size(), 2u);
  EXPECT_EQ(set.metrics()[0].name, "lat_p50");
  EXPECT_EQ(set.metrics()[0].value, 500);
  EXPECT_EQ(set.metrics()[1].name, "lat_p99");
  EXPECT_EQ(set.metrics()[1].samples, 999u);
  EXPECT_NE(set.metrics()[1].note.find("p95"), std::string::npos);
}

TEST(WindowTest, MediansOverWindowsIgnoreOneSlowWindow) {
  // Five 1 s windows of 2000 ops each; window 3 is ten times slower.
  std::vector<double> lat;
  std::vector<int64_t> end;
  for (int w = 0; w < 5; ++w) {
    for (int i = 0; i < 2000; ++i) {
      lat.push_back(w == 3 ? 1000.0 + i : 100.0 + i % 100);
      end.push_back(int64_t{1'000'000'000} * w + i * 400'000);
    }
  }
  WindowedSummary s = SummarizeWindows(lat, end, 0, 5'000'000'000, 5, 99);
  EXPECT_EQ(s.throughput, 2000);
  EXPECT_EQ(s.p50, 149);
  EXPECT_EQ(s.tail, 198);
  EXPECT_EQ(s.tail_pct, 99);
  EXPECT_EQ(s.samples, 10000u);
}

TEST(WindowTest, SmallWindowsFallBackToLowerPercentiles) {
  std::vector<double> lat = Iota(100);
  std::vector<int64_t> end(100);
  for (int i = 0; i < 100; ++i) end[i] = i * 10;
  WindowedSummary s = SummarizeWindows(lat, end, 0, 1000, 2, 99);
  EXPECT_EQ(s.tail_pct, 75);  // 50 per window: p75 leaves 12 beyond
  EXPECT_THROW(SummarizeWindows(lat, {}, 0, 1000, 2, 99),
               std::invalid_argument);
}

TEST(StealTest, LeastStolenKeepsCleanSamplesOrTheLeastStolen) {
  EXPECT_EQ(LeastStolen({0.2, 0.0, 0.01, 0.3}, 1),
            (std::vector<bool>{false, true, true, false}));
  EXPECT_EQ(LeastStolen({0.2, 0.05, 0.3}, 1),
            (std::vector<bool>{false, true, false}));
  EXPECT_EQ(LeastStolen({0.2, 0.3}, 3), (std::vector<bool>{true, true}));
  EXPECT_TRUE(LeastStolen({}, 3).empty());
}

TEST(WindowTest, WindowsWithStealAreLeftOut) {
  // Six 1 s windows; the even ones ran at a tenth of the pace while the
  // hypervisor stole 15% of the CPU time.
  std::vector<double> lat;
  std::vector<int64_t> end;
  for (int w = 0; w < 6; ++w) {
    bool slow = w % 2 == 0;
    for (int i = 0; i < (slow ? 100 : 1000); ++i) {
      lat.push_back(slow ? 500.0 : 50.0);
      end.push_back(int64_t{1'000'000'000} * w + i * 900'000);
    }
  }
  WindowedSummary all = SummarizeWindows(lat, end, 0, 6'000'000'000, 6, 99);
  EXPECT_EQ(all.windows_used, 6);
  EXPECT_EQ(all.throughput, 550);
  EXPECT_EQ(all.samples, 3300u);
  // Three clean windows: the stolen ones are left out.
  WindowedSummary s = SummarizeWindows(lat, end, 0, 6'000'000'000, 6, 99,
                                       {0.15, 0.0, 0.15, 0.01, 0.15, 0.005});
  EXPECT_EQ(s.windows_used, 3);
  EXPECT_EQ(s.throughput, 1000);
  EXPECT_EQ(s.p50, 50);
  EXPECT_EQ(s.samples, 3000u);
  EXPECT_EQ(s.window_throughput.size(), 6u);
  // Fewer clean windows: the three with the least steal count.
  WindowedSummary few = SummarizeWindows(lat, end, 0, 6'000'000'000, 6, 99,
                                         {0.05, 0.0, 0.2, 0.03, 0.2, 0.3});
  EXPECT_EQ(few.windows_used, 3);
  EXPECT_EQ(few.throughput, 1000);
  EXPECT_EQ(few.samples, 2100u);
  EXPECT_THROW(SummarizeWindows(lat, end, 0, 6'000'000'000, 6, 99, {0.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
