#include "sim/stats.hpp"

#include <gtest/gtest.h>

namespace flexsfp::sim {
namespace {

TEST(TrafficMeter, RatesFromSpan) {
  obs::MetricRegistry registry;
  TrafficMeter meter(registry, "link.traffic", {{"link", "l0"}});
  meter.record(1000);
  meter.record(1000);
  // 2000 bytes over 1 ms -> 16 Mb/s.
  EXPECT_DOUBLE_EQ(meter.bits_per_second(1_ms), 16e6);
  EXPECT_EQ(meter.packets(), 2u);
  // The registry series are the meter's only tally.
  EXPECT_EQ(registry.value("link.traffic.packets{link=l0}"), 2u);
  EXPECT_EQ(registry.value("link.traffic.bytes{link=l0}"), 2000u);
  meter.reset();
  EXPECT_EQ(meter.bytes(), 0u);
  EXPECT_EQ(registry.value("link.traffic.packets{link=l0}"), 0u);
  EXPECT_EQ(registry.value("link.traffic.bytes{link=l0}"), 0u);
}

TEST(TrafficMeter, ZeroSpanGivesZeroRate) {
  obs::MetricRegistry registry;
  TrafficMeter meter(registry, "sink.received");
  meter.record(100);
  EXPECT_DOUBLE_EQ(meter.bits_per_second(0), 0.0);
}

TEST(LatencyHistogram, BasicStats) {
  LatencyHistogram hist;
  hist.record(100_ns);
  hist.record(200_ns);
  hist.record(300_ns);
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_EQ(hist.min(), 100_ns);
  EXPECT_EQ(hist.max(), 300_ns);
  EXPECT_NEAR(hist.mean_ns(), 200.0, 1.0);
}

TEST(LatencyHistogram, PercentilesWithinBucketResolution) {
  LatencyHistogram hist;
  for (int i = 1; i <= 1000; ++i) {
    hist.record(TimePs(i) * 1_us / 1000);  // 1 ns .. 1 us uniformly
  }
  // ~4% geometric bucket resolution.
  EXPECT_NEAR(to_nanos(hist.percentile(50)), 500.0, 35.0);
  EXPECT_NEAR(to_nanos(hist.percentile(99)), 990.0, 60.0);
  EXPECT_LE(hist.percentile(0), hist.percentile(50));
  EXPECT_LE(hist.percentile(50), hist.percentile(100));
}

TEST(LatencyHistogram, EmptyIsSafe) {
  const LatencyHistogram hist;
  EXPECT_EQ(hist.percentile(50), 0);
  EXPECT_EQ(hist.min(), 0);
  EXPECT_EQ(hist.max(), 0);
  EXPECT_DOUBLE_EQ(hist.mean_ns(), 0.0);
}

TEST(LatencyHistogram, SubNanosecondClampsToFirstBucket) {
  LatencyHistogram hist;
  hist.record(100_ps);
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_GT(hist.percentile(50), 0);
}

TEST(LatencyHistogram, ResetClears) {
  LatencyHistogram hist;
  hist.record(1_us);
  hist.reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.max(), 0);
}

TEST(LatencyHistogram, MergeEqualsUnionOfSamples) {
  // Record the same samples split across two histograms and all in one;
  // the merge must be indistinguishable from the union.
  LatencyHistogram left, right, whole;
  for (int i = 1; i <= 500; ++i) {
    const TimePs sample = TimePs(i) * 2_ns;
    (i % 2 == 0 ? left : right).record(sample);
    whole.record(sample);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
  EXPECT_EQ(left.percentile(50), whole.percentile(50));
  EXPECT_EQ(left.percentile(99), whole.percentile(99));
  EXPECT_NEAR(left.mean_ns(), whole.mean_ns(), 1e-9);
}

TEST(LatencyHistogram, MergeWithEmptyIsIdentity) {
  LatencyHistogram hist, empty;
  hist.record(1_us);
  hist.merge(empty);
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_EQ(hist.min(), 1_us);

  empty.merge(hist);  // empty picks up the other side's min/max
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.min(), 1_us);
  EXPECT_EQ(empty.max(), 1_us);
}

TEST(LatencyHistogram, EqualityComparesSamplesNotTheMemo) {
  LatencyHistogram a, b;
  a.record(1_us);
  a.record(2_us);
  b.record(2_us);  // reverse order: same buckets and sum, different memo
  b.record(1_us);
  EXPECT_EQ(a, b);
  b.record(3_us);
  EXPECT_FALSE(a == b);
  b.reset();
  EXPECT_EQ(b, LatencyHistogram{});
}

TEST(WindowedRate, ReportsCompletedWindows) {
  WindowedRate rate(1_ms);
  // 125 kB in the first window = 1 Gb/s.
  rate.record(0, 125'000);
  EXPECT_DOUBLE_EQ(rate.last_window_bps(), 0.0);  // window not complete
  rate.record(1_ms + 1, 1);                       // rolls the window
  EXPECT_NEAR(rate.last_window_bps(), 1e9, 1e3);
  EXPECT_NEAR(rate.peak_bps(), 1e9, 1e3);
}

TEST(WindowedRate, QuietWindowsDropRateToZero) {
  WindowedRate rate(1_ms);
  rate.record(0, 125'000);
  rate.record(10_ms, 1);  // several empty windows in between
  EXPECT_DOUBLE_EQ(rate.last_window_bps(), 0.0);
  EXPECT_NEAR(rate.peak_bps(), 1e9, 1e3);  // peak remembers the burst
}

}  // namespace
}  // namespace flexsfp::sim
