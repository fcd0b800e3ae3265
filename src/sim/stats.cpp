#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>

namespace flexsfp::sim {

namespace {
// 16 buckets per octave over 24 octaves starting at 1 ns.
constexpr std::size_t buckets_per_octave = 16;
constexpr std::size_t octaves = 24;
constexpr double base_ns = 1.0;
}  // namespace

LatencyHistogram::LatencyHistogram()
    : buckets_(buckets_per_octave * octaves + 1, 0) {}

std::size_t LatencyHistogram::bucket_for(TimePs latency) const {
  const double ns = std::max(to_nanos(latency), base_ns);
  const double octave = std::log2(ns / base_ns);
  const auto index = static_cast<std::size_t>(octave * buckets_per_octave);
  return std::min(index, buckets_.size() - 1);
}

TimePs LatencyHistogram::bucket_value(std::size_t index) const {
  const double ns =
      base_ns * std::pow(2.0, (double(index) + 0.5) / buckets_per_octave);
  return static_cast<TimePs>(ns * 1000.0);
}

void LatencyHistogram::record(TimePs latency) {
  if (count_ == 0 || latency < min_) min_ = latency;
  if (latency > max_) max_ = latency;
  sum_ns_ += to_nanos(latency);
  ++count_;
  if (latency != last_latency_) {
    last_latency_ = latency;
    last_bucket_ = bucket_for(latency);
  }
  ++buckets_[last_bucket_];
}

TimePs LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(
      std::clamp(p, 0.0, 100.0) / 100.0 * double(count_ - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen > rank) return bucket_value(i);
  }
  return max_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  count_ += other.count_;
  sum_ns_ += other.sum_ns_;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
}

void LatencyHistogram::reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ns_ = 0;
  min_ = 0;
  max_ = 0;
  last_latency_ = -1;
  last_bucket_ = 0;
}

void WindowedRate::record(TimePs now, std::size_t bytes) {
  roll(now);
  window_bytes_ += bytes;
}

void WindowedRate::roll(TimePs now) {
  while (now >= window_start_ + window_) {
    const double bps = double(window_bytes_) * 8.0 / to_seconds(window_);
    last_bps_ = bps;
    peak_bps_ = std::max(peak_bps_, bps);
    window_bytes_ = 0;
    window_start_ += window_;
  }
}

}  // namespace flexsfp::sim
