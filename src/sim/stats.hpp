// Measurement primitives: counters, byte/packet meters and a log-bucketed
// latency histogram with percentile queries.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace flexsfp::sim {

/// Packets + bytes observed, with derived rates over a given span.
///
/// Registry-backed by construction: the counts are the `<name>.packets` /
/// `<name>.bytes` series of the run's MetricRegistry, so the registry is the
/// single tally and every read goes through it. Copies share those series.
class TrafficMeter {
 public:
  TrafficMeter(obs::MetricRegistry& registry, const std::string& name,
               obs::Labels labels = {})
      : registry_(registry),
        packets_id_(registry.counter(name + ".packets", labels)),
        bytes_id_(registry.counter(name + ".bytes", std::move(labels))) {}

  void record(std::size_t bytes) {
    registry_.add(packets_id_);
    registry_.add(bytes_id_, bytes);
  }
  /// Take back one record(bytes).
  void unrecord(std::size_t bytes) {
    registry_.sub(packets_id_);
    registry_.sub(bytes_id_, bytes);
  }

  [[nodiscard]] std::uint64_t packets() const {
    return registry_.value(packets_id_);
  }
  [[nodiscard]] std::uint64_t bytes() const {
    return registry_.value(bytes_id_);
  }
  /// Average bit rate over `span` (payload bits, no wire overhead).
  [[nodiscard]] double bits_per_second(TimePs span) const {
    return span > 0 ? double(bytes()) * 8.0 / to_seconds(span) : 0.0;
  }
  void reset() {
    registry_.zero(packets_id_);
    registry_.zero(bytes_id_);
  }

 private:
  obs::MetricRegistry& registry_;
  obs::MetricId packets_id_;
  obs::MetricId bytes_id_;
};

/// Latency histogram: geometric buckets from 1 ns to ~17 ms, 16 buckets per
/// octave, ~4% relative resolution — plenty for datapath latencies while
/// staying allocation-free after construction.
class LatencyHistogram {
 public:
  LatencyHistogram();

  void record(TimePs latency);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] TimePs min() const { return count_ > 0 ? min_ : 0; }
  [[nodiscard]] TimePs max() const { return max_; }
  [[nodiscard]] double mean_ns() const {
    return count_ > 0 ? sum_ns_ / double(count_) : 0.0;
  }
  /// Percentile in [0, 100]; returns the representative value of the bucket
  /// containing the requested rank.
  [[nodiscard]] TimePs percentile(double p) const;
  /// Fold another histogram in (shard merge): buckets add element-wise, so
  /// percentiles of the merge equal percentiles of the union of samples.
  /// Merge shards in a fixed order when bit-identical means are required —
  /// sum_ns_ is floating point and addition is not associative.
  void merge(const LatencyHistogram& other);
  void reset();

  /// Same samples in the same buckets with a bit-identical sum — what two
  /// runs that merged the same shards in the same order agree on. The
  /// bucket_for memo is not part of the value.
  friend bool operator==(const LatencyHistogram& a,
                         const LatencyHistogram& b) {
    return a.count_ == b.count_ && a.sum_ns_ == b.sum_ns_ &&
           a.min_ == b.min_ && a.max_ == b.max_ && a.buckets_ == b.buckets_;
  }

 private:
  [[nodiscard]] std::size_t bucket_for(TimePs latency) const;
  [[nodiscard]] TimePs bucket_value(std::size_t index) const;

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ns_ = 0;
  TimePs min_ = 0;
  TimePs max_ = 0;
  // One-entry memo over bucket_for: identical latencies arrive in long runs
  // (fixed-size sweeps traverse the same service chain), and bucket_for
  // costs a log2 per call.
  TimePs last_latency_ = -1;
  std::size_t last_bucket_ = 0;
};

/// Sliding-window rate estimator used by the microburst detector: counts
/// bytes in fixed windows and reports the previous window's rate.
class WindowedRate {
 public:
  explicit WindowedRate(TimePs window) : window_(window) {}

  void record(TimePs now, std::size_t bytes);
  /// Rate of the most recently *completed* window, bits/second.
  [[nodiscard]] double last_window_bps() const { return last_bps_; }
  /// Highest completed-window rate seen so far.
  [[nodiscard]] double peak_bps() const { return peak_bps_; }
  [[nodiscard]] TimePs window() const { return window_; }

 private:
  void roll(TimePs now);

  TimePs window_;
  TimePs window_start_ = 0;
  std::uint64_t window_bytes_ = 0;
  double last_bps_ = 0.0;
  double peak_bps_ = 0.0;
};

}  // namespace flexsfp::sim
