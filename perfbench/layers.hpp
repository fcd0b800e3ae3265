// Isolated per-call timings of library functions (the layer microbenches)
// and the per-layer report that combines them with the traced run.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "fabric/traffic_gen.hpp"
#include "net/bytes.hpp"

namespace perfbench {

/// Frames `spec` generates over its first `duration` ps: the workload's
/// own frames for the microbenches.
[[nodiscard]] std::vector<flexsfp::net::Bytes> generated_frames(
    flexsfp::fabric::TrafficSpec spec, flexsfp::sim::TimePs duration);
/// PacketPool::make, copy of one of `frames` into it, release.
[[nodiscard]] double bench_make_release_ns(
    const std::vector<flexsfp::net::Bytes>& frames);
/// net::parse_packet over `frames`.
[[nodiscard]] double bench_parse_ns(
    const std::vector<flexsfp::net::Bytes>& frames);
/// fabric::TrafficGen running `spec` into a handler that drops every
/// frame, in a Simulation of its own: host ns per emitted frame.
[[nodiscard]] double bench_traffic_gen_ns(flexsfp::fabric::TrafficSpec spec);

/// Inputs the per-layer report needs from the run.
struct LayerInputs {
  Replay untraced;  // a representative untraced replay
  Replay traced;
  double untraced_pkts_per_s = 0;
  double traced_pkts_per_s = 0;
  double ns_per_pkt_p50 = 0;  // untraced
  SpanTable spans{};          // summed over the traced replays
  double span_overhead_ns = 0;
  std::uint64_t traced_replays = 0;
  Microbench micro;
};

/// Every per-layer metric, in BENCHMARK.json order, with its unit.
struct LayerMetric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// Build the per-layer metrics and the cost-ledger rows (layer name, ns per
/// simulated packet), the rows sorted by descending share.
[[nodiscard]] std::vector<LayerMetric> layer_metrics(
    const LayerInputs& in,
    std::vector<std::pair<std::string, double>>& ledger_rows);

}  // namespace perfbench
