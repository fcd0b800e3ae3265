// Synthetic workload generation: constant-bit-rate and Poisson arrivals,
// fixed/IMIX/uniform packet sizes, Zipf-skewed flow popularity — the
// standard substitutes for the production traces a hardware testbed would
// replay.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "net/builder.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "sim/stats.hpp"

namespace flexsfp::fabric {

enum class SizeDistribution : std::uint8_t {
  fixed,    // every packet `fixed_size`
  imix,     // the classic 7:4:1 mix of 64/594/1518-byte frames
  uniform,  // uniform in [min_size, max_size]
};

enum class ArrivalProcess : std::uint8_t {
  cbr,      // back-to-back pacing at the offered rate
  poisson,  // exponential inter-arrival at the offered rate
};

struct TrafficSpec {
  sim::DataRate rate = sim::DataRate::gbps(10);
  ArrivalProcess arrivals = ArrivalProcess::cbr;
  SizeDistribution sizes = SizeDistribution::fixed;
  std::size_t fixed_size = 64;   // frame size before FCS, >= 60
  std::size_t min_size = 64;
  std::size_t max_size = 1518;

  /// Flow population: 5-tuples are drawn from `flow_count` flows with
  /// Zipf(`zipf_skew`) popularity (skew 0 = uniform).
  std::size_t flow_count = 1024;
  double zipf_skew = 1.0;

  net::Ipv4Address src_base = net::Ipv4Address::from_octets(10, 0, 0, 0);
  net::Ipv4Address dst_base = net::Ipv4Address::from_octets(192, 168, 0, 0);
  net::MacAddress src_mac = net::MacAddress::from_u64(0x020000000001);
  net::MacAddress dst_mac = net::MacAddress::from_u64(0x020000000002);
  /// Fraction of flows that are TCP (the rest UDP).
  double tcp_fraction = 0.5;

  std::uint64_t seed = 1;
  sim::TimePs start = 0;
  sim::TimePs duration = 1'000'000'000;  // 1 ms
};

/// Emits frames into `output` per the spec. Deterministic for a fixed seed.
/// A frame is the one net::PacketBuilder builds for its flow and size: an
/// emit copies a shared payload pattern and the flow's cached header, writes
/// the lengths and finishes both checksums in O(1) from cached sums. With
/// one fixed size the cached header already holds those fields final.
class TrafficGen {
 public:
  static constexpr std::size_t kMaxFrameBytes = 14 + 65535;  // IPv4's limit

  /// Throws std::invalid_argument if min_size > max_size or a size is too big.
  TrafficGen(sim::Simulation& sim, TrafficSpec spec,
             sim::PacketHandler& output);

  /// Schedule the stream; call once before running the simulation.
  void start();

  [[nodiscard]] const sim::TrafficMeter& emitted() const { return meter_; }
  [[nodiscard]] const TrafficSpec& spec() const { return spec_; }

  /// The 5-tuple of flow `rank` (1-based), for assertions in tests.
  [[nodiscard]] net::FiveTuple flow_tuple(std::size_t rank) const;

 private:
  /// A flow's first 54 frame bytes, length and checksum fields zero (final
  /// for a fixed size).
  struct FlowHeader {
    std::array<std::uint8_t, 54> bytes;
    std::uint8_t length;   // header bytes: 54 (TCP) or 42 (UDP, + payload)
    std::uint32_t ip_sum;  // over the IPv4 header
    std::uint32_t l4_sum;  // over the L4 and pseudo-header, but its length
  };

  void emit();
  [[nodiscard]] std::size_t next_size();
  [[nodiscard]] sim::TimePs gap_after(std::size_t frame_bytes);
  [[nodiscard]] FlowHeader make_header(std::size_t rank) const;
  [[nodiscard]] static std::size_t payload_after(const FlowHeader& head,
                                                 std::size_t frame_size);
  /// The IPv4 and L4 lengths and checksums of a frame with `payload` bytes
  /// after `head`, into the first 54 bytes at `out`.
  static void write_fields(std::uint8_t* out, const FlowHeader& head,
                           std::size_t payload);

  sim::Simulation& sim_;
  TrafficSpec spec_;
  sim::PacketHandler& output_;
  sim::Rng rng_;
  sim::ZipfDistribution flow_dist_;
  sim::SerializationTimer wire_time_{};
  std::string name_;  // registry-unique: "gen", "gen1", ...
  sim::TrafficMeter meter_;
  /// Ranks 1..min(flow_count, 4096), built on first use (length 0 before).
  static constexpr std::size_t kMaxCachedRanks = 4096;
  std::vector<FlowHeader> headers_;
  std::uint16_t flight_stage_ = 0;
  std::size_t imix_cursor_ = 0;
};

/// Terminal endpoint: counts frames, measures end-to-end latency from each
/// packet's created_time, optionally retains the last frames for
/// inspection.
class Sink final : public sim::PacketHandler {
 public:
  explicit Sink(sim::Simulation& sim, std::size_t retain_last = 0);

  void handle_packet(net::PacketPtr packet) override;

  [[nodiscard]] const sim::TrafficMeter& received() const { return meter_; }
  [[nodiscard]] const sim::LatencyHistogram& latency() const {
    return latency_;
  }
  [[nodiscard]] const std::vector<net::PacketPtr>& retained() const {
    return retained_;
  }
  void reset();

 private:
  sim::Simulation& sim_;
  std::size_t retain_;
  std::string name_;  // registry-unique: "sink", "sink1", ...
  sim::TrafficMeter meter_;
  sim::LatencyHistogram latency_;
  std::uint16_t flight_stage_ = 0;
  std::vector<net::PacketPtr> retained_;
};

}  // namespace flexsfp::fabric
