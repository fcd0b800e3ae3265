// Synthetic workload generation: constant-bit-rate and Poisson arrivals,
// fixed/IMIX/uniform packet sizes, Zipf-skewed flow popularity — the
// standard substitutes for the production traces a hardware testbed would
// replay.
#pragma once

#include <functional>
#include <optional>
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
class TrafficGen {
 public:
  TrafficGen(sim::Simulation& sim, TrafficSpec spec,
             sim::PacketHandler& output);

  /// Schedule the stream; call once before running the simulation.
  void start();

  [[nodiscard]] const sim::TrafficMeter& emitted() const { return meter_; }
  [[nodiscard]] const TrafficSpec& spec() const { return spec_; }

  /// The 5-tuple of flow `rank` (1-based), for assertions in tests.
  [[nodiscard]] net::FiveTuple flow_tuple(std::size_t rank) const;

 private:
  void emit();
  [[nodiscard]] std::size_t next_size();
  [[nodiscard]] sim::TimePs gap_after(std::size_t frame_bytes);
  /// Assemble the frame for (`frame_size`, `tuple`) into `out`.
  void build_frame(std::size_t frame_size, const net::FiveTuple& tuple,
                   net::Bytes& out);
  /// Build the template table eagerly (constructor time — setup, not the
  /// hot path): fixed/IMIX streams draw from a known, tiny set of frame
  /// sizes, so every (rank, size) pair up to the budgeted rank horizon gets
  /// its frame assembled once and steady-state emits become one memcpy.
  void prebuild_templates();
  /// Prebuilt frame bytes for (`rank`, `frame_size`), or nullptr when the
  /// pair is outside the table (uniform sizes, rank beyond the budget
  /// horizon). Frame bytes are a pure function of rank and size, so
  /// replaying the template is bit-exact.
  [[nodiscard]] const net::Bytes* frame_template(std::size_t rank,
                                                 std::size_t frame_size) const;

  sim::Simulation& sim_;
  TrafficSpec spec_;
  sim::PacketHandler& output_;
  sim::Rng rng_;
  sim::ZipfDistribution flow_dist_;
  sim::SerializationTimer wire_time_{};
  std::string name_;  // registry-unique: "gen", "gen1", ...
  sim::TrafficMeter meter_;
  /// Reused across emits so steady-state frame assembly into pooled
  /// packets allocates nothing.
  net::PacketBuilder builder_;
  /// The pktgen template trick, direct-indexed: templates_[(rank-1) *
  /// sizes + size_index] holds the prebuilt frame, so an emit is one
  /// bounds check + one tiny size scan + one memcpy — no hash map, no
  /// header serialization, no checksum math on the hot path. Built eagerly
  /// for ALL ranks up to the budget horizon (construction is setup, not the
  /// hot path), so Zipf-tail flows stop paying per-emit frame assembly.
  std::vector<net::Bytes> templates_;
  std::vector<std::size_t> template_sizes_;  // distinct frame sizes, <= 3
  std::size_t template_ranks_ = 0;           // ranks covered (1-based cap)
  static constexpr std::size_t template_budget_bytes = 8u << 20;
  /// Rank horizon independent of the byte budget: bounds constructor-time
  /// prebuild work for huge flow populations.
  static constexpr std::size_t kMaxTemplateRanks = 4096;
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
