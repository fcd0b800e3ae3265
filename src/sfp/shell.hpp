// The three architecture shells of Figure 1.
//
// A shell owns the wiring between the module's two network interfaces
// (port 0 = edge/electrical connector, port 1 = optical), the Packet
// Processing Engine and the control-plane tap:
//
//   * OneWayFilter  — PPE on one direction only; the reverse direction goes
//                     straight to the egress arbiter where it merges with
//                     control-plane traffic (Figure 1a).
//   * TwoWayCore    — traffic from both interfaces is aggregated into one
//                     PPE, then demuxed to the opposite interface; the PPE
//                     must absorb twice the packet rate (Figure 1b).
//   * ActiveCp      — TwoWayCore plus a control plane that terminates and
//                     originates traffic (the "self-contained microservice
//                     node" third model).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "ppe/engine.hpp"
#include "sfp/arbiter.hpp"
#include "sfp/mgmt_protocol.hpp"

namespace flexsfp::sfp {

enum class ShellKind : std::uint8_t {
  one_way_filter = 0,
  two_way_core = 1,
  active_cp = 2,
};

[[nodiscard]] std::string to_string(ShellKind kind);

enum class PpeDirection : std::uint8_t {
  edge_to_optical = 0,
  optical_to_edge = 1,
};

// --- egress-hint side band ---------------------------------------------------
// Multi-port topologies (a module hanging off a crossbar fabric) sometimes
// need to pin which interface a packet leaves on instead of relying on the
// default cross-to-the-opposite-side rule — e.g. hairpinning a frame back
// out the interface it arrived on. The hint travels in the packet's
// user-metadata scratch word (models a side-band metadata bus): a tag byte
// on top, the port number below, so an untagged word never reads as a hint.
inline constexpr std::uint64_t kEgressHintTag = 0xE6ull << 56;
inline constexpr std::uint64_t kEgressHintTagMask = 0xFFull << 56;

void set_egress_hint(net::Packet& packet, int port);
void clear_egress_hint(net::Packet& packet);
/// The pinned egress port, or nullopt when the packet carries no hint.
[[nodiscard]] std::optional<int> egress_hint(const net::Packet& packet);

struct ShellConfig {
  ShellKind kind = ShellKind::one_way_filter;
  hw::DatapathConfig datapath{};
  PpeDirection direction = PpeDirection::edge_to_optical;  // one-way only
  std::size_t ppe_queue_capacity = 64;
  std::size_t arbiter_queue_capacity = 64;
  /// MAC/PCS traversal latency per interface crossing.
  sim::TimePs interface_latency_ps = 100'000;  // 100 ns
  /// Line rate of both interfaces.
  sim::DataRate line_rate = sim::line_rate_10g;
  /// The module's own MAC (ActiveCp terminates frames addressed to it).
  net::MacAddress module_mac;
};

class ArchitectureShell {
 public:
  ArchitectureShell(sim::Simulation& sim, ppe::PpeAppPtr app,
                    ShellConfig config);

  static constexpr int edge_port = 0;
  static constexpr int optical_port = 1;

  /// A packet arriving at the module on `port` (from the host system or
  /// from the fiber).
  void inject(int port, net::PacketPtr packet);

  /// Where packets leaving the module on `port` are delivered.
  void set_egress_handler(int port,
                          std::function<void(net::PacketPtr)> handler);
  /// Management (and, for ActiveCp, terminated) frames are delivered here.
  void set_control_rx(std::function<void(net::PacketPtr)> handler) {
    control_rx_ = std::move(handler);
  }
  /// Control-plane-originated traffic merges at the egress arbiter of
  /// `port` — the aggregation step of Figure 1a.
  void send_from_control(int port, net::PacketPtr packet);

  /// Degraded passthrough ("standard SFP" cut-through): data packets bypass
  /// the PPE and cross straight to the opposite egress arbiter. Management
  /// frames (and ActiveCp-terminated traffic) are still punted — the Mi-V
  /// stays reachable so the module can be recovered in-band. The cable
  /// degrades to a dumb cable; it never black-holes the link.
  void set_degraded(bool degraded);
  [[nodiscard]] bool degraded() const { return degraded_; }

  [[nodiscard]] ppe::Engine& engine() { return *engine_; }
  [[nodiscard]] const ppe::Engine& engine() const { return *engine_; }
  [[nodiscard]] const ShellConfig& config() const { return config_; }

  /// Fabric cost of the shell glue (demux, arbiters, CDC FIFOs) — what the
  /// Two-Way-Core's "hardware overhead ... is not linear" remark refers to.
  [[nodiscard]] hw::ResourceUsage shell_overhead_resources() const;

  // --- stats ----------------------------------------------------------------
  // Registry-backed: shell.ingress.{packets,bytes}{port=..,shell=..} and
  // shell.control_punts{shell=..}.
  [[nodiscard]] const sim::TrafficMeter& ingress_meter(int port) const {
    return ingress_meters_.at(static_cast<std::size_t>(port));
  }
  [[nodiscard]] std::uint64_t control_punts() const {
    return sim_.metrics().value(control_punts_id_);
  }
  /// Packets forwarded on the degraded passthrough path. Registry series
  /// shell.degraded_forwards{shell=..}; shell.degraded is the mode gauge.
  [[nodiscard]] std::uint64_t degraded_forwards() const {
    return sim_.metrics().value(degraded_forwards_id_);
  }
  /// Packets whose egress interface was pinned by an egress hint instead of
  /// the opposite-side rule. Registry series shell.egress_hints{shell=..}.
  [[nodiscard]] std::uint64_t egress_hints_honored() const {
    return sim_.metrics().value(egress_hints_id_);
  }

 private:
  [[nodiscard]] bool terminates_locally(const net::Packet& packet) const;
  /// The interface this packet leaves on: its egress hint when it carries a
  /// valid one (counted), otherwise `fallback` (the opposite-side rule).
  [[nodiscard]] int resolve_egress(const net::Packet& packet, int fallback);
  void punt_to_control(net::PacketPtr packet);

  sim::Simulation& sim_;
  ShellConfig config_;
  std::string name_;
  std::unique_ptr<ppe::Engine> engine_;
  std::array<std::unique_ptr<EgressArbiter>, 2> arbiters_;
  std::array<std::function<void(net::PacketPtr)>, 2> egress_handlers_;
  std::function<void(net::PacketPtr)> control_rx_;
  std::array<sim::TrafficMeter, 2> ingress_meters_;
  obs::MetricId control_punts_id_;
  obs::MetricId degraded_forwards_id_;
  obs::MetricId degraded_gauge_id_;
  obs::MetricId egress_hints_id_;
  bool degraded_ = false;
  std::uint16_t flight_stage_ = 0;
  sim::Lifetime lifetime_;  // guards this-capturing scheduled closures
};

}  // namespace flexsfp::sfp
