// Crosspoint-queued N×N crossbar — the switch in the middle of a
// cable → switch → cable topology.
//
// The FlexCross observation (PAPERS.md) is that a crosspoint-queued
// crossbar is the right interconnect for flexible per-port packet
// processing at line rate: every (input, output) pair owns its own small
// buffer, so a congested output never head-of-line blocks traffic crossing
// from the same input to a different output, and arbitration is a local
// per-output decision instead of a global schedule. This models exactly
// that: per-crosspoint bounded VOQ-style FIFOs (drops counted per
// crosspoint), one serializing transmitter per output at port rate, and
// round-robin grant rotation among the output's non-empty crosspoints so no
// input can starve another.
//
// Every tally is an obs:: registry series under fabric.xbar.*, labeled
// {xbar=<name>} plus {in=i,out=j} for per-crosspoint series — the feed for
// `flexsfp-stats --fabric` and the fabric benches' ledgers.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sim/link.hpp"
#include "sim/simulation.hpp"

namespace flexsfp::fabric {

struct CrossbarConfig {
  /// Port count (inputs == outputs == modules hanging off the fabric).
  std::size_t ports = 2;
  /// Packets one crosspoint buffer holds; arrivals beyond this are dropped
  /// and counted against that crosspoint.
  std::size_t crosspoint_capacity = 64;
  /// Serialization rate of each output transmitter.
  sim::DataRate port_rate = sim::line_rate_10g;
};

class Crossbar {
 public:
  /// Maps a packet to its output port. Return < 0 (or >= ports) to declare
  /// the packet unroutable; it is dropped and counted, never black-holed.
  using RouteFn = std::function<int(const net::Packet&)>;

  Crossbar(sim::Simulation& sim, CrossbarConfig config, RouteFn route);

  /// A packet arriving on input `in` (the far end of module `in`'s cable).
  void ingress(std::size_t in, net::PacketPtr packet);
  /// Where packets leaving output `out` go (after serialization at port
  /// rate — downstream glue adds propagation delay only, never a second
  /// serialization).
  void set_output_handler(std::size_t out,
                          std::function<void(net::PacketPtr)> handler);

  [[nodiscard]] std::size_t ports() const { return config_.ports; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const CrossbarConfig& config() const { return config_; }

  // --- stats (registry-backed convenience reads) ----------------------------
  /// Packets accepted into some crosspoint buffer.
  [[nodiscard]] std::uint64_t enqueued() const {
    return sim_.metrics().value(enqueued_id_);
  }
  /// Packets dropped because their crosspoint buffer was full (all
  /// crosspoints; per-crosspoint series carry the {in,out} split).
  [[nodiscard]] std::uint64_t crosspoint_drops() const;
  /// Packets the route function refused.
  [[nodiscard]] std::uint64_t unrouted() const {
    return sim_.metrics().value(unrouted_id_);
  }
  /// Packets fully serialized out of output `out`.
  [[nodiscard]] std::uint64_t forwarded_packets(std::size_t out) const;
  [[nodiscard]] std::uint64_t forwarded_bytes(std::size_t out) const;
  /// Current depth / high watermark of crosspoint (in, out), for tests.
  [[nodiscard]] std::size_t crosspoint_depth(std::size_t in,
                                             std::size_t out) const;
  [[nodiscard]] std::uint64_t crosspoint_high_watermark(std::size_t in,
                                                        std::size_t out) const;

 private:
  struct Crosspoint {
    sim::BoundedQueue queue;
    obs::MetricId drops_id;
    obs::MetricId hwm_id;
  };
  struct Output {
    bool busy = false;
    /// First input polled at the next grant — advanced past the winner, so
    /// persistently backlogged inputs share the output round-robin.
    std::size_t rr_next = 0;
    std::function<void(net::PacketPtr)> deliver;
    obs::MetricId forwarded_packets_id;
    obs::MetricId forwarded_bytes_id;
  };

  [[nodiscard]] Crosspoint& at(std::size_t in, std::size_t out) {
    return xpoints_[in * config_.ports + out];
  }
  [[nodiscard]] const Crosspoint& at(std::size_t in, std::size_t out) const {
    return xpoints_[in * config_.ports + out];
  }
  /// Grant the output to its next non-empty crosspoint, if idle.
  void try_grant(std::size_t out);

  sim::Simulation& sim_;
  CrossbarConfig config_;
  RouteFn route_;
  std::string name_;
  sim::SerializationTimer ser_;
  std::vector<Crosspoint> xpoints_;  // [in * ports + out]
  std::vector<Output> outputs_;
  obs::MetricId enqueued_id_;
  obs::MetricId unrouted_id_;
  std::uint16_t flight_stage_ = 0;
};

}  // namespace flexsfp::fabric
