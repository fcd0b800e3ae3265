// Egress arbiter: the merge point of Figure 1 where data-plane traffic and
// control-plane traffic share one transmit interface. Serializes at the
// interface line rate, so the "control traffic is negligible" assumption of
// §4.1 becomes a measurable property instead of an assumption.
//
// A FIFO line-rate transmitter plus the egress MAC/PCS delay, clocked by
// one pending event per non-empty arbiter (DESIGN.md §9, "One event per
// hop"). Admission is the only decision; start, finish and departure are
// computed at admission the way sim::Link computes them. The drop test
// counts admitted packets whose service starts after now, so at one
// picosecond a departure frees its slot before an arrival takes it.
#pragma once

#include <functional>
#include <string>

#include "sim/lifetime.hpp"
#include "sim/link.hpp"

namespace flexsfp::sfp {

class EgressArbiter {
 public:
  /// Registry series as for any service stage, labeled {stage=arbiterN}:
  /// server.queue_drops / server.busy_ps / server.queue_high_watermark /
  /// server.served.{packets,bytes}.
  EgressArbiter(sim::Simulation& sim, sim::DataRate line_rate,
                std::size_t queue_capacity, sim::TimePs egress_delay);
  EgressArbiter(const EgressArbiter&) = delete;
  EgressArbiter& operator=(const EgressArbiter&) = delete;

  void handle_packet(net::PacketPtr packet);

  void set_output(std::function<void(net::PacketPtr)> output) {
    output_ = std::move(output);
  }

 private:
  struct InFlight {
    net::PacketPtr packet;
    sim::TimePs arrival = 0;
    sim::TimePs start = 0;
    sim::TimePs finish = 0;
  };

  /// Admitted packets whose service starts after now.
  [[nodiscard]] std::size_t waiting();
  /// Schedule the head's departure. Precondition: !ring_.empty().
  void arm();
  void depart();
  void record_hops(const InFlight& head);

  sim::Simulation& sim_;
  sim::SerializationTimer line_rate_;
  std::size_t capacity_;
  sim::TimePs egress_delay_;
  std::string stage_;
  sim::TrafficMeter served_;
  obs::MetricId drops_id_;
  obs::MetricId busy_id_;
  obs::MetricId watermark_id_;
  std::uint16_t flight_stage_ = 0;
  sim::Ring<InFlight> ring_;  // admitted packets, oldest first
  // How many leading ring entries are known to have started (start <= now);
  // advanced lazily, since start times rise along the ring.
  std::size_t started_ = 0;
  sim::TimePs next_free_ = 0;
  std::function<void(net::PacketPtr)> output_;
  sim::Lifetime lifetime_;  // guards the pending departure event
};

}  // namespace flexsfp::sfp
