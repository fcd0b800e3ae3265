// Egress arbiter: the merge point of Figure 1 where data-plane traffic and
// control-plane traffic share one transmit interface. Serializes at the
// interface line rate, so the "control traffic is negligible" assumption of
// §4.1 becomes a measurable property instead of an assumption.
//
// A FIFO line-rate transmitter plus the egress MAC/PCS delay, clocked by
// one pending event per non-empty arbiter (DESIGN.md §9, "One event per
// hop"). Admission is the only decision; start, finish and departure are
// computed at admission the way sim::Link computes them.
//
// Every admission carries the event slot (time, seq) at which the packet
// reaches the arbiter, and the arbiter admits in slot order as of the
// slot's time. A direct call arrives at the running event's slot; the PPE
// hands a forwarded packet over at its verdict with the later slot its
// pipeline drain ends at, so the drain needs no event. An admission whose
// slot is earlier than entries already admitted ahead of it pulls those
// back: their counts are undone and each is rescheduled as an event at its
// own slot. An ahead admission that would drop is deferred the same way,
// so the outcome is always that of one event per arrival.
//
// The drop test counts admitted packets whose service starts after the
// slot's time, so at one picosecond a departure frees its place before an
// arrival takes it.
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

  /// Admit at the running event's slot.
  void handle_packet(net::PacketPtr packet) {
    admit(std::move(packet), sim_.current_slot());
  }
  /// Admit as the packet arriving at `slot`, a slot at or after the running
  /// event's (sim::Simulation::reserve_slot).
  void admit(net::PacketPtr packet, sim::Slot slot);

  void set_output(std::function<void(net::PacketPtr)> output) {
    output_ = std::move(output);
  }

 private:
  struct InFlight {
    net::PacketPtr packet;
    sim::Slot arrival;
    sim::TimePs start = 0;
    sim::TimePs finish = 0;
  };

  /// Admitted packets whose service starts after `at`.
  [[nodiscard]] std::size_t waiting(sim::TimePs at);
  /// Take back every entry admitted at a slot after `slot`, undo its counts
  /// and reschedule its admission as an event at that slot.
  void pull_back(sim::Slot slot);
  void admit_later(net::PacketPtr packet, sim::Slot slot);
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
  sim::Ring<InFlight> ring_;  // admitted packets in slot order
  // How many leading ring entries had started as of the last admission's
  // time; moved lazily, since start times rise along the ring.
  std::size_t started_ = 0;
  // Bumped when a pull-back takes the head, whose departure is armed: that
  // event then finds a stale generation and does nothing.
  std::uint64_t generation_ = 0;
  std::function<void(net::PacketPtr)> output_;
  sim::Lifetime lifetime_;  // guards the pending departure event
};

}  // namespace flexsfp::sfp
