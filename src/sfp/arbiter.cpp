#include "sfp/arbiter.hpp"

#include <algorithm>
#include <utility>

namespace flexsfp::sfp {

EgressArbiter::EgressArbiter(sim::Simulation& sim, sim::DataRate line_rate,
                             std::size_t queue_capacity,
                             sim::TimePs egress_delay)
    : sim_(sim),
      line_rate_(line_rate),
      capacity_(queue_capacity),
      egress_delay_(egress_delay),
      stage_(sim.metrics().unique_name("arbiter")),
      served_(sim.metrics(), "server.served", {{"stage", stage_}}) {
  drops_id_ = sim_.metrics().counter("server.queue_drops", {{"stage", stage_}});
  busy_id_ = sim_.metrics().counter("server.busy_ps", {{"stage", stage_}});
  watermark_id_ =
      sim_.metrics().gauge("server.queue_high_watermark", {{"stage", stage_}});
  flight_stage_ = sim_.flight().register_stage(stage_);
}

std::size_t EgressArbiter::waiting(sim::TimePs at) {
  while (started_ > 0 && ring_[started_ - 1].start > at) --started_;
  while (started_ < ring_.size() && ring_[started_].start <= at) ++started_;
  return ring_.size() - started_;
}

void EgressArbiter::admit(net::PacketPtr packet, sim::Slot slot) {
  if (!ring_.empty() && slot < ring_.back().arrival) pull_back(slot);
  const std::size_t queued = waiting(slot.at);
  if (queued >= capacity_) {
    // Whether a packet ahead of the clock finds the FIFO full depends on
    // what else reaches the arbiter before its slot: decide it there.
    if (sim_.current_slot() < slot) {
      admit_later(std::move(packet), slot);
      return;
    }
    sim_.metrics().add(drops_id_);
    if (sim_.flight().sampled(packet->id())) {
      sim_.flight().record(packet->id(), flight_stage_,
                           obs::HopKind::queue_drop, slot.at,
                           static_cast<std::uint32_t>(queued));
    }
    return;
  }
  sim_.metrics().set_max(watermark_id_, queued + 1);

  // An empty ring's last packet departed at or before now, so its finish
  // cannot delay this one.
  const sim::TimePs start =
      ring_.empty() ? slot.at : std::max(slot.at, ring_.back().finish);
  const sim::TimePs wire = line_rate_(packet->wire_size());
  sim_.metrics().add(busy_id_, std::uint64_t(wire));
  served_.record(packet->size());

  ring_.push_back({std::move(packet), slot, start, start + wire});
  if (ring_.size() == 1) arm();
}

// The watermark is a maximum and is not taken back: each entry's re-admission
// at its own slot sees at least the depth it saw here, or the FIFO full.
void EgressArbiter::pull_back(sim::Slot slot) {
  while (!ring_.empty() && slot < ring_.back().arrival) {
    InFlight entry = ring_.pop_back();
    sim_.metrics().sub(busy_id_, std::uint64_t(entry.finish - entry.start));
    served_.unrecord(entry.packet->size());
    admit_later(std::move(entry.packet), entry.arrival);
  }
  if (ring_.empty()) ++generation_;  // the head went, disarm its departure
  started_ = std::min(started_, ring_.size());
}

void EgressArbiter::admit_later(net::PacketPtr packet, sim::Slot slot) {
  sim_.schedule_at(slot, [this, token = lifetime_.token(),
                          packet = std::move(packet)]() mutable {
    if (!token.alive()) return;  // shell torn down
    handle_packet(std::move(packet));
  });
}

void EgressArbiter::arm() {
  sim_.schedule_at(sim::saturating_add(ring_[0].finish, egress_delay_),
                   [this, token = lifetime_.token(),
                    generation = generation_]() {
                     if (!token.alive()) return;  // shell torn down
                     if (generation != generation_) return;  // pulled back
                     depart();
                   });
}

void EgressArbiter::depart() {
  InFlight head = ring_.pop_front();
  if (started_ > 0) --started_;
  if (sim_.flight().sampled(head.packet->id())) record_hops(head);
  // Re-arm before handing the packet on: a handler that feeds this arbiter
  // again sees a consistent one-event-per-non-empty-arbiter state.
  if (!ring_.empty()) arm();
  if (output_) output_(std::move(head.packet));
}

// The serve and egress hops carry the times a queued server would have
// recorded them at, and the depth it would have seen then: the packets
// behind this one that had arrived by that instant.
void EgressArbiter::record_hops(const InFlight& head) {
  std::uint32_t at_start = 0;
  std::uint32_t at_finish = 0;
  for (std::size_t i = 0;
       i < ring_.size() && ring_[i].arrival.at < head.finish; ++i) {
    ++at_finish;
    if (ring_[i].arrival.at < head.start) ++at_start;
  }
  const net::PacketId id = head.packet->id();
  sim_.flight().record(id, flight_stage_, obs::HopKind::serve, head.start,
                       at_start, std::uint64_t(head.finish - head.start));
  sim_.flight().record(id, flight_stage_, obs::HopKind::egress, head.finish,
                       at_finish);
}

}  // namespace flexsfp::sfp
