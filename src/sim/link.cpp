#include "sim/link.hpp"

#include <utility>

namespace flexsfp::sim {

Link::Link(Simulation& sim, DataRate rate, TimePs propagation_delay,
           PacketHandler& destination, std::string name)
    : sim_(sim),
      rate_(rate),
      propagation_delay_(propagation_delay),
      destination_(destination),
      name_(sim.metrics().unique_name(std::move(name))),
      meter_(sim.metrics(), "link.traffic", {{"link", name_}}),
      wire_meter_(sim.metrics(), "link.wire", {{"link", name_}}) {
  busy_id_ = sim_.metrics().counter("link.busy_ps", {{"link", name_}});
  flight_stage_ = sim_.flight().register_stage(name_);
}

void Link::handle_packet(net::PacketPtr packet) {
  const TimePs start = std::max(sim_.now(), next_free_);
  // Serialization and busy time are wire-byte quantities; the goodput meter
  // records frame bytes and the wire meter the bytes actually occupying the
  // line, so utilization() and delivered-rate figures never mix units.
  const std::size_t wire_bytes = packet->wire_size();
  const TimePs ser = ser_(wire_bytes);
  next_free_ = start + ser;
  sim_.metrics().add(busy_id_, std::uint64_t(ser));
  meter_.record(packet->size());
  wire_meter_.record(wire_bytes);
  if (sim_.flight().sampled(packet->id())) {
    sim_.flight().record(packet->id(), flight_stage_, obs::HopKind::transit,
                         start, 0, std::uint64_t(ser));
  }
  const TimePs arrival = next_free_ + propagation_delay_;
  sim_.schedule_at(arrival, [this, token = lifetime_.token(),
                             packet = std::move(packet)]() mutable {
    if (!token.alive()) return;  // link torn down while the packet flew
    destination_.handle_packet(std::move(packet));
  });
}

bool BoundedQueue::push(net::PacketPtr packet) {
  if (ring_.size() >= capacity_) return false;
  ring_.push_back(std::move(packet));
  return true;
}

net::PacketPtr BoundedQueue::pop() {
  return ring_.empty() ? nullptr : ring_.pop_front();
}

QueuedServer::QueuedServer(Simulation& sim, std::size_t queue_capacity,
                           std::string stage)
    : sim_(sim),
      queue_(queue_capacity),
      stage_(sim.metrics().unique_name(std::move(stage))),
      served_(sim.metrics(), "server.served", {{"stage", stage_}}) {
  drops_id_ = sim_.metrics().counter("server.queue_drops", {{"stage", stage_}});
  busy_id_ = sim_.metrics().counter("server.busy_ps", {{"stage", stage_}});
  watermark_id_ =
      sim_.metrics().gauge("server.queue_high_watermark", {{"stage", stage_}});
  flight_stage_ = sim_.flight().register_stage(stage_);
}

void QueuedServer::handle_packet(net::PacketPtr packet) {
  const net::PacketId id = packet->id();
  if (!queue_.push(std::move(packet))) {
    sim_.metrics().add(drops_id_);
    if (sim_.flight().sampled(id)) {
      sim_.flight().record(id, flight_stage_, obs::HopKind::queue_drop,
                           sim_.now(),
                           static_cast<std::uint32_t>(queue_.size()));
    }
    return;
  }
  sim_.metrics().set_max(watermark_id_, queue_.size());
  if (!busy_) start_service();
}

void QueuedServer::start_service() {
  auto packet = queue_.pop();
  if (!packet) return;
  busy_ = true;
  const TimePs service = service_time(*packet);
  sim_.metrics().add(busy_id_, std::uint64_t(service));
  served_.record(packet->size());
  if (sim_.flight().sampled(packet->id())) {
    sim_.flight().record(packet->id(), flight_stage_, obs::HopKind::serve,
                         sim_.now(),
                         static_cast<std::uint32_t>(queue_.size()),
                         std::uint64_t(service));
  }
  sim_.schedule_in(service, [this, token = lifetime_.token(),
                             packet = std::move(packet)]() mutable {
    if (!token.alive()) return;  // server torn down mid-service
    finish(std::move(packet));
    busy_ = false;
    if (!queue_.empty()) start_service();
  });
}

}  // namespace flexsfp::sim
