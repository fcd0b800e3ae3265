#include "fabric/crossbar.hpp"

#include <stdexcept>
#include <utility>

namespace flexsfp::fabric {

Crossbar::Crossbar(sim::Simulation& sim, CrossbarConfig config, RouteFn route)
    : sim_(sim),
      config_(config),
      route_(std::move(route)),
      name_(sim.metrics().unique_name("xbar")),
      ser_(config.port_rate) {
  if (config_.ports == 0) {
    throw std::invalid_argument("Crossbar needs at least one port");
  }
  if (config_.crosspoint_capacity == 0) {
    throw std::invalid_argument("Crossbar crosspoints need capacity >= 1");
  }
  if (!route_) {
    throw std::invalid_argument("Crossbar needs a route function");
  }

  flight_stage_ = sim_.flight().register_stage(name_);
  enqueued_id_ =
      sim_.metrics().counter("fabric.xbar.enqueued", {{"xbar", name_}});
  unrouted_id_ =
      sim_.metrics().counter("fabric.xbar.unrouted", {{"xbar", name_}});

  const std::size_t n = config_.ports;
  xpoints_.reserve(n * n);
  for (std::size_t in = 0; in < n; ++in) {
    for (std::size_t out = 0; out < n; ++out) {
      const obs::Labels labels = {{"in", std::to_string(in)},
                                  {"out", std::to_string(out)},
                                  {"xbar", name_}};
      xpoints_.push_back(Crosspoint{
          sim::BoundedQueue(config_.crosspoint_capacity),
          sim_.metrics().counter("fabric.xbar.crosspoint_drops", labels),
          sim_.metrics().gauge("fabric.xbar.crosspoint_hwm", labels)});
    }
  }

  outputs_.resize(n);
  for (std::size_t port = 0; port < n; ++port) {
    const obs::Labels labels = {{"out", std::to_string(port)},
                                {"xbar", name_}};
    outputs_[port].forwarded_packets_id =
        sim_.metrics().counter("fabric.xbar.forwarded.packets", labels);
    outputs_[port].forwarded_bytes_id =
        sim_.metrics().counter("fabric.xbar.forwarded.bytes", labels);
  }
}

void Crossbar::set_output_handler(
    std::size_t out, std::function<void(net::PacketPtr)> handler) {
  outputs_.at(out).deliver = std::move(handler);
}

void Crossbar::ingress(std::size_t in, net::PacketPtr packet) {
  const net::PacketId id = packet->id();
  const int routed = route_(*packet);
  if (routed < 0 || static_cast<std::size_t>(routed) >= config_.ports) {
    sim_.metrics().add(unrouted_id_);
    if (sim_.flight().sampled(id)) {
      sim_.flight().record(id, flight_stage_, obs::HopKind::queue_drop,
                           sim_.now(), 0, std::uint64_t(in));
    }
    return;  // counted as unrouted, packet recycles to its pool
  }
  const auto out = static_cast<std::size_t>(routed);
  Crosspoint& xp = at(in, out);
  if (sim_.flight().sampled(id)) {
    sim_.flight().record(id, flight_stage_, obs::HopKind::ingress, sim_.now(),
                         static_cast<std::uint32_t>(xp.queue.size()),
                         (std::uint64_t(in) << 32) | std::uint64_t(out));
  }
  if (!xp.queue.push(std::move(packet))) {
    sim_.metrics().add(xp.drops_id);
    if (sim_.flight().sampled(id)) {
      sim_.flight().record(id, flight_stage_, obs::HopKind::queue_drop,
                           sim_.now(),
                           static_cast<std::uint32_t>(xp.queue.size()),
                           (std::uint64_t(in) << 32) | std::uint64_t(out));
    }
    return;
  }
  sim_.metrics().add(enqueued_id_);
  sim_.metrics().set_max(xp.hwm_id, xp.queue.size());
  try_grant(out);
}

void Crossbar::try_grant(std::size_t out) {
  Output& output = outputs_[out];
  if (output.busy) return;
  const std::size_t n = config_.ports;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t in = (output.rr_next + k) % n;
    Crosspoint& xp = at(in, out);
    if (xp.queue.empty()) continue;

    net::PacketPtr packet = xp.queue.pop();
    output.rr_next = (in + 1) % n;
    output.busy = true;
    const sim::TimePs serialization = ser_(packet->wire_size());
    if (sim_.flight().sampled(packet->id())) {
      sim_.flight().record(packet->id(), flight_stage_, obs::HopKind::serve,
                           sim_.now(),
                           static_cast<std::uint32_t>(xp.queue.size()),
                           std::uint64_t(serialization));
    }
    sim_.schedule_in(
        serialization, [this, out, packet = std::move(packet)]() mutable {
          Output& o = outputs_[out];
          o.busy = false;
          sim_.metrics().add(o.forwarded_packets_id);
          sim_.metrics().add(o.forwarded_bytes_id, packet->size());
          if (sim_.flight().sampled(packet->id())) {
            sim_.flight().record(packet->id(), flight_stage_,
                                 obs::HopKind::egress, sim_.now(), 0,
                                 std::uint64_t(out));
          }
          if (o.deliver) o.deliver(std::move(packet));
          try_grant(out);
        });
    return;
  }
}

std::uint64_t Crossbar::crosspoint_drops() const {
  std::uint64_t total = 0;
  for (const Crosspoint& xp : xpoints_) {
    total += sim_.metrics().value(xp.drops_id);
  }
  return total;
}

std::uint64_t Crossbar::forwarded_packets(std::size_t out) const {
  return sim_.metrics().value(outputs_.at(out).forwarded_packets_id);
}

std::uint64_t Crossbar::forwarded_bytes(std::size_t out) const {
  return sim_.metrics().value(outputs_.at(out).forwarded_bytes_id);
}

std::size_t Crossbar::crosspoint_depth(std::size_t in, std::size_t out) const {
  return at(in, out).queue.size();
}

std::uint64_t Crossbar::crosspoint_high_watermark(std::size_t in,
                                                  std::size_t out) const {
  return sim_.metrics().value(at(in, out).hwm_id);
}

}  // namespace flexsfp::fabric
