#include "sfp/standard_sfp.hpp"

#include <algorithm>
#include <string>

namespace flexsfp::sfp {

namespace {

std::array<sim::TrafficMeter, 2> ingress_meters(obs::MetricRegistry& metrics) {
  const std::string name = metrics.unique_name("standard-sfp");
  return {sim::TrafficMeter(metrics, "sfp.ingress",
                            {{"port", "0"}, {"sfp", name}}),
          sim::TrafficMeter(metrics, "sfp.ingress",
                            {{"port", "1"}, {"sfp", name}})};
}

}  // namespace

StandardSfp::StandardSfp(sim::Simulation& sim, sim::TimePs serdes_latency_ps)
    : sim_(sim),
      serdes_latency_ps_(serdes_latency_ps),
      meters_(ingress_meters(sim.metrics())) {}

void StandardSfp::inject(int port, net::PacketPtr packet) {
  meters_[static_cast<std::size_t>(port)].record(packet->size());
  const int egress = port == edge_port ? optical_port : edge_port;
  auto& handler = egress_handlers_[static_cast<std::size_t>(egress)];
  if (!handler) return;
  sim_.schedule_in(serdes_latency_ps_,
                   [&handler, packet = std::move(packet)]() mutable {
                     handler(std::move(packet));
                   });
}

void StandardSfp::set_egress_handler(
    int port, std::function<void(net::PacketPtr)> handler) {
  egress_handlers_.at(static_cast<std::size_t>(port)) = std::move(handler);
}

hw::PowerBreakdown StandardSfp::power(sim::TimePs elapsed,
                                      sim::DataRate line_rate) const {
  const double bps = std::max(meters_[0].bits_per_second(elapsed),
                              meters_[1].bits_per_second(elapsed));
  const double utilization =
      line_rate.bps() > 0 ? bps / double(line_rate.bps()) : 0.0;
  return hw::PowerModel::standard_sfp(utilization);
}

}  // namespace flexsfp::sfp
