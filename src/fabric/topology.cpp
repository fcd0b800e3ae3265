#include "fabric/topology.hpp"

#include <cstdint>
#include <stdexcept>

#include "fabric/parallel_testbed.hpp"
#include "net/headers.hpp"

namespace flexsfp::fabric {

void Topology::validate() const {
  if (modules < 2) {
    throw std::invalid_argument("Topology needs at least two modules");
  }
  if (!targets.empty()) {
    if (targets.size() != modules) {
      throw std::invalid_argument(
          "Topology targets must be empty (ring) or one per module");
    }
    for (std::size_t t : targets) {
      if (t >= modules) {
        throw std::invalid_argument("Topology target out of range");
      }
    }
  }
  if (link_delay_ps <= 0) {
    throw std::invalid_argument(
        "Topology link delay must be positive (it is the sync lookahead)");
  }
  if (crosspoint_capacity == 0) {
    throw std::invalid_argument("Topology crosspoint capacity must be >= 1");
  }
  // Every module's destination /16 slice must sit below 2^32: a slice base
  // that wraps would alias another address range and its traffic would land
  // silently in `unrouted`.
  const std::uint64_t base = traffic_prototype.dst_base.value();
  if (modules > (std::uint64_t{1} << 16) ||
      base + (std::uint64_t{modules} << 16) > (std::uint64_t{1} << 32)) {
    throw std::invalid_argument(
        "Topology module count overflows the IPv4 destination slices");
  }
}

std::size_t Topology::target_of(std::size_t module) const {
  if (targets.empty()) return (module + 1) % modules;
  return targets.at(module);
}

net::Ipv4Address Topology::slice_base(std::size_t module) const {
  return net::Ipv4Address{traffic_prototype.dst_base.value() +
                          (static_cast<std::uint32_t>(module) << 16)};
}

TrafficSpec Topology::traffic_for(std::size_t module) const {
  // Same derivation discipline as the flow-sharded testbed: stream-hashed
  // seed, disjoint source-flow slice per module...
  TrafficSpec spec = ParallelTestbed::shard_spec(traffic_prototype, base_seed,
                                                 module, /*direction=*/0);
  // ...then point the destinations at the target module's /16 slice, which
  // is exactly what the crossbar routes on.
  spec.dst_base = slice_base(target_of(module));
  return spec;
}

sim::FaultSpec Topology::link_fault_for(std::size_t module) const {
  return ParallelTestbed::shard_fault_spec(*link_faults,
                                           base_seed ^ kFabricFaultSalt,
                                           module, /*direction=*/0);
}

int Topology::route(const net::Packet& packet) const {
  const auto eth = net::EthernetHeader::parse(packet.data(), 0);
  if (!eth) return -1;
  const auto ip =
      net::Ipv4Header::parse(packet.data(), net::EthernetHeader::size());
  if (!ip) return -1;
  const std::uint32_t dst = ip->dst.value();
  const std::uint32_t base = traffic_prototype.dst_base.value();
  if (dst < base) return -1;
  const std::uint32_t slice = (dst - base) >> 16;
  if (slice >= modules) return -1;
  return static_cast<int>(slice);
}

}  // namespace flexsfp::fabric
