#include "sfp/shell.hpp"

#include "hw/resource_model.hpp"
#include "net/headers.hpp"

namespace flexsfp::sfp {

void set_egress_hint(net::Packet& packet, int port) {
  packet.set_user_metadata(kEgressHintTag |
                           std::uint64_t(std::uint8_t(port)));
}

void clear_egress_hint(net::Packet& packet) {
  if ((packet.user_metadata() & kEgressHintTagMask) == kEgressHintTag) {
    packet.set_user_metadata(0);
  }
}

std::optional<int> egress_hint(const net::Packet& packet) {
  const std::uint64_t v = packet.user_metadata();
  if ((v & kEgressHintTagMask) != kEgressHintTag) return std::nullopt;
  return static_cast<int>(v & 0xFFull);
}

std::string to_string(ShellKind kind) {
  switch (kind) {
    case ShellKind::one_way_filter: return "One-Way-Filter";
    case ShellKind::two_way_core: return "Two-Way-Core";
    case ShellKind::active_cp: return "Active-CP";
  }
  return "shell(?)";
}

ArchitectureShell::ArchitectureShell(sim::Simulation& sim, ppe::PpeAppPtr app,
                                     ShellConfig config)
    : sim_(sim),
      config_(config),
      name_(sim.metrics().unique_name("shell")),
      ingress_meters_{
          sim::TrafficMeter(sim.metrics(), "shell.ingress",
                            {{"port", "0"}, {"shell", name_}}),
          sim::TrafficMeter(sim.metrics(), "shell.ingress",
                            {{"port", "1"}, {"shell", name_}})} {
  control_punts_id_ =
      sim_.metrics().counter("shell.control_punts", {{"shell", name_}});
  degraded_forwards_id_ =
      sim_.metrics().counter("shell.degraded_forwards", {{"shell", name_}});
  degraded_gauge_id_ =
      sim_.metrics().gauge("shell.degraded", {{"shell", name_}});
  egress_hints_id_ =
      sim_.metrics().counter("shell.egress_hints", {{"shell", name_}});
  flight_stage_ = sim_.flight().register_stage(name_);
  engine_ = std::make_unique<ppe::Engine>(sim, std::move(app),
                                          config.datapath,
                                          config.ppe_queue_capacity);
  for (std::size_t port = 0; port < 2; ++port) {
    // The arbiter folds the egress MAC/PCS latency into its departure
    // event and hands the packet straight to the port's egress handler.
    arbiters_[port] = std::make_unique<EgressArbiter>(
        sim, config.line_rate, config.arbiter_queue_capacity,
        config.interface_latency_ps);
    arbiters_[port]->set_output([this, port](net::PacketPtr packet) {
      if (egress_handlers_[port]) egress_handlers_[port](std::move(packet));
    });
  }

  // Forwarded packets leave on the opposite interface from where they
  // entered — unless an egress hint pins the interface (multi-port fabric
  // glue, hairpin forwarding); for the one-way shell the fallback is always
  // the configured egress. The engine calls this at the verdict; the
  // arbiter admits the packet as of the slot its pipeline drain ends at.
  engine_->set_forward_handler([this](net::PacketPtr packet, sim::Slot slot) {
    const int fallback =
        packet->ingress_port() == edge_port ? optical_port : edge_port;
    const int egress = resolve_egress(*packet, fallback);
    arbiters_[static_cast<std::size_t>(egress)]->admit(std::move(packet),
                                                       slot);
  });
  engine_->set_control_handler(
      [this](net::PacketPtr packet) { punt_to_control(std::move(packet)); });
}

int ArchitectureShell::resolve_egress(const net::Packet& packet,
                                      int fallback) {
  const auto hint = egress_hint(packet);
  if (!hint || (*hint != edge_port && *hint != optical_port)) return fallback;
  sim_.metrics().add(egress_hints_id_);
  return *hint;
}

bool ArchitectureShell::terminates_locally(const net::Packet& packet) const {
  if (config_.kind != ShellKind::active_cp) return false;
  const auto eth = net::EthernetHeader::parse(packet.data(), 0);
  return eth && eth->dst == config_.module_mac;
}

void ArchitectureShell::inject(int port, net::PacketPtr packet) {
  packet->set_ingress_port(port);
  packet->set_ingress_time_ps(sim_.now());
  ingress_meters_[static_cast<std::size_t>(port)].record(packet->size());
  if (sim_.flight().sampled(packet->id())) {
    sim_.flight().record(packet->id(), flight_stage_, obs::HopKind::ingress,
                         sim_.now(), 0, std::uint64_t(port));
  }

  // The MAC/PCS pipeline delays the frame before the demux sees it.
  sim_.schedule_in(config_.interface_latency_ps, [this, port,
                                                  token = lifetime_.token(),
                                                  packet =
                                                      std::move(packet)]() mutable {
    if (!token.alive()) return;  // shell torn down while the frame crossed

    // Demux step of Figure 1: management frames (and, for ActiveCp, frames
    // addressed to the module) go to the control plane.
    if (is_mgmt_frame(*packet) || terminates_locally(*packet)) {
      punt_to_control(std::move(packet));
      return;
    }

    // Degraded passthrough: the PPE is faulted or mid-failed-reconfig, so
    // the shell behaves like a standard SFP — straight wire to the opposite
    // interface. Mgmt frames were already punted above, so the control
    // plane can still quarantine/redeploy this module.
    if (degraded_) {
      sim_.metrics().add(degraded_forwards_id_);
      if (sim_.flight().sampled(packet->id())) {
        sim_.flight().record(packet->id(), flight_stage_,
                             obs::HopKind::degraded, sim_.now(), 0,
                             std::uint64_t(port));
      }
      const int egress =
          resolve_egress(*packet, port == edge_port ? optical_port : edge_port);
      arbiters_[static_cast<std::size_t>(egress)]->handle_packet(
          std::move(packet));
      return;
    }

    switch (config_.kind) {
      case ShellKind::one_way_filter: {
        const bool processed_direction =
            (config_.direction == PpeDirection::edge_to_optical &&
             port == edge_port) ||
            (config_.direction == PpeDirection::optical_to_edge &&
             port == optical_port);
        if (processed_direction) {
          engine_->handle_packet(std::move(packet));
        } else {
          // Reverse path: straight to the egress arbiter, merging with any
          // control-plane traffic (Figure 1a's aggregation).
          const int egress = resolve_egress(
              *packet, port == edge_port ? optical_port : edge_port);
          arbiters_[static_cast<std::size_t>(egress)]->handle_packet(
              std::move(packet));
        }
        break;
      }
      case ShellKind::two_way_core:
      case ShellKind::active_cp:
        // Aggregation step of Figure 1b: both directions share the PPE.
        engine_->handle_packet(std::move(packet));
        break;
    }
  });
}

void ArchitectureShell::set_egress_handler(
    int port, std::function<void(net::PacketPtr)> handler) {
  egress_handlers_.at(static_cast<std::size_t>(port)) = std::move(handler);
}

void ArchitectureShell::set_degraded(bool degraded) {
  degraded_ = degraded;
  sim_.metrics().set(degraded_gauge_id_, degraded ? 1 : 0);
}

void ArchitectureShell::send_from_control(int port, net::PacketPtr packet) {
  arbiters_.at(static_cast<std::size_t>(port))->handle_packet(std::move(packet));
}

void ArchitectureShell::punt_to_control(net::PacketPtr packet) {
  sim_.metrics().add(control_punts_id_);
  if (sim_.flight().sampled(packet->id())) {
    sim_.flight().record(packet->id(), flight_stage_, obs::HopKind::punt,
                         sim_.now());
  }
  if (control_rx_) control_rx_(std::move(packet));
}

hw::ResourceUsage ArchitectureShell::shell_overhead_resources() const {
  using RM = hw::ResourceModel;
  const std::uint32_t w = config_.datapath.width_bits;
  hw::ResourceUsage usage;
  // Ingress demux (ethertype compare + steering) per interface.
  usage += RM::control_fsm(4, w);
  usage += RM::control_fsm(4, w);
  // Egress arbiters with their merge FIFOs.
  usage += RM::stream_fifo(64, 72);
  usage += RM::stream_fifo(64, 72);
  usage += RM::control_fsm(6, w);
  usage += RM::control_fsm(6, w);
  if (config_.kind != ShellKind::one_way_filter) {
    // Aggregator in front of the shared PPE plus the post-PPE demux — the
    // sub-linear extra hardware of the Two-Way-Core.
    usage += RM::stream_fifo(128, 72);
    usage += RM::control_fsm(8, w);
  }
  return usage;
}

}  // namespace flexsfp::sfp
