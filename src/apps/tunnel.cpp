#include "apps/tunnel.hpp"

#include "hw/resource_model.hpp"
#include "net/builder.hpp"

namespace flexsfp::apps {

net::Bytes TunnelConfig::serialize() const {
  net::Bytes out(2 + 4 + 4 + 4 + 6 + 6);
  out[0] = static_cast<std::uint8_t>(type);
  out[1] = static_cast<std::uint8_t>(role);
  net::write_be32(out, 2, local.value());
  net::write_be32(out, 6, remote.value());
  net::write_be32(out, 10, vni);
  for (std::size_t i = 0; i < 6; ++i) out[14 + i] = outer_dst.octets()[i];
  for (std::size_t i = 0; i < 6; ++i) out[20 + i] = outer_src.octets()[i];
  return out;
}

std::optional<TunnelConfig> TunnelConfig::parse(net::BytesView data) {
  if (data.size() < 26 || data[0] > 2 || data[1] > 1) return std::nullopt;
  TunnelConfig config;
  config.type = static_cast<TunnelType>(data[0]);
  config.role = static_cast<TunnelRole>(data[1]);
  config.local = net::Ipv4Address{net::read_be32(data, 2)};
  config.remote = net::Ipv4Address{net::read_be32(data, 6)};
  config.vni = net::read_be32(data, 10);
  std::array<std::uint8_t, 6> mac{};
  for (std::size_t i = 0; i < 6; ++i) mac[i] = data[14 + i];
  config.outer_dst = net::MacAddress{mac};
  for (std::size_t i = 0; i < 6; ++i) mac[i] = data[20 + i];
  config.outer_src = net::MacAddress{mac};
  return config;
}

TunnelApp::TunnelApp(TunnelConfig config)
    : config_(config), stats_("tunnel_stats", 2) {}

ppe::Verdict TunnelApp::process(ppe::PacketContext& ctx) {
  bool transformed = false;
  if (config_.role == TunnelRole::encap) {
    switch (config_.type) {
      case TunnelType::gre:
        transformed =
            net::encapsulate_gre(ctx.bytes(), config_.local, config_.remote);
        break;
      case TunnelType::vxlan:
        transformed = net::encapsulate_vxlan(
            ctx.bytes(), config_.outer_dst, config_.outer_src, config_.local,
            config_.remote, config_.vni);
        break;
      case TunnelType::ipip:
        transformed =
            net::encapsulate_ipip(ctx.bytes(), config_.local, config_.remote);
        break;
    }
  } else {
    transformed = net::decapsulate(ctx.bytes());
  }
  if (transformed) ctx.invalidate_parse();
  stats_.add(transformed ? 0 : 1, ctx.packet().size());
  return ppe::Verdict::forward;
}

hw::ResourceUsage TunnelApp::resource_usage(
    const hw::DatapathConfig& datapath) const {
  using RM = hw::ResourceModel;
  const std::uint32_t w = datapath.width_bits;
  const std::size_t shim = config_.type == TunnelType::vxlan
                               ? 50   // eth + ipv4 + udp + vxlan
                               : 24;  // ipv4 + gre
  hw::ResourceUsage usage;
  usage += RM::parser(38, w);
  usage += RM::header_shift_unit(shim, w);
  usage += RM::checksum_patch_unit();  // outer header checksum generation
  usage += RM::deparser(w);
  usage += RM::csr_block(12);
  usage += RM::stream_fifo(128, 72);
  usage += RM::stream_fifo(128, 72);
  usage += RM::control_fsm(10, w);
  return usage;
}

std::vector<ppe::CounterSnapshot> TunnelApp::counters() const {
  return stats_.snapshot();
}

ppe::StageProfile TunnelApp::profile() const {
  using ppe::HeaderKind;
  ppe::StageProfile profile;
  profile.stage = name();
  profile.reads = ppe::header_set({HeaderKind::ethernet, HeaderKind::ipv4});
  ppe::HeaderSet shim = 0;
  switch (config_.type) {
    case TunnelType::gre:
      shim = ppe::header_bit(HeaderKind::gre);
      break;
    case TunnelType::vxlan:
      shim = ppe::header_set({HeaderKind::udp, HeaderKind::vxlan});
      break;
    case TunnelType::ipip:
      shim = ppe::header_bit(HeaderKind::ipv4);
      break;
  }
  if (config_.role == TunnelRole::encap) {
    profile.writes = ppe::header_set({HeaderKind::ethernet, HeaderKind::ipv4});
    profile.produces = shim;
  } else {
    profile.reads |= shim;
    profile.consumes = shim & ~ppe::header_bit(HeaderKind::ipv4);
  }
  // Shim insertion/removal realigns the whole stream behind the header.
  profile.match_action_cycles = 2;
  profile.counter_banks.push_back({"tunnel_stats", stats_.size(), 1});
  profile.pipeline_depth_cycles = pipeline_latency_cycles();
  return profile;
}

}  // namespace flexsfp::apps
